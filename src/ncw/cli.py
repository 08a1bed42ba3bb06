"""Command-line interface.

    ncw <command> --input <file> [flags]

Commands: validate, connection, curvature, solve, brackets, classify,
extend, gauge.  Exit codes: 0 success (and verdict true for check
commands), 1 verdict false, 2 refused input, the arguments included, with
one line on stderr.  Reports go to stdout as text or as schema-versioned
JSON with --format json.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path

from .dsl import (
    MAX_EXPONENT,
    BuiltStructure,
    build_structure,
    parse_expression,
    parse_field,
    parse_one_form,
    parse_structure,
)
from .extensions import extend
from .gauge import GaugeElement, infinitesimal_gauge, nc_projection_invariance_check
from .poly import Poly
from .report import (
    Report,
    basis_payload,
    constants_payload,
    emit_report,
    field_components,
    generator_label,
    index_entries,
)
from .solver import classify, solve_symmetries, structure_constants
from .structures import StructureError
from .tensors import check_newtonian, curvature


class VerdictFalse(Exception):
    """Raised by command handlers when a check command's verdict is false."""


def _parse_point(text: str, dimension: int) -> list:
    limit = sys.get_int_max_str_digits()
    if max(map(len, re.findall(r"[0-9]+", text)), default=0) > limit:
        raise StructureError(f"bad sample point: a number exceeds the limit {limit} digits")
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != dimension:
        raise StructureError(
            f"sample point needs {dimension} comma-separated rationals, got {len(parts)}"
        )
    # Fraction also reads Unicode digits, underscores, decimals and exponents
    for p in parts:
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", p):
            raise StructureError(
                f"bad sample point {text!r}: {p!r} is not an ASCII integer or p/q"
            )
    try:
        return [Fraction(p) for p in parts]
    except ZeroDivisionError:
        raise StructureError(f"bad sample point {text!r}: zero denominator") from None


def _structure_summary(built: BuiltStructure) -> dict:
    doc = built.doc
    out = {"n": doc.n}
    if doc.name:
        out["name"] = doc.name
    if doc.preset:
        out["preset"] = doc.preset
    if doc.phi is not None:
        out["phi"] = str(doc.potential)
    out["shape"] = doc.data_shape()
    return out


def _require_ncb(built: BuiltStructure, command: str):
    if built.ncb is None:
        raise StructureError(
            f"{command} needs gauge or observer data (or a preset); explicit "
            "connection documents do not determine a unit field"
        )
    return built.ncb


def cmd_validate(built: BuiltStructure, args, report: Report) -> None:
    points = [_parse_point(p, built.base.dimension) for p in args.sample_point]
    checks = report.results["checks"] = []
    for name, check in built.checks(points):
        try:
            check()
            checks.append({"name": name, "passed": True})
        except StructureError as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})
    report.results["passed"] = all(c["passed"] for c in checks)
    if not report.results["passed"]:
        raise VerdictFalse


def cmd_connection(built: BuiltStructure, args, report: Report) -> None:
    ncb = _require_ncb(built, "connection")
    conn = ncb.induced_connection()
    report.results["geodesic_part"] = index_entries(ncb.geodesic_part)
    report.results["force_form"] = index_entries(ncb.force)
    report.results["components"] = index_entries(conn)


def cmd_curvature(built: BuiltStructure, args, report: Report) -> None:
    r = curvature(built.nc.connection)
    ok, witness = check_newtonian(r, built.nc.base.gamma)
    report.results["nonzero"] = index_entries(r)
    report.results["newtonian"] = ok
    report.results["witness"] = list(witness) if witness else None
    if not ok:
        raise VerdictFalse


def cmd_solve(built: BuiltStructure, args, report: Report) -> None:
    basis = solve_symmetries(built.nc, args.flavor, args.degree)
    report.flags["flavor"] = basis.flavor
    report.flags["degree"] = args.degree
    report.results.update(basis_payload(basis))


def cmd_brackets(built: BuiltStructure, args, report: Report) -> None:
    basis = solve_symmetries(built.nc, args.flavor, args.degree)
    constants, closed = structure_constants(basis)
    report.flags["flavor"] = basis.flavor
    report.flags["degree"] = args.degree
    report.results["dimension"] = basis.dimension
    report.results["labels"] = [generator_label(f) for f in basis.fields]
    report.results["closed"] = closed
    report.results["structure_constants"] = constants_payload(constants)


def cmd_classify(built: BuiltStructure, args, report: Report) -> None:
    x = parse_field(args.field, built.nc.base.dimension)
    flags = classify(x, built.nc)
    report.flags["field"] = field_components(x)
    report.results["is_coriolis"] = flags.is_coriolis
    report.results["is_milne"] = flags.is_milne
    report.results["is_galilei"] = flags.is_galilei
    if flags.is_coriolis:
        report.results["raised_transport_identity"] = flags.raised_transport_identity()


def cmd_extend(built: BuiltStructure, args, report: Report) -> None:
    ext = extend(_require_ncb(built, "extend"), args.flavor, args.degree)
    flavor = ext.basis.flavor
    report.flags["flavor"] = flavor
    report.flags["degree"] = args.degree
    report.results.update(basis_payload(ext.basis))
    if flavor == "coriolis":
        report.results["boost_forms"] = [field_components(psi) for psi in ext.parameters]
        report.results["bracket_table"] = [
            {"x": field_components(e.x), "parameter": str(e.f)} for e in ext.brackets.values()
        ]
        report.results["extension"] = "semidirect by scalar functions"
    elif flavor == "milne":
        report.results["parameter_splits"] = [
            {"f": "0" if f is None else str(f), "solvable": f is not None}
            for f in ext.parameters
        ]
        report.results["bracket_table"] = [
            {"pair": list(pair), "x": field_components(e.x), "parameter": str(e.f)}
            for pair, e in ext.brackets.items()
        ]
        report.results["noncentral"] = ext.witness is not None
        if ext.witness:
            report.results["noncentrality_witness"] = {
                "basis_index": ext.witness[0],
                "parameter_output": str(ext.witness[1]),
            }
        report.results["extension"] = (
            "non-central by time functions" if ext.witness else "central"
        )
    else:
        report.results["parameter_solves"] = [
            {"f": "0" if f is None else str(f), "consistent": f is not None}
            for f in ext.parameters
        ]
        report.results["cocycle"] = [[str(v) for v in row] for row in ext.cocycle]
        result = ext.triviality
        report.results["central_extension"] = "TRIVIAL" if result.trivial else "NONTRIVIAL"
        if result.trivial:
            report.results["coboundary_witness"] = [str(v) for v in result.witness]
        else:
            report.results["inconsistency_certificate"] = {
                "pairs": [list(p) for p in result.pairs],
                "combination": [str(v) for v in result.certificate],
            }


def cmd_gauge(built: BuiltStructure, args, report: Report) -> None:
    ncb = _require_ncb(built, "gauge")
    dim = ncb.base.dimension
    x = parse_field(args.x, dim)
    psi = parse_one_form(args.psi, dim)
    f = parse_expression(args.f, dim) if args.f else Poly.zero(dim)
    variation = infinitesimal_gauge(ncb, GaugeElement(x, psi, f))
    report.flags["x"] = field_components(x)
    report.flags["psi"] = field_components(psi)
    report.flags["f"] = str(f)
    report.results["variation"] = {
        "gamma": field_components(variation.d_gamma),
        "theta": field_components(variation.d_theta),
        "U": field_components(variation.d_u),
        "V": field_components(variation.d_v),
        "phi": str(variation.d_phi),
    }
    invariant = nc_projection_invariance_check(ncb, psi, f)
    report.results["nc_projection_invariant"] = invariant
    if not invariant:
        raise VerdictFalse


COMMANDS = {
    "validate": cmd_validate,
    "connection": cmd_connection,
    "curvature": cmd_curvature,
    "solve": cmd_solve,
    "brackets": cmd_brackets,
    "classify": cmd_classify,
    "extend": cmd_extend,
    "gauge": cmd_gauge,
}


def _degree(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"degree bound {text!r} is not an ASCII integer")
    if len(text.lstrip("-")) > (limit := sys.get_int_max_str_digits()):
        raise argparse.ArgumentTypeError(f"degree bound exceeds the limit {limit} digits")
    value = int(text)
    if not 0 <= value <= 12:
        raise argparse.ArgumentTypeError("degree bound must be in 0..12")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # for main to report, not usage and exit
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ncw",
        description="Exact workbench for Newton-Cartan structures and their "
        "Galilean symmetry algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="structure file")
        p.add_argument(
            "--format",
            choices=["text", "json"],
            default="text",
            help="report format (default text)",
        )

    val = sub.add_parser("validate", help="check structure invariants")
    common(val)
    val.add_argument(
        "--sample-point",
        action="append",
        default=[],
        metavar="t,x1,..",
        help="extra rational point for the rank/positivity checks "
        "(repeatable; spell negatives as --sample-point=-1,0)",
    )
    common(sub.add_parser("connection", help="build the induced connection"))
    common(sub.add_parser("curvature", help="curvature and its symmetry check"))

    solve_p = sub.add_parser("solve", help="solve a symmetry algebra")
    common(solve_p)
    solve_p.add_argument("--flavor", required=True, help="cor | mil | gal")
    solve_p.add_argument("--degree", type=_degree, required=True)

    br = sub.add_parser("brackets", help="structure constants of a solved basis")
    common(br)
    br.add_argument("--flavor", required=True)
    br.add_argument("--degree", type=_degree, required=True)

    cl = sub.add_parser("classify", help="flavor membership of a field")
    common(cl)
    cl.add_argument(
        "--field", required=True, help="component assignments, e.g. 'X[1] = t^2'"
    )

    ex = sub.add_parser("extend", help="extended algebra, brackets, cocycle verdict")
    common(ex)
    ex.add_argument("--flavor", required=True)
    ex.add_argument("--degree", type=_degree, default=1)

    ga = sub.add_parser("gauge", help="infinitesimal variation and invariance check")
    common(ga)
    ga.add_argument("--x", default="", help="vector field, e.g. 'X[1] = t'")
    ga.add_argument("--psi", default="", help="boost 1-form, e.g. 'psi[1] = 1'")
    ga.add_argument("--f", default="", help="scalar gauge expression")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse drops an option value spelled "--" and stores an empty list
        for token in argv:
            option, eq, value = token.partition("=")
            if token.startswith("--") and eq and value == "--":
                raise ValueError(f"argument {option}: '--' is not a value")
        args = build_parser().parse_args(argv)
        doc = parse_structure(Path(args.input).read_text(encoding="utf-8"))
        report = Report(command=args.command)
        # check commands report invariant violations as verdicts, not refusals
        built = build_structure(doc, validate=args.command not in ("validate", "curvature"))
        report.structure = _structure_summary(built)
        try:
            COMMANDS[args.command](built, args, report)
            code = 0
        except VerdictFalse:
            code = 1
        rendered = _render(report, args.format == "json")
    except (OSError, ValueError) as exc:
        # every refused input, argparse's usage errors and undecodable files
        # too, and a number Python will not print past its int-string limit
        message = str(exc)
        if type(exc) is ValueError and message.startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            message = f"report number exceeds the limit {limit} digits; it would not parse again"
        print(f"input error: {message}", file=sys.stderr)
        return 2
    print(rendered, end="")
    return code


def _render(report: Report, structured: bool) -> str:
    """The report, refused when an expression in it has an exponent above
    MAX_EXPONENT, which would not parse again."""
    rendered = emit_report(report, structured)
    exponent = max(map(int, re.findall(r"\^(\d+)", rendered)), default=0)
    if exponent > MAX_EXPONENT:
        raise ValueError(
            f"report exponent {exponent} exceeds the limit {MAX_EXPONENT}; "
            "it would not parse again"
        )
    return rendered


if __name__ == "__main__":
    sys.exit(main())
