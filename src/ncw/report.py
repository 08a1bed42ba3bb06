"""Report assembly and emission.

Structured reports are schema-versioned JSON with sorted keys, so identical
inputs produce byte-identical output.  Text reports carry the same content
in a human-readable layout.  All numbers are exact rationals rendered as
strings; polynomial values use the same grammar the parser accepts, so
report contents re-parse to identical objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Any

from .poly import Poly
from .solver import SymmetryBasis, _time_poly, _time_terms
from .tensors import Connection, CurvatureField, TensorField

SCHEMA = "ncw-report/1"


@dataclass
class Report:
    command: str
    flags: dict[str, Any] = field(default_factory=dict)
    structure: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)


def emit_report(report: Report, structured: bool) -> str:
    """The report as sorted, indented JSON, or as its text layout."""
    if structured:
        payload = {
            "schema": SCHEMA,
            "command": report.command,
            "flags": report.flags,
            "structure": report.structure,
            "results": report.results,
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = [f"command: {report.command}"]
    lines += [f"  {key}: {value}" for key, value in sorted(report.flags.items())]
    if report.structure:
        lines.append("structure:")
        lines += [f"  {key}: {value}" for key, value in sorted(report.structure.items())]
    lines.append("results:")
    lines += _text_block(report.results, indent=2)
    return "\n".join(lines) + "\n"


def _text_block(value: dict | list, indent: int) -> list[str]:
    """The lines of a dict, by sorted key, or of a list, each nested dict
    or list below its own line, indented two more."""
    pad = " " * indent
    if isinstance(value, dict):
        entries = [(f"{key}:", value[key]) for key in sorted(value)]
    else:
        entries = [("-", item) for item in value]
    out: list[str] = []
    for head, sub in entries:
        if isinstance(sub, (dict, list)):
            out.append(f"{pad}{head}")
            out.extend(_text_block(sub, indent + 2))
        else:
            out.append(f"{pad}{head} {sub}")
    return out


# ----------------------------------------------------------------------
# renderers for domain objects

def field_components(t: TensorField) -> list[str]:
    """Every component, zeros too, in index order."""
    return [str(t.comp(*idx)) for idx in product(range(t.dimension), repeat=t.rank)]


def index_entries(field: TensorField | Connection | CurvatureField) -> list[dict[str, Any]]:
    """The nonzero entries of a field, in index order."""
    return [{"index": list(idx), "value": str(v)} for idx, v in sorted(field.nonzero.items())]


def generator_label(x: TensorField) -> str:
    """Best-effort template tag for a symmetry field; raw on no fit.

    Read off the one-walk template reading: an affine field, constant omega
    and rho = beta t + sigma, is tagged from its scalars, and only another
    builds Polys of t."""
    read = _time_terms(x)
    if read is None:
        return "raw"
    tau, omega, rho = read
    # the reader keeps only nonzero dicts and coefficients, so no part is zero
    rotations = [(f"rotation[{a},{b}]", w) for (a, b), w in sorted(omega.items()) if a < b]
    rhos = sorted(rho.items())
    if all(w.keys() <= {0} for _, w in rotations) and all(r.keys() <= {0, 1} for _, r in rhos):
        parts = [(tag, w[0]) for tag, w in rotations]
        parts += [(f"boost[{i}]", r[1]) for i, r in rhos if 1 in r]
        parts += [(f"translation[{i}]", r[0]) for i, r in rhos if 0 in r]
    else:
        dim = x.dimension
        parts = [(tag, _time_poly(dim, w)) for tag, w in rotations]
        parts += [(f"translation[{i}]", _time_poly(dim, r)) for i, r in rhos]
    if tau:
        parts.append(("time-translation", tau))
    return " + ".join(_part(tag, v) for tag, v in parts) or "zero"


def _part(tag: str, coeff: Poly | Fraction | int) -> str:
    """tag times its nonzero coefficient; a time function is parenthesized."""
    if coeff == 1:
        return tag
    return f"{tag}*({coeff})" if isinstance(coeff, Poly) else f"{tag}*{coeff}"


def basis_payload(basis: SymmetryBasis) -> dict[str, Any]:
    return {
        "flavor": basis.flavor,
        "degree": basis.degree,
        "dimension": basis.dimension,
        "basis": [
            {"components": field_components(f), "label": generator_label(f)}
            for f in basis.fields
        ],
    }


def constants_payload(constants: list[list[list[Fraction]]]) -> list:
    return [
        [[str(v) for v in row] for row in plane] for plane in constants
    ]
