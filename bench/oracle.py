"""Answer checks that share no code with ncw.

Geometry is recomputed with sympy's sparse polynomial rings from the
structure the benchmark wrote: the metric pair (gamma, theta), and the
connection from the paper's closed form for presets (G_00^A = d_A phi), from
the file for explicit connection data, and, for gauge data, from ncw's own
``connection`` report once sympy has checked that it is torsion-free and
parallelizes gamma and theta.  Certificates are checked in plain
``Fraction`` arithmetic.  ``check_job`` returns a list of problems; an
empty list means the job's answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from sympy import QQ, Symbol, sympify
from sympy.polys.rings import ring

FLAVORS = {"cor": "coriolis", "mil": "milne", "gal": "galilei"}


class OracleError(Exception):
    """The oracle could not even set up the reference geometry."""


@lru_cache(maxsize=None)
def _ring(dim: int):
    names = ["t"] + [f"x{i}" for i in range(1, dim)]
    r, *gens = ring(",".join(names), QQ)
    return r, tuple(gens), {name: Symbol(name) for name in names}


@lru_cache(maxsize=100_000)
def parse(text: str, dim: int):
    """An ncw polynomial string as an element of QQ[t, x1..xn]."""
    r, _, symbols = _ring(dim)
    return r.from_expr(sympify(text.replace("^", "**"), locals=symbols))


def _flavor_of(argv: list[str]) -> str:
    return FLAVORS.get(argv[argv.index("--flavor") + 1], "")


def _degree_of(argv: list[str]) -> int:
    return int(argv[argv.index("--degree") + 1])


# ----------------------------------------------------------------------
# reference geometry

class Geometry:
    """gamma^{ab}, theta_a, U^a, A_a and G_ab^c of one structure."""

    def __init__(self, structure: dict, connection_report: dict | None = None):
        n = structure["n"]
        self.dim = dim = n + 1
        self.r, self.x, _ = _ring(dim)
        zero = self.r.zero
        one = self.r.one
        kind = structure["kind"]
        self.gamma = [[zero] * dim for _ in range(dim)]
        if kind == "sheared":
            for key, text in structure["gamma"].items():
                a, b = map(int, key.split(","))
                self.gamma[a][b] = self.p(text)
        else:
            for a in range(1, dim):
                self.gamma[a][a] = one
        self.theta = [one] + [zero] * n
        self.u = [one] + [zero] * n
        self.a_form = [zero] * dim
        conn = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        if kind == "standard":
            phi = self.p(structure["phi"])
            self.a_form[0] = -phi
            for a in range(1, dim):
                conn[0][0][a] = phi.diff(self.x[a])
        elif kind == "sheared":
            for key, text in structure["A"].items():
                self.a_form[int(key)] = self.p(text)
            if connection_report is None:
                raise OracleError("gauge-data structure needs ncw's connection report")
            for entry in connection_report["results"]["components"]:
                a, b, c = entry["index"]
                conn[a][b][c] = self.p(entry["value"])
        elif kind == "rotating":
            for key, text in structure["Gamma"].items():
                a, b, c = map(int, key.split(","))
                conn[a][b][c] = self.p(text)
        self.conn = conn
        if kind == "sheared":
            problems = self.connection_defects()
            if problems:
                raise OracleError("reported connection rejected: " + problems[0])

    def p(self, text: str):
        return parse(text, self.dim)

    def d(self, f, k: int):
        return f.diff(self.x[k])

    def connection_defects(self) -> list[str]:
        """Torsion, and failure to parallelize gamma or theta."""
        dim, g, gam, th = self.dim, self.conn, self.gamma, self.theta
        out = []
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    if g[a][b][c] != g[b][a][c]:
                        out.append(f"torsion at {(a, b, c)}")
        for c in range(dim):
            for a in range(dim):
                for b in range(dim):
                    v = self.d(gam[a][b], c) + sum(
                        (g[c][k][a] * gam[k][b] + g[c][k][b] * gam[a][k] for k in range(dim)),
                        self.r.zero,
                    )
                    if v:
                        out.append(f"nabla gamma nonzero at {(c, a, b)}")
                w = self.d(th[a], c) - sum((g[c][a][k] * th[k] for k in range(dim)), self.r.zero)
                if w:
                    out.append(f"nabla theta nonzero at {(c, a)}")
        return out

    # ------------------------------------------------------------------
    # differential operators, written out from their definitions

    def partials(self, x):
        """dx[a][k] = d_k X^a."""
        return [[self.d(x[a], k) for k in range(self.dim)] for a in range(self.dim)]

    def directional(self, x, f):
        if not f:
            return self.r.zero
        return sum((x[k] * self.d(f, k) for k in range(self.dim) if x[k]), self.r.zero)

    def bracket(self, x, y):
        return [self.directional(x, y[a]) - self.directional(y, x[a]) for a in range(self.dim)]

    def lie_gamma(self, x, dx):
        dim, gam = self.dim, self.gamma
        return [
            [
                self.directional(x, gam[a][b])
                - sum(
                    (gam[k][b] * dx[a][k] + gam[a][k] * dx[b][k] for k in range(dim)),
                    self.r.zero,
                )
                for b in range(dim)
            ]
            for a in range(dim)
        ]

    def lie_form(self, x, dx, w):
        return [
            self.directional(x, w[a]) + sum((w[k] * dx[k][a] for k in range(self.dim) if w[k]), self.r.zero)
            for a in range(self.dim)
        ]

    def lie_connection(self, x, dx):
        """(L_X G)[c][a][b] = X^k d_k G_ab^c + G_kb^c d_a X^k + G_ak^c d_b X^k
        - G_ab^k d_k X^c + d_a d_b X^c, upper index c first."""
        dim, g = self.dim, self.conn
        out = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
        for c in range(dim):
            for a in range(dim):
                for b in range(dim):
                    v = self.directional(x, g[a][b][c]) + self.d(dx[c][a], b)
                    for k in range(dim):
                        if g[k][b][c]:
                            v += g[k][b][c] * dx[k][a]
                        if g[a][k][c]:
                            v += g[a][k][c] * dx[k][b]
                        if g[a][b][k]:
                            v -= g[a][b][k] * dx[c][k]
                    out[c][a][b] = v
        return out

    def _raised_vanishes(self, ld, twice: bool) -> bool:
        """gamma^{bk} (L_X G)_ak^c = 0, or with both lower slots raised."""
        dim, gam = self.dim, self.gamma
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    if twice:
                        terms = (gam[a][k] * gam[b][l] * ld[c][k][l] for k in range(dim) for l in range(dim))
                    else:
                        terms = (gam[b][k] * ld[c][a][k] for k in range(dim))
                    if sum(terms, self.r.zero):
                        return False
        return True

    def membership(self, x, identity: bool = False):
        """(coriolis, milne, galilei) flags of x; with identity=True also
        whether the doubly-raised transport vanishes (None off coriolis)."""
        dx = self.partials(x)
        cor = all(not v for row in self.lie_gamma(x, dx) for v in row) and not any(
            self.lie_form(x, dx, self.theta)
        )
        if not cor:
            flags = (False, False, False)
            return flags + (None,) if identity else flags
        ld = self.lie_connection(x, dx)
        mil = self._raised_vanishes(ld, twice=False)
        gal = mil and all(not v for plane in ld for row in plane for v in row)
        if identity:
            return cor, mil, gal, self._raised_vanishes(ld, twice=True)
        return cor, mil, gal

    def curvature(self) -> dict[tuple[int, int, int, int], object]:
        """Nonzero R_abc^d = d_a G_bc^d - d_b G_ac^d + G_ak^d G_bc^k - G_bk^d G_ac^k."""
        dim, g = self.dim, self.conn
        out = {}
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    for d in range(dim):
                        v = self.d(g[b][c][d], a) - self.d(g[a][c][d], b)
                        for k in range(dim):
                            v += g[a][k][d] * g[b][c][k] - g[b][k][d] * g[a][c][k]
                        if v:
                            out[(a, b, c, d)] = v
        return out

    def raise_form(self, w):
        dim = self.dim
        return [sum((self.gamma[a][k] * w[k] for k in range(dim)), self.r.zero) for a in range(dim)]

    def pair(self, w, v):
        return sum((w[k] * v[k] for k in range(self.dim)), self.r.zero)

    def observer(self):
        """V = U - gamma(A), phi = gamma(A, A)/2 - A(U)."""
        raised = self.raise_form(self.a_form)
        v = [self.u[a] - raised[a] for a in range(self.dim)]
        phi = self.pair(self.a_form, raised) * QQ(1, 2) - self.pair(self.a_form, self.u)
        return v, phi

    def field(self, comps: list[str]):
        return [self.p(c) for c in comps]

    def assigned(self, comps: dict) -> list:
        out = [self.r.zero] * self.dim
        for k, text in comps.items():
            out[int(k)] = self.p(text)
        return out


# ----------------------------------------------------------------------
# exact linear algebra in plain Fractions

def _coefficients(fields: list[list]) -> list[dict]:
    """Each field as a sparse vector keyed by (component, monomial)."""
    return [
        {(a, m): Fraction(int(c.numerator), int(c.denominator)) for a, comp in enumerate(f) for m, c in comp.items()}
        for f in fields
    ]


def express(basis: list[dict], target: dict) -> list[Fraction] | None:
    """Coefficients c with sum c_i basis_i = target, or None when target is
    outside the span; the basis must be linearly independent."""
    k = len(basis)
    keys = sorted(set().union(target, *basis))
    rows = [[b.get(key, Fraction(0)) for b in basis] + [target.get(key, Fraction(0))] for key in keys]
    for c in range(k):
        p = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            raise ValueError("basis is linearly dependent")
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return [rows[i][k] for i in range(k)]


def structure_constants(geo: Geometry, fields: list[list]) -> dict[tuple[int, int], list[Fraction] | None]:
    """[X_i, X_j] in the basis for every pair i < j (None: not in the span)."""
    vectors = _coefficients(fields)
    out = {}
    for i in range(len(fields)):
        for j in range(i + 1, len(fields)):
            target = _coefficients([geo.bracket(fields[i], fields[j])])[0]
            out[(i, j)] = express(vectors, target)
    return out


# ----------------------------------------------------------------------
# per-command checks

def flat_dimension(flavor: str, n: int, d: int) -> int:
    if flavor == "coriolis":
        return (n * (n - 1) // 2 + n) * (d + 1) + 1
    if flavor == "milne":
        return n * (n - 1) // 2 + n * (d + 1) + 1
    return (n + 1) * (n + 2) // 2


def _check_basis(geo: Geometry, structure: dict, argv: list[str], results: dict, problems: list) -> list[list]:
    flavor = _flavor_of(argv)
    fields = [geo.field(entry["components"]) for entry in results["basis"]]
    if results["dimension"] != len(fields):
        problems.append("dimension does not count the basis")
    if structure["kind"] == "flat":
        want = flat_dimension(flavor, structure["n"], _degree_of(argv))
        if len(fields) != want:
            problems.append(f"flat {flavor} dimension {len(fields)}, formula gives {want}")
    for i, x in enumerate(fields):
        cor, mil, gal = geo.membership(x)
        ok = {"coriolis": cor, "milne": mil, "galilei": gal}[flavor]
        if not ok:
            problems.append(f"generator {i} fails the {flavor} conditions")
    return fields


def _check_bracket_table(geo: Geometry, fields: list, table: list, problems: list) -> None:
    pairs = [(i, j) for i in range(len(fields)) for j in range(i + 1, len(fields))]
    if len(table) != len(pairs):
        problems.append("bracket table does not list every pair")
        return
    for (i, j), entry in zip(pairs, table):
        if entry.get("pair", [i, j]) != [i, j]:
            problems.append(f"bracket table out of order at {(i, j)}")
        if geo.field(entry["x"]) != geo.bracket(fields[i], fields[j]):
            problems.append(f"bracket table field for {(i, j)} is not [X_{i}, X_{j}]")


def _check_galilei_certificate(geo, structure, fields, results, problems) -> None:
    constants = structure_constants(geo, fields)
    cocycle = [[Fraction(v) for v in row] for row in results["cocycle"]]
    k = len(fields)
    if any(cocycle[i][j] != -cocycle[j][i] for i in range(k) for j in range(k)):
        problems.append("cocycle is not antisymmetric")
    if any(c is None for c in constants.values()):
        problems.append("basis does not close, yet a cocycle verdict was given")
        return
    verdict = results["central_extension"]
    if structure["kind"] == "flat" and verdict != "NONTRIVIAL":
        problems.append("flat Galilei extension reported trivial (Bargmann is not)")
    if verdict == "NONTRIVIAL":
        cert = results["inconsistency_certificate"]
        pairs = [tuple(p) for p in cert["pairs"]]
        y = [Fraction(v) for v in cert["combination"]]
        if len(y) != len(pairs):
            problems.append("certificate length does not match its pairs")
            return
        for m in range(k):
            if sum((yv * constants[p][m] for yv, p in zip(y, pairs)), Fraction(0)) != 0:
                problems.append(f"certificate: y.M != 0 in column {m}")
                break
        if sum((yv * cocycle[i][j] for yv, (i, j) in zip(y, pairs)), Fraction(0)) == 0:
            problems.append("certificate: y.b == 0")
    else:
        lam = [Fraction(v) for v in results["coboundary_witness"]]
        for (i, j), c in constants.items():
            if sum((c[m] * lam[m] for m in range(k)), Fraction(0)) != cocycle[i][j]:
                problems.append(f"coboundary witness fails at {(i, j)}")
                break


def _check_brackets(geo, structure, argv, results, basis_report, problems) -> None:
    if basis_report is None:
        problems.append("no basis to check the structure constants against")
        return
    fields = _check_basis(geo, structure, argv, basis_report["results"], problems)
    k = len(fields)
    if results["dimension"] != k:
        problems.append("brackets and solve disagree on the dimension")
        return
    reported = [[[Fraction(v) for v in row] for row in plane] for plane in results["structure_constants"]]
    closed = True
    for (i, j), c in structure_constants(geo, fields).items():
        if c is None:
            closed = False
            c = [Fraction(0)] * k
        if reported[i][j] != c or reported[j][i] != [-v for v in c]:
            problems.append(f"structure constants wrong for {(i, j)}")
            break
    if results["closed"] != closed:
        problems.append(f"closure flag {results['closed']}, oracle says {closed}")


def _check_inspect(geo, structure, command, job, results, problems) -> None:
    if command == "validate":
        if results["passed"] != (job["expect"] == 0):
            problems.append("validate verdict disagrees with the exit code")
        if structure["kind"] == "rotating":
            failed = [c["name"] for c in results["checks"] if not c["passed"]]
            if failed != ["connection-compatibility-and-symmetry"]:
                problems.append(f"rotating structure failed checks {failed}")
    elif command == "connection":
        got = {tuple(e["index"]): geo.p(e["value"]) for e in results["components"]}
        want = {
            (a, b, c): geo.conn[a][b][c]
            for a in range(geo.dim)
            for b in range(geo.dim)
            for c in range(geo.dim)
            if geo.conn[a][b][c]
        }
        if got != want:
            problems.append("connection components differ from the reference connection")
    elif command == "curvature":
        got = {tuple(e["index"]): geo.p(e["value"]) for e in results["nonzero"]}
        if got != geo.curvature():
            problems.append("curvature components differ from sympy's curvature")
        if results["newtonian"] != (job["expect"] == 0):
            problems.append("Newtonian verdict disagrees with the exit code")
    elif command == "classify":
        cor, mil, gal, twice = geo.membership(geo.assigned(job["extra"]["field"]), identity=True)
        got = (results["is_coriolis"], results["is_milne"], results["is_galilei"])
        if got != (cor, mil, gal):
            problems.append(f"classify flags {got}, oracle says {(cor, mil, gal)}")
        if cor and results.get("raised_transport_identity") != twice:
            problems.append("raised transport identity verdict is wrong")
    elif command == "gauge":
        extra = job["extra"]
        x = geo.assigned(extra["x"])
        psi = geo.assigned(extra["psi"])
        f = geo.p(extra["f"])
        v, phi = geo.observer()
        grad_f = [geo.d(f, k) for k in range(geo.dim)]
        raised_psi, raised_df = geo.raise_form(psi), geo.raise_form(grad_f)
        dx = geo.partials(x)
        lu, lv = geo.bracket(x, geo.u), geo.bracket(x, v)
        want = {
            "gamma": [c for row in geo.lie_gamma(x, dx) for c in row],
            "theta": geo.lie_form(x, dx, geo.theta),
            "U": [lu[a] + raised_psi[a] for a in range(geo.dim)],
            "V": [lv[a] + raised_df[a] for a in range(geo.dim)],
        }
        variation = results["variation"]
        for key, comps in want.items():
            if geo.field(variation[key]) != comps:
                problems.append(f"gauge variation of {key} is wrong")
        if geo.p(variation["phi"]) != geo.directional(x, phi) + geo.directional(v, f):
            problems.append("gauge variation of phi is wrong")
        if results["nc_projection_invariant"] is not True:
            problems.append("NC projection reported not invariant")


def check_job(job: dict, output: dict, aux: dict) -> list[str]:
    """Problems with one job's answer; [] when it is right.

    ``output`` is {"code", "stdout", "stderr"}; ``aux`` maps an auxiliary
    argv (joined by NUL) to the report it printed.
    """
    problems: list[str] = []
    argv, structure = job["argv"], job["structure"]
    command = argv[0]
    if output["code"] != job["expect"]:
        return [f"exit {output['code']}, expected {job['expect']}: {output['stderr'][:200]}"]
    if job["expect"] == 2:
        if output["stdout"]:
            problems.append("an input error also printed a report")
        if structure["kind"] == "malformed":
            where = f"line {structure['line']}, column {structure['col']}"
            if where not in output["stderr"]:
                problems.append(f"error message lacks '{where}': {output['stderr'][:200]}")
        elif not output["stderr"].startswith("input error:"):
            problems.append("input error without a message")
        return problems
    report = json.loads(output["stdout"])
    if report.get("command") != command:
        problems.append("report names another command")
    results = report["results"]
    try:
        geo = Geometry(structure, aux.get(connection_argv(job)))
        if command in ("solve", "extend"):
            fields = _check_basis(geo, structure, argv, results, problems)
            if command == "extend":
                flavor = _flavor_of(argv)
                if flavor in ("coriolis", "milne"):
                    _check_bracket_table(geo, fields, results["bracket_table"], problems)
                    if flavor == "coriolis" and any(e["parameter"] != "0" for e in results["bracket_table"]):
                        problems.append("semidirect bracket of pure fields has a parameter")
                else:
                    _check_galilei_certificate(geo, structure, fields, results, problems)
        elif command == "brackets":
            _check_brackets(geo, structure, argv, results, aux.get(basis_argv(job)), problems)
        else:
            _check_inspect(geo, structure, command, job, results, problems)
    except (OracleError, KeyError, ValueError, TypeError) as exc:
        problems.append(f"oracle could not check the answer: {exc!r}")
    return problems


# ----------------------------------------------------------------------
# the untimed ncw calls some checks need

def connection_argv(job: dict) -> tuple[str, ...] | None:
    """The ``connection`` call whose report supplies a gauge-data connection."""
    if job["structure"]["kind"] != "sheared" or job["expect"] != 0:
        return None
    return ("connection", "--input", job["argv"][2], "--format", "json")


def basis_argv(job: dict) -> tuple[str, ...] | None:
    """The ``solve`` call whose basis a ``brackets`` job is checked against."""
    argv = job["argv"]
    if argv[0] != "brackets":
        return None
    return ("solve",) + tuple(argv[1:])


def aux_argvs(jobs: list[dict]) -> list[list[str]]:
    seen: dict[tuple[str, ...], None] = {}
    for job in jobs:
        for argv in (connection_argv(job), basis_argv(job)):
            if argv is not None:
                seen.setdefault(argv)
    return [list(a) for a in seen]
