"""Seeded job lists for the three benchmark workloads.

``workloads.json`` fixes, per workload, the anchor jobs and a menu of cells
(structure kind, spatial dimension n, command, flavor, degree bound, count).
A job list is the anchors plus every menu cell repeated ``count`` times, so
the job count and the cost mix are the same for every seed; the seed draws
the contents of each structure (potential, shear, gauge form, rotation,
injected syntax error, classify field, gauge triple) and the job order.

The generator writes structure files and returns argv lists with the answer
each job is expected to give; ncw sees nothing else.  A drawn ``solve`` or
``algebra`` structure that ``is_valid`` rejects is redrawn from the same
seeded stream, up to ``MAX_REDRAWS`` times.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

SPEC_PATH = Path(__file__).with_name("workloads.json")
WORKLOADS = ("solve", "algebra", "inspect")
MAX_REDRAWS = 20

Poly = dict  # exponent tuple -> Fraction, over (t, x1..xn)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def job_count(spec: dict) -> int:
    return len(spec["anchors"]) + sum(cell["count"] for cell in spec["menu"])


# ----------------------------------------------------------------------
# polynomials as exponent dictionaries, rendered in ncw's input grammar

def _mono(dim: int, var: int | None = None, power: int = 1) -> tuple[int, ...]:
    exps = [0] * dim
    if var is not None:
        exps[var] = power
    return tuple(exps)


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def render(p: Poly) -> str:
    """A polynomial in the structure-file grammar, terms in a fixed order."""
    if not p:
        return "0"
    pieces = []
    for exps in sorted(p, key=lambda e: (-sum(e), tuple(-x for x in e))):
        coeff = p[exps]
        factors = [
            ("t" if i == 0 else f"x{i}") + ("" if e == 1 else f"^{e}")
            for i, e in enumerate(exps)
            if e
        ]
        mag = abs(coeff)
        if factors:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)


def _coeff(rng: random.Random) -> Fraction:
    value = Fraction(rng.choice([1, 1, 2, 3, 4]), rng.choice([1, 1, 2, 3]))
    return value if rng.random() < 0.5 else -value


def _draw_phi(rng: random.Random, n: int, density: str, static: bool = False) -> Poly:
    """A quadratic potential: sparse (2 terms), medium (n+1), dense (all
    monomials of degree 1 and 2 over t, x1..xn, or x1..xn when static)."""
    dim = n + 1
    first = 1 if static else 0
    monos = [_mono(dim, i) for i in range(first, dim)]
    for i in range(first, dim):
        for j in range(i, dim):
            e = [0] * dim
            e[i] += 1
            e[j] += 1
            monos.append(tuple(e))
    # a potential that depends on space keeps the structure curved
    spatial_quadratic = [m for m in monos if sum(m) == 2 and m[0] == 0]
    if density == "dense":
        chosen = monos
    else:
        k = 2 if density == "sparse" else n + 1
        chosen = [rng.choice(spatial_quadratic)]
        chosen += rng.sample([m for m in monos if m != chosen[0]], k - 1)
    return {m: _coeff(rng) for m in chosen}


# ----------------------------------------------------------------------
# structures: a JSON-able record plus the text ncw reads

def draw_structure(rng: random.Random, cell: dict) -> dict:
    kind, n = cell["kind"], cell.get("n")
    if kind == "flat":
        return {"kind": "flat", "n": n}
    if kind == "standard":
        phi = cell.get("phi") or render(_draw_phi(rng, n, cell["density"]))
        return {"kind": "standard", "n": n, "phi": phi}
    if kind == "sheared-sample":
        return {
            "kind": "sheared",
            "n": 2,
            "name": "sheared",
            "gamma": {"1,1": "1", "1,2": "x1", "2,1": "x1", "2,2": "1 + x1^2"},
            "A": {"0": "0"},
        }
    if kind == "sheared":
        return _draw_sheared(rng, n, cell.get("static", False))
    if kind == "rotating":
        return _draw_rotating(rng, n)
    if kind == "malformed":
        return _draw_malformed(rng, n)
    raise ValueError(f"unknown structure kind {kind!r}")


def _draw_sheared(rng: random.Random, n: int, static: bool = False) -> dict:
    """gamma = L L^T on the spatial block, L unit lower triangular with n-1
    linear entries, so gamma has determinant 1 and a polynomial inverse;
    theta = dt, U = d/dt and a drawn gauge form A.  Static structures keep
    t out of gamma and A, so d/dt is a symmetry of every flavor and no
    basis is empty."""
    dim = n + 1
    first = 1 if static else 0
    lower: dict[tuple[int, int], Poly] = {}
    pairs = [(i, j) for i in range(1, dim) for j in range(1, i)]
    for i, j in pairs:
        lower[(i, j)] = {}
    for i, j in rng.sample(pairs, n - 1):
        var = rng.choice(list(range(first, dim)) + list(range(1, dim)))
        lower[(i, j)] = {_mono(dim, var): _coeff(rng)}
    one = {_mono(dim): Fraction(1)}

    def entry(i: int, k: int) -> Poly:
        if i == k:
            return one
        return lower.get((i, k), {}) if k < i else {}

    gamma = {}
    for i in range(1, dim):
        for j in range(1, dim):
            total: Poly = {}
            for k in range(1, dim):
                total = _add(total, _mul(entry(i, k), entry(j, k)))
            if total:
                gamma[f"{i},{j}"] = render(total)
    a_form = {"0": render({m: -c for m, c in _draw_phi(rng, n, "sparse", static).items()})}
    a_form[str(rng.randint(1, n))] = render({_mono(dim, rng.randint(first, n)): _coeff(rng)})
    return {"kind": "sheared", "n": n, "gamma": gamma, "A": a_form}


def _draw_rotating(rng: random.Random, n: int) -> dict:
    """The flat pair with a time-dependent rotation rate omega(t) between two
    spatial axes: compatible, but the Newtonian curvature symmetry fails."""
    a, b = sorted(rng.sample(range(1, n + 1), 2))
    dim = n + 1
    omega = {_mono(dim, 0, rng.randint(1, 2)): _coeff(rng)}
    if rng.random() < 0.5:
        omega[_mono(dim)] = _coeff(rng)
    w, minus_w = render(omega), render({m: -c for m, c in omega.items()})
    gamma_conn = {f"0,{a},{b}": w, f"{a},0,{b}": w, f"0,{b},{a}": minus_w, f"{b},0,{a}": minus_w}
    return {"kind": "rotating", "n": n, "Gamma": gamma_conn}


_BAD_CHARS = "@$!?&;"


def _draw_malformed(rng: random.Random, n: int) -> dict:
    """A valid text with one syntax error at a known line and column."""
    base = _draw_sheared(rng, n) if rng.random() < 0.6 else {
        "kind": "standard",
        "n": n,
        "phi": render(_draw_phi(rng, n, "medium")),
    }
    lines = structure_text(base).splitlines()
    error = rng.choice(["character", "directive", "index", "equals"])
    if base["kind"] == "standard":
        error = rng.choice(["character", "directive", "preset-key"])
    candidates = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("n =")]
    li = rng.choice(candidates)
    line = lines[li]
    if error == "character":
        pos = rng.randint(line.index("=") + 1, len(line))
        lines[li] = line[:pos] + rng.choice(_BAD_CHARS) + line[pos:]
        col = pos + 1
    elif error == "directive":
        lines[li] = "z" + line
        col = 1
    elif error == "index":
        pos = line.index("[") + 1
        lines[li] = line[:pos] + "q" + line[pos + 1 :]
        col = pos + 1
    elif error == "equals":
        pos = line.index("=")
        lines[li] = line[:pos] + line[pos + 1 :].lstrip()
        col = pos + 1
    else:  # preset-key: an unknown key=value pair after n=...
        pos = line.index(" phi")
        lines[li] = line[:pos] + " m=1" + line[pos:]
        col = pos + 2
    return {
        "kind": "malformed",
        "n": n,
        "text": "\n".join(lines) + "\n",
        "error": error,
        "line": li + 1,
        "col": col,
    }


def structure_text(s: dict) -> str:
    kind = s["kind"]
    if kind == "flat":
        return f"flat n={s['n']}\n"
    if kind == "standard":
        return f"standard n={s['n']} phi = {s['phi']}\n"
    if kind == "malformed":
        return s["text"]
    lines = []
    if s.get("name"):
        lines.append(f"name = {s['name']}")
    lines.append(f"n = {s['n']}")
    if kind == "rotating":
        for i in range(1, s["n"] + 1):
            lines.append(f"gamma[{i}][{i}] = 1")
        lines.append("theta[0] = 1")
        for key, value in s["Gamma"].items():
            a, b, c = key.split(",")
            lines.append(f"Gamma[{a}][{b}][{c}] = {value}")
    else:
        for key, value in s["gamma"].items():
            i, j = key.split(",")
            lines.append(f"gamma[{i}][{j}] = {value}")
        lines.append("theta[0] = 1")
        lines.append("U[0] = 1")
        for key, value in s["A"].items():
            lines.append(f"A[{key}] = {value}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# per-command argument draws

def _draw_field(rng: random.Random, n: int) -> dict[int, str]:
    """A vector field or 1-form: a symmetry-shaped part plus, half the
    time, a perturbation that breaks it."""
    dim = n + 1
    comps: dict[int, Poly] = {}
    shape = rng.choice(["time", "rotation", "boost", "translation"])
    if shape == "time":
        comps[0] = {_mono(dim): Fraction(1)}
    elif shape == "rotation" and n >= 2:
        a, b = sorted(rng.sample(range(1, dim), 2))
        comps[a] = {_mono(dim, b): Fraction(1)}
        comps[b] = {_mono(dim, a): Fraction(-1)}
    elif shape == "boost":
        comps[rng.randint(1, n)] = {_mono(dim, 0): _coeff(rng)}
    else:
        comps[rng.randint(1, n)] = {_mono(dim): _coeff(rng)}
    if rng.random() < 0.5:
        k = rng.randint(0, n)
        bump = {_mono(dim, rng.randint(0, n), rng.randint(1, 2)): _coeff(rng)}
        comps[k] = _add(comps.get(k, {}), bump)
    return {k: render(v) for k, v in sorted(comps.items()) if v}


def _assignments(symbol: str, comps: dict[int, str]) -> str:
    return "\n".join(f"{symbol}[{k}] = {v}" for k, v in comps.items())


def _argv(rng: random.Random, cell: dict, structure: dict, path: str) -> tuple[list[str], dict]:
    """argv for one job and the extra arguments the oracle needs."""
    command = cell["command"]
    argv = [command, "--input", path]
    extra: dict = {}
    if command in ("solve", "brackets", "extend"):
        argv += ["--flavor", cell["flavor"], "--degree", str(cell["degree"])]
    elif command == "classify":
        field = _draw_field(rng, structure["n"])
        argv += ["--field", _assignments("X", field)]
        extra["field"] = field
    elif command == "gauge":
        dim = structure["n"] + 1
        x = _draw_field(rng, structure["n"])
        psi = {rng.randint(1, structure["n"]): render({_mono(dim, rng.randint(0, structure["n"])): _coeff(rng)})}
        f = render({_mono(dim, rng.randint(0, structure["n"]), rng.randint(1, 2)): _coeff(rng)})
        # "=" keeps a value that starts with "-" from reading as an option
        argv += [f"--x={_assignments('X', x)}", f"--psi={_assignments('psi', psi)}", f"--f={f}"]
        extra.update({"x": x, "psi": psi, "f": f})
    argv += ["--format", "json"]
    return argv, extra


def expected_exit(structure: dict, command: str) -> int:
    """The exit code each job must give, fixed by how its input was drawn."""
    if structure["kind"] == "malformed":
        return 2
    if structure["kind"] == "rotating":
        # check commands report the broken symmetry as a verdict; the
        # others build with validation, so the structure is an input error
        return 1 if command in ("curvature", "validate") else 2
    return 0


# ----------------------------------------------------------------------
# the job list

def generate(
    workload: str,
    seed: int,
    out_dir: Path,
    is_valid: Callable[[str], bool] | None = None,
) -> list[dict]:
    """Write one structure file per job into out_dir; return the job list.

    Each job is {"argv", "expect", "structure", "extra", "anchor"}; argv
    names its structure file relative to the working directory.
    """
    spec = load_spec()[workload]
    rng = random.Random(f"ncw-bench:{workload}:{seed}")
    cells = [dict(a["structure"], **{k: v for k, v in a.items() if k != "structure"}, anchor=True)
             for a in spec["anchors"]]
    for cell in spec["menu"]:
        cells += [dict(cell, anchor=False)] * cell["count"]
    drawn = []
    for cell in cells:
        structure = draw_structure(rng, cell)
        # presets are valid for every potential; drawn metric pairs are checked
        if is_valid is not None and workload != "inspect" and structure["kind"] == "sheared":
            for _ in range(MAX_REDRAWS):
                if is_valid(structure_text(structure)):
                    break
                structure = draw_structure(rng, cell)
            else:
                raise RuntimeError(f"no valid draw for {cell} after {MAX_REDRAWS} tries")
        drawn.append((cell, structure))
    # anchors keep their place at the front; the menu jobs are shuffled
    n_anchor = len(spec["anchors"])
    menu = drawn[n_anchor:]
    rng.shuffle(menu)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for index, (cell, structure) in enumerate(drawn[:n_anchor] + menu):
        path = out_dir / f"job{index:03d}.ncw"
        path.write_text(structure_text(structure), encoding="utf-8")
        argv, extra = _argv(rng, cell, structure, path.as_posix())
        jobs.append(
            {
                "argv": argv,
                "expect": expected_exit(structure, cell["command"]),
                "structure": structure,
                "extra": extra,
                "anchor": cell["anchor"],
            }
        )
    return jobs
