"""Shared builders for the test suite."""

import functools
import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from ncw.extensions import CocycleError
from ncw.poly import Poly, _exact, _q
from ncw.solver import structure_constants
from ncw.tensors import (
    Connection,
    TensorField,
    _add,
    _einsum,
    _neg,
    _slots,
    covariant_derivative,
    one_form,
    vector,
)


def is_canonical(c):
    """Whether c is a canonical exact coefficient: an int (not a bool), or a
    Fraction whose denominator exceeds 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


SHAPES = ("zero", "one", "constant", "monomial", "general")


def nonzero_coefficients():
    """Nonzero ints and Fractions, integral Fractions among them."""
    return st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=4)
    ).filter(bool)


@st.composite
def shaped_polys(draw, dimension, shape):
    """A Poly of the given shape: zero, the constant 1, another nonzero
    constant, a monomial (often with coefficient 1) or up to five terms."""
    exps = st.tuples(*[st.integers(0, 3)] * dimension)
    if shape == "zero":
        return Poly.zero(dimension)
    if shape == "one":
        return Poly.const(dimension, 1)
    if shape == "constant":
        return Poly.const(dimension, draw(nonzero_coefficients().filter(lambda c: c != 1)))
    if shape == "monomial":
        coeff = draw(st.one_of(st.just(1), nonzero_coefficients()))
        return Poly.monomial(dimension, draw(exps.filter(any)), coeff)
    return Poly(dimension, draw(st.dictionaries(exps, nonzero_coefficients(), max_size=5)))


def counting(monkeypatch, owner, name):
    """Wrap owner.name (a module function, a method, or the func of a
    cached_property) so that every call is recorded, and return the list of
    recorded positional argument tuples; monkeypatch undoes the wrapping."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@functools.cache
def bench_tracing():
    """bench/tracing.py, loaded as a module of its own and read only: its
    SPANNED table names the ncw functions the benchmark's tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("ncw_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_frames():
    """Clear the preset frames that ncw.structures builds once per n, and
    with each frame its pair's Coriolis kernels, so that a test counting
    the frame's work or stage one's on a preset sees all of it, whichever
    tests ran before."""
    import ncw.structures

    ncw.structures._flat_frame.cache_clear()


def var(dim, i):
    return Poly.variable(dim, i)


def basis_vector(dim, axis):
    comps = [Poly.zero(dim)] * dim
    comps[axis] = Poly.const(dim, 1)
    return vector(dim, comps)


def standard_connection(n, phi):
    dim = n + 1

    def fn(a, b, c):
        if a == 0 and b == 0 and c >= 1:
            return phi.partial(c)
        return Poly.zero(dim)

    return Connection.build(dim, fn)


def random_poly(rng, dim, degree=2, terms=3):
    out = Poly.zero(dim)
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(degree):
            exps[rng.randrange(dim)] += rng.randint(0, 1)
        out = out + Poly.monomial(dim, exps, Fraction(rng.randint(-3, 3)))
    return out


def random_vector(rng, dim, degree=2):
    return vector(dim, [random_poly(rng, dim, degree) for _ in range(dim)])


def random_one_form(rng, dim, degree=2):
    return one_form(dim, [random_poly(rng, dim, degree) for _ in range(dim)])


def time_poly(rng, dim, degree):
    t = Poly.variable(dim, 0)
    return sum(
        (Fraction(rng.randint(-2, 2)) * t**k for k in range(degree + 1)),
        Poly.zero(dim),
    )


def coriolis_field(n, omega, rho, tau):
    """Assemble X from an antisymmetric matrix-valued map omega[(a,b)] of
    time polynomials, a spatial tuple rho of time polynomials, and a
    rational time-translation tau.  Spatial indices are 1-based."""
    dim = n + 1
    comps = [Poly.const(dim, tau)]
    for a in range(1, n + 1):
        acc = rho[a - 1]
        for b in range(1, n + 1):
            w = omega.get((a, b))
            if w is not None:
                acc = acc + w * Poly.variable(dim, b)
    # antisymmetric completion: omega[(b,a)] = -omega[(a,b)] handled by caller
        comps.append(acc)
    return vector(dim, comps)


def random_coriolis_field(rng, n, degree=2):
    dim = n + 1
    omega = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            w = time_poly(rng, dim, degree)
            omega[(a, b)] = w
            omega[(b, a)] = -w
    rho = tuple(time_poly(rng, dim, degree) for _ in range(n))
    return coriolis_field(n, omega, rho, Fraction(rng.randint(-2, 2)))


def random_milne_field(rng, n, degree=2):
    dim = n + 1
    omega = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            w = Poly.const(dim, rng.randint(-2, 2))
            omega[(a, b)] = w
            omega[(b, a)] = -w
    rho = tuple(time_poly(rng, dim, degree) for _ in range(n))
    return coriolis_field(n, omega, rho, Fraction(rng.randint(-2, 2)))


# ----------------------------------------------------------------------
# oracles and builders that only the tests call

def contract(t, upper_slot, lower_slot):
    """Contract one contravariant slot of t against one covariant slot."""
    if not 0 <= upper_slot < t.p or not 0 <= lower_slot < t.q:
        raise ValueError("contraction slots out of range")
    ups, lows = _slots(t.p, t.q)
    term = ups + lows[:lower_slot] + ups[upper_slot] + lows[lower_slot + 1 :]
    kept = ups[:upper_slot] + ups[upper_slot + 1 :] + lows[:lower_slot] + lows[lower_slot + 1 :]
    entries = _einsum(f"{term}->{kept}", t)
    return TensorField._raw(t.dimension, t.p - 1, t.q - 1, entries)


def geodesic_defect(conn, u):
    """U^a (nabla_a U)^c = U^a (d_a U^c + G_ab^c U^b) as a vector field, the
    covariant derivative of U contracted with U; zero iff U is geodesic."""
    _check_vector(conn, u)
    du = covariant_derivative(conn, u)  # comp(c, a): index order upper, deriv
    return TensorField(conn.dimension, 1, 0, _einsum("a,ca->c", u, du))


def curl_defect(conn, u, h):
    """Antisymmetric part of the h-lowered covariant derivative of U."""
    _check_vector(conn, u)
    if (h.p, h.q) != (0, 2) or h.dimension != conn.dimension:
        raise ValueError("h must be a (0,2) tensor of the connection's dimension")
    du = covariant_derivative(conn, u)  # comp(c, a): index order upper, deriv
    q = _einsum("bk,ka->ab", h, du)
    return TensorField(conn.dimension, 0, 2, _add(q, _neg(_einsum("ba->ab", q))))


def _check_vector(conn, u):
    if (u.p, u.q) != (1, 0) or u.dimension != conn.dimension:
        raise ValueError("U must be a vector field of the connection's dimension")


def coboundary_from_functional(basis, functional):
    """The coboundary (d lambda)(X_i, X_j) = lambda([X_i, X_j]), a cocycle
    known to be trivial."""
    k = len(basis.fields)
    if len(functional) != k:
        raise CocycleError(f"functional has {len(functional)} entries, the basis {k} fields")
    lam = [_exact(v) for v in functional]
    constants, closed = structure_constants(basis)
    if not closed:
        raise CocycleError("basis does not close")
    return [
        [_q(sum(constants[i][j][m] * lam[m] for m in range(k))) for j in range(k)]
        for i in range(k)
    ]
