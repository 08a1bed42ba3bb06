"""The metric contractions and the raised connection symbols against sympy
sums that share no ncw code, on random curved inputs.

Inputs are drawn as sympy expressions and handed to ncw through sympy's own
term dictionaries; every expected value is an explicit index sum over those
expressions.  Two-tensors are drawn non-symmetric, so the contracted slot is
pinned as well as the values.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ncw.poly import Poly  # noqa: E402
from ncw.tensors import (  # noqa: E402
    Connection,
    TensorField,
    apply_metric,
    pairing,
    raise_connection,
)


def random_expr(rng, xs):
    total = sympy.Integer(0)
    for _ in range(3):
        mono = sympy.Integer(1)
        for _ in range(2):
            mono *= rng.choice(xs) ** rng.randint(0, 1)
        total += sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3)) * mono
    return sympy.expand(total)


def to_poly(expr, xs):
    terms = sympy.Poly(expr, *xs).terms()
    return Poly(len(xs), {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def to_expr(p, xs):
    total = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        mono = sympy.Integer(1)
        for x, e in zip(xs, exps):
            mono *= x**e
        total += sympy.Rational(coeff.numerator, coeff.denominator) * mono
    return total


def same(p, expr, xs):
    return sympy.expand(to_expr(p, xs) - expr) == 0


def cases():
    rng = random.Random(52)
    for dim in (2, 3, 3, 4):
        xs = sympy.symbols(f"x0:{dim}")
        yield rng, dim, xs


def two_tensor(rng, xs, p, q):
    dim = len(xs)
    grid = [[random_expr(rng, xs) for _ in range(dim)] for _ in range(dim)]
    flat = tuple(to_poly(grid[a][b], xs) for a in range(dim) for b in range(dim))
    return grid, TensorField(dim, p, q, flat)


def one_slot(rng, xs, p, q):
    dim = len(xs)
    exprs = [random_expr(rng, xs) for _ in range(dim)]
    return exprs, TensorField(dim, p, q, tuple(to_poly(e, xs) for e in exprs))


def test_apply_metric_and_pairing_match_sympy_sums():
    for rng, dim, xs in cases():
        gamma, gamma_t = two_tensor(rng, xs, 2, 0)
        h, h_t = two_tensor(rng, xs, 0, 2)
        w, w_t = one_slot(rng, xs, 0, 1)
        v, v_t = one_slot(rng, xs, 1, 0)
        raised = apply_metric(gamma_t, w_t)
        lowered = apply_metric(h_t, v_t)
        assert (raised.p, raised.q, lowered.p, lowered.q) == (1, 0, 0, 1)
        for a in range(dim):
            assert same(raised.comp(a), sum(gamma[a][k] * w[k] for k in range(dim)), xs)
            assert same(lowered.comp(a), sum(h[a][k] * v[k] for k in range(dim)), xs)
        assert same(pairing(w_t, v_t), sum(w[k] * v[k] for k in range(dim)), xs)


def test_raise_connection_matches_sympy_sums():
    for rng, dim, xs in cases():
        gamma, gamma_t = two_tensor(rng, xs, 2, 0)
        sym = {}
        for a in range(dim):
            for b in range(a, dim):
                for c in range(dim):
                    sym[a, b, c] = sym[b, a, c] = random_expr(rng, xs)
        conn = Connection.build(dim, lambda a, b, c: to_poly(sym[a, b, c], xs))
        once = raise_connection(conn, gamma_t, 1)
        twice = raise_connection(conn, gamma_t, 2)
        assert (once.p, once.q, twice.p, twice.q) == (2, 1, 3, 0)
        r = range(dim)
        for a in r:
            for b in r:
                for c in r:
                    expect_once = sum(gamma[b][k] * sym[a, k, c] for k in r)
                    expect_twice = sum(
                        gamma[a][k] * gamma[b][l] * sym[k, l, c] for k in r for l in r
                    )
                    assert same(once.comp(b, c, a), expect_once, xs)
                    assert same(twice.comp(a, b, c), expect_twice, xs)


def test_transverse_metric_matches_the_sympy_inverse():
    # gamma = L L^T on the spatial block, L unit lower triangular, so
    # det(gamma + U U^T) = 1; with U^0 = 1 the transverse metric is
    # (gamma + U U^T)^{-1} - theta theta^T for theta = dt
    from ncw.structures import GalileiStructure, transverse_metric
    from ncw.tensors import one_form, vector

    for rng, dim, xs in cases():
        n = dim - 1
        lower = sympy.Matrix(
            n, n, lambda i, j: 1 if i == j else random_expr(rng, xs) if i > j else 0
        )
        gamma = sympy.zeros(dim, dim)
        gamma[1:, 1:] = lower * lower.T
        u = sympy.Matrix([1] + [random_expr(rng, xs) for _ in range(n)])
        theta = sympy.Matrix([1] + [0] * n)
        expected = (gamma + u * u.T).inv() - theta * theta.T
        g = GalileiStructure(
            n,
            TensorField(dim, 2, 0, tuple(to_poly(sympy.expand(e), xs) for e in gamma)),
            one_form(dim, [to_poly(e, xs) for e in theta]),
        )
        h = transverse_metric(g, vector(dim, [to_poly(e, xs) for e in u]))
        for a in range(dim):
            for b in range(dim):
                assert same(h.comp(a, b), sympy.expand(sympy.cancel(expected[a, b])), xs)
