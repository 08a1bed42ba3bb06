"""The tensor operators against sympy sums that share no ncw code, on random
curved inputs: the metric contractions, the raised connection symbols,
the transverse metric, curvature, the covariant derivative, the geodesic
and assembled connections, the geodesic and curl defects, and the affine
pushforward.

Inputs are drawn as sympy expressions and handed to ncw through sympy's own
term dictionaries; every expected value is an explicit index sum over those
inputs, in sympy's polynomial arithmetic.  Two-tensors are drawn
non-symmetric, so the contracted slot is pinned as well as the values.
"""

import random
from fractions import Fraction
from itertools import product

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


def same(p, expr, xs):
    expected = sympy.Poly(expr, *xs).as_dict()
    return p.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in expected.items()}


def qq(expr, xs):
    """expr as a sympy polynomial over QQ, whose arithmetic the sums use."""
    return sympy.Poly(expr, *xs, domain="QQ")


def cases():
    rng = random.Random(52)
    for dim in (2, 3, 3, 4):
        xs = sympy.symbols(f"x0:{dim}")
        yield rng, dim, xs


def two_tensor(rng, xs, p, q):
    dim = len(xs)
    grid = [[qq(random_expr(rng, xs), xs) for _ in range(dim)] for _ in range(dim)]
    flat = tuple(to_poly(grid[a][b], xs) for a in range(dim) for b in range(dim))
    return grid, TensorField(dim, p, q, flat)


def one_slot(rng, xs, p, q):
    dim = len(xs)
    exprs = [qq(random_expr(rng, xs), xs) for _ in range(dim)]
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
                    sym[a, b, c] = sym[b, a, c] = qq(random_expr(rng, xs), xs)
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


def random_grid(rng, xs, rank):
    return {idx: qq(random_expr(rng, xs), xs) for idx in product(range(len(xs)), repeat=rank)}


def random_connection(rng, xs):
    dim = len(xs)
    sym = {}
    for a in range(dim):
        for b in range(a, dim):
            for c in range(dim):
                sym[a, b, c] = sym[b, a, c] = qq(random_expr(rng, xs), xs)
    return sym, Connection.build(dim, lambda a, b, c: to_poly(sym[a, b, c], xs))


SHAPES = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def test_curvature_matches_sympy_sums():
    from ncw.tensors import curvature

    for rng, dim, xs in cases():
        sym, conn = random_connection(rng, xs)
        r = curvature(conn)
        rd = range(dim)
        for a, b, c, d in product(rd, repeat=4):
            expect = sym[b, c, d].diff(xs[a]) - sym[a, c, d].diff(xs[b])
            for k in rd:
                expect += sym[a, k, d] * sym[b, c, k] - sym[b, k, d] * sym[a, c, k]
            assert same(r.comp(a, b, c, d), expect, xs)


def test_covariant_derivative_matches_sympy_sums():
    from ncw.tensors import covariant_derivative

    for rng, dim, xs in cases():
        sym, conn = random_connection(rng, xs)
        for p, q in SHAPES:
            grid = random_grid(rng, xs, p + q)
            t = TensorField(dim, p, q, tuple(to_poly(grid[idx], xs) for idx in sorted(grid)))
            dt = covariant_derivative(conn, t)
            assert (dt.p, dt.q) == (p, q + 1)
            for idx in product(range(dim), repeat=p + q + 1):
                ups, c, lows = idx[:p], idx[p], idx[p + 1 :]
                expect = grid[ups + lows].diff(xs[c])
                for k in range(dim):
                    for s in range(p):
                        moved = ups[:s] + (k,) + ups[s + 1 :]
                        expect += sym[c, k, ups[s]] * grid[moved + lows]
                    for s in range(q):
                        moved = lows[:s] + (k,) + lows[s + 1 :]
                        expect -= sym[c, lows[s], k] * grid[ups + moved]
                assert same(dt.comp(*idx), expect, xs)


def test_geodesic_and_assembled_connection_match_sympy_sums():
    # theta = d(t + f(x)) and gamma = sum g^{ij} e_i e_j on the frame
    # e_i = d_i - theta_i d_t with g = L L^T, L unit lower triangular;
    # then h = (gamma + U U^T)^{-1} - theta theta^T for theta(U) = 1
    from ncw.structures import GalileiStructure, assemble_connection, geodesic_connection
    from ncw.tensors import one_form, vector

    for rng, dim, xs in cases():
        n = dim - 1
        f = random_expr(rng, xs[1:])
        theta = sympy.Matrix([1] + [sympy.diff(f, x) for x in xs[1:]])
        frame = sympy.zeros(dim, n)
        for i in range(n):
            frame[i + 1, i] = 1
            frame[0, i] = -theta[i + 1]
        lower = sympy.Matrix(
            n, n, lambda i, j: 1 if i == j else random_expr(rng, xs) if i > j else 0
        )
        gamma = (frame * lower * lower.T * frame.T).applyfunc(sympy.expand)
        spatial = [random_expr(rng, xs) for _ in range(n)]
        u = sympy.Matrix([1 - sum(s * th for s, th in zip(spatial, theta[1:]))] + spatial)
        h = (gamma + u * u.T).inv() - theta * theta.T
        force = sympy.zeros(dim, dim)
        for a in range(dim):
            for b in range(a + 1, dim):
                force[a, b] = random_expr(rng, xs)
                force[b, a] = -force[a, b]
        # row-major entries, as sympy polynomials
        gamma, theta, u, h, force = (
            [qq(sympy.cancel(e), xs) for e in m] for m in (gamma, theta, u, h, force)
        )

        def fields(entries, p, q):
            return TensorField(dim, p, q, tuple(to_poly(e, xs) for e in entries))

        g = GalileiStructure(n, fields(gamma, 2, 0), fields(theta, 0, 1))
        ug = geodesic_connection(g, fields(u, 1, 0))
        full = assemble_connection(ug, g.theta, fields(force, 0, 2), g.gamma)
        r = range(dim)
        for a, b, c in product(r, repeat=3):
            expect = (theta[b].diff(xs[a]) + theta[a].diff(xs[b])) * u[c]
            for k in r:
                expect += gamma[c * dim + k] * (
                    h[b * dim + k].diff(xs[a]) + h[a * dim + k].diff(xs[b]) - h[a * dim + b].diff(xs[k])
                )
            expect = expect * sympy.Rational(1, 2)
            assert same(ug.symbol(a, b, c), expect, xs)
            for k in r:
                mixed = theta[a] * force[b * dim + k] + theta[b] * force[a * dim + k]
                expect += mixed * gamma[k * dim + c] * sympy.Rational(1, 2)
            assert same(full.symbol(a, b, c), expect, xs)


def test_push_tensor_matches_sympy_sums():
    from ncw.gauge import AffineDiffeo

    for rng, dim, xs in cases():
        while True:
            lin = sympy.Matrix(dim, dim, lambda i, j: rng.randint(-2, 2))
            if lin.det() != 0:
                break
        shift = [sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2)) for _ in xs]
        diffeo = AffineDiffeo.make(
            [[int(v) for v in lin.row(i)] for i in range(dim)],
            [Fraction(int(v.p), int(v.q)) for v in shift],
        )
        inv = lin.inv()
        old = inv * (sympy.Matrix(xs) - sympy.Matrix(shift))
        for p, q in SHAPES:
            grid = random_grid(rng, xs, p + q)
            t = TensorField(dim, p, q, tuple(to_poly(grid[idx], xs) for idx in sorted(grid)))
            moved = {
                idx: qq(e.as_expr().subs(dict(zip(xs, old)), simultaneous=True), xs)
                for idx, e in grid.items()
            }
            pushed = diffeo.push_tensor(t)
            for idx in product(range(dim), repeat=p + q):
                expect = qq(0, xs)
                for src in product(range(dim), repeat=p + q):
                    factor = sympy.Integer(1)
                    for a, k in zip(idx[:p], src[:p]):
                        factor *= lin[a, k]
                    for b, k in zip(idx[p:], src[p:]):
                        factor *= inv[k, b]
                    expect += moved[src] * factor
                assert same(pushed.comp(*idx), expect, xs)


def test_geodesic_and_curl_defects_match_sympy_sums():
    from ncw.structures import curl_defect, geodesic_defect

    for rng, dim, xs in cases():
        sym, conn = random_connection(rng, xs)
        u = random_grid(rng, xs, 1)
        h = random_grid(rng, xs, 2)
        u_t = TensorField(dim, 1, 0, tuple(to_poly(u[a,], xs) for a in range(dim)))
        h_t = TensorField(dim, 0, 2, tuple(to_poly(h[idx], xs) for idx in sorted(h)))
        r = range(dim)
        # (DU)^c_a = d_a U^c + G_ak^c U^k
        du = {
            (c, a): u[c,].diff(xs[a]) + sum((sym[a, k, c] * u[k,] for k in r), qq(0, xs))
            for c in r
            for a in r
        }
        geodesic = geodesic_defect(conn, u_t)
        curl = curl_defect(conn, u_t, h_t)
        for c in r:
            assert same(geodesic.comp(c), sum((u[a,] * du[c, a] for a in r), qq(0, xs)), xs)
        for a, b in product(r, repeat=2):
            expect = sum((h[b, k] * du[k, a] - h[a, k] * du[k, b] for k in r), qq(0, xs))
            assert same(curl.comp(a, b), expect, xs)
