"""The tensor operators against sympy sums that share no ncw code, on random
curved inputs: the metric contractions, the raised connection symbols,
the transverse metric, curvature, the covariant derivative, the geodesic
and assembled connections, the geodesic and curl defects, the affine
pushforward, the Lie derivatives of tensors and connections, the raised
transport, the vector bracket and the directional derivative; the
observer-stabilizer gauge parameter against an ansatz solve; the
extended algebras (each field's parameter, each Milne bracket parameter and
each Galilei cocycle entry) against the paper's formulas; the chained
Milne and Galilei solves against the nullspace of the joint system; the
scalar adjugate and determinant against sympy's; and the positivity check
of a Galilei structure against sympy's leading minors and rank.

Inputs are drawn as sympy expressions and handed to ncw through sympy's own
term dictionaries; every expected value is an explicit index sum over those
inputs, in sympy's polynomial arithmetic.  Two-tensors are drawn
non-symmetric, so the contracted slot is pinned as well as the values.
"""

import functools
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    return grid, TensorField.build(dim, p, q, lambda idx: to_poly(grid[idx[0]][idx[1]], xs))


def one_slot(rng, xs, p, q):
    dim = len(xs)
    exprs = [qq(random_expr(rng, xs), xs) for _ in range(dim)]
    return exprs, TensorField.build(dim, p, q, lambda idx: to_poly(exprs[idx[0]], xs))


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
    # (gamma + U U^T)^{-1} - theta theta^T for theta = dt.  Each case draws
    # polynomial entries, then constant ones; both run on Poly entries
    from ncw.structures import GalileiStructure, transverse_metric
    from ncw.tensors import one_form, vector

    constants = random.Random(53)
    for rng, dim, xs in cases():
        for draw, pool in ((rng, xs), (constants, (sympy.Integer(1),))):
            n = dim - 1
            lower = sympy.Matrix(
                n, n, lambda i, j: 1 if i == j else random_expr(draw, pool) if i > j else 0
            )
            gamma = sympy.zeros(dim, dim)
            gamma[1:, 1:] = lower * lower.T
            u = sympy.Matrix([1] + [random_expr(draw, pool) for _ in range(n)])
            theta = sympy.Matrix([1] + [0] * n)
            expected = (gamma + u * u.T).inv() - theta * theta.T
            g = GalileiStructure(
                n,
                TensorField.build(dim, 2, 0, lambda idx: to_poly(sympy.expand(gamma[idx]), xs)),
                one_form(dim, [to_poly(e, xs) for e in theta]),
            )
            h = transverse_metric(g, vector(dim, [to_poly(e, xs) for e in u]))
            for a in range(dim):
                for b in range(dim):
                    assert same(h.comp(a, b), sympy.expand(sympy.cancel(expected[a, b])), xs)


def random_grid(rng, xs, rank, zeros=0):
    """Random entries, each exactly zero with probability zeros, so that the
    operators' branches for absent entries run too."""
    return {
        idx: qq(0, xs) if zeros and rng.random() < zeros else qq(random_expr(rng, xs), xs)
        for idx in product(range(len(xs)), repeat=rank)
    }


def with_symmetric_pairs(rng, xs, shapes, zeros):
    """(p, q, grid) for each shape with a random grid; then, for (2,0), (0,2)
    and (1,2), a grid symmetric in its last two slots, of which the
    operators compute one triangle, and that grid with one entry off the
    diagonal moved away from its mirror, which they compute whole.  A (1,1)
    grid with symmetric entries is drawn too: an upper and a lower slot are
    no symmetric pair, and its derivatives are computed whole.  The added
    grids are drawn below dimension 4 only, to keep the time down."""
    for p, q in shapes:
        yield p, q, random_grid(rng, xs, p + q, zeros)
    for p, q in ((2, 0), (0, 2), (1, 2), (1, 1)) if len(xs) < 4 else ():
        grid = random_grid(rng, xs, p + q, zeros)
        symmetric = {idx: grid[min(idx, idx[:-2] + (idx[-1], idx[-2]))] for idx in grid}
        yield p, q, symmetric
        near = dict(symmetric)
        idx = rng.choice([idx for idx in near if idx[-2] < idx[-1]])
        near[idx] += qq(rng.randint(1, 3), xs)
        yield p, q, near


def random_connection(rng, xs, zeros=0):
    dim = len(xs)
    sym = {}
    for a in range(dim):
        for b in range(a, dim):
            for c in range(dim):
                zero = zeros and rng.random() < zeros
                sym[a, b, c] = sym[b, a, c] = qq(0 if zero else random_expr(rng, xs), xs)
    return sym, Connection.build(dim, lambda a, b, c: to_poly(sym[a, b, c], xs))


SHAPES = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def test_curvature_matches_sympy_sums():
    from ncw.tensors import curvature

    # with a third of the symbols zero, some (b, c) pairs of S get one of
    # its two terms only
    for rng, dim, xs in cases():
        for zeros in (0, 0.3):
            sym, conn = random_connection(rng, xs, zeros=zeros)
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
        sym, conn = random_connection(rng, xs, zeros=0.3)
        for p, q, grid in with_symmetric_pairs(rng, xs, SHAPES + ((1, 2), (2, 1)), 0.3):
            t = TensorField.build(dim, p, q, lambda idx: to_poly(grid[idx], xs))
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
            flat = dict(zip(product(range(dim), repeat=p + q), entries))
            return TensorField.build(dim, p, q, lambda idx: to_poly(flat[idx], xs))

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
            t = TensorField.build(dim, p, q, lambda idx: to_poly(grid[idx], xs))
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
        u_t = TensorField.build(dim, 1, 0, lambda idx: to_poly(u[idx], xs))
        h_t = TensorField.build(dim, 0, 2, lambda idx: to_poly(h[idx], xs))
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


def random_tensor(rng, xs, p, q, zeros=0):
    grid = random_grid(rng, xs, p + q, zeros)
    return grid, TensorField.build(len(xs), p, q, lambda idx: to_poly(grid[idx], xs))


def test_lie_derivative_matches_sympy_sums():
    from ncw.tensors import lie_derivative

    for rng, dim, xs in cases():
        x, x_t = random_tensor(rng, xs, 1, 0, zeros=0.3)
        r = range(dim)
        for p, q, grid in with_symmetric_pairs(rng, xs, SHAPES + ((1, 2), (2, 1)), 0.3):
            t = TensorField.build(dim, p, q, lambda idx: to_poly(grid[idx], xs))
            lt = lie_derivative(x_t, t)
            assert (lt.p, lt.q) == (p, q)
            for idx in product(r, repeat=p + q):
                ups, lows = idx[:p], idx[p:]
                expect = sum((x[k,] * grid[idx].diff(xs[k]) for k in r), qq(0, xs))
                for k in r:
                    for s in range(p):
                        moved = ups[:s] + (k,) + ups[s + 1 :]
                        expect -= x[ups[s],].diff(xs[k]) * grid[moved + lows]
                    for s in range(q):
                        moved = lows[:s] + (k,) + lows[s + 1 :]
                        expect += x[k,].diff(xs[lows[s]]) * grid[ups + moved]
                assert same(lt.comp(*idx), expect, xs)


def test_lie_derivative_connection_matches_sympy_sums():
    from ncw.tensors import lie_derivative_connection

    # entries drawn zero with probability 0.3, so absent entries of X and of
    # the symbols take their branches too
    for rng, dim, xs in cases():
        sym, conn = random_connection(rng, xs, zeros=0.3)
        x, x_t = random_tensor(rng, xs, 1, 0, zeros=0.3)
        ld = lie_derivative_connection(x_t, conn)
        assert (ld.p, ld.q) == (1, 2)
        r = range(dim)
        for c, a, b in product(r, repeat=3):
            expect = x[c,].diff(xs[a]).diff(xs[b])
            for k in r:
                expect += x[k,] * sym[a, b, c].diff(xs[k])
                expect += sym[k, b, c] * x[k,].diff(xs[a]) + sym[a, k, c] * x[k,].diff(xs[b])
                expect -= sym[a, b, k] * x[c,].diff(xs[k])
            assert same(ld.comp(c, a, b), expect, xs)


def test_raise_connection_transport_matches_sympy_sums():
    # a (1,2) field with no symmetry in its lower pair pins which slot
    # each gamma contracts
    from ncw.tensors import raise_connection_transport

    for rng, dim, xs in cases():
        gamma, gamma_t = two_tensor(rng, xs, 2, 0)
        ld, ld_t = random_tensor(rng, xs, 1, 2)
        once = raise_connection_transport(ld_t, gamma_t, 1)
        twice = raise_connection_transport(ld_t, gamma_t, 2)
        assert (once.p, once.q, twice.p, twice.q) == (2, 1, 3, 0)
        r = range(dim)
        for a, b, c in product(r, repeat=3):
            expect_once = sum((gamma[b][k] * ld[c, a, k] for k in r), qq(0, xs))
            expect_twice = sum(
                (gamma[a][k] * gamma[b][l] * ld[c, k, l] for k in r for l in r), qq(0, xs)
            )
            assert same(once.comp(b, c, a), expect_once, xs)
            assert same(twice.comp(a, b, c), expect_twice, xs)
        with pytest.raises(ValueError):
            raise_connection_transport(ld_t, gamma_t, 3)


def test_vector_bracket_and_directional_derivative_match_sympy_sums():
    from ncw.tensors import directional, vector_bracket

    for rng, dim, xs in cases():
        x, x_t = random_tensor(rng, xs, 1, 0)
        y, y_t = random_tensor(rng, xs, 1, 0)
        f = qq(random_expr(rng, xs), xs)
        r = range(dim)
        bracket = vector_bracket(x_t, y_t)
        assert (bracket.p, bracket.q) == (1, 0)
        for a in r:
            expect = sum(
                (x[k,] * y[a,].diff(xs[k]) - y[k,] * x[a,].diff(xs[k]) for k in r), qq(0, xs)
            )
            assert same(bracket.comp(a), expect, xs)
        expect = sum((x[k,] * f.diff(xs[k]) for k in r), qq(0, xs))
        assert same(directional(x_t, to_poly(f.as_expr(), xs)), expect, xs)


def to_expr(p, xs):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.prod([x**k for x, k in zip(xs, e)])
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


@functools.cache
def observer_ansatz(gamma, xs, degree):
    """Every monomial up to degree that vanishes at x = 0, with its image
    gamma(dm), one Poly per component."""
    r = range(len(xs))
    metric = [[sympy.Poly(e, *xs) for e in row] for row in gamma]
    monos = [sympy.Poly(m, *xs) for m in sympy.itermonomials(xs, degree)
             if m.free_symbols - {xs[0]}]
    return monos, [[sum((metric[a][k] * m.diff(xs[k]) for k in r), sympy.Poly(0, *xs))
                    for a in r] for m in monos]


def observer_parameter_oracle(gamma, v, x, xs):
    """(f, solvable) for gamma(df) = [V, X] from sympy's exact RREF of the
    ansatz system over every monomial that vanishes at x = 0, so f(t, 0) = 0
    is built into the ansatz.  d_A f = (gamma_sp^{-1} [V, X])_A bounds the
    degree."""
    from sympy.polys.matrices import DomainMatrix

    r = range(len(xs))
    w = [sympy.Poly(sum(v[k] * x[a].diff(xs[k]) - x[k] * v[a].diff(xs[k]) for k in r), *xs)
         for a in r]
    if all(p.is_zero for p in w):
        return sympy.Integer(0), True
    inverse = sympy.Matrix(gamma)[1:, 1:].inv()
    degree = max(p.total_degree() for p in w) + 1 + max(
        sympy.Poly(e, *xs).total_degree() for e in inverse if e != 0
    )
    monos, images = observer_ansatz(gamma, xs, degree)
    # one column per ansatz monomial, then the right side; one row per
    # (component, monomial) of the residue
    columns = images + [w]
    rows = sorted({(a, e) for col in columns for a in r for e in col[a].as_dict()})
    index = {key: i for i, key in enumerate(rows)}
    entries = {}
    for j, col in enumerate(columns):
        for a in r:
            for e, c in col[a].as_dict().items():
                entries.setdefault(index[a, e], {})[j] = sympy.QQ.from_sympy(c)
    matrix = DomainMatrix(entries, (len(rows), len(columns)), sympy.QQ)
    reduced, pivots = matrix.rref()
    if len(monos) in pivots:
        return sympy.Integer(0), False
    assert len(pivots) == len(monos)  # the normalized solution is unique
    dense = reduced.to_Matrix()
    return sum((dense[i, len(monos)] * monos[p].as_expr() for i, p in enumerate(pivots)),
               sympy.Integer(0)), True


def test_milne_parameter_matches_a_sympy_ansatz_solve():
    from ncw.extensions import milne_f_split
    from ncw.solver import solve_symmetries
    from ncw.structures import GalileiStructure, ncb_structure
    from ncw.tensors import one_form, vector

    rng = random.Random(61)
    t, x1, x2, x3 = sympy.symbols("t x1 x2 x3")
    curved = ((0, 0, 0, 0), (0, 1, x1, 0), (0, x1, 1 + x1**2, x2), (0, 0, x2, 1 + x2**2))
    flat2 = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    sheared = ((0, 0, 0), (0, 1, x1), (0, x1, 1 + x1**2))
    # (gamma, U, A, degree): twisted observers V != U over flat, sheared and
    # curved metrics; the n=3 metric's h has degree 4
    structures = [
        (flat2, [1, 0, 0], [0, x2**2, x1], 2),
        (flat2, [1, x2, 0], [t * x1, t, -x1], 1),
        (sheared, [1, 0, 0], [0, x2, t], 1),
        (curved, [1, 0, 0, 0], [0, 0, 0, 0], 1),
        (curved, [1, 0, 0, 0], [-x3, x2, -x1, t], 1),
    ]
    checked = 0
    for gamma, u, a, degree in structures:
        xs = (t, x1, x2, x3)[: len(gamma)]
        dim = len(xs)
        g = GalileiStructure(
            dim - 1,
            TensorField.build(dim, 2, 0, lambda idx: to_poly(sympy.S(gamma[idx[0]][idx[1]]), xs)),
            one_form(dim, [Poly.const(dim, 1)] + [Poly.zero(dim)] * (dim - 1)),
        )
        s = ncb_structure(g, vector(dim, [to_poly(sympy.S(e), xs) for e in u]),
                          one_form(dim, [to_poly(sympy.S(e), xs) for e in a]))
        s.validate()
        # V = U - gamma(A), independently of ncw's observer dictionary
        v = [sympy.expand(u[b] - sum(gamma[b][k] * a[k] for k in range(dim)))
             for b in range(dim)]
        fields = solve_symmetries(s.induced_nc(), "milne", degree).fields
        combos = [
            sum((f.scale(rng.randint(-2, 2)) for f in fields[1:]), fields[0])
            for _ in range(3)
        ]
        for x_t in list(fields) + combos:
            x = [to_expr(x_t.comp(a), xs) for a in range(dim)]
            f, ok = milne_f_split(x_t, s)
            f_expect, ok_expect = observer_parameter_oracle(gamma, v, x, xs)
            assert ok == ok_expect
            assert same(f, f_expect, xs)
            checked += ok
    assert checked > 20


def joint_kernel_oracle(s, flavor, degree):
    """The canonical kernel basis of the flavor's joint system, every
    condition block on one generic field over the ansatz, from sympy's
    DomainMatrix nullspace over QQ: one sparse vector per free column, with
    X^c's coefficient on the j-th ansatz monomial in column c * M + j.

    The field, its Lie derivatives and the raised transport are written out
    as index sums over sympy's sparse polynomial ring in the coordinates
    and the unknowns, so each condition is linear in the unknowns."""
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring

    from ncw.solver import ansatz_monomials

    dim = s.base.dimension
    monos = ansatz_monomials(dim, degree)
    ncols = dim * len(monos)
    _, *gens = ring([f"x{i}" for i in range(dim)] + [f"u{i}" for i in range(ncols)], sympy.QQ)
    xs, us = gens[:dim], gens[dim:]
    zero = us[0] * 0

    def monomial(exps):
        return sympy.prod([x**e for x, e in zip(xs, exps)], start=zero + 1)

    def lift(p):
        return sum((sympy.QQ(c.numerator, c.denominator) * monomial(exps)
                    for exps, c in p.terms.items()), zero)

    r = range(dim)
    gamma = {(a, b): lift(s.base.gamma.comp(a, b)) for a in r for b in r}
    theta = [lift(s.base.theta.comp(a)) for a in r]
    sym = {(a, b, c): lift(s.connection.symbol(a, b, c)) for a in r for b in r for c in r}
    x = [sum((us[c * len(monos) + j] * monomial(m) for j, m in enumerate(monos)), zero)
         for c in r]
    dx = {(c, k): x[c].diff(xs[k]) for c in r for k in r}
    blocks = [
        {(a, b): sum((x[k] * gamma[a, b].diff(xs[k]) - gamma[k, b] * dx[a, k]
                      - gamma[a, k] * dx[b, k] for k in r), zero)
         for a in r for b in r},
        {(a,): sum((x[k] * theta[a].diff(xs[k]) + theta[k] * dx[k, a] for k in r), zero)
         for a in r},
    ]
    ld = {
        (c, a, b): dx[c, a].diff(xs[b]) + sum(
            (x[k] * sym[a, b, c].diff(xs[k]) + sym[k, b, c] * dx[k, a]
             + sym[a, k, c] * dx[k, b] - sym[a, b, k] * dx[c, k] for k in r), zero)
        for c in r for a in r for b in r
    }
    if flavor == "galilei":
        blocks.append(ld)
    else:
        blocks.append({(b, c, a): sum((gamma[b, k] * ld[c, a, k] for k in r), zero)
                       for a in r for b in r for c in r})
    rows = {}
    for block, conditions in enumerate(blocks):
        for idx, condition in conditions.items():
            for monom, coeff in condition.terms():
                (col,) = [i for i, e in enumerate(monom[dim:]) if e]
                rows.setdefault((block, idx, monom[:dim]), {})[col] = coeff
    matrix = DomainMatrix(dict(enumerate(rows.values())), (len(rows), ncols), sympy.QQ)
    null = matrix.nullspace(divide_last=True).to_dod()
    basis = [{c: Fraction(int(v.numerator), int(v.denominator)) for c, v in null[i].items()}
             for i in sorted(null)]
    return basis, matrix


@st.composite
def oracle_structures(draw):
    """(structure, label): a preset over n <= 2 with a small random
    potential of degree <= 2, which may vanish (the flat preset), or the
    sheared metric pair."""
    from ncw.structures import GalileiStructure, ncb_structure, standard_structure
    from ncw.tensors import one_form, vector

    if draw(st.integers(0, 4)) == 0:
        x1 = Poly.variable(3, 1)
        gamma = {(1, 1): Poly.const(3, 1), (1, 2): x1, (2, 1): x1, (2, 2): 1 + x1 * x1}
        dt = one_form(3, [Poly.const(3, 1), Poly.zero(3), Poly.zero(3)])
        g = GalileiStructure(2, TensorField(3, 2, 0, gamma), dt)
        unit = vector(3, [Poly.const(3, 1), Poly.zero(3), Poly.zero(3)])
        return ncb_structure(g, unit, one_form(3, [Poly.zero(3)] * 3)).induced_nc(), "sheared"
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * (n + 1)).filter(lambda e: sum(e) <= 2)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    phi = Poly(n + 1, draw(st.dictionaries(exps, coeffs, max_size=3)))
    return standard_structure(n, phi).induced_nc(), f"standard n={n} phi = {phi}"


@settings(max_examples=40, deadline=None)
@given(case=oracle_structures(), flavor=st.sampled_from(["milne", "galilei"]),
       degree=st.integers(0, 2))
def test_chained_solve_matches_the_joint_sympy_nullspace(case, flavor, degree):
    # the solver eliminates the metric pair first and the connection block
    # on the Coriolis kernel's coordinates; the oracle solves every block
    # at once over the full ansatz
    from sympy.polys.matrices import DomainMatrix

    from ncw.solver import ansatz_monomials, solve_symmetries

    s, label = case
    expected, matrix = joint_kernel_oracle(s, flavor, degree)
    monos = {m: j for j, m in enumerate(ansatz_monomials(s.base.dimension, degree))}
    solved = [
        {c * len(monos) + monos[m]: v for (c,), p in f.nonzero.items() for m, v in p.terms.items()}
        for f in solve_symmetries(s, flavor, degree).fields
    ]
    # the same span: every solved field satisfies the joint system, and the
    # dimensions agree
    for vec in solved:
        entries = {c: {0: sympy.QQ(v.numerator, v.denominator)} for c, v in vec.items()}
        column = DomainMatrix(entries, (matrix.shape[1], 1), sympy.QQ)
        assert (matrix * column).to_dod() == {}, label
    assert len(solved) == len(expected), label
    # and the same canonical basis, vector for vector
    assert solved == expected, label


@st.composite
def scalar_matrices(draw):
    """A square matrix with n = 1..5 of ints, or of ints and Fractions, made
    singular by a repeated or a zero row one time in three; or, one time in
    three, the identity or a diagonal matrix of such entries."""
    n = draw(st.integers(1, 5))
    ints = st.integers(-4, 4)
    entries = ints if draw(st.booleans()) else st.one_of(
        ints, st.fractions(min_value=-4, max_value=4, max_denominator=5)
    )
    shape = draw(st.sampled_from(["full"] * 4 + ["diagonal", "identity"]))
    if shape != "full":
        diagonal = draw(st.lists(entries, min_size=n, max_size=n)) if shape == "diagonal" else [1] * n
        return [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(st.sampled_from([0, 1, -2, Fraction(1, 3)]))
        rows[i] = [scale * v for v in rows[j]]
    return rows


@settings(max_examples=60, deadline=None)
@given(a=scalar_matrices())
def test_scalar_adjugate_matches_sympy_and_its_poly_lift(a):
    from helpers import is_canonical

    from ncw.linalg import adjugate

    n = len(a)
    adj, det = adjugate(a)
    reference = sympy.Matrix(n, n, lambda i, j: sympy.Rational(a[i][j].numerator, a[i][j].denominator))
    expected = reference.adjugate()
    assert [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in adj] == (
        expected.tolist()
    )
    assert sympy.Rational(det.numerator, det.denominator) == reference.det()
    # canonical: an int when integral, a Fraction otherwise
    assert all(is_canonical(v) for row in adj for v in row) and is_canonical(det)
    # the same recursion over constant Polys gives the lifted result
    adj_poly, det_poly = adjugate([[Poly.const(2, v) for v in row] for row in a])
    assert adj_poly == [[Poly.const(2, v) for v in row] for row in adj]
    assert det_poly == Poly.const(2, det)


@st.composite
def transverse_blocks(draw):
    """(n, clock axis, spatial block, sample points): a symmetric block
    A D A^T with A an n x r matrix of small ints and D a positive diagonal,
    one of whose entries may be negated, so positive definite, indefinite
    and rank-deficient blocks are all drawn; one entry pair may carry a
    polynomial perturbation that vanishes at the origin.  The block sits on
    every axis but the clock's, in order."""
    n = draw(st.integers(1, 4))
    xs = sympy.symbols(f"x0:{n + 1}")
    r = n if draw(st.booleans()) else draw(st.integers(1, n))
    a = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(n)]
    d = [sympy.Rational(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(r)]
    if draw(st.booleans()):
        d[draw(st.integers(0, r - 1))] *= -1
    block = [[sum(a[i][k] * d[k] * a[j][k] for k in range(r)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        term = draw(st.integers(-2, 2)) * xs[draw(st.integers(0, n))] ** draw(st.integers(1, 2))
        block[i][j] += term
        if i != j:
            block[j][i] += term
    coords = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))
    points = draw(st.lists(st.tuples(*[coords] * (n + 1)), max_size=2))
    return n, draw(st.integers(0, n)), block, xs, points


def positivity_oracle(n, block, xs, points):
    """validate's message, or None when it passes: at the origin, then at
    each point, every leading minor of sympy's block must be > 0; at the
    first point where one is not, the message names sympy's rank of gamma
    when it is not n, or else the first leading minor <= 0."""
    for point in [(0,) * len(xs)] + points:
        values = [sympy.Rational(v.numerator, v.denominator) for v in point]
        m = sympy.Matrix(block).xreplace(dict(zip(xs, values)))
        bad = next((k for k in range(1, n + 1) if m[:k, :k].det() <= 0), None)
        if bad is None:
            continue
        where = f"({', '.join(str(v) for v in values)})"
        if (rank := m.rank()) != n:
            return f"gamma has rank {rank} (expected {n}) at {where}"
        return (
            f"gamma restricted transverse to theta is not positive definite "
            f"at {where} (leading minor {bad})"
        )
    return None


@settings(max_examples=60, deadline=None)
@given(case=transverse_blocks())
def test_positivity_check_matches_the_sympy_leading_minors(case):
    from ncw.structures import GalileiStructure, StructureError

    n, clock, block, xs, points = case
    dim = n + 1
    axes = [a for a in range(dim) if a != clock]

    def gamma(idx):
        if clock in idx:
            return Poly.zero(dim)
        expr = sympy.expand(block[axes.index(idx[0])][axes.index(idx[1])])
        return to_poly(expr, xs) if expr != 0 else Poly.zero(dim)

    g = GalileiStructure(
        n,
        TensorField.build(dim, 2, 0, gamma),
        TensorField.build(dim, 0, 1, lambda idx: Poly.const(dim, int(idx == (clock,)))),
    )
    expected = positivity_oracle(n, block, xs, points)
    if expected is None:
        g.validate(points)
    else:
        with pytest.raises(StructureError) as failure:
            g.validate(points)
        assert str(failure.value) == expected


def extension_oracle(s, flavor, fields, degree, xs):
    """Per field its full parameter f_X (None: the field does not extend),
    per pair i < j the bracket parameter X_i(f_j) - X_j(f_i) - f_[X_i,X_j],
    and the milne noncentrality witness, from the paper's formulas in sympy.
    V = U - gamma(A) and phi = h(V, V)/2 - A(U), with h = (gamma + U U)^-1
    - theta theta.  The milne f_X solves
    gamma(df) = [V, X] and vanishes on the spatial origin; the galilei f_X
    solves df = (-X(phi) + h([X, V], V)) theta - h([X, V]) and vanishes at
    the origin.  Each is the Poincare-lemma integral of its form, kept only
    when it solves the equation."""
    dim = len(xs)
    r = range(dim)
    axes = range(1, dim) if flavor == "milne" else r
    scale = sympy.Symbol("s")

    def column(t):
        return sympy.Matrix([to_expr(t.comp(a), xs) for a in r])

    gamma = sympy.Matrix([[to_expr(s.base.gamma.comp(a, b), xs) for b in r] for a in r])
    theta, u, a_form = column(s.base.theta), column(s.u), column(s.a_form)
    assert list(theta) == [1] + [0] * (dim - 1)  # a clock without spatial components
    h = ((gamma + u * u.T).inv() - theta * theta.T).applyfunc(sympy.cancel)
    v = (u - gamma * a_form).applyfunc(sympy.expand)
    phi = sympy.expand((v.T * h * v)[0] / 2 - (a_form.T * u)[0])

    def along(x, f):
        return sympy.expand(sum(x[k] * f.diff(xs[k]) for k in r))

    def bracket(x, y):
        return sympy.Matrix([along(x, y[a]) - along(y, x[a]) for a in r])

    def parameter(x):
        if flavor == "milne":
            w = bracket(v, x)
            form = [0] + list(gamma[1:, 1:].inv() * w[1:, :])
        else:
            lowered = h * bracket(x, v)
            form = theta * (-along(x, phi) + (lowered.T * v)[0]) - lowered
        rays = {xs[a]: scale * xs[a] for a in axes}
        integrand = sympy.expand(sum(xs[a] * form[a].subs(rays, simultaneous=True) for a in axes))
        f = sympy.expand(sympy.integrate(integrand, (scale, 0, 1)))
        df = [f.diff(xs[a]) for a in r]
        image = gamma * sympy.Matrix(df) if flavor == "milne" else sympy.Matrix(df)
        target = w if flavor == "milne" else form
        return f if (image - target).applyfunc(sympy.expand).is_zero_matrix else None

    xfields = [column(x) for x in fields]
    found = [parameter(x) for x in xfields]
    brackets, witness = {}, None
    if flavor == "milne":
        # (X_i, f_i) against (0, t^p) has parameter X_i(t^p), whose time part
        # is the output; the first nonzero one, p up to the degree, witnesses
        origin = {x: 0 for x in xs[1:]}
        outputs = ((i, along(x, xs[0] ** p).subs(origin))
                   for p in range(1, max(degree, 1) + 1) for i, x in enumerate(xfields))
        witness = next(((i, g) for i, g in outputs if g != 0), None)
    if None not in found:
        for i in range(len(fields)):
            for j in range(i + 1, len(fields)):
                xb = bracket(xfields[i], xfields[j])
                g = along(xfields[i], found[j]) - along(xfields[j], found[i]) - parameter(xb)
                brackets[i, j] = (xb, sympy.expand(g))
    return found, brackets, witness


SHEARED = (Path(__file__).parent.parent / "samples" / "sheared.ncw").read_text()
# flat gauge data whose observer V = U - gamma(A) rotates, so h(L_X V, V) is
# not zero as it is for V = U
ROTATING_OBSERVER = (
    "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1\ntheta[0] = 1\nU[0] = 1\nA[1] = -x2\nA[2] = x1\n"
)


@st.composite
def extension_documents(draw):
    """A standard preset over n <= 2 with a potential of degree <= 2, which
    may be linear or vanish; flat gauge data over n <= 2 with a random
    linear A, a twisted observer; or samples/sheared.ncw."""
    kind = draw(st.sampled_from(["sheared", "twisted", "standard", "standard"]))
    if kind == "sheared":
        return SHEARED
    n = draw(st.integers(1, 2))
    degree = 1 if kind == "twisted" else draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, degree)] * (n + 1)).filter(lambda e: sum(e) <= degree)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)

    def poly():
        return Poly(n + 1, draw(st.dictionaries(exps, coeffs, max_size=3)))

    if kind == "standard":
        return f"standard n={n} phi = {poly()}"
    lines = [f"n = {n}", *(f"gamma[{a}][{a}] = 1" for a in range(1, n + 1)), "theta[0] = 1",
             "U[0] = 1", *(f"A[{a}] = {poly()}" for a in range(n + 1))]
    return "\n".join(lines) + "\n"


@settings(max_examples=20, deadline=None)
@given(text=extension_documents(), flavor=st.sampled_from(["milne", "galilei"]),
       degree=st.integers(0, 2))
# uniform gravity, where X(phi) does not vanish on the galilei basis
@example(text="standard n=1 phi = x1", flavor="galilei", degree=1)
@example(text=ROTATING_OBSERVER, flavor="galilei", degree=1)
@example(text=SHEARED, flavor="milne", degree=1)
def test_extension_matches_the_paper_formulas_in_sympy(text, flavor, degree):
    from ncw.dsl import build_structure, parse_structure
    from ncw.extensions import ExtensionError, extend
    from ncw.solver import solve_symmetries

    s = build_structure(parse_structure(text)).ncb
    xs = sympy.symbols(f"x0:{s.base.dimension}")
    fields = solve_symmetries(s.induced_nc(), flavor, degree).fields
    found, brackets, witness = extension_oracle(s, flavor, fields, degree, xs)
    try:
        ext = extend(s, flavor, degree)
    except ExtensionError:
        # only a basis with a field that does not extend is refused
        assert None in found, text
        return
    assert ext.basis.fields == fields, text
    for f, expected in zip(ext.parameters, found, strict=True):
        assert (f is None) == (expected is None), text
        assert f is None or same(f, expected, xs), text
    assert ext.brackets.keys() == brackets.keys(), text
    assert (ext.witness is None) == (witness is None), text
    if witness is not None:
        assert ext.witness[0] == witness[0] and same(ext.witness[1], witness[1], xs), text
    for (i, j), (xb, g) in brackets.items():
        out = ext.brackets[i, j]
        assert all(same(out.x.comp(a), xb[a], xs) for a in range(len(xs))), text
        assert same(out.f, g, xs), text
        if flavor == "galilei":
            c = ext.cocycle[i][j]
            assert g == sympy.Rational(c.numerator, c.denominator), text
        else:
            assert g.free_symbols <= {xs[0]}, text
