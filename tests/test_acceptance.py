"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line.  Everything is exact rational arithmetic; there are no
tolerances anywhere.

Criterion 04b takes a compatible connection that fails the curvature
symmetry and pins the invariance argument of the repository README: the
doubly-raised transport still vanishes for every coriolis field.
"""

import random
from fractions import Fraction

from helpers import (
    basis_vector,
    random_coriolis_field,
    random_one_form,
    random_poly,
    random_vector,
    var,
)
from ncw.extensions import (
    BargmannElement,
    ExtendedElement,
    ExtensionError,
    bargmann_bracket,
    bargmann_from_field,
    cocycle_triviality,
    extended_cor_bracket,
    extended_gal_bracket,
    extended_mil_bracket,
    gal_extension_cocycle,
    noncentrality_check,
)
from ncw.gauge import GaugeElement, gauge_bracket, nc_projection_invariance_check
from ncw.poly import Poly
from ncw.solver import (
    classify,
    solve_symmetries,
    structure_constants,
    verify_coriolis_identity,
)
from ncw.structures import (
    NCStructure,
    flat_galilei,
    flat_structure,
    standard_structure,
)
from ncw.tensors import (
    Connection,
    TensorField,
    check_newtonian,
    covariant_derivative,
    curvature,
    lie_derivative,
    raise_connection,
    tensor_product,
    vector,
    vector_bracket,
)


def report(criterion: str, ok: bool, summary: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {criterion}: {summary}"


def gal_dim(n):
    return (n + 1) * (n + 2) // 2


def is_bargmann_field(x):
    """Whether x refits to Bargmann parameters: the affine template."""
    try:
        bargmann_from_field(ExtendedElement(x, Poly.zero(x.dimension)))
    except ExtensionError:
        return False
    return True


def test_criterion_01_galilei_dimension():
    ok = True
    for n in (1, 2, 3):
        s = flat_structure(n).induced_nc()
        for d in (1, 2, 3):
            basis = solve_symmetries(s, "galilei", d)
            if basis.dimension != gal_dim(n):
                ok = False
            if not all(is_bargmann_field(f) for f in basis.fields):
                ok = False
    report(
        "01",
        ok,
        "flat full-symmetry dimension is (n+1)(n+2)/2 with affine-template "
        "bases for n in {1,2,3}, d in {1,2,3}",
    )


def test_criterion_02_filtration_dimensions():
    ok = True
    for n in (1, 2, 3):
        s = flat_structure(n).induced_nc()
        for d in range(4):
            cor = solve_symmetries(s, "coriolis", d).dimension
            mil = solve_symmetries(s, "milne", d).dimension
            if cor != (n * (n - 1) // 2 + n) * (d + 1) + 1:
                ok = False
            if mil != n * (n - 1) // 2 + n * (d + 1) + 1:
                ok = False
    report(
        "02",
        ok,
        "flat filtration dimensions match the parameter counts of the "
        "time-coefficient templates for n in {1,2,3}, d in {0..3}",
    )


def test_criterion_03_nesting():
    ok = True
    structures = [
        flat_structure(1).induced_nc(),
        flat_structure(2).induced_nc(),
        flat_structure(3).induced_nc(),
        standard_structure(2, var(3, 1) ** 2).induced_nc(),
    ]
    for s in structures:
        gal = solve_symmetries(s, "galilei", 2)
        mil = solve_symmetries(s, "milne", 2)
        for f in gal.fields:
            flags = classify(f, s)
            if not (flags.is_coriolis and flags.is_milne and flags.is_galilei):
                ok = False
        for f in mil.fields:
            flags = classify(f, s)
            if not (flags.is_coriolis and flags.is_milne):
                ok = False
    report(
        "03",
        ok,
        "every solved full-symmetry element is milne and coriolis, every "
        "milne element is coriolis (exact membership)",
    )


def test_criterion_04a_raised_transport_identity_on_standard_structures():
    ok = True
    x1, x2 = var(3, 1), var(3, 2)
    for phi in [Poly.zero(3), x1, x1**2, x1 * x2]:
        s = standard_structure(2, phi).induced_nc()
        basis = solve_symmetries(s, "coriolis", 2)
        for f in basis.fields:
            if not verify_coriolis_identity(f, s):
                ok = False
    report(
        "04a",
        ok,
        "doubly-raised transport vanishes for every coriolis basis element "
        "of the standard structures (phi in {0, x1, x1^2, x1*x2})",
    )


def rotation_connection(coefficient):
    dim = 3
    eps = {(1, 2): coefficient, (2, 1): -coefficient}

    def fn(a, b, c):
        if a == 0 and (b, c) in eps:
            return eps[(b, c)]
        if b == 0 and (a, c) in eps:
            return eps[(a, c)]
        return Poly.zero(dim)

    return Connection.build(dim, fn)


def test_criterion_04b_identity_fails_for_nonnewtonian_rotation():
    """Name kept from the original criterion; it now pins the invariance."""
    # the premise: the rotation-deformed connection is compatible with the
    # flat pair yet fails the curvature symmetry (its force form is not
    # closed, which needs the time-dependent coefficient)
    g = flat_galilei(2)
    conn = rotation_connection(var(3, 0))
    assert covariant_derivative(conn, g.gamma).is_zero
    assert covariant_derivative(conn, g.theta).is_zero
    assert not check_newtonian(curvature(conn), g.gamma)[0]
    # every nonzero symbol has a time lower index, which gamma annihilates:
    # the doubly-raised symbols stay those of the flat connection (zero),
    # while the once-raised ones, which the milne condition sees, differ
    flat = flat_structure(2).induced_nc().connection
    raised_twice = raise_connection(conn, g.gamma, 2)
    ok = raised_twice.is_zero and raised_twice == raise_connection(flat, g.gamma, 2)
    if raise_connection(conn, g.gamma, 1) == raise_connection(flat, g.gamma, 1):
        ok = False
    # the full coriolis algebra, so the identity check below is not vacuous
    n, d = 2, 2
    s = NCStructure(g, conn)
    basis = solve_symmetries(s, "coriolis", d)
    if basis.dimension != (n * (n - 1) // 2 + n) * (d + 1) + 1:
        ok = False
    if not all(verify_coriolis_identity(f, s) for f in basis.fields):
        ok = False
    report(
        "04b",
        ok,
        "the non-Newtonian rotation connection deforms the once-raised "
        "symbols but not the doubly-raised ones, and the doubly-raised "
        "transport vanishes for all 10 coriolis basis elements: it is an "
        "invariant of the metric pair for every compatible connection",
    )


def test_criterion_05_connection_reconstruction():
    ok = True
    t = var(3, 0)
    x1, x2 = var(3, 1), var(3, 2)
    for n, phi in [
        (1, var(2, 1)),
        (1, var(2, 1) ** 2),
        (2, x1 * x2),
        (2, x1 + x2),
        (2, t * x1),
    ]:
        s = standard_structure(n, phi)
        conn = s.induced_connection()
        dim = n + 1
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    expected = (
                        phi.partial(c)
                        if (a == 0 and b == 0 and c >= 1)
                        else Poly.zero(dim)
                    )
                    if conn.symbol(a, b, c) != expected:
                        ok = False
    report(
        "05",
        ok,
        "standard presets built through the geodesic+force decomposition "
        "carry exactly the spatial potential gradient at the timelike lower "
        "pair (gauge form -phi.theta; sign convention documented in README)",
    )


def test_criterion_06_newtonian_symmetry():
    ok = True
    x1, x2 = var(3, 1), var(3, 2)
    for phi in [Poly.zero(3), x1, x1**2, x1 * x2]:
        s = standard_structure(2, phi)
        r = curvature(s.induced_connection())
        if not check_newtonian(r, s.base.gamma)[0]:
            ok = False
    # geodesic connection of a uniformly accelerating unit field on flat data
    g = flat_galilei(1)
    u = vector(2, [Poly.const(2, 1), var(2, 0)])
    from ncw.structures import geodesic_connection

    ug = geodesic_connection(g, u)
    if not check_newtonian(curvature(ug), g.gamma)[0]:
        ok = False
    report(
        "06",
        ok,
        "curvature symmetry holds for all standard presets and for the "
        "geodesic connection of the accelerating unit field",
    )


def test_criterion_07_gauge_invariance_of_projection():
    rng = random.Random(107)
    s = standard_structure(2, var(3, 1) ** 2)
    ok = True
    for _ in range(20):
        psi = random_one_form(rng, 3, degree=2)
        f = random_poly(rng, 3, degree=2)
        if not nc_projection_invariance_check(s, psi, f):
            ok = False
    report(
        "07",
        ok,
        "20 randomized internal gauge shifts of degree <= 2 leave the "
        "reassembled connection unchanged",
    )


def mk_milne_element(omega_units, rho, tau, xi):
    dim = 3
    x1, x2 = Poly.variable(dim, 1), Poly.variable(dim, 2)
    comps = [Poly.const(dim, tau)]
    comps.append(omega_units * x2 + rho[0])
    comps.append(-omega_units * x1 + rho[1])
    return ExtendedElement(vector(dim, comps), xi)


def milne_parameter_oracle(e1, e2):
    """Independent evaluation of the standard-case bracket table from the
    element parameters (rotation rate, translations, time shift, parameter)."""
    (w1, r1, t1, xi1), (w2, r2, t2, xi2) = e1, e2
    w = Fraction(0)  # so(2) is abelian
    rd1 = (r1[0].partial(0), r1[1].partial(0))
    rd2 = (r2[0].partial(0), r2[1].partial(0))
    # omega applied to a vector: w.J @ (a,b) = (w b, -w a)
    rho = (
        w2 * r1[1] - w1 * r2[1] + t1 * rd2[0] - t2 * rd1[0],
        -w2 * r1[0] + w1 * r2[0] + t1 * rd2[1] - t2 * rd1[1],
    )
    xi = (
        t1 * xi2.partial(0)
        - t2 * xi1.partial(0)
        + r1[0] * rd2[0]
        + r1[1] * rd2[1]
        - r2[0] * rd1[0]
        - r2[1] * rd1[1]
    )
    return w, rho, Fraction(0), xi


def test_criterion_08_extended_milne_bracket_table():
    s = flat_structure(2)
    dim = 3
    t = Poly.variable(dim, 0)
    zero = Poly.zero(dim)
    one = Poly.const(dim, 1)
    grid = []
    for w in (Fraction(1),):  # the rotation-block basis of so(2)
        for rho in [(t, zero), (zero, t), (t**2, zero), (zero, t**2)]:
            for tau in (Fraction(0), Fraction(1)):
                for xi in (one, t):
                    grid.append((w, rho, tau, xi))
    ok = True
    for p1 in grid:
        for p2 in grid:
            e1 = mk_milne_element(*p1)
            e2 = mk_milne_element(*p2)
            out = extended_mil_bracket(e1, e2, s)
            w_out, rho_out, tau_out, xi_out = milne_parameter_oracle(p1, p2)
            expected = mk_milne_element(w_out, rho_out, tau_out, xi_out)
            if not (out.x - expected.x).is_zero or out.f != xi_out:
                ok = False
    report(
        "08",
        ok,
        "observer-stabilizer brackets reproduce all four standard-case "
        "component formulas over the parameter grid (rotation basis, "
        "{t, t^2} x unit translations, tau in {0,1}, parameter in {1, t})",
    )


def bargmann_generators(n):
    gens = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            gens.append(BargmannElement.make(n, omega={(a, b): 1}))
    for a in range(1, n + 1):
        gens.append(BargmannElement.make(n, beta={a: 1}))
    for a in range(1, n + 1):
        gens.append(BargmannElement.make(n, sigma={a: 1}))
    gens.append(BargmannElement.make(n, tau=1))
    gens.append(BargmannElement.make(n, xi=1))
    return gens


def zero_bargmann(n):
    return BargmannElement.make(n)


def add_bargmann(a, b):
    return BargmannElement(
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.omega, b.omega)),
        tuple(x + y for x, y in zip(a.beta, b.beta)),
        tuple(x + y for x, y in zip(a.sigma, b.sigma)),
        a.tau + b.tau,
        a.xi + b.xi,
    )


def test_criterion_09_bargmann_algebra():
    ok = True
    # component formulas against the generic stabilizer machinery, and the
    # frozen hallmark values
    for n in (2, 3):
        s = flat_structure(n)
        gens = bargmann_generators(n)
        for i, b1 in enumerate(gens):
            for b2 in gens[i:]:
                direct = bargmann_bracket(b1, b2)
                generic = extended_gal_bracket(
                    ExtendedElement(b1.to_field(), Poly.const(n + 1, b1.xi)),
                    ExtendedElement(b2.to_field(), Poly.const(n + 1, b2.xi)),
                    s,
                )
                # tau, beta, sigma, omega and xi at once
                if bargmann_from_field(generic) != direct:
                    ok = False
        # Jacobi on all generator triples
        for b1 in gens:
            for b2 in gens:
                for b3 in gens:
                    total = zero_bargmann(n)
                    for x, y, z in [(b1, b2, b3), (b2, b3, b1), (b3, b1, b2)]:
                        total = add_bargmann(
                            total, bargmann_bracket(bargmann_bracket(x, y), z)
                        )
                    if (
                        any(v != 0 for row in total.omega for v in row)
                        or any(v != 0 for v in total.beta)
                        or any(v != 0 for v in total.sigma)
                        or total.tau != 0
                        or total.xi != 0
                    ):
                        ok = False
    # hallmark values: translation against boost feeds the center,
    # boost against time translation feeds translations
    out = bargmann_bracket(
        BargmannElement.make(2, sigma={1: 1}), BargmannElement.make(2, beta={1: 1})
    )
    if out.xi != 1 or any(v != 0 for v in out.sigma) or any(v != 0 for v in out.beta):
        ok = False
    out = bargmann_bracket(
        BargmannElement.make(2, beta={1: 1}), BargmannElement.make(2, tau=1)
    )
    if out.sigma != (-1, 0) or out.xi != 0:
        ok = False
    # nontriviality of the central cocycle, with an exact certificate
    s = flat_structure(2)
    basis = solve_symmetries(s.induced_nc(), "galilei", 1)
    cocycle = gal_extension_cocycle(basis, s)
    result = cocycle_triviality(basis, cocycle)
    if result.trivial or result.certificate is None:
        ok = False
    else:
        constants, _ = structure_constants(basis)
        k = basis.dimension
        for m in range(k):
            if (
                sum(
                    (y * constants[i][j][m] for y, (i, j) in zip(result.certificate, result.pairs)),
                    Fraction(0),
                )
                != 0
            ):
                ok = False
        paired = sum(
            (y * cocycle[i][j] for y, (i, j) in zip(result.certificate, result.pairs)),
            Fraction(0),
        )
        if paired == 0:
            ok = False
    report(
        "09",
        ok,
        "central-extension brackets match the generic machinery for n in "
        "{2,3}, satisfy Jacobi on all generator triples, and the central "
        "cocycle is NONTRIVIAL with an exact inconsistency certificate",
    )


def test_criterion_10_noncentrality():
    s = flat_structure(2)
    flag, witness = noncentrality_check(s, solve_symmetries(s.induced_nc(), "milne", 2))
    ok = flag and witness is not None
    # the hallmark witness: time translation against the parameter t
    e1 = ExtendedElement(basis_vector(3, 0), Poly.zero(3))
    e2 = ExtendedElement(TensorField.zero(3, 1, 0), var(3, 0))
    out = extended_mil_bracket(e1, e2, s)
    if out.f != Poly.const(3, 1):
        ok = False
    # the full-stabilizer analog is central: constants commute with everything
    basis = solve_symmetries(s.induced_nc(), "galilei", 1)
    center = ExtendedElement(TensorField.zero(3, 1, 0), Poly.const(3, 1))
    for f in basis.fields:
        out = extended_gal_bracket(ExtendedElement(f, Poly.zero(3)), center, s)
        if not (out.x.is_zero and out.f.is_zero):
            ok = False
    report(
        "10",
        ok,
        "time translations act nontrivially on the time-function ideal "
        "(parameter t gives output 1) while the constant center is central",
    )


def test_criterion_11_property_suites():
    ok = True
    rng = random.Random(111)

    # gauge-algebra bracket: antisymmetry + Jacobi on 50 random triples
    def random_gauge():
        return GaugeElement(
            random_vector(rng, 3, 2), random_one_form(rng, 3, 2), random_poly(rng, 3, 2)
        )

    for _ in range(50):
        es = [random_gauge() for _ in range(3)]
        ab = gauge_bracket(es[0], es[1])
        ba = gauge_bracket(es[1], es[0])
        if not ((ab.x + ba.x).is_zero and (ab.psi + ba.psi).is_zero and (ab.f + ba.f).is_zero):
            ok = False
        tx = TensorField.zero(3, 1, 0)
        tp = TensorField.zero(3, 0, 1)
        tf = Poly.zero(3)
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            term = gauge_bracket(gauge_bracket(es[i], es[j]), es[k])
            tx, tp, tf = tx + term.x, tp + term.psi, tf + term.f
        if not (tx.is_zero and tp.is_zero and tf.is_zero):
            ok = False

    # extended metric-pair-stabilizer bracket on 50 random triples
    s = flat_structure(2)
    for _ in range(50):
        es = [
            ExtendedElement(random_coriolis_field(rng, 2, 2), random_poly(rng, 3, 2))
            for _ in range(3)
        ]
        ab = extended_cor_bracket(es[0], es[1], s)
        ba = extended_cor_bracket(es[1], es[0], s)
        if not ((ab.x + ba.x).is_zero and (ab.f + ba.f).is_zero):
            ok = False
        tx = TensorField.zero(3, 1, 0)
        tf = Poly.zero(3)
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            term = extended_cor_bracket(extended_cor_bracket(es[i], es[j], s), es[k], s)
            tx, tf = tx + term.x, tf + term.f
        if not (tx.is_zero and tf.is_zero):
            ok = False

    # observer-stabilizer bracket on 50 random standard triples
    t = var(3, 0)

    def random_mil():
        def tp(deg):
            return sum(
                (Fraction(rng.randint(-2, 2)) * t**k for k in range(deg + 1)),
                Poly.zero(3),
            )

        return mk_milne_element(
            Fraction(rng.randint(-2, 2)), (tp(2), tp(2)), Fraction(rng.randint(-2, 2)), tp(2)
        )

    for _ in range(50):
        es = [random_mil() for _ in range(3)]
        ab = extended_mil_bracket(es[0], es[1], s)
        ba = extended_mil_bracket(es[1], es[0], s)
        if not ((ab.x + ba.x).is_zero and (ab.f + ba.f).is_zero):
            ok = False
        tx = TensorField.zero(3, 1, 0)
        tf = Poly.zero(3)
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            term = extended_mil_bracket(extended_mil_bracket(es[i], es[j], s), es[k], s)
            tx, tf = tx + term.x, tf + term.f
        if not (tx.is_zero and tf.is_zero):
            ok = False

    # parameter-form central bracket on 50 random triples
    def random_bargmann():
        return BargmannElement.make(
            2,
            omega={(1, 2): rng.randint(-2, 2)},
            beta={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
            sigma={1: rng.randint(-2, 2), 2: rng.randint(-2, 2)},
            tau=rng.randint(-2, 2),
            xi=rng.randint(-2, 2),
        )

    for _ in range(50):
        bs = [random_bargmann() for _ in range(3)]
        total = zero_bargmann(2)
        for x, y, z in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            total = add_bargmann(
                total, bargmann_bracket(bargmann_bracket(bs[x], bs[y]), bs[z])
            )
        if (
            any(v != 0 for row in total.omega for v in row)
            or any(v != 0 for v in total.beta)
            or any(v != 0 for v in total.sigma)
            or total.tau != 0
            or total.xi != 0
        ):
            ok = False

    # Lie-derivative laws on 50 randomized tensors
    for _ in range(50):
        x = random_vector(rng, 2, 2)
        y = random_vector(rng, 2, 2)
        s_t = TensorField.build(2, 1, 0, lambda idx: random_poly(rng, 2))
        t_t = TensorField.build(2, 0, 1, lambda idx: random_poly(rng, 2))
        lhs = lie_derivative(x, tensor_product(s_t, t_t))
        rhs = tensor_product(lie_derivative(x, s_t), t_t) + tensor_product(
            s_t, lie_derivative(x, t_t)
        )
        if not (lhs - rhs).is_zero:
            ok = False
        mixed = TensorField.build(2, 1, 1, lambda idx: random_poly(rng, 2))
        comm_lhs = lie_derivative(vector_bracket(x, y), mixed)
        comm_rhs = lie_derivative(x, lie_derivative(y, mixed)) - lie_derivative(
            y, lie_derivative(x, mixed)
        )
        if not (comm_lhs - comm_rhs).is_zero:
            ok = False

    report(
        "11",
        ok,
        "antisymmetry + Jacobi for the gauge bracket and all extended "
        "brackets on 50 randomized degree<=2 triples; Lie-derivative "
        "derivation and commutator laws on 50 randomized tensors",
    )
