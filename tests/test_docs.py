"""The README's worked examples stay true."""

from pathlib import Path

from ncw import Poly, extend, solve_symmetries, standard_structure

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_library_snippet():
    phi = Poly.variable(3, 1) ** 2
    s = standard_structure(2, phi)
    nc = s.induced_nc()
    nc.validate()
    basis = solve_symmetries(nc, "milne", 2)
    assert basis.dimension == 8
    assert "print(basis.dimension)                  # 8" in README


def test_extend_snippet():
    s = standard_structure(2, Poly.variable(3, 1) ** 2)
    mil = extend(s, "milne", 2)
    assert (len(mil.brackets), mil.witness) == (28, (0, Poly.const(3, 1)))
    assert "print(len(mil.brackets), mil.witness)   # 28 (0, Poly[3](1))" in README
    assert extend(s, "galilei", 1).triviality.trivial is False
    assert "print(gal.triviality.trivial)           # False" in README


def test_dimension_table():
    # the README's closed forms, spot-checked
    for n, d in [(1, 0), (2, 2), (3, 1)]:
        s = standard_structure(n, Poly.zero(n + 1)).induced_nc()
        cor = solve_symmetries(s, "coriolis", d).dimension
        mil = solve_symmetries(s, "milne", d).dimension
        gal = solve_symmetries(s, "galilei", max(d, 1)).dimension
        assert cor == (n * (n - 1) // 2 + n) * (d + 1) + 1
        assert mil == n * (n - 1) // 2 + n * (d + 1) + 1
        assert gal == (n + 1) * (n + 2) // 2
