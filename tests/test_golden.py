"""Every report byte for byte: exit code, stdout and stderr of the fixed
matrix in ``regen_golden.py``, in text and JSON, against ``tests/golden/``,
and every ``--help`` screen against ``tests/golden/help/``.

A change that alters a report on purpose regenerates the corpus with
``PYTHONPATH=src python3 tests/regen_golden.py`` and names the changed files.
"""

from helpers import is_canonical
from ncw.cli import COMMANDS
from ncw.linalg import SparseEliminator
from ncw.poly import Poly
from regen_golden import CASES, GOLDEN, HELP, help_files, mismatches, report_files, run_case


def test_reports_match_the_golden_corpus():
    problems = mismatches(report_files(), GOLDEN.glob("*.out"))
    assert not problems, "\n\n".join(problems)


def test_help_matches_its_golden_file():
    assert list(HELP) == ["ncw", *COMMANDS]
    problems = mismatches(help_files(), GOLDEN.glob("help/*.out"))
    assert not problems, "\n\n".join(problems)


def test_golden_runs_make_only_canonical_exact_coefficients(monkeypatch):
    """The matrix again, with every trusted Poly construction and every
    eliminator row checked: each coefficient an int or a Fraction with a
    denominator above 1, never a float.  A plain ``/`` between ints that
    slips into the library shows up here as a float."""
    bad = []

    def check(values, where):
        bad.extend((where, v) for v in values if not is_canonical(v))

    raw = Poly._raw.__func__

    def checked_raw(cls, dimension, terms):
        check(terms.values(), "Poly._raw")
        return raw(cls, dimension, terms)

    add_row, reduced_rows = SparseEliminator.add_row, SparseEliminator.reduced_rows

    def checked_add_row(elim, row):
        check(row.values(), "add_row argument")
        before = set(elim.pivot_rows)
        add_row(elim, row)
        for lead in elim.pivot_rows.keys() - before:
            check(elim.pivot_rows[lead].values(), "pivot row")

    def checked_reduced_rows(elim):
        rows = reduced_rows(elim)
        for row in rows.values():
            check(row.values(), "reduced row")
        return rows

    monkeypatch.setattr(Poly, "_raw", classmethod(checked_raw))
    monkeypatch.setattr(SparseEliminator, "add_row", checked_add_row)
    monkeypatch.setattr(SparseEliminator, "reduced_rows", checked_reduced_rows)
    for argv in CASES.values():
        run_case(argv)
    assert not bad, bad[:10]
