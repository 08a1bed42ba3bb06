"""Every report byte for byte: exit code, stdout and stderr of the fixed
matrix in ``regen_golden.py``, in text and JSON, against ``tests/golden/``.

A change that alters a report on purpose regenerates the corpus with
``PYTHONPATH=src python3 tests/regen_golden.py`` and names the changed files.
"""

import difflib

from regen_golden import CASES, GOLDEN, golden_path, run_case


def test_reports_match_the_golden_corpus():
    expected = {golden_path(name, fmt) for name in CASES for fmt in ("json", "text")}
    assert set(GOLDEN.glob("*.out")) == expected
    mismatched = []
    for name, argv in CASES.items():
        for fmt, body in run_case(argv).items():
            stored = golden_path(name, fmt).read_text(encoding="utf-8")
            if body != stored:
                diff = difflib.unified_diff(
                    stored.splitlines(), body.splitlines(), "golden", "now", lineterm="", n=1
                )
                mismatched.append(f"{name}.{fmt}:\n" + "\n".join(list(diff)[:12]))
    assert not mismatched, "\n\n".join(mismatched)
