"""The golden report corpus: exit code, stdout and stderr of a fixed matrix
of ``ncw`` runs, in both report formats.

    PYTHONPATH=src python3 tests/regen_golden.py [--check]

rewrites ``tests/golden/*.out`` from the current code, and the
``ncw --help`` and ``ncw <command> --help`` text in ``tests/golden/help/``.
With ``--check`` nothing is written: every case and help screen is replayed
and compared with its file by ``mismatches``, each mismatch is printed, and
the exit status is 1 if there is any; this needs no pytest, so it runs on
every supported interpreter.  ``test_golden.py`` makes the same comparison
under pytest.  Each case runs
``ncw.cli.main`` once with ``--format json``; the text report is rendered
from the same ``Report`` object, exactly as ``--format text`` would print
it.  Inputs are the files in ``samples/`` and ``tests/golden/inputs/``;
paths are given relative to the repository root and never appear in a
report.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import os
import sys
from collections.abc import Iterable
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

SAMPLES = ["flat2", "oscillator", "rotating", "sheared"]
FLAVORS = ["cor", "mil", "gal"]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for sample in SAMPLES:
        path = f"samples/{sample}.ncw"
        for command in ("validate", "connection", "curvature"):
            cases[f"{sample}-{command}"] = [command, "--input", path]
        for command in ("solve", "brackets", "extend"):
            for flavor in FLAVORS:
                argv = [command, "--input", path, "--flavor", flavor, "--degree", "1"]
                cases[f"{sample}-{command}-{flavor}"] = argv
    inputs = "tests/golden/inputs"
    extra = {
        "flat2-classify-rotation": ["classify", "--input", "samples/flat2.ncw",
                                    "--field", "X[1] = x2\nX[2] = -x1"],
        "oscillator-classify-boost": ["classify", "--input", "samples/oscillator.ncw",
                                      "--field", "X[1] = t^2\nX[2] = t"],
        "sheared-classify-translation": ["classify", "--input", "samples/sheared.ncw",
                                        "--field", "X[0] = 1"],
        "oscillator-gauge": ["gauge", "--input", "samples/oscillator.ncw",
                             "--x", "X[1] = x2\nX[2] = -x1", "--psi", "psi[1] = t", "--f", "x1"],
        "sheared-gauge": ["gauge", "--input", "samples/sheared.ncw", "--x", "X[0] = 1"],
        "flat2-validate-points": ["validate", "--input", "samples/flat2.ncw",
                                  "--sample-point", "1,2,3", "--sample-point=-1/2,0,7/3"],
        "fading-metric-validate-point": ["validate", "--input", f"{inputs}/fading-metric.ncw",
                                         "--sample-point=-1,0,0"],
        "fading-clock-validate-point": ["validate", "--input", f"{inputs}/fading-clock.ncw",
                                        "--sample-point=-1,0"],
        "degenerate-validate": ["validate", "--input", f"{inputs}/degenerate.ncw"],
        "kernel-validate": ["validate", "--input", f"{inputs}/kernel.ncw"],
        "indefinite-validate": ["validate", "--input", f"{inputs}/indefinite.ncw"],
        "syntax-validate": ["validate", "--input", f"{inputs}/syntax.ncw"],
        "expression-error-validate": ["validate", "--input", f"{inputs}/expression-error.ncw"],
        "torsion-curvature": ["curvature", "--input", f"{inputs}/torsion.ncw"],
        # a pair failing its checks is a verdict whatever the data shape
        **{
            f"open-clock-{shape}-{command}":
                [command, "--input", f"{inputs}/open-clock-{shape}.ncw"]
            for shape in ("gauge", "observer") for command in ("validate", "curvature")
        },
        "flat2-classify-bad-field": ["classify", "--input", "samples/flat2.ncw",
                                     "--field", "X[5] = t"],
        "flat2-classify-two-per-line": ["classify", "--input", "samples/flat2.ncw",
                                        "--field", "X[0] = 1 X[1] = t"],
        "index-range-validate": ["validate", "--input", f"{inputs}/index-range.ncw"],
        "stray-validate": ["validate", "--input", f"{inputs}/stray.ncw"],
        "flat2-solve-bad-flavor": ["solve", "--input", "samples/flat2.ncw",
                                   "--flavor", "bogus", "--degree", "1"],
        # the algebra anchors, and an extension refused for its clock
        "oscillator-extend-mil-d2": ["extend", "--input", "samples/oscillator.ncw",
                                     "--flavor", "mil", "--degree", "2"],
        "flat2-extend-gal-d2": ["extend", "--input", "samples/flat2.ncw",
                                "--flavor", "gal", "--degree", "2"],
        "tilted-clock-extend-mil": ["extend", "--input", f"{inputs}/tilted-clock.ncw",
                                    "--flavor", "mil", "--degree", "1"],
        # the galilei parameter where X(phi) does not vanish on the basis
        "uniform-gravity-extend-gal": ["extend", "--input", f"{inputs}/uniform-gravity.ncw",
                                       "--flavor", "gal", "--degree", "1"],
    }
    cases.update(extra)
    return cases


CASES = _cases()

COMMANDS = ["validate", "connection", "curvature", "solve", "brackets", "classify",
            "extend", "gauge"]
# the help screens, by file name: the top level and one per command
HELP = {"ncw": [], **{command: [command] for command in COMMANDS}}


def run_case(argv: list[str]) -> dict[str, str]:
    """Both formats of one case, each as the text of its golden file."""
    import ncw.cli

    reports = []
    real_emit = ncw.cli.emit_report

    def capture(report, structured):
        reports.append(report)
        return real_emit(report, structured)

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    ncw.cli.emit_report = capture
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ncw.cli.main(argv + ["--format", "json"])
    finally:
        ncw.cli.emit_report = real_emit
        os.chdir(cwd)
    text = real_emit(reports[0], False) if reports else ""
    return {
        "json": _layout(code, out.getvalue(), err.getvalue()),
        "text": _layout(code, text, err.getvalue()),
    }


def run_help(argv: list[str]) -> str:
    """``ncw <argv> --help`` as the text of its golden file, at 80 columns
    whatever the terminal's width."""
    import ncw.cli

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ncw.cli.main(argv + ["--help"])
            except SystemExit as exc:
                code = exc.code
    return _layout(code, out.getvalue(), err.getvalue())


def _layout(code: int, stdout: str, stderr: str) -> str:
    return f"exit {code}\n--- stdout\n{stdout}\n--- stderr\n{stderr}"


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.out"


def help_path(name: str) -> Path:
    return GOLDEN / "help" / f"{name}.out"


def report_files() -> dict[Path, str]:
    """Every report case's golden file and the text the current code gives it."""
    return {
        golden_path(name, fmt): body
        for name, argv in CASES.items()
        for fmt, body in run_case(argv).items()
    }


def help_files() -> dict[Path, str]:
    """Every help screen's golden file and the text the current code gives it."""
    return {help_path(name): run_help(argv) for name, argv in HELP.items()}


def mismatches(files: dict[Path, str], stored: Iterable[Path]) -> list[str]:
    """One message for each of ``files`` whose stored text differs or is
    missing, with a diff, and one for each ``stored`` file that no entry of
    ``files`` writes."""
    problems = []
    for path, body in files.items():
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old != body:
            name = str(path.relative_to(ROOT))
            diff = difflib.unified_diff(
                (old or "").splitlines(), body.splitlines(), name, "now", lineterm="", n=1
            )
            problems.append("\n".join([f"mismatch: {name}", *diff]))
    for path in sorted(set(stored) - files.keys()):
        problems.append(f"stray: {path.relative_to(ROOT)}, which no case writes")
    return problems


def check() -> int:
    """Replay the corpus without writing; print each mismatched, missing or
    stray file and return 1 if there is any, else 0."""
    reports, helps = report_files(), help_files()
    problems = (mismatches(reports, GOLDEN.glob("*.out"))
                + mismatches(helps, GOLDEN.glob("help/*.out")))
    for problem in problems:
        print(problem)
    total = len(reports) + len(helps)
    print(f"{len(problems)} problems among {total} files" if problems else f"all {total} files match")
    return 1 if problems else 0


def main() -> None:
    files = {**report_files(), **help_files()}
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    help_path("ncw").parent.mkdir(exist_ok=True)
    for path, body in files.items():
        path.write_text(body, encoding="utf-8")
    print(f"wrote {len(files)} files to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(description="Rewrite or check the golden report corpus.")
    parser.add_argument("--check", action="store_true", help="compare only; exit 1 on a mismatch")
    if parser.parse_args().check:
        sys.exit(check())
    main()
