"""Random expression texts through the command line: every run ends in exit
0, 1 or 2 without a traceback, and a reported expression re-parses to the
polynomial it was read from, or, for a computed one, to the polynomial the
library computes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncw.cli import main
from ncw.dsl import parse_expression

# x3 is out of range at n=2; exponents above 256 exceed MAX_EXPONENT
_atoms = st.one_of(
    st.integers(0, 20).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["t", "x1", "x2", "x3"]),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", " - ", " + ", "--"]), children).map(
            "".join
        ),
        st.tuples(children, st.integers(0, 300)).map(lambda p: f"({p[0]})^{p[1]}"),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"({c})"),
    )


expressions = st.one_of(
    st.recursive(_atoms, _combine, max_leaves=10),
    st.text(alphabet="tx123 +-*^()/0_#a\u00b2\u0661\u00e9", max_size=30),
)


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("input error: ")
    return code, out.getvalue()


def reparses(shown: str, text: str) -> bool:
    return parse_expression(shown, 3) == parse_expression(text, 3)


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(expressions)
def test_potential_under_validate(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "standard.ncw"
        path.write_text(f"standard n=2 phi = {text}\n", encoding="utf-8")
        code, out = run(["validate", "--input", str(path)])
    if code == 0:
        assert reparses(json.loads(out)["structure"]["phi"], text)


@FUZZ
@given(expressions)
def test_field_under_classify(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "flat2.ncw"
        path.write_text("flat n=2\n", encoding="utf-8")
        code, out = run(["classify", "--input", str(path), "--field", f"X[1] = {text}"])
    if code == 0:
        assert reparses(json.loads(out)["flags"]["field"][1], text)


@FUZZ
@given(expressions, expressions)
def test_gauge_variation_reparses(x_text, f_text):
    from ncw.gauge import GaugeElement, infinitesimal_gauge
    from ncw.structures import standard_structure
    from ncw.tensors import TensorField, vector

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "standard2.ncw"
        path.write_text("standard n=2 phi = x1^2\n", encoding="utf-8")
        argv = ["gauge", "--input", str(path), f"--x=X[1] = {x_text}", f"--f={f_text}"]
        code, out = run(argv)
    if code != 2:
        report = json.loads(out)
        x = [parse_expression(c, 3) for c in report["flags"]["x"]]
        assert x[1] == parse_expression(x_text, 3)
        element = GaugeElement(
            vector(3, x), TensorField.zero(3, 0, 1), parse_expression(report["flags"]["f"], 3)
        )
        s = standard_structure(2, parse_expression("x1^2", 3))
        shown = report["results"]["variation"]["phi"]
        assert parse_expression(shown, 3) == infinitesimal_gauge(s, element).d_phi
