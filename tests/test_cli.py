"""Command dispatch, exit codes, and report round trips."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import ncw.structures
from helpers import counting, fresh_frames
from ncw.cli import main
from ncw.dsl import parse_expression


@pytest.fixture
def flat2(tmp_path):
    path = tmp_path / "flat2.ncw"
    path.write_text("flat n=2\n")
    return str(path)


@pytest.fixture
def standard2(tmp_path):
    path = tmp_path / "standard2.ncw"
    path.write_text("standard n=2 phi = x1^2\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_flat_passes(self, capsys, flat2):
        code, out, _ = run(capsys, "validate", "--input", flat2)
        assert code == 0
        assert "passed: True" in out

    def test_invariant_violation_is_verdict_false(self, capsys, tmp_path):
        path = tmp_path / "broken.ncw"
        path.write_text("n = 1\ngamma[0][0] = 1\ntheta[0] = 1\nGamma[0][0][0] = 0\n")
        code, out, err = run(
            capsys, "validate", "--input", str(path), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["passed"] is False
        details = [
            c.get("detail", "") for c in payload["results"]["checks"]
        ]
        assert any("kernel" in d for d in details)

    def test_nonnewtonian_connection_is_verdict_false(self, capsys, tmp_path):
        path = tmp_path / "rotating.ncw"
        path.write_text(
            "n = 2\n"
            "gamma[1][1] = 1\n"
            "gamma[2][2] = 1\n"
            "theta[0] = 1\n"
            "Gamma[0][1][2] = t\n"
            "Gamma[1][0][2] = t\n"
            "Gamma[0][2][1] = -t\n"
            "Gamma[2][0][1] = -t\n"
        )
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 1
        code, out, _ = run(
            capsys, "curvature", "--input", str(path), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["results"]["newtonian"] is False
        assert payload["results"]["witness"] is not None

    def test_unit_field_off_theta_names_u(self, capsys, tmp_path):
        # theta(U) = 2: the message names the input, not an internal step
        path = tmp_path / "u2.ncw"
        path.write_text("n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nU[0] = 2\nA[0] = 0\n")
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert err == "input error: U must satisfy theta(U) = 1\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "--input", "no-such-file.ncw")
        assert code == 2
        assert "input error" in err

    def test_sample_points_accepted_on_valid_structure(self, capsys, flat2):
        code, _, _ = run(
            capsys,
            "validate", "--input", flat2,
            "--sample-point", "1,2,3",
            "--sample-point=-1/2,0,7/3",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "point, message",
        [
            ("1,0", "sample point needs 3 comma-separated rationals, got 2"),
            ("1/0,0,0", "bad sample point '1/0,0,0': zero denominator"),
            ("a,0,0", "bad sample point 'a,0,0': 'a' is not an ASCII integer or p/q"),
            # Fraction alone reads these as 1, 1.5 and (1, 1000, 10)
            ("\uff11,0,0", "bad sample point '\uff11,0,0': '\uff11' is not an ASCII integer or p/q"),
            ("1.5,0,0", "bad sample point '1.5,0,0': '1.5' is not an ASCII integer or p/q"),
            ("\u0661,1e3,1_0",
             "bad sample point '\u0661,1e3,1_0': '\u0661' is not an ASCII integer or p/q"),
            # past Python's int-string limit, named without echoing the point
            ("1" * 5000 + ",0,0", "bad sample point: a number exceeds the limit 4300 digits"),
        ],
        ids=["count", "zero-denominator", "non-number", "fullwidth-digit", "decimal",
             "arabic-indic-exponent-underscore", "past-int-string-limit"],
    )
    def test_bad_sample_point_is_an_input_error(self, capsys, flat2, point, message):
        code, out, err = run(capsys, "validate", "--input", flat2, f"--sample-point={point}")
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_observer_off_the_clock_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "observer.ncw"
        path.write_text("n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1\nV[0] = 2\nphi = x1\n")
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, out, err) == (2, "", "input error: V must satisfy theta(V) = 1\n")

    def test_sample_point_catches_clock_form_zero(self, capsys, tmp_path):
        # theta = (1+t) dt vanishes at t = -1; only the extra point sees it
        path = tmp_path / "fading-clock.ncw"
        path.write_text(
            "n = 1\n"
            "gamma[1][1] = 1\n"
            "theta[0] = 1 + t\n"
            "Gamma[0][0][1] = 0\n"
        )

        def metric_pair_check(*argv):
            _, out, _ = run(capsys, *argv)
            payload = json.loads(out)
            return next(
                c for c in payload["results"]["checks"] if c["name"] == "metric-pair"
            )

        base = ["validate", "--input", str(path), "--format", "json"]
        assert metric_pair_check(*base)["passed"] is True
        probed = metric_pair_check(*base, "--sample-point=-1,0")
        assert probed["passed"] is False
        assert "vanishes" in probed["detail"]

    def test_sheared_n6_passes(self, capsys, tmp_path):
        # its transverse metric has degree 10
        lines = ["n = 6", "gamma[1][1] = 1", "theta[0] = 1", "U[0] = 1", "A[0] = 0"]
        lines += [f"gamma[{a}][{a}] = x1^2 + 1" for a in range(2, 7)]
        for a in range(1, 6):
            lines += [f"gamma[{a}][{a + 1}] = x1", f"gamma[{a + 1}][{a}] = x1"]
        path = tmp_path / "sheared6.ncw"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "validate", "--input", str(path))
        assert code == 0
        assert "passed: True" in out

    def test_gamma_outside_the_invariants_is_an_input_error(self, capsys, tmp_path):
        # gauge data needs the transverse metric, whose preconditions are
        # the symmetry of gamma and gamma(theta) = 0
        path = tmp_path / "kernel.ncw"
        path.write_text(
            "n = 1\ngamma[0][0] = 2\ngamma[1][1] = 1\ntheta[0] = 1\nU[0] = 1\nA[0] = 0\n"
        )
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "theta is not in the kernel of gamma (component 0)" in err

    def test_preset_is_not_a_directive(self, capsys, tmp_path):
        # presets are headers (flat n=2), not assignments
        path = tmp_path / "preset.ncw"
        path.write_text("n = 2\npreset = flat\n")
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert "line 2, column 1: unknown directive 'preset'" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 1\nn = 2\n", "line 2, column 5: duplicate n"),
            ("n = 1\ngamma[1][1] = 1\ngamma[1][1] = 2\n",
             "line 3, column 13: duplicate component gamma[1, 1]"),
            ("standard n=1 phi = x1^2\nphi = 0\n", "line 2, column 5: duplicate phi"),
            ("name = a\nflat n=1\nname = b\n", "line 3, column 6: duplicate name"),
        ],
    )
    def test_duplicate_directive_is_an_input_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "twice.ncw"
        path.write_text(text)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"

    def test_syntax_error_position(self, capsys, tmp_path):
        path = tmp_path / "syntax.ncw"
        path.write_text("flat n=2\nphi = ?\n")
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_expression_error_points_into_the_document(self, capsys, tmp_path):
        path = tmp_path / "gauge.ncw"
        path.write_text(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1\ntheta[0] = 1\n"
            "A[0] = x1 + * 2\nU[0] = 1\n"
        )
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "line 5, column 13: expected a number" in err

    def test_preset_phi_error_points_into_the_header(self, capsys, tmp_path):
        path = tmp_path / "standard.ncw"
        path.write_text("standard n=2 phi = x1 + x3\n")
        code, _, err = run(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "line 1, column 25: variable x3 out of range" in err

    def test_rank_loss_at_a_sample_point_is_named(self, capsys, tmp_path):
        # gamma[2][2] = 1 + t vanishes at t = -1, leaving rank 1
        path = tmp_path / "fading-metric.ncw"
        path.write_text(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1 + t\ntheta[0] = 1\n"
            "Gamma[0][0][1] = 0\n"
        )
        code, out, _ = run(
            capsys, "validate", "--input", str(path), "--format", "json",
            "--sample-point=-1,0,0",
        )
        assert code == 1
        metric_pair = json.loads(out)["results"]["checks"][0]
        assert metric_pair["name"] == "metric-pair"
        assert metric_pair["detail"].startswith("gamma has rank 1 (expected 2) at (")

    def test_sample_point_is_rendered_in_the_report_grammar(self, capsys, tmp_path):
        path = tmp_path / "fading-metric.ncw"
        path.write_text(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1 + t\ntheta[0] = 1\n"
            "Gamma[0][0][1] = 0\n"
        )
        detail = "gamma has rank 1 (expected 2) at (-1, 0, 0)"
        argv = ["validate", "--input", str(path), "--sample-point=-1,0,0"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        assert json.loads(out)["results"]["checks"][0]["detail"] == detail
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert f"detail: {detail}\n" in out
        _, out, _ = run(capsys, "validate", "--input", str(path), "--sample-point=-1,1/2,0")
        assert "at (-1, 1/2, 0)" in out

    def test_rank_loss_at_the_origin_fails_every_check_alike(self, capsys, tmp_path):
        path = tmp_path / "degenerate.ncw"
        path.write_text("n = 1\ngamma[1][1] = x1^2\ntheta[0] = 1\nGamma[0][0][1] = 0\n")
        argv = ["validate", "--input", str(path), "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert run(capsys, *argv) == (code, out, "")
        detail = "gamma has rank 0 (expected 1) at (0, 0)"
        checks = json.loads(out)["results"]["checks"]
        assert [c["detail"] for c in checks] == [detail, detail]

    @pytest.mark.parametrize(
        "shape, data", [("gauge", "A[0] = 0\n"), ("observer", "V[0] = 1\nphi = x1\n")]
    )
    def test_rank_loss_of_derived_data_is_a_metric_pair_verdict(
        self, capsys, tmp_path, shape, data
    ):
        # gamma loses rank at x1 = 0, so the transverse metric of U is not
        # polynomial; the pair's failure is the verdict of every check
        path = tmp_path / f"{shape}.ncw"
        path.write_text(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = x1^2\ntheta[0] = 1\nU[0] = 1\n" + data
        )
        argv = ["validate", "--input", str(path), "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["structure"]["shape"] == shape
        detail = "gamma has rank 1 (expected 2) at (0, 0, 0)"
        checks = report["results"]["checks"]
        assert [c["name"] for c in checks] == [
            "metric-pair", "connection-compatibility-and-symmetry", "gauge-presentation"
        ]
        assert [c["detail"] for c in checks] == [detail] * 3
        assert run(capsys, *argv) == (code, out, "")
        code, out, err = run(capsys, "curvature", "--input", str(path))
        assert (code, out, err) == (2, "", f"input error: {detail}\n")

    @pytest.mark.parametrize("command", ["validate", "connection"])
    def test_report_number_past_the_int_string_limit_is_refused(self, capsys, tmp_path, command):
        # each factor parses; phi, their product, has 8,000 digits, past
        # Python's int-string limit of 4,300, in the summary and the connection
        path = tmp_path / "huge.ncw"
        path.write_text(f"standard n=1 phi = {'9' * 4000}*{'9' * 4000}\n")
        code, out, err = run(capsys, command, "--input", str(path))
        message = "report number exceeds the limit 4300 digits; it would not parse again"
        assert (code, out, err) == (2, "", f"input error: {message}\n")


class TestExpressionInputs:
    @pytest.mark.parametrize("phi, shown", [("t-1", "t - 1"), ("x1-x2", "x1 - x2")])
    def test_unspaced_subtraction_in_a_potential(self, capsys, tmp_path, phi, shown):
        path = tmp_path / "standard.ncw"
        path.write_text(f"standard n=2 phi = {phi}\n")
        code, out, err = run(capsys, "validate", "--input", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["structure"]["phi"] == shown

    def test_unspaced_subtraction_in_a_field(self, capsys, flat2):
        code, out, err = run(
            capsys, "classify", "--input", flat2, "--field", "X[1] = t-x2", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["flags"]["field"] == ["0", "t - x2", "0"]

    def test_runaway_expansion_is_refused(self, capsys, tmp_path):
        from time import perf_counter

        from ncw.dsl import MAX_TERMS

        path = tmp_path / "runaway.ncw"
        spatial = "+".join(f"x{i}" for i in range(1, 10))
        path.write_text(f"standard n=9 phi = (t+{spatial})^256\n")
        start = perf_counter()
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert perf_counter() - start < 2
        assert code == 2 and out == ""
        assert f"line 1, column 51: expansion may exceed the limit {MAX_TERMS} terms" in err


class TestConnectionAndCurvature:
    def test_standard_connection_components(self, capsys, standard2):
        code, out, _ = run(
            capsys, "connection", "--input", standard2, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        comps = payload["results"]["components"]
        assert {"index": [0, 0, 1], "value": "2*x1"} in comps
        assert len(comps) == 1

    def test_metric_pair_is_checked_once_per_structure(self, capsys, monkeypatch):
        from ncw.structures import GalileiStructure

        points = counting(monkeypatch, GalileiStructure, "_check_point")
        pairs = counting(monkeypatch, GalileiStructure.__dict__["_valid_pair"], "func")
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        code, _, _ = run(
            capsys, "solve", "--input", str(sheared), "--flavor", "mil", "--degree", "1"
        )
        assert code == 0
        assert len(points) == 1
        assert len(pairs) == 1

    def test_presets_check_their_frame_once_per_process(
        self, capsys, monkeypatch, flat2, standard2
    ):
        # the flat pair, h and its contractions of n=2, whichever preset
        # comes first; the connection and its checks are every document's own
        from ncw.structures import GalileiStructure

        fresh_frames()
        points = counting(monkeypatch, GalileiStructure, "_check_point")
        pairs = counting(monkeypatch, GalileiStructure.__dict__["_valid_pair"], "func")
        transverse = counting(monkeypatch, ncw.structures, "transverse_metric")
        curvatures = counting(monkeypatch, ncw.structures, "curvature")
        for path in (flat2, standard2, flat2):
            assert run(capsys, "validate", "--input", path)[0] == 0
        assert len(points) == len(pairs) == len(transverse) == 1
        assert len(curvatures) == 3

    def test_transverse_metric_is_computed_once(self, capsys, monkeypatch):
        import ncw.structures

        calls = counting(monkeypatch, ncw.structures, "transverse_metric")
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        code, _, _ = run(capsys, "connection", "--input", str(sheared))
        assert code == 0
        assert len(calls) == 1
        # gauge: once for U, and once for the shifted U, whose gauge form and
        # structure share it
        calls.clear()
        code, _, _ = run(
            capsys, "gauge", "--input", str(sheared), "--psi", "psi[1] = x2", "--f", "t*x1"
        )
        assert code == 0
        assert len(calls) == 2

    def test_data_shape_is_found_once_per_document(self, capsys, monkeypatch, flat2):
        # parse_structure, build_structure, the summary and validate all ask
        from ncw.dsl import StructureDocument

        shapes = counting(monkeypatch, StructureDocument.__dict__["_shape"], "func")
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        assert run(capsys, "validate", "--input", str(sheared))[0] == 0
        assert len(shapes) == 1
        shapes.clear()
        assert run(capsys, "solve", "--input", flat2, "--flavor", "cor", "--degree", "1")[0] == 0
        assert len(shapes) == 1

    def test_each_label_fits_its_template_once(self, capsys, monkeypatch, flat2):
        # each label reads its field once, through solver._time_terms
        import ncw.report
        import ncw.solver

        fitted = [counting(monkeypatch, m, "_time_terms") for m in (ncw.report, ncw.solver)]
        code, out, _ = run(
            capsys, "solve", "--input", flat2, "--flavor", "cor", "--degree", "3",
            "--format", "json",
        )
        assert code == 0
        assert sum(map(len, fitted)) == json.loads(out)["results"]["dimension"] == 13

    def test_flat_curvature(self, capsys, flat2):
        code, out, _ = run(capsys, "curvature", "--input", flat2, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["newtonian"] is True
        assert payload["results"]["nonzero"] == []

    def test_quadratic_potential_curvature(self, capsys, standard2):
        code, out, _ = run(
            capsys, "curvature", "--input", standard2, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        entries = {tuple(e["index"]): e["value"] for e in payload["results"]["nonzero"]}
        assert entries[(1, 0, 0, 1)] == "2"
        assert entries[(0, 1, 0, 1)] == "-2"


class TestSolve:
    def test_flat_galilei_dimension(self, capsys, tmp_path):
        path = tmp_path / "flat3.ncw"
        path.write_text("flat n=3\n")
        code, out, _ = run(
            capsys,
            "solve", "--input", str(path),
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["dimension"] == 10

    def test_basis_reparses_exactly(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "solve", "--input", flat2,
            "--flavor", "cor", "--degree", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        for element in payload["results"]["basis"]:
            for comp in element["components"]:
                poly = parse_expression(comp, 3)
                assert str(poly) == comp

    def test_generator_labels(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "solve", "--input", flat2,
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        labels = {e["label"] for e in payload["results"]["basis"]}
        assert "time-translation" in labels
        assert any(l.startswith("boost[") for l in labels)
        assert any(l.startswith("translation[") for l in labels)
        assert any(l.startswith("rotation[") for l in labels)

    def test_empty_basis(self, capsys, tmp_path):
        # explicit time dependence in the potential kills every generator
        path = tmp_path / "driven.ncw"
        path.write_text("standard n=1 phi = x1^3 + t*x1\n")
        code, out, _ = run(
            capsys,
            "solve", "--input", str(path),
            "--flavor", "gal", "--degree", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["dimension"] == 0
        assert payload["results"]["basis"] == []

    def test_deterministic_output(self, capsys, standard2):
        argv = [
            "solve", "--input", standard2,
            "--flavor", "mil", "--degree", "2",
            "--format", "json",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_oversized_ansatz_is_refused_before_assembly(self, capsys, tmp_path):
        from time import perf_counter

        from ncw.solver import MAX_ANSATZ_COLUMNS

        path = tmp_path / "flat9.ncw"
        path.write_text("flat n=9\n")
        start = perf_counter()
        code, out, err = run(
            capsys, "solve", "--input", str(path), "--flavor", "gal", "--degree", "12"
        )
        assert perf_counter() - start < 2
        assert code == 2 and out == ""
        assert f"ansatz of 11440650 columns exceeds the limit {MAX_ANSATZ_COLUMNS}" in err


class TestBrackets:
    def test_constants_reparse(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "brackets", "--input", flat2,
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["closed"] is True
        table = payload["results"]["structure_constants"]
        k = payload["results"]["dimension"]
        assert len(table) == k
        values = [
            Fraction(v) for plane in table for row in plane for v in row
        ]
        assert any(v != 0 for v in values)


    def test_empty_basis_has_no_constants(self, capsys, tmp_path):
        # the empty algebra closes trivially: its constants are an empty table
        path = tmp_path / "driven.ncw"
        path.write_text("standard n=1 phi = x1^4 + t*x1\n")
        code, out, _ = run(
            capsys,
            "brackets", "--input", str(path),
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dimension"] == 0
        assert results["closed"] is True
        assert results["structure_constants"] == []


class TestClassify:
    def test_boost(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "classify", "--input", flat2,
            "--field", "X[1] = t",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"] == {
            "is_coriolis": True,
            "is_milne": True,
            "is_galilei": True,
            "raised_transport_identity": True,
        }

    def test_connection_transport_is_taken_once(self, capsys, monkeypatch, flat2):
        import ncw.cli
        import ncw.solver

        classified = counting(monkeypatch, ncw.cli, "classify")
        transports = counting(monkeypatch, ncw.solver, "lie_derivative_connection")
        code, out, _ = run(
            capsys,
            "classify", "--input", flat2,
            "--field", "X[1] = t*x2\nX[2] = -t*x1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"] == {
            "is_coriolis": True,
            "is_milne": False,
            "is_galilei": False,
            "raised_transport_identity": True,
        }
        assert len(classified) == len(transports) == 1

    def test_accelerated_frame(self, capsys, tmp_path):
        path = tmp_path / "flat1.ncw"
        path.write_text("flat n=1\n")
        code, out, _ = run(
            capsys,
            "classify", "--input", str(path),
            "--field", "X[1] = t^2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["results"]["is_milne"] is True
        assert payload["results"]["is_galilei"] is False


class TestExtend:
    def test_galilei_extension_verdict(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "extend", "--input", flat2,
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["central_extension"] == "NONTRIVIAL"
        assert payload["results"]["inconsistency_certificate"]["combination"]

    def test_milne_extension_noncentral(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "extend", "--input", flat2,
            "--flavor", "mil", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["noncentral"] is True

    def test_coriolis_extension(self, capsys, flat2):
        code, out, _ = run(
            capsys,
            "extend", "--input", flat2,
            "--flavor", "cor", "--degree", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["extension"] == "semidirect by scalar functions"


    def test_empty_galilei_algebra_is_a_trivial_extension(self, capsys, tmp_path):
        path = tmp_path / "driven.ncw"
        path.write_text("standard n=1 phi = x1^4 + t*x1\n")
        code, out, _ = run(
            capsys,
            "extend", "--input", str(path),
            "--flavor", "gal", "--degree", "1",
            "--format", "json",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["dimension"] == 0
        assert results["cocycle"] == []
        assert results["central_extension"] == "TRIVIAL"
        assert results["coboundary_witness"] == []

    def test_tilted_clock_has_no_observer_parameters(self, capsys, tmp_path):
        # theta = dt + dx1: h(gamma(df)) no longer isolates the spatial
        # derivatives of f, so the observer-stabilizer parameter is refused
        path = tmp_path / "tilted.ncw"
        path.write_text(
            "n = 2\ngamma[0][0] = 1\ngamma[0][1] = -1\ngamma[1][0] = -1\n"
            "gamma[1][1] = 1\ngamma[2][2] = 1\ntheta[0] = 1\ntheta[1] = 1\n"
            "U[0] = 1\nA[0] = 0\n"
        )
        code, out, err = run(
            capsys, "extend", "--input", str(path), "--flavor", "mil", "--degree", "1"
        )
        assert code == 2 and out == ""
        assert "clock theta without spatial components" in err


class TestGauge:
    def test_invariance_verdict(self, capsys, standard2):
        code, out, _ = run(
            capsys,
            "gauge", "--input", standard2,
            "--psi", "psi[1] = x2",
            "--f", "t*x1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["nc_projection_invariant"] is True
        assert payload["results"]["variation"]["phi"] == "x1"

    def test_explicit_connection_cannot_gauge(self, capsys, tmp_path):
        path = tmp_path / "explicit.ncw"
        path.write_text(
            "n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nGamma[0][0][1] = 1\n"
        )
        code, _, err = run(capsys, "gauge", "--input", str(path), "--f", "t")
        assert code == 2
        assert "gauge or observer data" in err


    def test_report_that_would_not_parse_again_is_refused(self, capsys, tmp_path):
        # X(phi) = 2*x1^257: one degree above the parser's exponent limit
        from ncw.dsl import MAX_EXPONENT

        path = tmp_path / "standard1.ncw"
        path.write_text("standard n=1 phi = x1^2\n")
        argv = ["gauge", "--input", str(path), "--x", f"X[1] = x1^{MAX_EXPONENT}"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"report exponent 257 exceeds the limit {MAX_EXPONENT}" in err
        argv[-1] = f"X[1] = x1^{MAX_EXPONENT - 1}"
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["variation"]["phi"] == f"2*x1^{MAX_EXPONENT}"


class TestShippedSamples:
    SAMPLES = Path(__file__).parent.parent / "samples"

    def test_valid_samples(self, capsys):
        for name in ("flat2", "oscillator", "sheared"):
            code, _, _ = run(
                capsys, "validate", "--input", str(self.SAMPLES / f"{name}.ncw")
            )
            assert code == 0, name

    def test_rotating_sample_fails_symmetry_check(self, capsys):
        path = str(self.SAMPLES / "rotating.ncw")
        code, _, _ = run(capsys, "validate", "--input", path)
        assert code == 1
        code, out, _ = run(capsys, "curvature", "--input", path, "--format", "json")
        assert code == 1
        assert json.loads(out)["results"]["newtonian"] is False


class TestTextFormat:
    def test_text_report_mentions_dimension(self, capsys, flat2):
        code, out, _ = run(
            capsys, "solve", "--input", flat2, "--flavor", "gal", "--degree", "1"
        )
        assert code == 0
        assert "dimension: 6" in out


class TestArguments:
    @pytest.mark.parametrize(
        "degree, message",
        [
            ("13", "degree bound must be in 0..12"),
            ("-1", "degree bound must be in 0..12"),
            ("\u0661", "degree bound '\u0661' is not an ASCII integer"),
            ("0_1", "degree bound '0_1' is not an ASCII integer"),
            ("1" * 5000, "degree bound exceeds the limit 4300 digits"),
        ],
        ids=["above-range", "negative", "arabic-indic-digit", "underscore",
             "past-int-string-limit"],
    )
    def test_degree_is_an_ascii_integer_in_range(self, capsys, flat2, degree, message):
        argv = ["solve", "--input", flat2, "--flavor", "gal", "--degree", degree]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"input error: argument --degree: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--input", "{non_utf8}"],
            ["validate", "--input", "{directory}"],
            ["validate", "--input", "{missing}"],
            ["solve", "--input", "{flat2}", "--flavor", "gal", "--degree", "13"],
            ["validate", "--input", "{flat2}", "--bogus"],
            ["validate"],
            [],
            ["gauge", "--input", "{flat2}", "--x=--"],
        ],
        ids=["non-utf8-file", "directory", "missing-file", "degree-13", "unknown-flag",
             "missing-input", "no-command", "double-dash-value"],
    )
    def test_hostile_invocation_is_one_input_error_line(self, capsys, tmp_path, flat2, argv):
        non_utf8 = tmp_path / "non-utf8.ncw"
        non_utf8.write_bytes(b"flat n=2\n\xff\n")
        paths = {"non_utf8": non_utf8, "directory": tmp_path,
                 "missing": tmp_path / "missing.ncw", "flat2": flat2}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("input error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "usage:" not in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--field=--"],
            ["gauge", "--x=--"],
            ["gauge", "--psi=--"],
            ["gauge", "--f=--"],
            ["gauge", "--fi=--"],
            ["validate", "--sample-point=--"],
        ],
    )
    def test_double_dash_value_is_an_input_error(self, capsys, standard2, argv):
        # argparse would drop the value and store an empty list in its place
        command, option = argv
        code, out, err = run(capsys, command, "--input", standard2, option)
        assert code == 2
        assert out == ""
        assert err == f"input error: argument {option[:-3]}: '--' is not a value\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--field", "X[1] = t\nX[1] = 1"], "line 2, column 6: duplicate component X[1]"),
            (["gauge", "--x", "X[0] = 1\nX[0] = 2"], "line 2, column 6: duplicate component X[0]"),
            (["gauge", "--psi", "psi[2] = t\npsi[2] = 0"], "line 2, column 8: duplicate component psi[2]"),
        ],
    )
    def test_repeated_component_is_an_input_error(self, capsys, standard2, argv, message):
        command, option, value = argv
        code, out, err = run(capsys, command, "--input", standard2, option, value)
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "--field", "X[0] = 1 X[1] = t"],
             "line 1, column 10: unexpected trailing input 'X'"),
            (["gauge", "--x", "X[1] = t\nX[0] = 1 X[2] = 1"],
             "line 2, column 10: unexpected trailing input 'X'"),
            (["gauge", "--psi", "psi[1] = 1 psi[2] = t"],
             "line 1, column 12: unexpected trailing input 'psi'"),
        ],
    )
    def test_one_assignment_per_line(self, capsys, standard2, argv, message):
        command, option, value = argv
        code, out, err = run(capsys, command, "--input", standard2, option, value)
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("flat n=2 phi = x1\n", "the flat preset does not use phi"),
            ("n = 1\ngamma[1][1] = 1\ntheta[0] = 1\nGamma[0][0][1] = 0\nA[0] = x1^300 +\n",
             "explicit data does not use A"),
            ("n = 1\ngamma[1][5] = 1\ntheta[0] = 1\nU[0] = 1\nA[0] = 0\n",
             "line 2, column 10: component index 5 out of range"),
        ],
    )
    def test_stray_data_and_bad_indices_are_input_errors(self, capsys, tmp_path, text, message):
        path = tmp_path / "doc.ncw"
        path.write_text(text)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"

    def test_double_dash_inside_a_value_is_read(self, capsys, standard2):
        code, out, _ = run(
            capsys, "gauge", "--input", standard2, "--f=x1--x1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["flags"]["f"] == "2*x1"

    def test_parser_is_built_once(self):
        from ncw.cli import build_parser

        assert build_parser() is build_parser()

    def test_successive_runs_do_not_share_sample_points(self, capsys, tmp_path):
        # the shared parser's append default is a list: a point given to one
        # run must not reach the next
        path = tmp_path / "fading-metric.ncw"
        path.write_text(
            "n = 2\ngamma[1][1] = 1\ngamma[2][2] = 1 + t\ntheta[0] = 1\n"
            "Gamma[0][0][1] = 0\n"
        )

        def metric_pair_check(*points):
            argv = ["validate", "--input", str(path), "--format", "json", *points]
            _, out, _ = run(capsys, *argv)
            checks = json.loads(out)["results"]["checks"]
            return next(c for c in checks if c["name"] == "metric-pair")

        assert metric_pair_check("--sample-point=-1,0,0")["passed"] is False
        assert metric_pair_check("--sample-point=1,0,0") == {"name": "metric-pair", "passed": True}
        assert metric_pair_check() == {"name": "metric-pair", "passed": True}


def test_cli_imports_no_private_name():
    """The CLI only renders: it reaches ncw through public names alone."""
    import ast

    import ncw.cli

    tree = ast.parse(Path(ncw.cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ncw")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
