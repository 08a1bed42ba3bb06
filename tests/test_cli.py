"""Command dispatch, exit codes, and report round trips."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

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

        points = []
        original = GalileiStructure._check_point

        def counted(self, point):
            points.append(point)
            return original(self, point)

        pairs = []
        pair_check = GalileiStructure.__dict__["_valid_pair"]
        original_pair = pair_check.func

        def counted_pair(self):
            pairs.append(self)
            return original_pair(self)

        monkeypatch.setattr(GalileiStructure, "_check_point", counted)
        monkeypatch.setattr(pair_check, "func", counted_pair)
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        code, _, _ = run(
            capsys, "solve", "--input", str(sheared), "--flavor", "mil", "--degree", "1"
        )
        assert code == 0
        assert len(points) == 1
        assert len(pairs) == 1

    def test_transverse_metric_is_computed_once(self, capsys, monkeypatch):
        import ncw.structures

        calls = []
        original = ncw.structures.transverse_metric

        def counted(g, u):
            calls.append(1)
            return original(g, u)

        monkeypatch.setattr(ncw.structures, "transverse_metric", counted)
        sheared = Path(__file__).parent.parent / "samples" / "sheared.ncw"
        code, _, _ = run(capsys, "connection", "--input", str(sheared))
        assert code == 0
        assert len(calls) == 1

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


    def test_empty_basis_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "driven.ncw"
        path.write_text("standard n=1 phi = x1^3 + t*x1\n")
        code, _, err = run(
            capsys,
            "brackets", "--input", str(path),
            "--flavor", "gal", "--degree", "2",
        )
        assert code == 2
        assert "nonempty" in err


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
