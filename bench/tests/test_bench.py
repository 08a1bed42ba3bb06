"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import RAISED, digest, run_job  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.fixture
def tmp_path(request) -> Path:
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".bench_work" / "tests" / re.sub(r"\W", "_", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _cli():
    import ncw.cli

    return ncw.cli.main


def _execute(job: dict) -> dict:
    code, out, err, _ = run_job(_cli(), job["argv"])
    return {"code": code, "stdout": out, "stderr": err}


def _aux(jobs: list[dict]) -> dict:
    out = {}
    for argv in oracle.aux_argvs(jobs):
        code, stdout, _, _ = run_job(_cli(), argv)
        if code == 0:
            out[tuple(argv)] = json.loads(stdout)
    return out


def _job(tmp_path: Path, structure: dict, argv_tail: list[str], expect: int = 0, extra=None) -> dict:
    path = tmp_path / "s.ncw"
    path.write_text(workloads.structure_text(structure), encoding="utf-8")
    argv = [argv_tail[0], "--input", str(path)] + argv_tail[1:] + ["--format", "json"]
    return {"argv": argv, "expect": expect, "structure": structure, "extra": extra or {}, "anchor": False}


# ----------------------------------------------------------------------
# the generator

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    again = workloads.generate(workload, 7, tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")

    def texts(root):
        return [p.read_text(encoding="utf-8") for p in sorted(root.iterdir())]

    def strip(jobs):
        return [dict(j, argv=[a for a in j["argv"] if "job" not in a]) for j in jobs]

    assert strip(first) == strip(again)
    assert texts(tmp_path / "a") == texts(tmp_path / "b")
    assert texts(tmp_path / "a") != texts(tmp_path / "c")
    assert len(first) == workloads.job_count(workloads.load_spec()[workload])


def test_redraw_rule_replaces_rejected_structures(tmp_path):
    seen = []

    def reject_first(text):
        seen.append(text)
        return len(seen) > 1

    jobs = workloads.generate("algebra", 3, tmp_path, reject_first)
    sheared = [j for j in jobs if j["structure"]["kind"] == "sheared"]
    assert len(seen) == len(sheared) + 1
    assert all(workloads.structure_text(j["structure"]) != seen[0] for j in jobs)


# ----------------------------------------------------------------------
# the oracles reject corrupted answers

def test_oracle_rejects_a_perturbed_basis_field(tmp_path):
    job = _job(tmp_path, {"kind": "standard", "n": 2, "phi": "x1^2 + x2^2"}, ["solve", "--flavor", "mil", "--degree", "2"])
    output = _execute(job)
    assert oracle.check_job(job, output, {}) == []
    report = json.loads(output["stdout"])
    comps = report["results"]["basis"][1]["components"]
    comps[1] = comps[1] + " + t^2*x2"
    bad = dict(output, stdout=json.dumps(report))
    assert any("fails the milne conditions" in p for p in oracle.check_job(job, bad, {}))


def test_oracle_rejects_a_flipped_certificate_entry(tmp_path):
    job = _job(tmp_path, {"kind": "flat", "n": 2}, ["extend", "--flavor", "gal", "--degree", "1"])
    output = _execute(job)
    assert oracle.check_job(job, output, {}) == []
    report = json.loads(output["stdout"])
    combination = report["results"]["inconsistency_certificate"]["combination"]

    def flipped(index, value):
        bad = json.loads(json.dumps(report))
        bad["results"]["inconsistency_certificate"]["combination"][index] = value
        return oracle.check_job(job, dict(output, stdout=json.dumps(bad)), {})

    # zeroing the only nonzero entry leaves y.b = 0; a new nonzero entry
    # on a pair with a nonzero bracket breaks y.M = 0
    k = next(i for i, v in enumerate(combination) if v != "0")
    assert any("y.b == 0" in p for p in flipped(k, "0"))
    assert any(
        any("y.M != 0" in p for p in flipped(i, "1"))
        for i, v in enumerate(combination)
        if v == "0"
    )


def test_oracle_rejects_a_wrong_expected_exit_code(tmp_path):
    rng = random.Random(1)
    structure = workloads.draw_structure(rng, {"kind": "rotating", "n": 2})
    job = _job(tmp_path, structure, ["curvature"], expect=1)
    output = _execute(job)
    assert oracle.check_job(job, output, {}) == []
    assert oracle.check_job(dict(job, expect=0), output, {})
    malformed = workloads.draw_structure(rng, {"kind": "malformed", "n": 2})
    job = _job(tmp_path, malformed, ["validate"], expect=2)
    output = _execute(job)
    assert oracle.check_job(job, output, {}) == []
    moved = dict(malformed, col=malformed["col"] + 1)
    assert oracle.check_job(dict(job, structure=moved), output, {})


def test_oracle_accepts_a_generated_inspect_list(tmp_path):
    jobs = workloads.generate("inspect", 5, tmp_path)
    aux = _aux(jobs)
    for job in jobs:
        assert oracle.check_job(job, _execute(job), aux) == [], job["argv"]


# ----------------------------------------------------------------------
# failure accounting

def test_failed_ratio_counts_raised_and_wrong_exits(tmp_path):
    def raising(argv):
        raise RuntimeError("boom")

    code, out, err, _ = run_job(raising, [])
    assert code == RAISED and "boom" in err
    structure = {"kind": "flat", "n": 2}
    jobs = [_job(tmp_path, structure, ["validate"]) for _ in range(3)]
    outputs = [
        {"code": RAISED, "stdout": "", "stderr": err},
        {"code": 2, "stdout": "", "stderr": "input error: x"},
        _execute(jobs[2]),
    ]
    result = {
        "first": outputs,
        "aux": [],
        "digests": [[digest(o["code"], o["stdout"], o["stderr"]) for o in outputs]],
    }
    bench = run.Bench(ROOT, float("inf"))
    attempted, failed, notes = bench._check(jobs, result, [result])
    assert (attempted, failed) == (3, 2)
    assert len(notes) == 2


# ----------------------------------------------------------------------
# tracing

def test_traced_run_restores_every_patched_name():
    import ncw.cli
    from ncw.poly import Poly

    tracer = tracing.Tracer()
    tracer.install()
    patched = tracer.patched()
    # from-imported copies are patched where they are looked up
    assert {(owner.__name__, attr) for owner, attr, _ in patched} >= {
        ("ncw.cli", "solve_symmetries"),
        ("ncw.solver", "solve_symmetries"),
        ("ncw.extensions", "classify"),
        ("Poly", "__rmul__"),
    }
    assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert Poly.__rmul__ is Poly.__mul__ and not hasattr(Poly.__mul__, "__wrapped__")
    assert ncw.cli.classify is ncw.solver.classify and not hasattr(ncw.cli.classify, "__wrapped__")


def _traced_worker(tmp_path: Path, jobs: list[list[str]], name: str) -> dict:
    request = {"src": str(ROOT / "src"), "jobs": jobs, "seconds": None, "probe_interval": None, "trace": True,
               "trace_path": str(tmp_path / name), "aux": []}
    req = tmp_path / f"{name}.json"
    req.write_text(json.dumps(request), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(req), str(tmp_path / f"{name}-out.json")],
                   cwd=ROOT, check=True, timeout=170)
    return tracing.load(tmp_path / name)


def test_trace_counts_repeat_and_match_the_baseline_figures(tmp_path):
    """Figures re-measured on the code this benchmark was defined on: a
    change to ncw that moves them is expected to say so."""
    flat3 = tmp_path / "flat3.ncw"
    flat3.write_text("flat n=3\n", encoding="utf-8")
    osc = tmp_path / "osc.ncw"
    osc.write_text("standard n=2 phi = x1^2 + x2^2\n", encoding="utf-8")
    jobs = [
        ["solve", "--input", str(flat3), "--flavor", "mil", "--degree", "3"],
        ["extend", "--input", str(osc), "--flavor", "mil", "--degree", "2"],
    ]
    first = _traced_worker(tmp_path, jobs, "one")
    second = _traced_worker(tmp_path, jobs, "two")
    assert first["counts"] == second["counts"]
    assert first["job_counts"] == second["job_counts"]
    assert list(first["group"]) == list(second["group"])
    jobs_meta = [{"anchor": True, "argv": a, "structure": {"kind": "flat", "n": 3}} for a in jobs]
    solve, extend = run.anchor_figures(jobs_meta, first)
    assert solve["solver.poly.mul.calls"] == 415104
    assert round(solve["solver.poly.mul.zero_operand_ratio"], 3) == 0.996
    assert (solve["linalg.rows_added"], solve["linalg.rows_wasted"]) == (1384, 1124)
    assert extend["solver.classify.calls"] == 153
    assert extend["extensions.f_solve.calls"] == 95


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    empty = {"groups": tracing.GROUPS, "group": [], "parent": [], "start": [], "end": [],
             "counters": tracing.COUNTERS, "counts": [0] * len(tracing.COUNTERS)}
    per_layer = list(tracing.aggregate(empty)) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, recorded in workloads.load_spec().items():
        jobs = workloads.job_count(recorded)
        assert recorded["jobs"] == jobs
        assert recorded["tail_percentile"] == round(run.tail_percentile(jobs), 1)
