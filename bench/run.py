"""The ncw benchmark: seeded workloads driven through ``ncw.cli.main``.

    python3 bench/run.py --workload solve|algebra|inspect|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; ncw is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
wall time of fresh interpreters that import ``ncw.cli`` and exit.  One
child process then runs the workload's job list in whole passes until at
least S seconds have elapsed (one job in flight at a time) and reports
per-job wall times and its peak resident memory.

Wall times are reported at a reference machine speed.  On a shared host
the speed of one core drifts by up to 2x over tens of seconds, which no
amount of averaging inside a run removes; so the benchmark times a fixed
pure-Python reference kernel before, during (every PROBE_INTERVAL_S) and
after every job, and before and after every set-up spawn, and scales each
wall time by REFERENCE_KERNEL_S over the kernel's mean time around it.  A
job that took as long as k kernel runs reports k * REFERENCE_KERNEL_S.
The raw wall figures are printed too.

``--trace 1`` runs one untraced pass and one traced pass, each in a fresh
child, and reports the per-layer metrics of the traced pass (raw seconds)
together with ``trace.overhead_ratio``, the traced pass's busy time over
the untraced one's, both at reference speed.  It also prints the figures
of the anchor jobs.

Every job's answer is checked against an oracle outside the timed region
(``oracle.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import speed_sample  # noqa: E402

SETUP_SPAWNS = 21
REFERENCE_KERNEL_S = 0.0032  # about the kernel's time on an unloaded 2.1 GHz vCPU
PROBE_INTERVAL_S = 0.25
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 170  # a run must end within 180 s

END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, a child that
    failed or ran out of time)."""


def tail_percentile(jobs_per_pass: int) -> float:
    """The highest percentile with TAIL_BEYOND jobs of one pass beyond it."""
    return 100.0 * (jobs_per_pass - TAIL_BEYOND) / jobs_per_pass


def at_reference_speed(times: list[float], kernels: list[float]) -> list[float]:
    """times[i] scaled by REFERENCE_KERNEL_S over kernels[i], the kernel's
    mean time while times[i] was measured."""
    return [t * REFERENCE_KERNEL_S / k for t, k in zip(times, kernels)]


def percentile_value(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Bench:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.src = root / "src"
        self.deadline = deadline
        if not (self.src / "ncw" / "cli.py").is_file():
            raise BenchError(f"no ncw sources under {self.src}")

    # ------------------------------------------------------------------
    # child processes

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 1:
            raise BenchError("out of time")
        return left

    def setup_seconds(self) -> tuple[float, float]:
        """Median set-up time at reference speed, and the raw median."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src) + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [sys.executable, "-c", "import ncw.cli"]
        # the first spawn writes the bytecode caches and is not counted
        subprocess.run(cmd, env=env, cwd=self.root, check=True, timeout=self._remaining())
        walls, kernels = [], []
        before = speed_sample()
        for _ in range(SETUP_SPAWNS):
            start = perf_counter()
            subprocess.run(cmd, env=env, cwd=self.root, check=True, timeout=self._remaining())
            walls.append(perf_counter() - start)
            after = speed_sample()
            kernels.append((before + after) / 2)
            before = after
        return statistics.median(at_reference_speed(walls, kernels)), statistics.median(walls)

    def worker(self, work: Path, name: str, jobs: list[dict], seconds, trace: bool, aux, probe) -> dict:
        request = {
            "src": str(self.src),
            "jobs": [job["argv"] for job in jobs],
            "seconds": seconds,
            "probe_interval": probe,
            "trace": trace,
            "trace_path": str(work / "trace"),
            "aux": aux,
        }
        req_path, res_path = work / f"{name}-request.json", work / f"{name}-result.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(req_path), str(res_path)],
            cwd=self.root,
            capture_output=True,
            text=True,
            timeout=self._remaining(),
        )
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(res_path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    # inputs

    def generate(self, workload: str, seed: int, work: Path) -> list[dict]:
        sys.path.insert(0, str(self.src))
        import ncw.cli

        probe = work / "probe.ncw"

        def is_valid(text: str) -> bool:
            probe.write_text(text, encoding="utf-8")
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return ncw.cli.main(["validate", "--input", probe.as_posix()]) == 0

        jobs = workloads.generate(workload, seed, work.relative_to(self.root), is_valid)
        probe.unlink(missing_ok=True)
        return jobs

    # ------------------------------------------------------------------
    # one workload

    def run(self, workload: str, seed: int, seconds: int, trace: bool) -> dict:
        work = self.root / ".bench_work" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        jobs = self.generate(workload, seed, work)
        aux = oracle.aux_argvs(jobs)
        if trace:
            return self._run_traced(work, jobs, aux)
        return self._run_measured(seconds, work, jobs, aux)

    def _run_measured(self, seconds, work, jobs, aux) -> dict:
        setup_s, setup_raw = self.setup_seconds()
        res = self.worker(work, "measure", jobs, seconds, False, aux, PROBE_INTERVAL_S)
        raw = [t for one_pass in res["times_s"] for t in one_pass]
        kernels = [k for one_pass in res["kernel_s"] for k in one_pass]
        times = at_reference_speed(raw, kernels)
        pct = tail_percentile(len(jobs))
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": len(times) / sum(times),  # jobs over the time they took
            "job_p50_ms": statistics.median(times) * 1000.0,
            "job_tail_ms": percentile_value(times, pct) * 1000.0,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        raw_metrics = {
            "setup_s": setup_raw,
            "jobs_per_s": len(raw) / sum(raw),
            "job_p50_ms": statistics.median(raw) * 1000.0,
            "job_tail_ms": percentile_value(raw, pct) * 1000.0,
        }
        attempted, failed, notes = self._check(jobs, res, [res])
        info = {
            "jobs_per_pass": len(jobs),
            "passes": res["passes"],
            "wall_s": res["wall_s"],
            "tail_percentile": pct,
            "failed_ratio": failed / attempted,
            "digest": self._digest(res),
            "raw": raw_metrics,
            "kernel_ms": statistics.median(kernels) * 1000.0,
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes, "info": info}

    def _run_traced(self, work, jobs, aux) -> dict:
        # no in-job samples here: they would land inside the spans
        plain = self.worker(work, "untraced", jobs, None, False, aux, None)
        traced = self.worker(work, "traced", jobs, None, True, [], None)
        trace_data = tracing.load(work / "trace")
        metrics = tracing.aggregate(trace_data)
        busy = [sum(at_reference_speed(r["times_s"][0], r["kernel_s"][0])) for r in (traced, plain)]
        metrics["trace.overhead_ratio"] = busy[0] / busy[1]
        attempted, failed, notes = self._check(jobs, plain, [plain, traced])
        info = {
            "jobs_per_pass": len(jobs),
            "spans": trace_data["spans"],
            "failed_ratio": failed / attempted,
            "digest": self._digest(plain),
            "anchors": anchor_figures(jobs, trace_data),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed, "notes": notes, "info": info}

    # ------------------------------------------------------------------
    # answers

    def _check(self, jobs: list[dict], first: dict, runs: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, notes) over every job execution in runs.

        An execution fails when the oracle rejects its job's answer, or when
        its output differs from the first pass's (outputs are deterministic).
        """
        aux = {
            tuple(entry["argv"]): json.loads(entry["stdout"])
            for entry in first["aux"]
            if entry["code"] == 0
        }
        notes = []
        bad = []
        for index, (job, output) in enumerate(zip(jobs, first["first"])):
            problems = oracle.check_job(job, output, aux)
            bad.append(bool(problems))
            notes += [f"job {index} {' '.join(job['argv'][:1] + job['argv'][3:7])}: {p}" for p in problems]
        reference = first["digests"][0]
        attempted = failed = 0
        for run in runs:
            for digests in run["digests"]:
                for index, digest in enumerate(digests):
                    attempted += 1
                    if bad[index] or digest != reference[index]:
                        failed += 1
                        if digest != reference[index]:
                            notes.append(f"job {index}: output differs between executions")
        return attempted, failed, notes

    @staticmethod
    def _digest(res: dict) -> str:
        return hashlib.sha256("".join(res["digests"][0]).encode()).hexdigest()


def anchor_figures(jobs: list[dict], trace: dict) -> list[dict]:
    """Exact counts of the anchor jobs in the traced pass."""
    counters = trace["counters"]
    classify = trace["groups"].index("solver.classify")
    f_solve = trace["groups"].index("extensions.f_solve")
    out = []
    for index, job in enumerate(jobs):
        if not job["anchor"]:
            continue
        c = dict(zip(counters, trace["job_counts"].get(str(index), [0] * len(counters))))
        spans = [trace["group"][i] for i in range(trace["spans"]) if trace["job_of"][i] == index]
        mul = c["solver.poly.mul.calls"]
        out.append(
            {
                "job": index,
                "argv": " ".join(job["argv"][:1] + job["argv"][3:7]),
                "structure": workloads.structure_text(job["structure"]).strip(),
                "solver.poly.mul.calls": mul,
                "solver.poly.mul.zero_operand_ratio": c["solver.poly.mul.zero_operand"] / mul if mul else 0.0,
                "linalg.rows_added": c["linalg.rows_added"],
                "linalg.rows_wasted": c["linalg.rows_wasted"],
                "solver.classify.calls": spans.count(classify),
                "extensions.f_solve.calls": spans.count(f_solve),
            }
        )
    return out


# ----------------------------------------------------------------------
# output

def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(workload: str, seed: int, result: dict, trace: bool, units: dict) -> None:
    info = result["info"]
    print(f"== {workload} (seed {seed})")
    if trace:
        print(f"   traced pass of {info['jobs_per_pass']} jobs, {info['spans']} spans")
    else:
        print(
            f"   {info['jobs_per_pass']} jobs per pass x {info['passes']} passes in "
            f"{info['wall_s']:.2f} s; job_tail_ms is p{info['tail_percentile']:.1f} "
            f"({TAIL_BEYOND} jobs of each pass beyond it)"
        )
        print(
            f"   times at reference speed (kernel {REFERENCE_KERNEL_S * 1000:g} ms; "
            f"median kernel this run {info['kernel_ms']:.3g} ms)"
        )
    raw = info.get("raw", {})
    for name, value in result["metrics"].items():
        extra = f"   (raw wall {_fmt(raw[name])})" if name in raw else ""
        print(f"   {name:34s} {_fmt(value):>14s} {units.get(name, '')}{extra}")
    print(f"   {'failed_ratio':34s} {_fmt(info['failed_ratio']):>14s} ratio "
          f"({result['failed']} of {result['attempted']} job executions)")
    print(f"   output digest {info['digest']}")
    for anchor in info.get("anchors", []):
        figures = ", ".join(f"{k}={_fmt(v)}" for k, v in anchor.items() if k not in ("job", "argv", "structure"))
        print(f"   anchor job {anchor['job']} [{anchor['structure']}] {anchor['argv']}: {figures}")
    for note in result["notes"][:20]:
        print(f"   FAILED {note}")


def _units(trace: bool) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    root = BENCH_DIR.parent
    os.chdir(root)  # job argv name structure files relative to the root
    try:
        units = _units(trace)
        results = {}
        for name in names:
            # each workload gets its own time budget, as when run alone
            bench = Bench(root, perf_counter() + RUN_TIMEOUT_S)
            results[name] = bench.run(name, args.seed, args.seconds, trace)
            print_report(name, args.seed, results[name], trace, units)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
