"""Child process that runs one job list through ``ncw.cli.main``.

    python3 bench/worker.py <request.json> <result.json>

The request names the source tree to import ncw from, the job argv lists,
how long to measure, whether to trace, and auxiliary argv lists whose
output the oracles need.  The loop is closed: one job in flight, the next
starts when the previous returns.  It runs the whole job list in passes
until at least ``seconds`` have elapsed (one pass when ``seconds`` is
null), so every pass has the same mix.  Without tracing this process never
imports the tracer, so ncw runs unpatched.

Around every job the process times a fixed reference kernel
(``SpeedProbe``): just before it, just after it and, when the request sets
``probe_interval``, every that many seconds while it runs.  ``run.py`` uses
the samples to express job times at a reference machine speed.  The time
the in-job samples take is not counted in the job's time.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

RAISED = -1  # exit code recorded for a job whose call raised


class _KernelPoly:
    """A sparse polynomial, multiplied and added the way ncw's Poly is."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __mul__(self, other: "_KernelPoly") -> "_KernelPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key, Fraction(0)) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return _KernelPoly(out)

    def __add__(self, other: "_KernelPoly") -> "_KernelPoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, Fraction(0)) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return _KernelPoly(out)


_KERNEL_P = _KernelPoly({(i % 2, i % 3, i % 5, i // 5): Fraction(i + 1, 7 - i % 4) for i in range(12)})
_KERNEL_ZERO = _KernelPoly({})


def _reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python exact polynomial arithmetic,
    the kind of work ncw's hot paths do, so that its time follows the
    machine's speed for ncw."""
    start = perf_counter()
    acc = _KERNEL_ZERO
    for _ in range(4):
        acc = acc + _KERNEL_P * _KERNEL_P + _KERNEL_P * _KERNEL_ZERO
    return perf_counter() - start


def speed_sample() -> float:
    """The faster of two reference-kernel runs, in seconds."""
    return min(_reference_kernel(), _reference_kernel())


class SpeedProbe:
    """Reference-kernel samples around one job at a time.

    ``start`` arms a SIGALRM timer that samples every ``interval`` seconds
    inside the job; ``stop`` disarms it, samples once and returns (seconds
    spent sampling inside the job, the harmonic mean of the kernel times
    from the sample before the job to the one after it).  Jobs run back to
    back, so the sample after one job is the sample before the next.  The
    harmonic mean weights each sample by the speed it saw, so a job's time
    divided by it is the job's time in kernel runs."""

    def __init__(self, interval: float | None):
        self.interval = interval
        self.samples = [speed_sample()]
        self.paused = 0.0
        if interval:
            signal.signal(signal.SIGALRM, self._in_job)

    def _in_job(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(speed_sample())
        self.paused += perf_counter() - start

    def start(self) -> None:
        self.samples = self.samples[-1:]
        self.paused = 0.0
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> tuple[float, float]:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
        paused = self.paused
        self.samples.append(speed_sample())
        return paused, len(self.samples) / sum(1 / k for k in self.samples)


def run_job(main, argv: list[str]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a crashed run
            code = RAISED
            traceback.print_exc()
    elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ru_maxrss would also count the parent's resident set at the time it
    forked this child, so the mm high-water mark is read where Linux
    exposes it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, request["src"])
    import ncw.cli

    tracer = None
    if request["trace"]:
        from tracing import Tracer  # next to this script, so on sys.path

        tracer = Tracer()
        tracer.install()

    jobs = request["jobs"]
    seconds = request["seconds"]
    speed_sample()  # warm up
    probe = SpeedProbe(request["probe_interval"])
    kernels: list[list[float]] = []
    times: list[list[float]] = []
    digests: list[list[str]] = []
    first: list[dict] = []
    begin = perf_counter()
    while True:
        pass_times, pass_kernels, pass_digests = [], [], []
        for index, argv in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(index)
            probe.start()
            code, out, err, elapsed = run_job(ncw.cli.main, argv)
            paused, kernel = probe.stop()
            pass_times.append(elapsed - paused)
            pass_kernels.append(kernel)
            pass_digests.append(digest(code, out, err))
            if not times:
                first.append({"code": code, "stdout": out, "stderr": err})
        times.append(pass_times)
        kernels.append(pass_kernels)
        digests.append(pass_digests)
        if seconds is None or perf_counter() - begin >= seconds:
            break
    wall = perf_counter() - begin
    peak_rss = peak_rss_mb()

    if tracer is not None:
        tracer.end_jobs()
        tracer.uninstall()
        tracer.write(Path(request["trace_path"]))

    aux = []
    for argv in request["aux"]:
        code, out, err, _ = run_job(ncw.cli.main, argv)
        aux.append({"argv": argv, "code": code, "stdout": out, "stderr": err})

    result = {
        "wall_s": wall,
        "passes": len(times),
        "times_s": times,
        "kernel_s": kernels,
        "digests": digests,
        "first": first,
        "aux": aux,
        "peak_rss_mb": peak_rss,
    }
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
