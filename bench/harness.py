"""The benchmark loop: set-up, timed and traced passes, correctness gate.

One client runs a closed loop: each job is one in-process
``quatalg.cli.main(argv)`` call on a pre-generated input file, its report
captured from stdout in memory, and the next job starts when it returns.
No job writes a file (``--output`` is never passed): rewriting one path
over and over costs tens of ms per write on some filesystems, which would
swamp the jobs being measured.

The loop runs whole cycles of jobs (see ``workloads``). Between two
cycles, with the clock stopped, the next cycle's inputs are generated and
written and the last cycle's reports go through the gate and are dropped,
so the benchmark's own memory does not grow with the number of cycles a
faster program gets through, and ``peak_rss_mib`` stays comparable.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List

import gate
import tracer as tracing
import workloads
from quatalg import cli

SETUP_REPEATS = 5

# Fresh interpreter: import the CLI and run the warm-up job once.
_SETUP_CHILD = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from quatalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(time.perf_counter() - start, code)
"""


class Pass:
    """Timings and reports of jobs run back to back."""

    def __init__(self):
        self.wall = 0.0
        self.times: List[float] = []
        self.texts: Dict[int, str] = {}
        self.errors: Dict[int, str] = {}


def run_jobs(jobs, tracer=None) -> Pass:
    """Run the jobs in order, one at a time."""
    done = Pass()
    main = cli.main  # looked up now, so a traced run calls the wrapper
    start_pass = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(job.argv())
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - a crashing job is a failed job
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        done.times.append(elapsed)
        if code == 0:
            done.texts[job.id] = out.getvalue()
        else:
            done.errors[job.id] = f"exit {code}: {err.getvalue().strip()}"
    done.wall = time.perf_counter() - start_pass
    return done


class Session:
    """One run's inputs directory, recorded digests and gate verdicts."""

    def __init__(self, workload: str, seed: int, directory: str):
        self.workload, self.seed, self.directory = workload, seed, directory
        self.digests = gate.load_digests(workload, seed)
        self.problems: Dict[int, str] = {}
        self.attempted = 0

    def cycle(self, index: int):
        jobs = workloads.cycle_jobs(self.workload, self.seed, index)
        workloads.write_inputs(jobs, self.directory)
        return jobs

    def warm_up(self):
        job = workloads.warmup_job(self.workload, self.seed)
        workloads.write_inputs([job], self.directory)
        run_jobs([job])
        return job

    def judge(self, jobs, done: Pass):
        """Gate the pass's reports; failures count against the run."""
        self.attempted += len(done.times)
        self.problems.update(done.errors)
        self.problems.update(gate.check_all(jobs, done.texts, self.digests))


def measure_setup(src: str, warmup) -> List[float]:
    """Seconds to import quatalg.cli and run one job in a fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, src, *warmup.argv()],
                              capture_output=True, text=True, timeout=120, check=False)
        seconds, _, code = proc.stdout.strip().rpartition("\n")[2].partition(" ")
        if proc.returncode != 0 or code != "0":
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip() or proc.stdout}")
        samples.append(float(seconds))
    return samples


def timed_run(session: Session, seconds: float, src: str):
    warmup = session.warm_up()
    setup = measure_setup(src, warmup)
    wall, times, index = 0.0, [], 0
    while wall < seconds:
        jobs = session.cycle(index)
        done = run_jobs(jobs)
        wall += done.wall
        times += done.times
        session.judge(jobs, done)
        index += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ms = [t * 1e3 for t in times]
    p90 = statistics.quantiles(ms, n=10)[8]
    metrics = {
        "jobs_per_s": (len(ms) / wall, "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    failed = len(session.problems)
    notes = [
        f"{session.workload} seed {session.seed}: {len(ms)} jobs in {index} cycles "
        f"of {workloads.CYCLE}, {wall:.2f} s timed, closed loop, one client",
        f"job_ms_p50 over {len(ms)} samples; "
        f"{sum(t > p90 for t in ms)} jobs beyond job_ms_p90",
        f"setup_s is the median of {SETUP_REPEATS}: " + " ".join(f"{s:.4f}" for s in setup),
        f"failed_frac {failed / len(ms):.4f} ratio ({failed} of {len(ms)})",
    ]
    return metrics, notes


def traced_run(session: Session, seconds: float, trace_path: str):
    """Alternate untraced and traced cycles, always on fresh inputs, until
    ``seconds`` have passed. Counts come from the first traced cycle, which
    is the same for every run of a seed; times are medians over cycles.
    The two cycles of a pair hold different matrices of the same classes,
    so ``trace.overhead_frac`` carries a little of that difference."""
    session.warm_up()
    passes, tracers, elapsed, index = [], [], 0.0, 0
    while elapsed < seconds or not passes:
        jobs = session.cycle(index)
        plain = run_jobs(jobs)
        session.judge(jobs, plain)

        jobs = session.cycle(index + 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            done = run_jobs(jobs, tracer)
        finally:
            tracer.uninstall()
        session.judge(jobs, done)
        commands = {job.id: job.command for job in jobs}
        layer = tracing.layer_metrics(tracer.spans, tracer.counts, commands, done.wall)
        layer["trace.overhead_frac"] = done.wall / plain.wall - 1
        passes.append(layer)
        tracers.append(tracer)
        elapsed += plain.wall + done.wall
        index += 2

    tracing.dump(tracers, trace_path)
    combined = tracing.combine(passes)
    metrics = {name: (value, tracing.unit(name)) for name, value in combined.items()}
    notes = [f"{session.workload} seed {session.seed}: {len(passes)} traced and "
             f"{len(passes)} untraced cycles of {workloads.CYCLE} jobs; counts from "
             f"the first traced cycle, times are medians over traced cycles; "
             f"spans in {trace_path}"]
    return metrics, notes


def run(workload: str, seed: int, seconds: float, traced: bool, src: str, work_root: str):
    """Run one workload; returns (attempted, problems, metrics, notes)."""
    os.makedirs(work_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=work_root)
    try:
        session = Session(workload, seed, directory)
        if traced:
            trace_path = os.path.join(work_root, f"spans-{workload}.jsonl")
            metrics, notes = traced_run(session, seconds, trace_path)
        else:
            metrics, notes = timed_run(session, seconds, src)
        return session.attempted, session.problems, metrics, notes
    finally:
        shutil.rmtree(directory, ignore_errors=True)
