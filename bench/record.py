#!/usr/bin/env python3
"""Regenerate the benchmark's recorded data. Run from the root of the tree.

    python3 bench/record.py digests
        Runs the first DIGEST_CYCLES cycles of every workload at the recorded
        seed, checks each report with the oracle gate, and writes the
        digests of the reports to bench/digests.json.

    python3 bench/record.py baseline --seeds 1-10 --seconds 20
        Runs bench/run.py once per workload and seed (end-to-end), and once
        per workload traced at the recorded seed, then writes the medians,
        quartiles and spreads, the per-layer figures, the workload mixes and
        the determinant counts of scripts/example_axb.json to
        bench/baseline.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gate  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from quatalg import cli  # noqa: E402
from run import WORK, WORKLOADS  # noqa: E402

DIGEST_CYCLES = 16
EXAMPLE = os.path.join(ROOT, "scripts", "example_axb.json")
EXAMPLE_COMMANDS = (("solve-axb", "--fast"), ("solve-axb",), ("drazin",),
                    ("drazin", "--fast"), ("drazin", "--lambda-sweep"))


def record_digests():
    out = {"seed": gate.RECORDED_SEED, "cycles": DIGEST_CYCLES, "workloads": {}}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        for workload in WORKLOADS:
            directory = os.path.join(scratch, workload)
            os.mkdir(directory)
            digests = []
            for index in range(DIGEST_CYCLES):
                jobs = workloads.cycle_jobs(workload, gate.RECORDED_SEED, index)
                workloads.write_inputs(jobs, directory)
                done = harness.run_jobs(jobs)
                problems = dict(done.errors)
                problems.update(gate.check_all(jobs, done.texts, []))
                if problems:
                    raise SystemExit(f"{workload}: refusing to record failing reports: {problems}")
                digests += [gate.digest(done.texts[job.id]) for job in jobs]
            out["workloads"][workload] = digests
            print(f"{workload}: {len(digests)} digests", flush=True)
    with open(gate.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


def example_counts() -> dict:
    """Determinant calls per CLI command on scripts/example_axb.json."""
    counts = {}
    for argv in EXAMPLE_COMMANDS:
        t = tracing.Tracer()
        t.job = 0
        t.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([argv[0], "--input", EXAMPLE, *argv[1:]])
        finally:
            t.uninstall()
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        layer = tracing.layer_metrics(t.spans, t.counts, {0: argv[0]}, 1.0)
        counts[" ".join(argv)] = {"det_calls": layer["ncdet.det_calls"],
                                  "cli.meta_det_calls": layer["cli.meta_det_calls"]}
    return counts


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    print(workload, seed, trace, json.dumps(result)[:200], flush=True)
    return result


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "values": values}


def record_baseline(seeds, seconds):
    out = {
        "measured_on": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"Python {platform.python_version()}",
        "seeds": seeds,
        "seconds": seconds,
        "spread": "distance between the first and third quartile over the "
                  "seeds, as a share of the median",
        "workloads": {},
        "example_axb_det_calls": example_counts(),
    }
    for workload in WORKLOADS:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        traced = _run(workload, gate.RECORDED_SEED, seconds, 1)
        end_to_end = {name: dict(_summary([r["metrics"][name]["value"] for r in runs]),
                                 unit=entry["unit"])
                      for name, entry in runs[0]["metrics"].items()}
        out["workloads"][workload] = {
            "mix": workloads.mix_record(workload),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "per_layer": {name: entry["value"] for name, entry in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="regenerate recorded benchmark data")
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    base = sub.add_parser("baseline")
    base.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    base.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if args.what == "digests":
        record_digests()
    else:
        first, _, last = args.seeds.partition("-")
        record_baseline(list(range(int(first), int(last or first) + 1)), args.seconds)


if __name__ == "__main__":
    main()
