#!/usr/bin/env python3
"""Benchmark of the quatalg command line on seeded Hermitian workloads.

Run from the root of a source tree:

    python3 bench/run.py --workload hermitian-minors --seed 1 --seconds 20 --trace 0

``--workload`` is ``hermitian-minors``, ``solve-fast``, ``drazin-checked``
or ``all``. ``--trace 0`` measures the end-to-end metrics (jobs_per_s,
job_ms_p50, job_ms_p90, setup_s, peak_rss_mib); ``--trace 1`` runs the
traced pass and reports the per-layer metrics instead. Either way every
report goes through the correctness gate, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

The program is imported from ``src/`` of the tree the script sits in;
without it the script exits with code 2. Generated inputs and span files
go under ``.bench_build/quatalg-bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "quatalg-bench")
WORKLOADS = ("hermitian-minors", "solve-fast", "drazin-checked")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result(attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def _run_all(args) -> int:
    """Each workload in a process of its own, then one combined line."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *notes, last = proc.stdout.strip().split("\n")
        result = json.loads(last)
        print("\n".join(notes))
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics[f"{workload}.{name}"] = (entry["value"], entry["unit"])
    print(_result(attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "quatalg", "cli.py")):
        print(f"error: no quatalg sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [SRC, HERE]
    import harness  # imports quatalg, so only once the path is set

    attempted, problems, metrics, notes = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), SRC, WORK)
    for job_id, problem in sorted(problems.items())[:20]:
        print(f"job {job_id}: {problem}", file=sys.stderr)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(_result(attempted, len(problems), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
