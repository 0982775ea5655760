"""Self-tests of the benchmark: tracing must not change what the program
does, counts must repeat, spans must account for the traced time, and the
correctness gate must reject a wrong report.

Run from the root of the tree: python3 -m pytest -q bench/tests
"""

import json

import pytest

import gate
import harness
import tracer
import workloads
from quatalg import ncdet, qmat, quat

# Cheap slots of each cycle that still cover every command.
SLOTS = {
    "hermitian-minors": (0, 4, 8, 11),
    "solve-fast": (0, 1, 13),
    "drazin-checked": (0, 1, 16),
}


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    picked = []
    for workload, slots in SLOTS.items():
        cycle = workloads.cycle_jobs(workload, 7, 0)
        for slot in slots:
            job = cycle[slot]
            job.id = len(picked)
            picked.append(job)
    workloads.write_inputs(picked, str(directory))
    return picked


def traced(jobs):
    t = tracer.Tracer()
    t.install()
    try:
        done = harness.run_jobs(jobs, t)
    finally:
        t.uninstall()
    commands = {job.id: job.command for job in jobs}
    return done, tracer.layer_metrics(t.spans, t.counts, commands, done.wall)


def test_traced_and_untraced_reports_are_byte_identical(jobs):
    plain = harness.run_jobs(jobs)
    outcome, _ = traced(jobs)
    assert not plain.errors and not outcome.errors
    assert outcome.texts == plain.texts
    assert {job.command for job in jobs} == {
        "det", "rank", "index", "drazin", "verify", "solve-ax", "solve-xa", "solve-axb"}


def test_count_metrics_repeat_exactly_across_traced_runs(jobs):
    _, first = traced(jobs)
    _, second = traced(jobs)
    counts = [name for name in first if tracer.is_count(name)]
    assert len(counts) == 23
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["ncdet.det_calls"] == sum(
        first[f"ncdet.det_calls.o{k}"] for k in range(1, tracer.MAX_ORDER + 1))
    assert first["quat.mul_calls"] > 0 and first["cli.meta_det_calls"] > 0


def test_self_coverage_is_close_to_one(jobs):
    _, metrics = traced(jobs)
    assert 0.95 < metrics["trace.self_coverage"] <= 1.0


def test_tracer_puts_the_program_back(jobs):
    originals = (ncdet.rdet, qmat.QMatrix.__mul__, quat.Quaternion.__add__,
                 qmat.QMatrix.__dict__["from_json"])
    traced(jobs[:1])
    assert originals == (ncdet.rdet, qmat.QMatrix.__mul__, quat.Quaternion.__add__,
                         qmat.QMatrix.__dict__["from_json"])


def test_gate_accepts_the_reports_and_rejects_a_wrong_one(jobs):
    outcome = harness.run_jobs(jobs)
    assert gate.check_all(jobs, outcome.texts, []) == {}
    solve = next(job for job in jobs if job.command == "solve-ax")
    report = json.loads(outcome.texts[solve.id])
    report["X"]["data"][0][0][0] = "1/7"
    assert "not the Drazin-inverse solution" in gate.check(solve, json.dumps(report), [])
    rank = next(job for job in jobs if job.command == "rank")
    report = json.loads(outcome.texts[rank.id])
    report["rank"] -= 1
    assert gate.check(rank, json.dumps(report), []) is not None
    recorded = [gate.digest(outcome.texts[job.id]) for job in jobs]
    recorded[rank.id] = "0" * 16
    assert gate.check(rank, outcome.texts[rank.id], recorded) is not None


def test_inputs_depend_on_the_seed_alone():
    first = workloads.cycle_jobs("solve-fast", 3, 2)
    again = workloads.cycle_jobs("solve-fast", 3, 2)
    other = workloads.cycle_jobs("solve-fast", 4, 2)
    assert [j.inputs for j in first] == [j.inputs for j in again]
    assert [j.inputs for j in first] != [j.inputs for j in other]
    assert first[0].id == 2 * workloads.CYCLE
