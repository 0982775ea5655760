"""Seeded job lists for the benchmark workloads.

A workload is an endless sequence of cycles. Every cycle holds the same
job classes in the same order (command, matrix order, rank, entry kind),
so any whole number of cycles has the same mix; only the matrix entries
change from cycle to cycle. Cycle ``c`` of seed ``s`` is drawn from its
own random stream, so the inputs depend on the seed alone and not on how
many cycles a run gets through.

Cycles hold 25 jobs. With n cycles the median sits in the middle of the
13th-cheapest class and the 90th percentile inside the 23rd, never on the
edge between two classes, so neither jumps when a class's cost drifts.

Coefficients are Hermitian Gram products ``G G*`` with ``G`` of shape
n x r and exact rank r. Entry kinds: ``int`` draws components from
-2..2, ``wide`` from -6..6, ``pq`` divides components from -2..2 by 2 or 3.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from quatalg.oracle import embedding_rank
from quatalg.qmat import QMatrix
from quatalg.quat import Quaternion

CYCLE = 25


@dataclass
class Job:
    """One CLI call: the command line and the matrices behind its input."""

    id: int
    command: str
    flags: Tuple[str, ...]
    inputs: Dict[str, QMatrix]
    expected_x: Optional[QMatrix] = None
    path: str = ""
    tags: Tuple[str, ...] = ()

    def argv(self) -> List[str]:
        return [self.command, "--input", self.path, *self.flags]


# -- random matrices ---------------------------------------------------------

def _entry(rng: random.Random, kind: str) -> Quaternion:
    span = 6 if kind == "wide" else 2
    parts = [rng.randint(-span, span) for _ in range(4)]
    if kind == "pq":
        return Quaternion(*(Fraction(p, rng.choice((2, 3))) for p in parts))
    return Quaternion(*parts)


def _general(rng, rows, cols, kind) -> QMatrix:
    return QMatrix([[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)])


def _gram_factor(rng, n, r, kind) -> QMatrix:
    while True:
        g = _general(rng, n, r, kind)
        if embedding_rank(g) == r:
            return g


def _hermitian(rng, n, r, kind) -> QMatrix:
    g = _gram_factor(rng, n, r, kind)
    return g * g.adjoint()


def _inverse(m: QMatrix) -> QMatrix:
    """Inverse of a nonsingular quaternion matrix by Gauss-Jordan elimination
    with left row operations, independent of the determinant code."""
    n = m.rows
    aug = [list(m.row(i)) + [Quaternion(1 if i == j else 0) for j in range(1, n + 1)]
           for i in range(1, n + 1)]
    for c in range(n):
        p = next(r for r in range(c, n) if not aug[r][c].is_zero())
        aug[c], aug[p] = aug[p], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [inv * v for v in aug[c]]
        for r in range(n):
            if r != c and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return QMatrix([row[n:] for row in aug])


def _low_rank_with_inverse(rng, n, r, kind) -> Tuple[QMatrix, QMatrix]:
    """A = G G* and its Drazin inverse G (G*G)^-2 G*, which for a Hermitian
    matrix of index 1 is also the group and Moore-Penrose inverse."""
    g = _gram_factor(rng, n, r, kind)
    inv = _inverse(g.adjoint() * g)
    return g * g.adjoint(), g * inv * inv * g.adjoint()


# -- cycle schedules -----------------------------------------------------------
#
# hermitian-minors: (command, order, rank, entry kind), one fresh matrix per
# job. Listed cheapest class first.
_HERMITIAN_MINORS = (
    [("det", 5, 5, "int"), ("det", 5, 3, "pq"), ("det", 5, 4, "wide"),
     ("det", 5, 5, "pq"), ("rank", 5, 5, "wide"), ("rank", 5, 4, "int"),
     ("rank", 5, 4, "pq"), ("rank", 5, 3, "int")]
    + [("index", 5, 5, "int"), ("index", 5, 4, "pq"), ("index", 5, 3, "wide")]
    + [("det", 6, 6, "int"), ("det", 6, 5, "pq"), ("det", 6, 4, "wide"),
       ("det", 6, 3, "int"), ("rank", 6, 6, "int"), ("rank", 6, 6, "pq")]
    + [("rank", 6, 5, "int"), ("rank", 6, 5, "wide"), ("index", 6, 6, "wide")]
    + [("rank", 6, 4, "pq"), ("rank", 6, 3, "wide"), ("index", 6, 6, "int"),
       ("index", 6, 6, "pq")]
    + [("det", 7, 7, "int")]
)

# solve-fast: coefficient groups. Each group draws A (and B) once and
# reuses it for every job in the group, each with a fresh right-hand side.
# A job is (command, width of D, entry kind of D); for solve-axb the width
# is the order of B. The order-4 groups fill the cheapest 20 places of a
# cycle, the order-5 ones the dearest five.
_SOLVE_FAST = [
    ((4, 4, "int"), None, [("solve-ax", 6, "int"), ("solve-xa", 8, "int"),
                           ("solve-ax", 10, "pq"), ("solve-xa", 12, "int")]),
    ((4, 3, "int"), None, [("solve-ax", 7, "int"), ("solve-xa", 9, "pq"),
                           ("solve-ax", 11, "int"), ("solve-xa", 12, "int")]),
    ((4, 4, "pq"), None, [("solve-ax", 8, "int"), ("solve-xa", 10, "int"),
                          ("solve-ax", 12, "int")]),
    ((4, 3, "wide"), None, [("solve-ax", 6, "int"), ("solve-xa", 7, "int")]),
    ((4, 4, "wide"), (4, 3, "int"), [("solve-axb", 4, "int"), ("solve-axb", 4, "pq"),
                                     ("solve-axb", 4, "int"), ("solve-axb", 4, "int")]),
    ((4, 3, "pq"), (4, 4, "int"), [("solve-axb", 4, "int"), ("solve-axb", 4, "int"),
                                   ("solve-axb", 4, "pq")]),
    ((5, 4, "int"), None, [("solve-ax", 6, "int"), ("solve-xa", 6, "pq")]),
    ((5, 4, "pq"), (4, 4, "int"), [("solve-axb", 4, "int"), ("solve-axb", 4, "int")]),
    ((4, 3, "int"), (5, 4, "int"), [("solve-axb", 5, "int")]),
]

# drazin-checked: (order, rank, kind) pairs run as `drazin` followed by
# `verify` of the same X, then two-sided solves with their checks on.
_DRAZIN_PAIRS = [(4, 2, "int"), (4, 3, "int"), (4, 3, "pq"), (4, 3, "wide"),
                 (4, 3, "int"), (5, 2, "int"), (5, 3, "int"), (5, 2, "pq")]
_CHECKED_AXB = [((4, 2, "int"), (4, 2, "int")), ((4, 3, "int"), (4, 2, "pq")),
                ((4, 2, "wide"), (4, 3, "int")), ((4, 3, "int"), (4, 3, "int")),
                ((5, 2, "int"), (4, 2, "int")), ((4, 2, "pq"), (4, 2, "int")),
                ((4, 3, "int"), (5, 2, "int")), ((4, 2, "int"), (4, 2, "int")),
                ((4, 2, "int"), (4, 3, "wide"))]


def _hermitian_minors_cycle(rng):
    for command, n, r, kind in _HERMITIAN_MINORS:
        yield Job(0, command, (), {"A": _hermitian(rng, n, r, kind)},
                  tags=(f"o{n}", f"r{r}", kind))


def _solve_fast_cycle(rng):
    for a_spec, b_spec, jobs in _SOLVE_FAST:
        a = _hermitian(rng, *a_spec)
        b = _hermitian(rng, *b_spec) if b_spec else None
        for command, width, kind in jobs:
            n, tags = a.rows, (f"o{a.rows}", f"r{a_spec[1]}", f"w{width}", kind)
            if command == "solve-ax":
                inputs = {"A": a, "D": _general(rng, n, width, kind)}
            elif command == "solve-xa":
                inputs = {"A": a, "D": _general(rng, width, n, kind)}
            else:
                inputs = {"A": a, "B": b, "D": _general(rng, n, b.rows, kind)}
                tags = (f"o{n}x{b.rows}", f"r{a_spec[1]}x{b_spec[1]}", kind)
            yield Job(0, command, ("--fast",), inputs, tags=tags)


def _drazin_checked_cycle(rng):
    for n, r, kind in _DRAZIN_PAIRS:
        a, x = _low_rank_with_inverse(rng, n, r, kind)
        yield Job(0, "drazin", (), {"A": a}, expected_x=x, tags=(f"o{n}", f"r{r}", kind))
        yield Job(0, "verify", (), {"A": a, "X": x}, tags=(f"o{n}", f"r{r}", kind))
    for a_spec, b_spec in _CHECKED_AXB:
        a = _hermitian(rng, *a_spec)
        b = _hermitian(rng, *b_spec)
        d = _general(rng, a.rows, b.rows, "int")
        yield Job(0, "solve-axb", (), {"A": a, "B": b, "D": d},
                  tags=(f"o{a.rows}x{b.rows}", f"r{a_spec[1]}x{b_spec[1]}"))


CYCLES = {
    "hermitian-minors": _hermitian_minors_cycle,
    "solve-fast": _solve_fast_cycle,
    "drazin-checked": _drazin_checked_cycle,
}

WHY = {
    "hermitian-minors": "det, rank and index on distinct Hermitian matrices of "
                        "order 5-7; time sits in herm_det and rank_by_minors, "
                        "with no bordered sums, self-checks or solves",
    "solve-fast": "solve-ax, solve-xa and solve-axb with --fast; time sits in "
                  "bordered-sum numerators that grow with the width of D, and "
                  "coefficients repeat across consecutive jobs",
    "drazin-checked": "drazin with its checks, verify of that X, and checked "
                      "solve-axb on low-rank order 4-5 coefficients: self-check "
                      "routes, nested drazin_inverse calls, order-2/3 determinants",
}


def cycle_jobs(workload: str, seed: int, cycle: int) -> List[Job]:
    """The jobs of one cycle, numbered from ``cycle * CYCLE``."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    jobs = list(CYCLES[workload](rng))
    if len(jobs) != CYCLE:
        raise AssertionError(f"{workload} cycle has {len(jobs)} jobs, not {CYCLE}")
    for slot, job in enumerate(jobs):
        job.id = cycle * CYCLE + slot
    return jobs


def warmup_job(workload: str, seed: int) -> Job:
    """A job of the workload's first class, drawn apart from every cycle."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    job = next(CYCLES[workload](rng))
    job.id = -1
    return job


def write_inputs(jobs: List[Job], directory: str):
    """Write each job's input document to a file of its own, once."""
    for job in jobs:
        job.path = os.path.join(directory, f"job{job.id:06d}.json")
        doc = {name: m.to_json() for name, m in job.inputs.items()}
        with open(job.path, "x", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _has_pq(m: QMatrix) -> bool:
    return any(c.denominator != 1 for i in range(1, m.rows + 1) for q in m.row(i)
               for c in (q.a0, q.a1, q.a2, q.a3))


def mix_record(workload: str, seed: int = 1) -> dict:
    """The workload's mix, counted on one cycle (every cycle has the same)."""
    jobs = cycle_jobs(workload, seed, 0)
    seen, reused = [], 0
    for job in jobs:
        coefficients = [job.inputs[k] for k in ("A", "B") if k in job.inputs]
        reused += all(c in seen for c in coefficients)
        seen.extend(coefficients)
    return {
        "why": WHY[workload],
        "loop": "closed, one client, whole cycles of jobs",
        "jobs_per_cycle": CYCLE,
        "commands": dict(Counter(" ".join((j.command,) + j.flags) for j in jobs)),
        "classes": [" ".join((j.command,) + j.tags) for j in jobs],
        "coefficient_reuse_share": reused / CYCLE,
        "pq_share": sum(any(_has_pq(m) for m in j.inputs.values()) for j in jobs) / CYCLE,
    }
