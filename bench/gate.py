"""Correctness gate for the benchmark's jobs.

Two checks, both run outside the timed and traced regions:

* For the recorded seed, each report must match, byte for byte, the
  report recorded when the benchmark was defined (kept as digests in
  ``digests.json``).
* For any seed, every report must pass checks that use no noncommutative
  determinant: ranks and indices through ``quatalg.oracle.embedding_rank``,
  the Drazin axioms through ``verify_drazin_axioms``, and solutions through
  ``A^(k+1) X = A^k D`` (with the row and two-sided mirrors) plus the range
  conditions ``rank [A | X] = rank A``. For Hermitian A these pin
  ``X = A^D D`` exactly. A determinant must satisfy
  ``det(complex image of A) = det(A)^2``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from fractions import Fraction
from typing import Dict, List, Optional

from quatalg.oracle import complex_embedding, embedding_rank, verify_drazin_axioms
from quatalg.qmat import QMatrix

RECORDED_SEED = 1
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests(workload: str, seed: int) -> List[str]:
    if seed != RECORDED_SEED:
        return []
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["workloads"].get(workload, [])


# -- determinant-free reference values -----------------------------------------

@functools.lru_cache(maxsize=256)
def _coefficient(a: QMatrix):
    """(index k, rank of A^k, A^k, A^(k+1)) from embedding ranks alone."""
    k, prev, prev_rank = 0, a.power(0), a.rows
    while True:
        cur = prev * a
        rank = embedding_rank(cur)
        if rank == prev_rank:
            return k, rank, prev, cur
        k, prev, prev_rank = k + 1, cur, rank


def _index(a: QMatrix) -> int:
    return _coefficient(a)[0]


def _complex_det(a: QMatrix) -> Fraction:
    """Exact determinant of the complex image; real for a quaternion matrix."""
    rows = [list(r) for r in complex_embedding(a)._data]
    n = len(rows)
    det_re, det_im = Fraction(1), Fraction(0)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det_re, det_im = -det_re, -det_im
        p = rows[col][col]
        det_re, det_im = det_re * p.re - det_im * p.im, det_re * p.im + det_im * p.re
        inv = p.inverse()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    if det_im != 0:
        raise ValueError("complex image has a non-real determinant")
    return det_re


def _beside(a: QMatrix, b: QMatrix) -> QMatrix:
    return QMatrix([list(a.row(i)) + list(b.row(i)) for i in range(1, a.rows + 1)])


def _above(a: QMatrix, b: QMatrix) -> QMatrix:
    return QMatrix([list(a.row(i)) for i in range(1, a.rows + 1)]
                   + [list(b.row(i)) for i in range(1, b.rows + 1)])


def _meta_matches(meta: dict, a: QMatrix, suffix: str = "") -> bool:
    k, r, _, _ = _coefficient(a)
    return meta[f"index{suffix}"] == k and meta[f"rank{suffix}"] == r


def _problem(job, report: dict) -> Optional[str]:
    a = job.inputs["A"]
    cmd = job.command
    if report["meta"]["command"] != cmd:
        return "meta.command does not name the command"
    if cmd == "det":
        det = Fraction(report["det"])
        if (det != 0) != (embedding_rank(a) == a.rows):
            return "det is zero exactly when the rank is not full: violated"
        if _complex_det(a) != det * det:
            return "det^2 differs from the determinant of the complex image"
        return None
    if cmd == "rank":
        return None if report["rank"] == embedding_rank(a) else "rank differs from the embedding rank"
    if cmd == "index":
        return None if report["index"] == _index(a) else "index differs from the embedding index"
    if cmd == "verify":
        if report["verified"] is not True:
            return "verify rejected the Drazin inverse"
        return None if report["meta"]["index"] == _index(a) else "verify reported a wrong index"
    x = QMatrix.from_json(report["X"])
    if cmd == "drazin":
        if not _meta_matches(report["meta"], a):
            return "drazin meta index/rank differ from the embedding values"
        if not verify_drazin_axioms(a, x, _index(a)):
            return "drazin X fails the Drazin axioms"
        if job.expected_x is not None and x != job.expected_x:
            return "drazin X differs from G (G*G)^-2 G*"
        return None
    d = job.inputs["D"]
    k, r, ak, ak1 = _coefficient(a)
    if cmd == "solve-ax":
        ok = ak1 * x == ak * d and embedding_rank(_beside(a, x)) == r
        residual = a * x - d
        meta_ok = _meta_matches(report["meta"], a)
    elif cmd == "solve-xa":
        ok = x * ak1 == d * ak and embedding_rank(_above(a, x)) == r
        residual = x * a - d
        meta_ok = _meta_matches(report["meta"], a)
    else:
        b = job.inputs["B"]
        _, rb, bk, bk1 = _coefficient(b)
        ok = (ak1 * x * bk1 == ak * d * bk and embedding_rank(_beside(a, x)) == r
              and embedding_rank(_above(b, x)) == rb)
        residual = a * x * b - d
        meta_ok = (_meta_matches(report["meta"], a, "_a")
                   and _meta_matches(report["meta"], b, "_b"))
    if not ok:
        return f"{cmd} X is not the Drazin-inverse solution"
    if QMatrix.from_json(report["residual"]) != residual:
        return f"{cmd} residual differs from the directly multiplied defect"
    if report["meta"]["residual_zero"] != residual.is_zero():
        return f"{cmd} meta.residual_zero is wrong"
    return None if meta_ok else f"{cmd} meta index/rank differ from the embedding values"


def check(job, text: str, digests: List[str]) -> Optional[str]:
    """None if the job's report is right, else what is wrong with it."""
    if 0 <= job.id < len(digests) and digest(text) != digests[job.id]:
        return "report differs from the recorded report"
    try:
        return _problem(job, json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def check_all(jobs, texts: Dict[int, str], digests: List[str]) -> Dict[int, str]:
    """Problems by job id, for every job with a captured report."""
    problems = {}
    for job in jobs:
        if job.id in texts:
            problem = check(job, texts[job.id], digests)
            if problem:
                problems[job.id] = problem
    _coefficient.cache_clear()  # coefficients repeat within a cycle, not across
    return problems
