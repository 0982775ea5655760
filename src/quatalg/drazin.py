"""Drazin inverses of Hermitian quaternion matrices in closed form.

The index of a square matrix is the smallest k with
rank A^(k+1) = rank A^k. The Drazin inverse is the unique X satisfying
A^(k+1) X = A^k, X A X = X and A X = X A; commutation also gives the
variant X A^(k+1) = A^k. For a Hermitian matrix every entry of X is a
ratio of exact minor sums: with r = rank A^k and d_r the sum of all
order-r principal minors of A^(k+1),

    x_ij = [ sum over order-r index sets beta containing i of the column
             determinant, anchored at i, of the beta-principal submatrix of
             A^(k+1) with column i replaced by column j of A^k ] / d_r

and the mirrored row-determinant form anchored at j with a replaced row.
Both forms are evaluated by default and must agree; the axiom check runs on
every call unless switched off. Everything is exact except
``limit_residuals``, which is the one floating-point path and exists purely
to sanity-check the closed form against the limit
(lambda I + A^(k+1))^(-1) A^k as lambda -> 0+.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import (InternalInconsistency, IndexTooLarge, NotHermitian,
                     NumericalFailure)
from .ncdet import cdet, principal_minor_sum, rank_by_minors, rdet
from .qmat import QMatrix, index_sets
from .quat import Quaternion


@dataclass(frozen=True)
class DrazinReport:
    """Drazin inverse bundled with the audit data behind it."""

    inverse: QMatrix
    index: int
    rank: int
    denominator: Fraction


def _require_hermitian(a: QMatrix):
    if not a.is_hermitian():
        raise NotHermitian("operation is defined for Hermitian matrices only")


def _index_data(a: QMatrix) -> Tuple[int, int, QMatrix, QMatrix]:
    """(index k, stabilized rank r, A^k, A^(k+1)) for a Hermitian matrix."""
    _require_hermitian(a)
    n = a.rows
    prev = QMatrix.identity(n)
    prev_rank = rank_by_minors(prev)
    for k in range(n + 1):
        cur = prev * a
        cur_rank = rank_by_minors(cur)
        if cur_rank == prev_rank:
            return k, cur_rank, prev, cur
        prev, prev_rank = cur, cur_rank
    raise InternalInconsistency("matrix index did not stabilize within n steps")


def matrix_index(a: QMatrix) -> int:
    """Smallest k >= 0 with rank A^(k+1) = rank A^k; at most n."""
    return _index_data(a)[0]


def bordered_cdet_sum(power: QMatrix, i: int, replacement: Sequence, order: int) -> Quaternion:
    """Sum over order-r index sets containing i of the anchored column
    determinants of the principal submatrices of ``power`` with column i
    replaced by ``replacement``."""
    replaced = power.replace_column(i, replacement)
    total = Quaternion()
    for beta in index_sets(power.rows, order, anchor=i):
        sub = replaced.principal(beta)
        total = total + cdet(sub, beta.index(i) + 1)
    return total


def bordered_rdet_sum(power: QMatrix, j: int, replacement: Sequence, order: int) -> Quaternion:
    """Row-determinant mirror of ``bordered_cdet_sum``: row j replaced,
    anchored row determinants summed over index sets containing j."""
    replaced = power.replace_row(j, replacement)
    total = Quaternion()
    for alpha in index_sets(power.rows, order, anchor=j):
        sub = replaced.principal(alpha)
        total = total + rdet(sub, alpha.index(j) + 1)
    return total


def _axioms_hold(a: QMatrix, x: QMatrix, ak: QMatrix, ak1: QMatrix) -> bool:
    return (ak1 * x == ak and x * ak1 == ak
            and x * a * x == x and a * x == x * a)


def drazin_inverse(a: QMatrix, self_check: bool = True) -> DrazinReport:
    """Drazin inverse of a Hermitian matrix with exact rational entries.

    With ``self_check`` on (the default) the column- and row-determinant
    forms are both evaluated and compared entrywise, and the defining axioms
    are verified exactly; disagreement raises InternalInconsistency.
    """
    k, r, ak, ak1 = _index_data(a)
    n = a.rows
    if r == 0:
        # A^k = 0, so the axioms force X = 0; the empty minor sum is 1.
        report = DrazinReport(QMatrix.zeros(n, n), k, 0, Fraction(1))
        if self_check and not _axioms_hold(a, report.inverse, ak, ak1):
            raise InternalInconsistency("zero Drazin inverse failed the axioms")
        return report
    denom = principal_minor_sum(ak1, r)
    if denom == 0:
        raise InternalInconsistency("minor-sum denominator vanished at positive rank")
    entries = [[bordered_cdet_sum(ak1, i, ak.column(j), r) / denom
                for j in range(1, n + 1)] for i in range(1, n + 1)]
    x = QMatrix(entries)
    if self_check:
        alt = QMatrix([[bordered_rdet_sum(ak1, j, ak.row(i), r) / denom
                        for j in range(1, n + 1)] for i in range(1, n + 1)])
        if alt != x:
            raise InternalInconsistency(
                "column- and row-determinant Drazin forms disagree")
        if not _axioms_hold(a, x, ak, ak1):
            raise InternalInconsistency("Drazin inverse failed the axioms")
    return DrazinReport(x, k, r, denom)


def group_inverse(a: QMatrix) -> QMatrix:
    """Group inverse (index at most 1), via the k = 1 minor-sum formula with
    columns taken from A itself; cross-checked against the Drazin inverse."""
    _require_hermitian(a)
    k = matrix_index(a)
    if k > 1:
        raise IndexTooLarge(f"group inverse needs index <= 1, got {k}")
    n = a.rows
    r = rank_by_minors(a)
    if r == 0:
        return QMatrix.zeros(n, n)
    a2 = a.power(2)
    denom = principal_minor_sum(a2, r)
    x = QMatrix([[bordered_cdet_sum(a2, i, a.column(j), r) / denom
                  for j in range(1, n + 1)] for i in range(1, n + 1)])
    if x != drazin_inverse(a).inverse:
        raise InternalInconsistency("group inverse disagrees with the Drazin inverse")
    return x


def drazin_projectors(a: QMatrix, self_check: bool = True) -> Tuple[QMatrix, QMatrix]:
    """The pair (A^D A, A A^D) in closed form.

    Both come from the same minor-sum shape as the Drazin inverse, with the
    replacement columns or rows taken from A^(k+1); with ``self_check`` on
    they are compared against the directly multiplied products and checked
    for idempotence.
    """
    k, r, ak, ak1 = _index_data(a)
    n = a.rows
    if r == 0:
        return QMatrix.zeros(n, n), QMatrix.zeros(n, n)
    denom = principal_minor_sum(ak1, r)
    left = QMatrix([[bordered_cdet_sum(ak1, i, ak1.column(j), r) / denom
                     for j in range(1, n + 1)] for i in range(1, n + 1)])
    right = QMatrix([[bordered_rdet_sum(ak1, j, ak1.row(i), r) / denom
                      for j in range(1, n + 1)] for i in range(1, n + 1)])
    if self_check:
        x = drazin_inverse(a, self_check=False).inverse
        if left != x * a or right != a * x:
            raise InternalInconsistency("projector forms disagree with direct products")
        if left * left != left or right * right != right:
            raise InternalInconsistency("projectors are not idempotent")
    return left, right


# -- floating-point limit check -------------------------------------------
#
# The one inexact corner of the library. The shifted systems are solved by
# Gaussian elimination with partial pivoting over the complex image of the
# quaternion matrices (the same 2x2 block convention as the oracle module),
# in double precision.

def _embed_float(a: QMatrix) -> List[List[complex]]:
    out = [[0j] * (2 * a.cols) for _ in range(2 * a.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            q = a.entry(i + 1, j + 1)
            a0, a1 = float(q.a0), float(q.a1)
            a2, a3 = float(q.a2), float(q.a3)
            out[2 * i][2 * j] = complex(a0, a1)
            out[2 * i][2 * j + 1] = complex(a2, a3)
            out[2 * i + 1][2 * j] = complex(-a2, a3)
            out[2 * i + 1][2 * j + 1] = complex(a0, -a1)
    return out


def _solve_float(m: List[List[complex]], rhs: List[List[complex]]) -> List[List[complex]]:
    n = len(m)
    width = len(rhs[0])
    aug = [list(m[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) == 0.0:
            raise NumericalFailure("shifted system is singular at this lambda")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        lead = aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], lead)]
    return [row[n:n + width] for row in aug]


def _transpose(m: List[List[complex]]) -> List[List[complex]]:
    return [list(col) for col in zip(*m)]


def _blocks_to_components(sol: List[List[complex]], n: int):
    """Read quaternion components back off the top block rows."""
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            z1 = sol[2 * i][2 * j]
            z2 = sol[2 * i][2 * j + 1]
            row.append((z1.real, z1.imag, z2.real, z2.imag))
        out.append(row)
    return out


def limit_residuals(a: QMatrix, lambdas: Sequence[float]) -> List[float]:
    """Max-entry distance between the exact Drazin inverse and the shifted
    solves (lambda I + A^(k+1))^(-1) A^k, for each lambda.

    Both orderings of the product are evaluated and the larger deviation is
    reported; entry distance is the Euclidean length of the component
    difference. Residuals should shrink as lambda -> 0+.
    """
    for lam in lambdas:
        if not lam > 0:
            raise ValueError(f"lambda values must be positive, got {lam}")
    report = drazin_inverse(a)
    k = report.index
    n = a.rows
    try:
        ak_f = _embed_float(a.power(k))
        ak1_f = _embed_float(a.power(k + 1))
        exact = [[tuple(float(c) for c in (q.a0, q.a1, q.a2, q.a3))
                  for q in (report.inverse.entry(i, j) for j in range(1, n + 1))]
                 for i in range(1, n + 1)]
    except OverflowError as exc:
        raise NumericalFailure(f"entries do not fit in double precision: {exc}") from exc
    residuals = []
    for lam in lambdas:
        shifted = [list(row) for row in ak1_f]
        for d in range(2 * n):
            shifted[d][d] += complex(lam)
        left = _solve_float(shifted, ak_f)
        right = _transpose(_solve_float(_transpose(shifted), _transpose(ak_f)))
        worst = 0.0
        for approx in (left, right):
            comps = _blocks_to_components(approx, n)
            for i in range(n):
                for j in range(n):
                    diff = sum((x - y) ** 2 for x, y in zip(comps[i][j], exact[i][j]))
                    worst = max(worst, diff ** 0.5)
        residuals.append(worst)
    return residuals
