"""Noncommutative determinants of quaternion matrices.

Over a noncommutative ring a determinant has to fix not just which entries
are multiplied but in which order. The anchored row determinant ``rdet(A, i)``
sums over all permutations; each permutation is split into disjoint cycles,
every cycle contributes the entry product read along the cycle (row index
first, then where the permutation sends it, and so on around), and the
cycle products are multiplied left to right as follows: the cycle through
the anchor comes first and is walked starting at the anchor, the remaining
cycles are walked from their smallest element and ordered by those leaders
ascending. The column determinant ``cdet(A, j)`` mirrors this: leaders
descend left to right and the anchor's cycle comes last. Every term carries
the sign (-1)**(n - c) where c counts cycles, fixed points included, so the
identity permutation always contributes with sign +1.

For a Hermitian matrix all 2n anchored determinants coincide and the common
value is real, which is what makes ``herm_det`` well defined; principal
minors, the characteristic coefficients, the rank, and the cofactor
inverse all build on that fact.

The anchored permutation sums cost n * n! quaternion products, so any
single determinant call is capped at DET_SIZE_CAP. The Hermitian layers do
not pay that: the common value equals the Moore determinant, which is
invariant under congruence by unit triangular matrices and factors as
Mdet(A) = a_pp * Mdet(S) over a real pivot a_pp and its Schur complement S
(Sylvester inertia plus multiplicativity of the Study determinant; see
Aslaksen, "Quaternionic determinants", 1996). ``herm_det`` and
``rank_by_minors`` therefore run a congruence (LDL*) elimination in O(n^3)
exact operations; the permutation sum stays the oracle the tests compare
against. Both keep the same DET_SIZE_CAP so the accepted inputs do not
change.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Tuple

from .errors import (DimensionMismatch, IndexOutOfRange, InternalInconsistency,
                     NotHermitian, SizeCapExceeded, Singular)
from .qmat import QMatrix, index_sets
from .quat import Quaternion

DET_SIZE_CAP = 8


def _require_square(a: QMatrix) -> int:
    if not a.is_square():
        raise DimensionMismatch("determinants need a square matrix")
    return a.rows


def _require_hermitian(a: QMatrix):
    if not a.is_hermitian():
        raise NotHermitian("operation is defined for Hermitian matrices only")


def _check_cap(n: int):
    if n > DET_SIZE_CAP:
        raise SizeCapExceeded(
            f"matrix order {n} exceeds the determinant size cap {DET_SIZE_CAP}")


def _walk(grid, perm, start, seen):
    """Entry product along one cycle, beginning at ``start``."""
    seen[start] = True
    prod = grid[start][perm[start]]
    x = perm[start]
    while x != start:
        seen[x] = True
        prod = prod * grid[x][perm[x]]
        x = perm[x]
    return prod


def _anchored_det(a: QMatrix, anchor: int, column_form: bool) -> Quaternion:
    n = _require_square(a)
    _check_cap(n)
    if not 1 <= anchor <= n:
        raise IndexOutOfRange(f"anchor {anchor} outside 1..{n}")
    grid = [a.row(i) for i in range(1, n + 1)]
    a0 = anchor - 1
    total = Quaternion()
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        term = _walk(grid, perm, a0, seen)
        cycles = 1
        for s in range(n):
            if not seen[s]:
                piece = _walk(grid, perm, s, seen)
                cycles += 1
                # Ascending leaders to the right of the anchor cycle for the
                # row form; descending leaders to its left for the column form.
                term = piece * term if column_form else term * piece
        if (n - cycles) % 2:
            total = total - term
        else:
            total = total + term
    return total


def rdet(a: QMatrix, i: int) -> Quaternion:
    """Row determinant anchored at row i."""
    return _anchored_det(a, i, column_form=False)


def cdet(a: QMatrix, j: int) -> Quaternion:
    """Column determinant anchored at column j."""
    return _anchored_det(a, j, column_form=True)


def _congruence_pivots(a: QMatrix) -> List[Fraction]:
    """Real pivots of a congruence (LDL*) elimination of a Hermitian matrix.

    Each step takes the first nonzero diagonal entry of the trailing block
    as the pivot and replaces the block by its Schur complement. When every
    diagonal entry is zero but some a_ij is not, the congruence
    row_i += q*row_j, col_i += col_j*conj(q) with q = a_ij first makes the
    diagonal entry 2|q|^2 without changing the determinant. Elimination
    stops when the trailing block is zero, so there is one pivot per unit
    of rank and the determinant is their product when there are n of them.
    Every pivot is asserted real rather than assumed.
    """
    _require_hermitian(a)
    n = a.rows
    _check_cap(n)
    block = [list(a.row(i)) for i in range(1, n + 1)]
    pivots: List[Fraction] = []
    while block:
        p = next((t for t in range(len(block)) if block[t][t]), None)
        if p is None:
            found = next(((i, j) for i, row in enumerate(block)
                          for j, v in enumerate(row) if v), None)
            if found is None:
                break
            p, j = found
            q = block[p][j]
            qc = q.conjugate()
            block[p] = [x + q * y for x, y in zip(block[p], block[j])]
            for row in block:
                row[p] = row[p] + row[j] * qc
        pivot = block[p][p]
        if not pivot.is_real():
            raise InternalInconsistency(
                f"Hermitian elimination met a non-real pivot: {pivot}")
        pivots.append(pivot.a0)
        factors = [v / pivot.a0 for v in block[p]]
        block = [[x - row[p] * f for t, (x, f) in enumerate(zip(row, factors)) if t != p]
                 for row in block[:p] + block[p + 1:]]
    return pivots


def herm_det(a: QMatrix) -> Fraction:
    """Determinant of a Hermitian matrix, as an exact rational.

    All anchored row and column determinants of a Hermitian matrix agree and
    are real; the common value is the product of the congruence pivots, or 0
    when the elimination stops short of full rank.
    """
    pivots = _congruence_pivots(a)
    if len(pivots) < a.rows:
        return Fraction(0)
    return math.prod(pivots)


# -- cofactors -----------------------------------------------------------

def _deleted(a: QMatrix, i: int) -> QMatrix:
    keep = tuple(t for t in range(1, a.rows + 1) if t != i)
    return a.submatrix(keep, keep)


def cofactor_right(a: QMatrix, i: int, j: int) -> Quaternion:
    """Right cofactor R_ij, defined by rdet(A, i) = sum_j a_ij * R_ij.

    For i != j it is minus the row determinant, anchored at j, of the matrix
    with column j replaced by column i and then row/column i deleted; for
    i == j it is the row determinant of the plain minor.
    """
    n = _require_square(a)
    a._check_row(i)
    a._check_col(j)
    if n == 1:
        return Quaternion(1)
    if i == j:
        return rdet(_deleted(a, i), 1)
    replaced = a.replace_column(j, a.column(i))
    anchor = j if j < i else j - 1
    return -rdet(_deleted(replaced, i), anchor)


def cofactor_left(a: QMatrix, i: int, j: int) -> Quaternion:
    """Left cofactor L_ij, defined by cdet(A, j) = sum_i L_ij * a_ij."""
    n = _require_square(a)
    a._check_row(i)
    a._check_col(j)
    if n == 1:
        return Quaternion(1)
    if i == j:
        return cdet(_deleted(a, j), 1)
    replaced = a.replace_row(i, a.row(j))
    anchor = i if i < j else i - 1
    return -cdet(_deleted(replaced, j), anchor)


# -- principal minors, characteristic coefficients, rank ------------------

def principal_minor_sum(a: QMatrix, order: int) -> Fraction:
    """Sum of all order-s principal minors of a Hermitian matrix."""
    _require_hermitian(a)
    total = Fraction(0)
    for beta in index_sets(a.rows, order):
        total += herm_det(a.principal(beta))
    return total


def char_coeffs(a: QMatrix) -> Tuple[Fraction, ...]:
    """Coefficients (d_1, ..., d_n) of the characteristic polynomial of a
    Hermitian matrix: d_s is the sum of all order-s principal minors, so
    det(tI - A) = t^n - d_1 t^(n-1) + ... + (-1)^n d_n and
    det(tI + A) = t^n + d_1 t^(n-1) + ... + d_n for real rational t.
    """
    _require_hermitian(a)
    return tuple(principal_minor_sum(a, s) for s in range(1, a.rows + 1))


def rank_by_minors(a: QMatrix) -> int:
    """Rank of a Hermitian matrix: the largest order of a nonzero principal
    minor. That order equals the number of congruence pivots, which is what
    is counted; no minor is enumerated."""
    return len(_congruence_pivots(a))


# -- cofactor inverse ------------------------------------------------------

def herm_inverse(a: QMatrix) -> QMatrix:
    """Inverse of a nonsingular Hermitian matrix via cofactors.

    Entry (i, j) is R_ji / det; the left-cofactor form L_ji / det is computed
    as well and must agree, and the products with the original matrix are
    checked against the identity. Raises Singular when the determinant is 0.
    """
    _require_hermitian(a)
    det = herm_det(a)
    if det == 0:
        raise Singular("Hermitian matrix with zero determinant has no inverse")
    n = a.rows
    right = QMatrix([[cofactor_right(a, j, i) / det for j in range(1, n + 1)]
                     for i in range(1, n + 1)])
    left = QMatrix([[cofactor_left(a, j, i) / det for j in range(1, n + 1)]
                    for i in range(1, n + 1)])
    if right != left:
        raise InternalInconsistency("right and left cofactor inverses disagree")
    ident = QMatrix.identity(n)
    if a * right != ident or right * a != ident:
        raise InternalInconsistency("cofactor inverse failed the product check")
    return right
