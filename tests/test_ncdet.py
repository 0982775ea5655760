import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from quatalg import (QMatrix, cdet, char_coeffs, cofactor_left, cofactor_right,
                     embedding_rank, herm_det, herm_inverse, index_sets,
                     principal_minor_sum, rank_by_minors, rdet)
from quatalg.errors import (DimensionMismatch, NotHermitian, Singular,
                            SizeCapExceeded)
from quatalg.quat import I, J, K, Quaternion

from helpers import (hermitian_strategy, rand_hermitian, rand_qmatrix,
                     rand_quat, sample_a, sample_b)


def test_single_entry_determinants():
    q = Quaternion(2, -1, 3, 5)
    assert rdet(QMatrix([[q]]), 1) == q
    assert cdet(QMatrix([[q]]), 1) == q


def test_two_by_two_hermitian_blocks():
    assert rdet(QMatrix([[1, K], [-K, 2]]), 1) == Quaternion(1)
    assert cdet(QMatrix([[3, 4 * K], [-4 * K, 6]]), 1) == Quaternion(2)


def test_anchored_forms_differ_off_hermitian():
    diag = QMatrix([[I, 0], [0, J]])
    assert rdet(diag, 1) == K
    assert cdet(diag, 1) == -K


def test_determinants_need_square_matrices():
    with pytest.raises(DimensionMismatch):
        rdet(QMatrix([[1, 2]]), 1)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        rdet(QMatrix.identity(9), 1)
    with pytest.raises(SizeCapExceeded):
        herm_det(QMatrix.identity(9))


def test_hermitian_determinant_values():
    assert herm_det(QMatrix.identity(4)) == 1
    assert herm_det(QMatrix([[3, -3 * I], [3 * I, 3]])) == 0
    assert herm_det(QMatrix([[6, 4 * J], [-4 * J, 3]])) == 2
    with pytest.raises(NotHermitian):
        herm_det(QMatrix([[0, I], [I, 0]]))


def test_all_anchors_agree_on_hermitian_matrices():
    rng = random.Random(1130)
    for n in (2, 3, 4, 5):
        a = rand_hermitian(rng, n)
        values = [rdet(a, i) for i in range(1, n + 1)]
        values += [cdet(a, j) for j in range(1, n + 1)]
        assert all(v == values[0] for v in values)
        assert values[0].is_real()


def test_two_by_two_cofactors():
    a = rand_qmatrix(random.Random(77), 2, 2)
    assert cofactor_right(a, 1, 1) == a.entry(2, 2)
    assert cofactor_right(a, 1, 2) == -a.entry(2, 1)
    assert cofactor_left(a, 1, 1) == a.entry(2, 2)
    assert cofactor_left(a, 2, 1) == -a.entry(1, 2)


def test_cofactor_expansions_reproduce_determinants():
    rng = random.Random(2204)
    for n in (1, 2, 3, 4):
        a = rand_qmatrix(rng, n, n)
        for i in range(1, n + 1):
            total = Quaternion()
            for j in range(1, n + 1):
                total = total + a.entry(i, j) * cofactor_right(a, i, j)
            assert total == rdet(a, i)
        for j in range(1, n + 1):
            total = Quaternion()
            for i in range(1, n + 1):
                total = total + cofactor_left(a, i, j) * a.entry(i, j)
            assert total == cdet(a, j)


def test_expansion_identities_on_worked_blocks():
    block = QMatrix([[1, K], [-K, 2]])
    assert sum(((block.entry(1, j) * cofactor_right(block, 1, j))
                for j in (1, 2)), Quaternion()) == Quaternion(1)
    block = QMatrix([[3, 4 * K], [-4 * K, 6]])
    assert sum((cofactor_left(block, i, 1) * block.entry(i, 1)
                for i in (1, 2)), Quaternion()) == Quaternion(2)


def test_scalar_factor_rules():
    rng = random.Random(3033)
    for n in (2, 3, 4):
        a = rand_qmatrix(rng, n, n)
        b = rand_quat(rng)
        i = rng.randint(1, n)
        scaled_row = tuple(b * v for v in a.row(i))
        assert rdet(a.replace_row(i, scaled_row), i) == b * rdet(a, i)
        j = rng.randint(1, n)
        scaled_col = tuple(v * b for v in a.column(j))
        assert cdet(a.replace_column(j, scaled_col), j) == cdet(a, j) * b


def test_row_and_column_additivity():
    rng = random.Random(3134)
    for n in (2, 3, 4):
        a = rand_qmatrix(rng, n, n)
        t = rng.randint(1, n)
        split = [rand_quat(rng) for _ in range(n)]
        other = [a.entry(t, j + 1) - split[j] for j in range(n)]
        for anchor in range(1, n + 1):
            assert rdet(a, anchor) == (rdet(a.replace_row(t, split), anchor)
                                       + rdet(a.replace_row(t, other), anchor))
            assert cdet(a, anchor) == (cdet(a.replace_row(t, split), anchor)
                                       + cdet(a.replace_row(t, other), anchor))
        split_col = [rand_quat(rng) for _ in range(n)]
        other_col = [a.entry(i + 1, t) - split_col[i] for i in range(n)]
        for anchor in range(1, n + 1):
            assert rdet(a, anchor) == (rdet(a.replace_column(t, split_col), anchor)
                                       + rdet(a.replace_column(t, other_col), anchor))
            assert cdet(a, anchor) == (cdet(a.replace_column(t, split_col), anchor)
                                       + cdet(a.replace_column(t, other_col), anchor))


@given(hermitian_strategy(3))
@settings(max_examples=20, deadline=None)
def test_hermitian_determinant_is_well_defined(a):
    value = herm_det(a)
    assert Quaternion(value) == rdet(a, 2) == cdet(a, 3)


def test_adjoint_determinant_conjugation():
    rng = random.Random(3305)
    for n in (2, 3, 4):
        a = rand_qmatrix(rng, n, n)
        for i in range(1, n + 1):
            assert rdet(a.adjoint(), i) == cdet(a, i).conjugate()


def test_vanishing_under_dependent_rows_and_columns():
    rng = random.Random(3406)
    for n in (3, 4):
        a = rand_hermitian(rng, n)
        i = rng.randint(1, n)
        others = [t for t in range(1, n + 1) if t != i]
        coeffs = {t: rand_quat(rng) for t in others}
        comb_row = [sum((coeffs[t] * a.entry(t, c + 1) for t in others), Quaternion())
                    for c in range(n)]
        modified = a.replace_row(i, comb_row)
        assert rdet(modified, i) == Quaternion()
        assert cdet(modified, i) == Quaternion()
        j = rng.randint(1, n)
        others = [t for t in range(1, n + 1) if t != j]
        coeffs = {t: rand_quat(rng) for t in others}
        comb_col = [sum((a.entry(r + 1, t) * coeffs[t] for t in others), Quaternion())
                    for r in range(n)]
        modified = a.replace_column(j, comb_col)
        assert cdet(modified, j) == Quaternion()
        assert rdet(modified, j) == Quaternion()


def test_characteristic_coefficients():
    assert char_coeffs(QMatrix.identity(3)) == (3, 3, 1)
    assert principal_minor_sum(sample_a().power(2), 2) == 4
    assert principal_minor_sum(sample_b().power(2), 1) == 4
    assert char_coeffs(sample_a()) == (4, 2, 0)


def test_characteristic_polynomial_consistency():
    rng = random.Random(3507)
    for n in (2, 3, 4):
        a = rand_hermitian(rng, n)
        coeffs = char_coeffs(a)
        for _ in range(3):
            t0 = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            shifted = QMatrix.identity(n).scale(t0) + a
            expected = t0 ** n + sum(d * t0 ** (n - s)
                                     for s, d in enumerate(coeffs, start=1))
            assert herm_det(shifted) == expected


def test_rank_by_minors():
    assert rank_by_minors(sample_a()) == 2
    assert rank_by_minors(sample_b()) == 1
    assert rank_by_minors(QMatrix.zeros(3, 3)) == 0
    assert rank_by_minors(QMatrix.identity(4)) == 4
    with pytest.raises(NotHermitian):
        rank_by_minors(QMatrix([[0, I], [I, 0]]))


def test_hermitian_inverse():
    assert herm_inverse(QMatrix.identity(3)) == QMatrix.identity(3)
    block = QMatrix([[1, K], [-K, 2]])
    assert herm_inverse(block) == QMatrix([[2, -K], [K, 1]])
    diag = QMatrix([[2, 0], [0, Fraction(1, 2)]])
    assert herm_inverse(diag) == QMatrix([[Fraction(1, 2), 0], [0, 2]])


def test_hermitian_inverse_errors():
    with pytest.raises(Singular):
        herm_inverse(sample_a())
    with pytest.raises(NotHermitian):
        herm_inverse(QMatrix([[0, I], [I, 0]]))


def test_hermitian_inverse_on_random_matrices():
    rng = random.Random(3608)
    found = 0
    while found < 5:
        a = rand_hermitian(rng, 3)
        if herm_det(a) == 0:
            continue
        found += 1
        inv = herm_inverse(a)
        assert a * inv == QMatrix.identity(3)
        assert inv * a == QMatrix.identity(3)


# -- congruence elimination against the permutation-sum oracle ---------------

def zero_diagonal_hermitian(rng, n) -> QMatrix:
    """Indefinite Hermitian matrix with every diagonal entry zero."""
    g = rand_qmatrix(rng, n, n)
    return QMatrix([[0 if i == j else g.entry(i, j) if i < j else g.entry(j, i).conjugate()
                     for j in range(1, n + 1)] for i in range(1, n + 1)])


def oracle_family(rng, n):
    """Gram, symmetrised, low-rank Gram and zero-diagonal samples of order n."""
    low = rand_qmatrix(rng, n, max(1, n // 2))
    return [rand_hermitian(rng, n, mode="gram"), rand_hermitian(rng, n, mode="sym"),
            low * low.adjoint(), zero_diagonal_hermitian(rng, n)]


def brute_rank(a: QMatrix) -> int:
    """Largest order of a nonzero principal minor, each minor a permutation sum."""
    for order in range(a.rows, 0, -1):
        for beta in index_sets(a.rows, order):
            if rdet(a.principal(beta), 1) != Quaternion():
                return order
    return 0


def test_herm_det_matches_every_anchored_determinant():
    rng = random.Random(4101)
    for n in range(1, 6):
        for a in oracle_family(rng, n):
            value = Quaternion(herm_det(a))
            for t in range(1, n + 1):
                assert rdet(a, t) == value == cdet(a, t)


def test_herm_det_matches_the_oracle_at_orders_six_and_seven():
    # An order-6 permutation sum takes about 0.3 s and an order-7 one about
    # 2 s, so these orders compare against one row and one column anchor.
    rng = random.Random(4106)
    for a in oracle_family(rng, 6):
        value = Quaternion(herm_det(a))
        assert rdet(a, 1) == value == cdet(a, 6)
    a = rand_hermitian(random.Random(4107), 7, mode="sym")
    value = herm_det(a)
    assert value != 0
    assert rdet(a, 4) == Quaternion(value)


def test_zero_diagonal_appearing_mid_elimination():
    q = Quaternion(1, 1, 1, 0)
    # The first pivot leaves the Schur complement [[0, q], [conj(q), 0]].
    a = QMatrix([[1, 1, 0], [1, 1, q], [0, q.conjugate(), 0]])
    assert herm_det(a) == -3 == rdet(a, 2).a0
    assert rank_by_minors(a) == 3
    single = QMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, J], [0, 0, -J, 0]])
    assert herm_det(single) == 0
    assert rank_by_minors(single) == 2 == brute_rank(single)


def test_rank_matches_embedding_rank_and_minor_scan():
    rng = random.Random(4202)
    for n in range(1, 6):
        for a in oracle_family(rng, n):
            assert rank_by_minors(a) == embedding_rank(a) == brute_rank(a)


def test_principal_minor_sum_matches_brute_sum():
    rng = random.Random(4303)
    for n in range(1, 6):
        for a in oracle_family(rng, n):
            for order in range(1, n + 1):
                brute = sum((rdet(a.principal(beta), 1) for beta in index_sets(n, order)),
                            Quaternion())
                assert Quaternion(principal_minor_sum(a, order)) == brute


def test_rank_by_minors_keeps_the_size_cap():
    with pytest.raises(SizeCapExceeded):
        rank_by_minors(QMatrix.zeros(9, 9))
