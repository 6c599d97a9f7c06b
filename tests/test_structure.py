"""Structure operators: projections, M/N applications, Gram diagonals."""

import numpy as np
import pytest

from singdist import (
    BasisStructure,
    DimensionMismatchError,
    FullStructure,
    SparsityPattern,
    StructureError,
)
from singdist.structure import as_dense
from conftest import random_orthonormal_basis, random_pattern


def diag_pattern():
    return SparsityPattern(2, 2, [(0, 0), (1, 1)])


def test_full_project_is_identity():
    rng = np.random.default_rng(0)
    S = FullStructure(3, 4)
    X = rng.standard_normal((3, 4))
    assert np.array_equal(S.project(X), X)


def test_pattern_project_masks_entries():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = as_dense(diag_pattern().project(X))
    assert np.array_equal(out, np.array([[1.0, 0.0], [0.0, 4.0]]))


def test_basis_project_matches_expansion_sum():
    # projection of X onto span{P_i} is sum_i P_i <P_i, X>
    rng = np.random.default_rng(1)
    S = random_orthonormal_basis(rng, 4, 4, 3)
    mats = [as_dense(S.from_coefficients(np.eye(3)[i])) for i in range(3)]
    X = rng.standard_normal((4, 4))
    expected = sum(P * np.vdot(P, X) for P in mats)
    assert np.linalg.norm(as_dense(S.project(X)) - expected) <= 1e-13 * np.linalg.norm(X)


def test_project_idempotent_and_self_adjoint():
    rng = np.random.default_rng(2)
    for trial in range(10):
        m, n = rng.integers(2, 8, size=2)
        S, _ = random_pattern(rng, m, n)
        X = rng.standard_normal((m, n))
        Y = rng.standard_normal((m, n))
        PX = as_dense(S.project(X))
        assert np.linalg.norm(as_dense(S.project(PX)) - PX) <= 1e-13 * np.linalg.norm(X)
        gap = abs(np.vdot(PX, Y) - np.vdot(X, as_dense(S.project(Y))))
        assert gap <= 1e-12 * np.linalg.norm(X) * np.linalg.norm(Y)


def test_project_rank1_full_and_single_entry():
    S = FullStructure(2, 2)
    out = as_dense(S.project_rank1(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert np.array_equal(out, np.array([[0.0, 1.0], [0.0, 0.0]]))
    S1 = SparsityPattern(2, 2, [(0, 1)])
    out = as_dense(S1.project_rank1(np.array([2.0, 0.0]), np.array([0.0, 3.0])))
    assert np.array_equal(out, np.array([[0.0, 6.0], [0.0, 0.0]]))


def test_project_rank1_equals_masked_outer():
    rng = np.random.default_rng(3)
    for trial in range(10):
        m, n = rng.integers(2, 9, size=2)
        S, _ = random_pattern(rng, m, n)
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        direct = as_dense(S.project_rank1(u, v))
        oracle = as_dense(S.project(np.outer(u, v)))
        assert np.linalg.norm(direct - oracle) <= 1e-13 * (1 + np.linalg.norm(oracle))


def test_apply_m_full_is_matrix_times_v():
    rng = np.random.default_rng(4)
    S = FullStructure(3, 3)
    X = rng.standard_normal((3, 3))
    v = rng.standard_normal(3)
    assert np.allclose(S.apply_m(v, X.ravel()), X @ v, atol=1e-14)
    assert np.allclose(S.apply_n(v, X.ravel()), X.T @ v, atol=1e-14)


def test_apply_m_diagonal_pattern_by_hand():
    # J = {(0,0),(1,1)}: the columns of M(v) are e_0 v_0 and e_1 v_1
    a, b = 0.7, -1.3
    S = diag_pattern()
    M = S.m_matrix(np.array([a, b]))
    assert np.allclose(M, np.diag([a, b]), atol=1e-15)


def test_apply_n_single_entry_by_hand():
    # J = {(0,1)}: N(u) has the single column e_1 u_0
    c = 2.5
    S = SparsityPattern(2, 2, [(0, 1)])
    N = S.n_matrix(np.array([c, 0.0]))
    assert np.allclose(N, np.array([[0.0], [c]]), atol=1e-15)


def test_apply_mn_match_dense_assembly():
    rng = np.random.default_rng(5)
    for trial in range(8):
        m, n = rng.integers(2, 8, size=2)
        S, _ = random_pattern(rng, m, n)
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        x = rng.standard_normal(S.dim)
        y = rng.standard_normal(m)
        z = rng.standard_normal(n)
        M = S.m_matrix(v)
        N = S.n_matrix(u)
        assert np.allclose(S.apply_m(v, x), M @ x, atol=1e-13)
        assert np.allclose(S.apply_mt(v, y), M.T @ y, atol=1e-13)
        assert np.allclose(S.apply_n(u, x), N @ x, atol=1e-13)
        assert np.allclose(S.apply_nt(u, z), N.T @ z, atol=1e-13)


def test_gram_diagonals_full_and_diag_pattern():
    a, b, c, d = 1.5, -0.5, 2.0, 3.0
    Sf = FullStructure(2, 2)
    k1, k2 = Sf.gram_diagonals(np.array([c, d]), np.array([a, b]))
    assert np.allclose(k1, (a * a + b * b) * np.ones(2), atol=1e-15)
    k1, k2 = diag_pattern().gram_diagonals(np.array([c, d]), np.array([a, b]))
    assert np.allclose(k1, [a * a, b * b], atol=1e-15)
    assert np.allclose(k2, [c * c, d * d], atol=1e-15)


def test_gram_diagonals_match_dense_gram():
    rng = np.random.default_rng(6)
    for trial in range(8):
        m, n = rng.integers(2, 8, size=2)
        S, _ = random_pattern(rng, m, n)
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        k1, k2 = S.gram_diagonals(u, v)
        M = S.m_matrix(v)
        N = S.n_matrix(u)
        assert np.allclose(np.diag(M @ M.T), k1, atol=1e-12)
        assert np.allclose(np.diag(N @ N.T), k2, atol=1e-12)


def test_gram_diagonals_raises_for_general_basis():
    rng = np.random.default_rng(7)
    S = random_orthonormal_basis(rng, 3, 3, 4)
    with pytest.raises(StructureError):
        S.gram_diagonals(np.zeros(3), np.ones(3))


def test_rank1_gram_identities():
    # project_rank1(u,v) v = M M^T u and project_rank1(u,v)^T u = N N^T v
    rng = np.random.default_rng(8)
    for trial in range(10):
        m, n = rng.integers(2, 9, size=2)
        S, _ = random_pattern(rng, m, n)
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        D = as_dense(S.project_rank1(u, v))
        assert np.allclose(D @ v, S.apply_m(v, S.apply_mt(v, u)), atol=1e-12)
        assert np.allclose(D.T @ u, S.apply_n(u, S.apply_nt(u, v)), atol=1e-12)


def test_pattern_equals_elementary_basis_expansion():
    rng = np.random.default_rng(9)
    for trial in range(6):
        m, n = rng.integers(2, 7, size=2)
        Sp, _ = random_pattern(rng, m, n)
        Sb = Sp.to_basis()
        assert isinstance(Sb, BasisStructure)
        assert Sb.dim == Sp.dim
        X = rng.standard_normal((m, n))
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        x = rng.standard_normal(Sp.dim)
        assert np.allclose(as_dense(Sp.project(X)), as_dense(Sb.project(X)), atol=1e-13)
        assert np.allclose(as_dense(Sp.project_rank1(u, v)),
                           as_dense(Sb.project_rank1(u, v)), atol=1e-13)
        assert np.allclose(Sp.apply_m(v, x), Sb.apply_m(v, x), atol=1e-13)
        assert np.allclose(Sp.apply_mt(v, u), Sb.apply_mt(v, u), atol=1e-13)
        assert np.allclose(Sp.apply_n(u, x), Sb.apply_n(u, x), atol=1e-13)
        assert np.allclose(Sp.apply_nt(u, v), Sb.apply_nt(u, v), atol=1e-13)


def test_pattern_canonical_order_and_duplicates():
    S = SparsityPattern(2, 3, [(1, 2), (0, 1), (1, 0)])
    assert np.array_equal(S.entries(), [[0, 1], [1, 0], [1, 2]])  # row-major canonical
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [(2, 0)])
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [])


def test_basis_rejects_non_orthonormal():
    P1 = np.eye(2)
    with pytest.raises(StructureError):
        BasisStructure([P1])  # ||P1||_F = sqrt(2) != 1
    with pytest.raises(StructureError):
        BasisStructure([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])


def test_complex_input_rejected():
    with pytest.raises(StructureError):
        FullStructure(2, 2).project_rank1(np.array([1j, 0]), np.array([1.0, 0]))


def test_dimension_mismatch_raises():
    S = diag_pattern()
    with pytest.raises(DimensionMismatchError):
        S.project(np.zeros((3, 3)))
    with pytest.raises(DimensionMismatchError):
        S.project_rank1(np.zeros(3), np.zeros(2))


def test_basis_coefficient_roundtrip():
    rng = np.random.default_rng(10)
    S = random_orthonormal_basis(rng, 3, 5, 6)
    c = rng.standard_normal(6)
    X = as_dense(S.from_coefficients(c))
    assert np.allclose(S.coefficients(X), c, atol=1e-12)
    # Frobenius norm of the expansion equals the coefficient norm
    assert abs(np.linalg.norm(X) - np.linalg.norm(c)) <= 1e-12
