"""Structure operators: projections, M/N applications, Gram diagonals."""

import numpy as np
import pytest
import scipy.sparse as sp

from singdist import (
    BasisStructure,
    DimensionMismatchError,
    FullStructure,
    SparsityPattern,
    StructureError,
)
from singdist.gcd import build_sylvester, make_test_polynomials
from singdist.structure import LinearStructure, as_dense
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


def explicit_basis(S):
    """The dense basis matrices B_k, built outside the structure's operators."""
    if isinstance(S, BasisStructure):
        return [as_dense(S.from_coefficients(e)) for e in np.eye(S.dim)]
    m, n = S.shape
    return [np.outer(np.eye(m)[i], np.eye(n)[j]) for i, j in zip(S.rows, S.cols)]


def overlapping_basis(rng, m, n, dim, touched):
    """Orthonormal basis whose elements all mix the same few entries."""
    flat = rng.choice(m * n, size=touched, replace=False)
    Q, _ = np.linalg.qr(rng.standard_normal((touched, dim)))
    mats = []
    for k in range(dim):
        B = np.zeros(m * n)
        B[flat] = Q[:, k]
        mats.append(sp.csr_array(B.reshape(m, n)))
    return BasisStructure(mats)


def operator_cases(rng):
    for trial in range(8):
        m, n = rng.integers(2, 8, size=2)
        yield random_pattern(rng, m, n)[0]
    yield random_orthonormal_basis(rng, 4, 4, 5)
    yield random_orthonormal_basis(rng, 3, 6, 7)
    yield random_orthonormal_basis(rng, 6, 2, 12)  # every entry
    yield overlapping_basis(rng, 5, 7, 4, 9)
    yield build_sylvester(make_test_polynomials(), 7).structure


def test_apply_mn_match_dense_assembly():
    # every operator against references built from the explicit B_k:
    # M(v)[:, k] = B_k v, N(u)[:, k] = B_k^T u, Pi(X) = sum_k <B_k, X> B_k
    rng = np.random.default_rng(5)
    for S in operator_cases(rng):
        m, n = S.shape
        B = explicit_basis(S)
        u = rng.standard_normal(m)
        v = rng.standard_normal(n)
        x = rng.standard_normal(S.dim)
        y = rng.standard_normal(m)
        z = rng.standard_normal(n)
        X = rng.standard_normal((m, n))
        M = np.column_stack([Bk @ v for Bk in B])
        N = np.column_stack([Bk.T @ u for Bk in B])
        delta = sum(np.vdot(Bk, np.outer(u, v)) * Bk for Bk in B)
        PX = sum(np.vdot(Bk, X) * Bk for Bk in B)
        assert np.allclose(S.m_matrix(v), M, atol=1e-13)
        assert np.allclose(S.n_matrix(u), N, atol=1e-13)
        assert np.allclose(S.apply_m(v, x), M @ x, atol=1e-13)
        assert np.allclose(S.apply_mt(v, y), M.T @ y, atol=1e-13)
        assert np.allclose(S.apply_n(u, x), N @ x, atol=1e-13)
        assert np.allclose(S.apply_nt(u, z), N.T @ z, atol=1e-13)
        assert np.allclose(as_dense(S.project_rank1(u, v)), delta, atol=1e-13)
        if S.diagonal_gram:
            off = as_dense(S.h_offdiag(u, v))
        else:  # a basis forms the block from its factor kernel
            off = as_dense(S.project_rank1(u, v)) + S.m_matrix(v) @ S.n_matrix(u).T
        assert np.allclose(off, delta + M @ N.T, atol=1e-12)
        assert np.allclose(S.project(X), PX, atol=1e-13)
        projected = S.project(sp.csr_array(X))
        assert sp.issparse(projected) and np.allclose(as_dense(projected), PX, atol=1e-13)


def test_each_operator_is_defined_once():
    # every structure runs the one implementation on LinearStructure; only
    # the full structure returns its rank-1 projection as a dense outer product
    operators = {"project", "project_rank1", "apply_m", "apply_mt", "apply_n", "apply_nt",
                 "gram_diagonals", "m_matrix", "n_matrix", "h_offdiag"}
    assert operators <= set(vars(LinearStructure))
    subclasses, todo = set(), list(LinearStructure.__subclasses__())
    while todo:
        cls = todo.pop()
        subclasses.add(cls)
        todo += cls.__subclasses__()
    assert {FullStructure, SparsityPattern, BasisStructure} <= subclasses
    for cls in subclasses:
        own = operators & set(vars(cls))
        assert own == ({"project_rank1"} if cls is FullStructure else set()), cls.__name__


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


def test_h_offdiag_raises_for_general_basis():
    # the pattern kernel is used whole: a basis has neither of its operators
    rng = np.random.default_rng(7)
    S = random_orthonormal_basis(rng, 3, 3, 4)
    with pytest.raises(StructureError):
        S.h_offdiag(np.ones(3), np.ones(3))


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


def _assert_same_operators(S, T, rng):
    """S and T act alike on random inputs; T may be a general basis."""
    m, n = S.shape
    X = rng.standard_normal((m, n))
    u = rng.standard_normal(m)
    v = rng.standard_normal(n)
    x = rng.standard_normal(S.dim)
    assert np.allclose(as_dense(S.project(X)), as_dense(T.project(X)), atol=1e-13)
    assert np.allclose(as_dense(S.project_rank1(u, v)),
                       as_dense(T.project_rank1(u, v)), atol=1e-13)
    assert np.allclose(S.apply_m(v, x), T.apply_m(v, x), atol=1e-13)
    assert np.allclose(S.apply_mt(v, u), T.apply_mt(v, u), atol=1e-13)
    assert np.allclose(S.apply_n(u, x), T.apply_n(u, x), atol=1e-13)
    assert np.allclose(S.apply_nt(u, v), T.apply_nt(u, v), atol=1e-13)
    k1, k2 = S.gram_diagonals(u, v)
    if T.diagonal_gram:
        t1, t2 = T.gram_diagonals(u, v)
        t_off = as_dense(T.h_offdiag(u, v))
    else:
        Mm, Nm = T.m_matrix(v), T.n_matrix(u)
        t1, t2 = np.diag(Mm @ Mm.T), np.diag(Nm @ Nm.T)
        t_off = as_dense(T.project_rank1(u, v)) + Mm @ Nm.T
    assert np.allclose(k1, t1, atol=1e-13) and np.allclose(k2, t2, atol=1e-13)
    assert np.allclose(as_dense(S.h_offdiag(u, v)), t_off, atol=1e-13)


def test_pattern_equals_elementary_basis_expansion():
    rng = np.random.default_rng(9)
    for trial in range(6):
        m, n = rng.integers(2, 7, size=2)
        Sp, _ = random_pattern(rng, m, n)
        Sb = Sp.to_basis()
        assert isinstance(Sb, BasisStructure)
        assert Sb.dim == Sp.dim
        _assert_same_operators(Sp, Sb, rng)
    # the full structure is the pattern of every entry
    Sf = FullStructure(4, 3)
    Sa = SparsityPattern(4, 3, [(i, j) for i in range(4) for j in range(3)])
    Sb = Sa.to_basis()
    assert Sf.dim == Sa.dim == Sb.dim == 12
    assert type(FullStructure.from_matrix(np.eye(4, 3))) is SparsityPattern  # inherited
    for S, T in ((Sf, Sa), (Sa, Sb), (Sf, Sb)):
        _assert_same_operators(S, T, rng)


def test_diagonal_gram_says_whether_gram_blocks_are_diagonal():
    rng = np.random.default_rng(11)
    Sp, _ = random_pattern(rng, 5, 4)
    cases = ((Sp, True), (FullStructure(5, 4), True),
             (random_orthonormal_basis(rng, 5, 4, 6), False))
    for S, diagonal in cases:
        assert S.diagonal_gram is diagonal
        u = rng.standard_normal(5)
        v = rng.standard_normal(4)
        for G in (S.m_matrix(v) @ S.m_matrix(v).T, S.n_matrix(u) @ S.n_matrix(u).T):
            off = np.abs(G - np.diag(np.diag(G))).max()
            assert off == 0.0 if diagonal else off > 1e-3


def test_pattern_canonical_order_and_duplicates():
    S = SparsityPattern(2, 3, [(1, 2), (0, 1), (1, 0)])
    assert S.rows.tolist() == [0, 1, 1] and S.cols.tolist() == [1, 0, 2]  # row-major canonical
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [(0, 0), (0, 0)])
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [(2, 0)])
    with pytest.raises(StructureError):
        SparsityPattern(2, 2, [])


def test_basis_rejects_non_orthonormal():
    P1 = np.eye(2)
    with pytest.raises(StructureError, match=r"<B0, B0> = 2\.000e\+00"):
        BasisStructure([P1])  # ||P1||_F = sqrt(2) != 1
    with pytest.raises(StructureError, match=r"<B0, B1>"):
        BasisStructure([np.eye(2) / np.sqrt(2), np.eye(2) / np.sqrt(2)])
    with pytest.raises(StructureError, match=r"<B0, B0> = 0\.000e\+00"):
        BasisStructure([np.zeros((2, 2)), np.diag([1.0, 0.0])])
    E = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :] for i in range(2) for j in range(2)]
    with pytest.raises(StructureError, match=r"<B2, B3>"):
        BasisStructure([E[0], E[1], E[2], E[2]])
    # with a bad norm and a bad inner product, the lexicographically first
    # pair (i, j) is reported, whichever kind it is
    with pytest.raises(StructureError, match=r"<B0, B1> = 1\.000e\+00"):
        BasisStructure([E[0], E[0], 2 * E[1]])
    with pytest.raises(StructureError, match=r"<B0, B2> = 1\.000e\+00"):
        BasisStructure([E[0], 2 * E[1], E[0]])


def test_basis_rejects_non_matrix_elements():
    with pytest.raises(StructureError, match=r"basis matrix 0 must be 2-d, got shape \(3,\)"):
        BasisStructure([np.ones(3)])
    with pytest.raises(StructureError, match=r"basis matrix 1 must be 2-d, got shape \(1, 1, 1\)"):
        BasisStructure([np.ones((1, 1)), np.ones((1, 1, 1))])


def test_basis_rejects_non_finite_members():
    # a NaN passes every orthonormality comparison, so the values are
    # checked where they are read, dense or sparse, naming the member
    for bad in (np.nan, np.inf, -np.inf):
        B1 = np.array([[bad, 0.0], [0.0, 0.0]])
        for storage in (np.asarray, sp.csr_array):
            with pytest.raises(StructureError, match="basis matrix 1 contains non-finite"):
                BasisStructure([np.array([[0.0, 1.0], [0.0, 0.0]]), storage(B1)])


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


def test_basis_on_huge_shape_stays_small():
    # memory follows the touched entries, not m n: the flat entry index
    # passes 2^31 and nothing of size m n is allocated
    n = 10**6
    s = np.sqrt(0.5)
    B0 = sp.coo_array(([s, s], ([0, n - 1], [n - 1, 0])), shape=(n, n))
    B1 = sp.coo_array(([1.0], ([n - 1], [n - 1])), shape=(n, n))
    S = BasisStructure([B0, B1])
    assert S.shape == (n, n) and S.dim == 2
    v = np.zeros(n)
    v[0], v[n - 1] = 2.0, 3.0
    u = np.zeros(n)
    u[0], u[n - 1] = 5.0, 7.0
    y = S.apply_m(v, np.array([1.0, 4.0]))
    assert y[0] == s * 3.0 and y[n - 1] == s * 2.0 + 12.0
    assert np.count_nonzero(y) == 2
    # <B0, u v^T> = s (u_0 v_{n-1} + u_{n-1} v_0), <B1, u v^T> = u_{n-1} v_{n-1}
    c = S.apply_mt(v, u)
    assert np.allclose(c, [s * (15.0 + 14.0), 21.0], rtol=1e-15)
    D = sp.coo_array(S.project_rank1(u, v))
    got = {(int(i), int(j)): x for i, j, x in zip(D.row, D.col, D.data)}
    assert got.keys() == {(0, n - 1), (n - 1, 0), (n - 1, n - 1)}
    assert np.isclose(got[(0, n - 1)], s * c[0], rtol=1e-15)
    assert np.isclose(got[(n - 1, 0)], s * c[0], rtol=1e-15)
    assert got[(n - 1, n - 1)] == c[1]
    # a sparse X is projected through its values on the touched entries only
    X = sp.coo_array(([1.0, 2.0, 4.0, 8.0], ([0, n - 1, n - 1, 5], [n - 1, 0, n - 1, 5])),
                     shape=(n, n))
    c = S.coefficients(X)
    assert np.allclose(c, [s * 3.0, 4.0], rtol=1e-15)
    P = S.project(X)
    assert sp.issparse(P)
    P = sp.coo_array(P)
    got = {(int(i), int(j)): x for i, j, x in zip(P.row, P.col, P.data)}
    assert got.keys() == {(0, n - 1), (n - 1, 0), (n - 1, n - 1)}
    assert np.allclose([got[(0, n - 1)], got[(n - 1, 0)], got[(n - 1, n - 1)]],
                       [1.5, 1.5, 4.0], rtol=1e-15)


def test_basis_flat_index_of_int32_sparse_member():
    # a CSR member indexed in int32 on a shape whose flat index passes 2^31
    n = 50_000
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[-1] = 1
    B = sp.csr_array((np.array([1.0]), np.array([n - 1], dtype=np.int32), indptr), shape=(n, n))
    assert B.indices.dtype == B.indptr.dtype == np.int32
    S = BasisStructure([B])
    assert np.array_equal(S.rows, [n - 1]) and np.array_equal(S.cols, [n - 1])
    v = np.zeros(n)
    v[n - 1] = 3.0
    y = S.apply_m(v, np.array([2.0]))
    assert y[n - 1] == 6.0 and np.count_nonzero(y) == 1


def _reference_form(mats):
    """rows, cols and V built from one sp.coo_array per member."""
    coos = [sp.coo_array(B) for B in mats]
    shape = coos[0].shape
    flat = np.concatenate([np.ravel_multi_index((B.row, B.col), shape) for B in coos])
    entries, col = np.unique(flat, return_inverse=True)
    idx = np.concatenate([np.full(B.nnz, k) for k, B in enumerate(coos)])
    vals = np.concatenate([B.data.astype(float) for B in coos])
    V = sp.csr_array((vals, (idx, col)), shape=(len(coos), entries.size))
    return (*np.unravel_index(entries, shape), V)


def _sylvester_members(inst):
    """The scaled Toeplitz indicator of each coefficient of ``inst.pair``."""
    shape, split = inst.matrix.shape, inst.col_split
    mats = []
    for deg, cols, scale, offset in ((inst.pair.deg_p, split, inst.scale_p, 0),
                                     (inst.pair.deg_q, shape[1] - split, inst.scale_q, split)):
        for i in range(deg + 1):
            B = np.zeros(shape)
            B[i + np.arange(cols), offset + np.arange(cols)] = scale
            mats.append(B)
    return mats


def _construction_cases():
    rng = np.random.default_rng(12)
    Q = np.zeros((12, 4))
    Q[[0, 1, 3, 4, 5, 8, 9, 10, 11]] = np.linalg.qr(rng.standard_normal((9, 4)))[0]
    dense = [Q[:, k].reshape(3, 4) for k in range(4)]
    s = np.sqrt(0.5)
    # the stored zero at (1, 2) is a touched entry
    stored_zero = sp.csr_array((np.array([1.0, 0.0]), np.array([1, 2]), np.array([0, 1, 2])),
                               shape=(2, 3))
    duplicates = sp.coo_array(([0.5 * s, s, 0.5 * s], ([0, 1, 0], [1, 2, 1])), shape=(2, 3))
    e10 = sp.csr_array(([1.0], ([1], [0])), shape=(2, 3))
    mixed = [np.array([[0.0, s, 0.0], [0.0, 0.0, s]]), e10,
             sp.coo_array(([s, -s], ([0, 1], [1, 2])), shape=(2, 3)),
             np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
             sp.csc_array(([1.0], ([0], [2])), shape=(2, 3))]
    cases = {"dense": dense, "stored zero": [stored_zero, e10], "duplicates": [duplicates, e10],
             "mixed": mixed}
    pair = make_test_polynomials()
    for d in range(1, 11):
        inst = build_sylvester(pair, d)
        cases[f"sylvester d={d}"] = (_sylvester_members(inst), inst.structure)
    return cases


@pytest.mark.parametrize("name", list(_construction_cases()))
def test_basis_construction_matches_per_member_coo(name):
    case = _construction_cases()[name]
    mats, S = case if isinstance(case, tuple) else (case, BasisStructure(case))
    rows, cols, V = _reference_form(mats)
    assert np.array_equal(S.rows, rows) and np.array_equal(S.cols, cols)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(S._V, attr), getattr(V, attr)), attr
    if name == "stored zero":
        assert (1, 2) in set(zip(S.rows.tolist(), S.cols.tolist()))


def test_basis_sums_duplicate_coordinates():
    # two stored halves of one entry form the unit element e_0 e_1^T
    B0 = sp.coo_array(([0.5, 0.5], ([0, 0], [1, 1])), shape=(2, 2))
    B1 = sp.coo_array(([1.0], ([1], [0])), shape=(2, 2))
    S = BasisStructure([B0, B1])
    assert np.array_equal(as_dense(S.from_coefficients([3.0, 2.0])), [[0.0, 3.0], [2.0, 0.0]])
    assert np.array_equal(S.m_matrix(np.array([1.0, 10.0])), [[10.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("build, match", [
    (lambda: SparsityPattern(0, 3, [(0, 0)]), "dimensions must be positive"),
    (lambda: FullStructure(0, 3), "dimensions must be positive"),
    (lambda: BasisStructure([]), "at least one matrix"),
    (lambda: BasisStructure([np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(3)]),
     "share one shape"),
    (lambda: BasisStructure([np.ones((1, 1)), np.ones((1, 1))]),
     "more basis matrices than matrix entries"),
])
def test_structure_constructors_refuse_bad_shapes(build, match):
    with pytest.raises(StructureError, match=match):
        build()
