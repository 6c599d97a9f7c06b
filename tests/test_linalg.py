"""Linear-algebra backends: singular triplets, direct and iterative solves."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from singdist import (DimensionMismatchError, ProblemInstance, StructureError, TripletError, linalg,
                      solve)
from singdist.linalg import (_lanczos_triplets, factorize, smallest_singular_triplets, solve_dense,
                             solve_symmetric_iterative, spectral_norm)


def triplet_residuals(A, trips):
    A = np.asarray(A.todense()) if sp.issparse(A) else A
    worst = 0.0
    for sigma, u, v in trips:
        worst = max(worst, np.linalg.norm(A @ v - sigma * u),
                    np.linalg.norm(A.T @ u - sigma * v))
    return worst


def test_triplets_diagonal():
    trips = smallest_singular_triplets(np.diag([3.0, 1.0]), 1)
    sigma, u, v = trips[0]
    assert abs(sigma - 1.0) <= 1e-12
    assert np.allclose(np.abs(u), [0, 1], atol=1e-12)
    assert np.allclose(np.abs(v), [0, 1], atol=1e-12)
    assert u @ (np.diag([3.0, 1.0]) @ v) > 0  # sign fixed so u^T A v = sigma

    trips = smallest_singular_triplets(np.diag([5.0, 2.0]), 2)
    assert [t[0] for t in trips] == sorted(t[0] for t in trips)
    assert abs(trips[0][0] - 2.0) <= 1e-12 and abs(trips[1][0] - 5.0) <= 1e-12


def test_triplets_match_dense_svd():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((8, 8))
    s_ref = np.linalg.svd(A, compute_uv=False)
    trips = smallest_singular_triplets(A, 3)
    for k, (sigma, u, v) in enumerate(trips):
        assert abs(sigma - s_ref[-1 - k]) <= 1e-10 * s_ref[0]
        assert abs(np.linalg.norm(u) - 1) <= 1e-12
        assert abs(np.linalg.norm(v) - 1) <= 1e-12


def test_triplet_residual_bounds_random():
    rng = np.random.default_rng(12)
    for trial in range(100):
        m, n = rng.integers(2, 51, size=2)
        A = rng.standard_normal((m, n))
        k = int(rng.integers(1, min(m, n) + 1))
        trips = smallest_singular_triplets(A, k)
        norm_a = np.linalg.svd(A, compute_uv=False)[0]
        assert triplet_residuals(A, trips) <= 1e-10 * norm_a


def count_svd_calls(monkeypatch):
    """A list that grows by one at each ``scipy.linalg.svd`` call."""
    calls = []
    svd = scipy.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
    return calls


def lanczos_instance(n=60):
    rng = np.random.default_rng(13)
    A = sp.random(n, n, density=0.1, random_state=np.random.RandomState(13),
                  format="csr") + sp.diags(1.0 + rng.random(n))
    return sp.csr_array(A)


def ill_conditioned_instance(n=60):
    # singular values geomspace(1, 1e-8): recovering u as A v / sigma would
    # leave a triplet residual near 1e-8, far above the bound
    rng = np.random.default_rng(16)
    Q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q1 @ np.diag(np.geomspace(1.0, 1e-8, n)) @ Q2.T


@pytest.mark.parametrize("K", [1, 2, 4])
def test_sparse_triplets_agree_with_dense(monkeypatch, K):
    # Lanczos on A^-1 A^-T through the LU of A, for sparse and dense A alike
    A = lanczos_instance()
    for B in (A, ill_conditioned_instance()):
        dense = B.toarray() if sp.issparse(B) else B
        s_ref = np.linalg.svd(dense, compute_uv=False)
        for M in (B, dense) if sp.issparse(B) else (B,):
            trips = _lanczos_triplets(M, K, factorize(M))
            assert len(trips) == K
            for j, (sigma, _u, _v) in enumerate(trips):
                assert abs(sigma - s_ref[-1 - j]) <= 1e-9 * s_ref[0]
            assert triplet_residuals(B, trips) <= 1e-10 * s_ref[0]
    # the public entry point takes the Lanczos route when handed the LU and
    # the full SVD otherwise: the route is the caller's, so linalg holds no
    # threshold and factors nothing itself
    assert not hasattr(linalg, "DENSE_THRESHOLD")
    s_ref = np.linalg.svd(A.toarray(), compute_uv=False)
    factor = factorize(A)

    def no_factorize(A):
        raise AssertionError("smallest_singular_triplets factored A")

    monkeypatch.setattr(linalg, "factorize", no_factorize)
    svd_calls = count_svd_calls(monkeypatch)
    for shared, dense_svds in ((factor, 0), (None, 1)):
        svd_calls.clear()
        trips = smallest_singular_triplets(A, K, factor=shared)
        assert len(svd_calls) == dense_svds
        for j, (sigma, _u, _v) in enumerate(trips):
            assert abs(sigma - s_ref[-1 - j]) <= 1e-9 * s_ref[0]


def test_lanczos_triplets_take_few_lu_solves():
    # Lanczos on the order-n A^-1 A^-T finds each sigma once; on the
    # augmented matrix of order 2n the same triplet took 74 solves
    A = lanczos_instance()
    solve = factorize(A)
    calls = []

    def counting_solve(b, trans=False):
        calls.append(trans)
        return solve(b, trans)

    smallest_singular_triplets(A, 1, factor=counting_solve)
    assert 0 < len(calls) <= 40


@pytest.mark.parametrize("below_n", [1, 0])
def test_lanczos_cannot_return_nearly_all_pairs(monkeypatch, below_n):
    # Lanczos on the order-n operator takes k <= n - 2 (eigsh raises a
    # TypeError for k >= n); for more pairs the dense SVD answers
    A = lanczos_instance(8)
    n = A.shape[0]
    k = n - below_n
    factor = factorize(A)
    svd_calls = count_svd_calls(monkeypatch)
    trips = smallest_singular_triplets(A, k, factor=factor)
    s_ref = np.linalg.svd(A.toarray(), compute_uv=False)
    assert len(svd_calls) == 1 and len(trips) == k
    assert np.allclose([t[0] for t in trips], s_ref[::-1][:k], rtol=0, atol=1e-12 * s_ref[0])


def test_lanczos_failure_falls_back_to_dense_svd(monkeypatch):
    A = lanczos_instance()
    expected = linalg._dense_triplets(A, 2)

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                       np.empty((A.shape[0], 0)))

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    trips = smallest_singular_triplets(A, 2, factor=factorize(A))
    for (sigma, u, v), (sigma_ref, u_ref, v_ref) in zip(trips, expected, strict=True):
        assert sigma == sigma_ref
        assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)


def test_dense_svd_of_large_sparse_input_raises(monkeypatch):
    # the memory cap of the dense SVD counts entries, so a rectangular
    # sparse A above it raises instead of being densified
    A = sp.csr_array(sp.random(60, 90, density=0.1, random_state=np.random.RandomState(15)))
    smallest_singular_triplets(A, 1)
    monkeypatch.setattr(linalg, "DENSE_FALLBACK_MAX_N", 50)
    with pytest.raises(TripletError, match="exceeds"):
        smallest_singular_triplets(A, 1)
    smallest_singular_triplets(A.toarray(), 1)


def test_lu_factor_solves_with_either_kernel(monkeypatch):
    rng = np.random.default_rng(19)
    n = 40
    A = sp.csr_array(sp.random(n, n, density=0.1, random_state=np.random.RandomState(19))
                     + 2.0 * sp.identity(n))
    b = rng.standard_normal(n)
    for spread in (0.0, 1.0):  # every sparse A densified for LAPACK, none
        monkeypatch.setattr(linalg, "LU_FILL_SPREAD", spread)
        assert linalg._lu_fills_in(A) == (spread == 0.0)
        for M in (A, A.toarray()):
            f = factorize(M)
            assert np.linalg.norm(A @ f(b) - b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(A.T @ f(b, trans=True) - b) <= 1e-12 * np.linalg.norm(b)
    singular = sp.csr_array(sp.diags(np.r_[np.ones(n - 1), 0.0]))
    assert factorize(singular) is None
    assert factorize(singular.toarray()) is None
    with pytest.raises(DimensionMismatchError):
        factorize(sp.csr_array(np.ones((3, 2))))


def test_lu_solve_matches_scipy_lu_solve(monkeypatch):
    # the direct LAPACK kernel returns what scipy's lu_factor/lu_solve
    # wrappers return, bit for bit, for a dense and a densified sparse A
    monkeypatch.setattr(linalg, "LU_FILL_SPREAD", 0.0)
    rng = np.random.default_rng(20)
    n = 50
    A = sp.csr_array(sp.random(n, n, density=0.2, random_state=np.random.RandomState(20))
                     + sp.identity(n))
    b = rng.standard_normal(n)
    lu_piv = scipy.linalg.lu_factor(A.toarray())
    for M in (A, A.toarray()):
        f = factorize(M)
        for trans in (False, True):
            assert np.array_equal(f(b, trans), scipy.linalg.lu_solve(lu_piv, b, trans=int(trans)))


def test_lu_with_a_non_finite_factor_is_none(monkeypatch):
    # Wilkinson's growth matrix: 1 on the diagonal, -1 below it, 1 in the
    # last column. Its entries are finite at 1e292, but the last column of U
    # grows by 2^(n-1) and overflows, with no exact zero pivot
    monkeypatch.setattr(linalg, "LU_FILL_SPREAD", 0.0)  # densify every sparse A
    n = 60
    W = np.eye(n) - np.tril(np.ones((n, n)), -1)
    W[:, -1] = 1.0
    W *= 1e292
    lu, _piv, info = scipy.linalg.lapack.dgetrf(W)
    assert info == 0 and not np.all(np.isfinite(lu))
    assert factorize(W) is None
    assert linalg._lu_fills_in(sp.csr_array(W))
    assert factorize(sp.csr_array(W)) is None


def permuted(A, seed):
    rng = np.random.default_rng(seed)
    A = sp.csr_array(A)
    return sp.csr_array(A[rng.permutation(A.shape[0])][:, rng.permutation(A.shape[1])])


def random_graph(n, seed):
    # about 5 entries per row, the benchmark's random input
    A = sp.random(n, n, density=4 / n, random_state=np.random.RandomState(seed))
    return sp.csr_array(A + 0.5 * sp.identity(n))


def count_lu_kernels(monkeypatch):
    """Count the calls of each LU kernel ``factorize`` can take."""
    calls = {"superlu": 0, "lapack": 0}

    def counting(kernel, fn):
        def wrapped(*args, **kwargs):
            calls[kernel] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(spla, "splu", counting("superlu", spla.splu))
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf",
                        counting("lapack", scipy.linalg.lapack.dgetrf))
    return calls


def test_lu_kernel_follows_the_fill_predictor(monkeypatch):
    # a random graph's LU fills in, so LAPACK factors it densified; a
    # 7-diagonal band and a 2D Laplacian keep a sparse LU under independent
    # row and column permutations, so SuperLU factors them
    n = 400
    rng = np.random.default_rng(60)
    band = sp.diags([rng.standard_normal(n - abs(k)) for k in range(-3, 4)], range(-3, 4))
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(20, 20))
    laplacian = sp.kron(T, sp.identity(20)) + sp.kron(sp.identity(20), T)
    calls = count_lu_kernels(monkeypatch)
    b = rng.standard_normal(n)
    for A, kernel in ((permuted(random_graph(n, 60), 61), "lapack"),
                      (permuted(band + 4.0 * sp.identity(n), 62), "superlu"),
                      (permuted(laplacian, 63), "superlu")):
        A = linalg.validate_matrix(A)
        assert linalg._lu_fills_in(A) == (kernel == "lapack")
        before = dict(calls)
        f = factorize(A)
        assert calls[kernel] == before[kernel] + 1 and sum(calls.values()) == sum(before.values()) + 1
        assert np.linalg.norm(A @ f(b) - b) <= 1e-10 * np.linalg.norm(b)


def test_lu_kernel_never_densifies_above_the_dense_cap(monkeypatch):
    A = linalg.validate_matrix(permuted(random_graph(400, 64), 65))
    assert linalg._lu_fills_in(A)
    monkeypatch.setattr(linalg, "DENSE_FALLBACK_MAX_N", 399)
    assert not linalg._lu_fills_in(A)
    calls = count_lu_kernels(monkeypatch)
    assert factorize(A) is not None
    assert calls == {"superlu": 1, "lapack": 0}


def test_singular_sparse_input_on_the_lapack_kernel(monkeypatch):
    # LAPACK's exact zero pivot, like SuperLU's, means no LU; the solve then
    # takes the dense triplets and reports distance 0
    A = permuted(random_graph(400, 66), 67).tolil()
    A[11, :] = 0.0
    A = sp.csr_array(A)
    assert linalg._lu_fills_in(A)
    calls = count_lu_kernels(monkeypatch)
    assert factorize(A) is None
    assert calls == {"superlu": 0, "lapack": 1}
    P = ProblemInstance(A)
    assert P.factor is None
    res = solve(P)
    assert res.converged and res.distance == 0.0 and "singular" in res.message


def test_frobenius_norm_matches_numpy():
    rng = np.random.default_rng(68)
    A = rng.standard_normal((30, 20))
    for M in (A, sp.csr_array(A * (rng.random(A.shape) < 0.2)), np.zeros((4, 3)),
              sp.csr_array((4, 3)), np.array([[-2.5]])):
        expected = np.linalg.norm(M.toarray() if sp.issparse(M) else M, "fro")
        norm = linalg.frobenius_norm(M)
        assert isinstance(norm, float)
        assert abs(norm - expected) <= 1e-14 * expected


def test_spectral_norm():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((20, 20))
    As = sp.csr_array(A)
    assert abs(spectral_norm(As) - np.linalg.norm(A, 2)) <= 1e-8


def test_solve_dense_basic():
    assert np.allclose(solve_dense(np.eye(3), np.array([1.0, 2, 3])).x, [1, 2, 3])
    out = solve_dense(np.array([[2.0, 0], [0, 4.0]]), np.array([2.0, 4.0]))
    assert np.allclose(out.x, [1.0, 1.0], atol=1e-14)
    assert not out.used_least_squares


def test_solve_dense_random_residual():
    rng = np.random.default_rng(15)
    for trial in range(10):
        M = rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        out = solve_dense(M, b)
        assert np.linalg.norm(M @ out.x - b) <= 1e-10 * np.linalg.norm(M) * np.linalg.norm(out.x)


def test_solve_dense_minimum_norm_fallback():
    # rank-deficient: solution must minimize residual, then norm (pinv oracle);
    # the last input is the zero matrix, whose minimum-norm solution is 0
    rng = np.random.default_rng(16)
    systems = [(rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5)),  # rank 3
                rng.standard_normal(5)) for trial in range(5)]
    systems.append((np.zeros((5, 5)), rng.standard_normal(5)))
    for M, b in systems:
        out = solve_dense(M, b)
        assert out.used_least_squares
        x_ref = np.linalg.pinv(M) @ b
        assert np.allclose(out.x, x_ref, atol=1e-8)
    assert not out.x.any()


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_solve_dense_singular_lu_warns_nothing():
    # every Newton step of this rectangular problem meets an exactly zero LU
    # pivot in the bordered Jacobian; the least-squares fallback handles it,
    # so LAPACK's singular-matrix warning must not reach the caller
    A = sp.csr_array(sp.random(30, 20, density=0.3, random_state=np.random.RandomState(42)))
    assert solve(ProblemInstance(A)).converged


def test_iterative_identity_and_diagonal():
    out = solve_symmetric_iterative(lambda x: x, np.arange(1.0, 5.0), tol=1e-12,
                                    precond=np.asarray)
    assert np.allclose(out.x, np.arange(1.0, 5.0), atol=1e-10)
    assert out.iterations <= 2
    d = np.arange(1.0, 11.0)
    out = solve_symmetric_iterative(lambda x: d * x, np.ones(10), tol=1e-12, precond=np.asarray)
    assert np.allclose(out.x, 1.0 / d, atol=1e-10)
    assert out.converged


def test_iterative_matches_dense_on_indefinite():
    rng = np.random.default_rng(17)
    for trial in range(5):
        B = rng.standard_normal((50, 50))
        M = (B + B.T) / 2  # symmetric indefinite
        b = rng.standard_normal(50)
        it = solve_symmetric_iterative(lambda x: M @ x, b, tol=1e-10, precond=np.asarray)
        ref = solve_dense(M, b).x
        assert np.linalg.norm(it.x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_iterative_reports_achieved_residual():
    rng = np.random.default_rng(18)
    B = rng.standard_normal((30, 30))
    M = (B + B.T) / 2
    b = rng.standard_normal(30)
    out = solve_symmetric_iterative(lambda x: M @ x, b, tol=1e-8, precond=np.asarray)
    assert abs(np.linalg.norm(M @ out.x - b) / np.linalg.norm(b) - out.residual) <= 1e-12


def test_iterative_preconditioned_reaches_true_residual():
    # a symmetric indefinite system with a nearby symmetric indefinite
    # preconditioner (which MINRES could not use): GCROT must meet the
    # requested true relative residual in few iterations, and
    # ``iterations`` counts exactly the preconditioner applications
    rng = np.random.default_rng(20)
    n = 80
    B = rng.standard_normal((n, n))
    M = (B + B.T) / 2
    E = 1e-2 * rng.standard_normal((n, n))
    Minv = np.linalg.inv(M + (E + E.T) / 2)
    b = rng.standard_normal(n)
    calls = [0]

    def precond(x):
        calls[0] += 1
        return Minv @ x

    for tol in (1e-2, 1e-8):
        calls[0] = 0
        out = solve_symmetric_iterative(lambda x: M @ x, b, tol=tol, precond=precond)
        true = np.linalg.norm(M @ out.x - b) / np.linalg.norm(b)
        assert out.converged and true <= tol
        assert abs(true - out.residual) <= 1e-12
        assert out.iterations == calls[0]
        assert out.iterations <= 10


def test_validate_rejects_bad_input():
    from singdist.linalg import validate_matrix
    with pytest.raises(Exception):
        validate_matrix(np.array([[1.0, np.nan], [0, 1]]))
    with pytest.raises(Exception):
        validate_matrix(np.array([[1j, 0], [0, 1]]))


def test_iterative_applies_the_operator_once_per_direction():
    # one application of op per Krylov direction plus the final true-residual
    # check: no probe call on a zero vector to infer the operator's dtype
    rng = np.random.default_rng(21)
    B = rng.standard_normal((40, 40))
    M = B @ B.T + 40 * np.eye(40)  # symmetric positive definite
    b = rng.standard_normal(40)
    calls = []

    def op(x):
        calls.append(np.linalg.norm(x))
        return M @ x

    out = solve_symmetric_iterative(op, b, tol=1e-14, precond=np.asarray)
    assert out.iterations > 0
    assert len(calls) == out.iterations + 1
    assert all(c > 0 for c in calls[:-1])


@pytest.mark.parametrize("call, error, match", [
    (lambda: linalg.validate_matrix(sp.csr_array(np.array([[1j, 0.0], [0.0, 1.0]]))),
     StructureError, "complex matrices"),
    (lambda: linalg.validate_matrix(sp.csr_array(np.array([[np.nan, 0.0], [0.0, 1.0]]))),
     StructureError, "non-finite entries"),
    (lambda: linalg.validate_matrix(np.ones((2, 2, 2))), DimensionMismatchError, "2-d matrix"),
    (lambda: smallest_singular_triplets(np.eye(3), 0), DimensionMismatchError, "k=0 out of range"),
    (lambda: smallest_singular_triplets(np.ones((4, 3)), 4), DimensionMismatchError,
     r"k=4 out of range for shape \(4, 3\)"),
    (lambda: solve_dense(np.ones((2, 3)), np.ones(2)), DimensionMismatchError,
     "square matrix, got"),
    (lambda: solve_dense(np.eye(3), np.ones(2)), DimensionMismatchError,
     "right-hand side length"),
])
def test_input_checks_refuse_bad_operands(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_inaccurate_triplets_raise_with_the_achieved_residual(monkeypatch):
    A = np.diag([3.0, 2.0, 1.0])
    exact = linalg._dense_triplets

    def shifted(A, k):
        return [(sigma + 1e-3, u, v) for sigma, u, v in exact(A, k)]

    monkeypatch.setattr(linalg, "_dense_triplets", shifted)
    with pytest.raises(TripletError, match=r"singular triplet residual .* exceeds 1\.0e-10") as info:
        smallest_singular_triplets(A, 1)
    assert info.value.achieved_residual == pytest.approx(1e-3 / np.sqrt(14.0), rel=1e-9)


def test_iterative_solve_of_a_zero_right_hand_side_is_zero():
    def never(x):
        raise AssertionError("no product is needed for b = 0")

    it = solve_symmetric_iterative(never, np.zeros(4), 1e-8, never)
    assert np.array_equal(it.x, np.zeros(4))
    assert it.residual == 0.0 and it.iterations == 0 and it.converged
