"""Newton solver: residuals, curvature operator, line search, multistart."""

import collections
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from singdist import (
    AllStartsFailed,
    BasisStructure,
    DimensionMismatchError,
    FullStructure,
    LinearStructure,
    ProblemInstance,
    SolverOptions,
    SparsityPattern,
    certify_solution,
    gcd,
    linalg,
    solve,
    solver,
)
from singdist.solver import (
    SolverState,
    bordered_jacobian,
    line_search_newton,
    newton_step,
    residual_G,
    residual_G_beta,
    starting_values,
)
from singdist.structure import as_dense
from conftest import (
    count_structure_calls,
    first_starts,
    pattern_instance,
    random_orthonormal_basis,
    random_pattern,
)


def full_instance(A, **kw):
    return ProblemInstance(A, FullStructure(A.shape), SolverOptions(**kw) if kw else None)


def F(P, u, v):
    # objective whose gradient is residual_G when A is in S
    delta = as_dense(P.structure.project_rank1(u, v))
    return 0.5 * np.linalg.norm(as_dense(P.A + delta)) ** 2


def test_residual_G_zero_u():
    rng = np.random.default_rng(20)
    A = rng.standard_normal((4, 4))
    P = full_instance(A)
    v = rng.standard_normal(4)
    g = residual_G(P, np.zeros(4), v)
    assert np.allclose(g[:4], A @ v, atol=1e-14)
    assert np.allclose(g[4:], 0.0, atol=1e-14)


def test_residual_G_vanishes_at_known_solution():
    # A=diag(s1,s2), full structure: u=-s2 e2, v=e2 solves the system
    P = full_instance(np.diag([3.0, 1.0]))
    g = residual_G(P, np.array([0.0, -1.0]), np.array([0.0, 1.0]))
    assert np.linalg.norm(g) <= 1e-14


def test_residual_G_matches_dense_delta():
    rng = np.random.default_rng(21)
    for trial in range(8):
        A, S = pattern_instance(rng, n=7)
        P = ProblemInstance(A, S)
        u = rng.standard_normal(7)
        v = rng.standard_normal(7)
        D = as_dense(S.project_rank1(u, v))
        g = residual_G(P, u, v)
        assert np.allclose(g[:7], (A + D) @ v, atol=1e-12)
        assert np.allclose(g[7:], (A + D).T @ u, atol=1e-12)


def test_residual_computes_delta_coordinates_once(monkeypatch):
    # both halves of G share delta = M(v)^T u = N(u)^T v: one residual makes
    # one call each to apply_mt, apply_m and apply_n, and none to apply_nt
    rng = np.random.default_rng(23)
    A = rng.standard_normal((5, 4))
    u, v = rng.standard_normal(5), rng.standard_normal(4)
    calls = count_structure_calls(monkeypatch, ("apply_m", "apply_mt", "apply_n", "apply_nt"))
    for S in (FullStructure((5, 4)), random_pattern(rng, 5, 4)[0],
              random_orthonormal_basis(rng, 5, 4, 7)):
        calls.clear()
        g = residual_G(ProblemInstance(A, S), u, v)
        assert dict(calls) == {"apply_mt": 1, "apply_m": 1, "apply_n": 1}
        D = as_dense(S.project_rank1(u, v))
        assert np.allclose(g, np.concatenate([(A + D) @ v, (A + D).T @ u]), atol=1e-12)


def test_residual_G_beta_rescales_to_unit_v():
    rng = np.random.default_rng(22)
    A = np.diag([2.0, 5.0])
    P = full_instance(A)
    u = rng.standard_normal(2)
    v = np.array([2.0, 0.0])
    # (u, v) -> (2 u, v / 2) keeps Delta and puts v on the unit sphere
    ur, vr, g = residual_G_beta(P, u, v)
    assert np.allclose(ur, 2.0 * u, atol=1e-15) and np.allclose(vr, [1.0, 0.0], atol=1e-15)
    assert np.allclose(g, residual_G(P, 2.0 * u, v / 2.0), atol=1e-13)
    assert np.allclose(as_dense(P.structure.project_rank1(ur, vr)),
                       as_dense(P.structure.project_rank1(u, v)), atol=1e-13)
    # a point with no unit representative has a NaN residual
    for u_bad, v_bad in ((u, np.zeros(2)), (u, np.array([np.inf, 0.0])),
                         (np.array([np.nan, 0.0]), v)):
        assert np.isnan(residual_G_beta(P, u_bad, v_bad)[2]).all()


def test_residual_G_beta_is_gradient_of_F_beta():
    # central differences at h=1e-3, 1e-4 must show second-order error decay.
    # They are taken along a random orthonormal basis: along a coordinate
    # axis F is quadratic, so they would be exact and show no order.
    rng = np.random.default_rng(23)
    A, S = pattern_instance(rng, n=6)
    P = ProblemInstance(A, S)
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    g = residual_G(P, u, v)
    W = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    errs = []
    for h in (1e-3, 1e-4):
        fd = np.array([(F(P, u + h * w[:6], v + h * w[6:]) - F(P, u - h * w[:6], v - h * w[6:]))
                       / (2 * h) for w in W.T])
        errs.append(np.max(np.abs(fd - W.T @ g)))
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.9, f"observed order {order}"


def as_matrix(K, size):
    """K as an array: the dense route's array, or the Krylov route's product applied to I."""
    if isinstance(K, np.ndarray):
        return K
    return np.column_stack([K(e) for e in np.eye(size)])


def test_bordered_jacobian_linearity_and_fd(monkeypatch):
    # the leading block of the bordered Jacobian is the derivative of G, on
    # both routes, for diagonal Gram blocks and for a general basis
    rng = np.random.default_rng(24)
    A, S = pattern_instance(rng, n=6)
    structures = (S, S.to_basis(), random_orthonormal_basis(rng, 6, 6, 9))
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    w = rng.standard_normal(12)
    for threshold in (solver.DENSE_THRESHOLD, 0):
        monkeypatch.setattr(solver, "DENSE_THRESHOLD", threshold)
        for S in structures:
            P = ProblemInstance(A, S)
            assert (P.factor is None) == (threshold > 0)
            K = as_matrix(bordered_jacobian(P, u, v), 13)
            assert K.shape == (13, 13)
            assert np.array_equal(K[:12, 12], np.concatenate([np.zeros(6), v]))
            assert np.array_equal(K[12], np.append(K[:12, 12], 0.0))
            Hw = K[:12, :12] @ w
            errs = []
            for h in (1e-3, 1e-4):
                fd = (residual_G(P, u + h * w[:6], v + h * w[6:])
                      - residual_G(P, u - h * w[:6], v - h * w[6:])) / (2 * h)
                errs.append(np.linalg.norm(fd - Hw))
            order = np.log10(errs[0] / errs[1])
            assert order >= 1.9, f"{S}, threshold {threshold}: observed order {order}"


def test_bordered_jacobian_known_matrix():
    # at the solved point of diag(s1, s2) the Jacobian of G is
    # [[1,0,s1,0],[0,1,0,-s2],[s1,0,s2^2,0],[0,-s2,0,s2^2]], bordered by [0; v]
    s1, s2 = 3.0, 1.0
    P = full_instance(np.diag([s1, s2]))
    u = np.array([0.0, -s2])
    v = np.array([0.0, 1.0])
    K_ref = np.array([
        [1.0, 0.0, s1, 0.0, 0.0],
        [0.0, 1.0, 0.0, -s2, 0.0],
        [s1, 0.0, s2 ** 2, 0.0, 0.0],
        [0.0, -s2, 0.0, s2 ** 2, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
    ])
    assert np.allclose(bordered_jacobian(P, u, v), K_ref, atol=1e-13)


def test_krylov_route_jacobian_equals_dense_route_jacobian(monkeypatch):
    # the Krylov route's block-by-block product is the dense route's array:
    # an ndarray on the dense route, a callable never formed on the Krylov
    # one, which only a square A with LU takes
    rng = np.random.default_rng(25)
    cases = []
    for m, n in ((6, 6), (7, 7)):
        A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
        A[np.arange(min(m, n)), np.arange(min(m, n))] += 2.0
        pattern = SparsityPattern.from_matrix(A)
        for S in (pattern, FullStructure(A.shape), pattern.to_basis(),
                  random_orthonormal_basis(rng, m, n, 9)):
            for storage in (np.asarray, sp.csr_array):
                cases.append((storage(A), S, rng.standard_normal(m), rng.standard_normal(n)))
    dense_route = []
    for A, S, u, v in cases:
        P = ProblemInstance(A, S)
        assert P.factor is None
        dense_route.append(bordered_jacobian(P, u, v))
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 0)
    for (A, S, u, v), K_dense in zip(cases, dense_route):
        P = ProblemInstance(A, S)
        assert P.factor is not None
        K = bordered_jacobian(P, u, v)
        assert isinstance(K_dense, np.ndarray) and callable(K)
        size = P.m + P.n + 1
        np.testing.assert_allclose(as_matrix(K, size), K_dense, rtol=0, atol=1e-13,
                                   err_msg=f"{A.shape} {S} {type(A)}")


def test_krylov_route_memory_follows_the_basis(monkeypatch):
    # a 2,000 x 2,000 banded A with a 7-diagonal basis: one Krylov Newton
    # step allocates far less than one m x m array (32 MB), because the
    # Gram blocks and M N^T stay operators
    m = 2000
    A = sp.diags_array([np.full(m - 1, -1.0), np.full(m, 4.0), np.full(m - 1, -1.0)],
                       offsets=[-1, 0, 1], format="csr")
    S = BasisStructure([sp.diags_array(np.full(m - abs(k), 1.0 / np.sqrt(m - abs(k))),
                                       offsets=k, shape=(m, m)) for k in range(-3, 4)])
    P = ProblemInstance(A, S)
    assert P.factor is not None
    rng = np.random.default_rng(27)
    state = SolverState.at(P, 0.01 * rng.standard_normal(m), rng.standard_normal(m))
    tracemalloc.start()
    try:
        du, dv, inner = newton_step(P, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inner.iterations > 0 and np.isfinite(du).all() and np.isfinite(dv).all()
    assert peak < 8 * m * m / 10, f"peak {peak / 1e6:.1f} MB"


def test_krylov_route_memory_on_a_dense_A_stays_linear_in_A():
    # a dense 400 x 400 A (30% pattern + I) is above DENSE_THRESHOLD: the
    # first Krylov Newton step of a solve holds one off-diagonal block
    # B = A + h_offdiag and B's transpose view, well under the 4 x A a formed
    # K would take (GCROT's own vectors, 2 (m + n) floats per direction, add
    # little over its few directions from a start)
    n = 400
    rng = np.random.default_rng(28)
    A = np.where(rng.random((n, n)) < 0.3, rng.standard_normal((n, n)), 0.0) + np.eye(n)
    P = ProblemInstance(A)
    assert P.factor is not None
    start = first_starts(P, 1)[0]
    state = SolverState.at(P, start.u0, start.v0)
    newton_step(P, state)  # warm-up
    tracemalloc.start()
    try:
        du, dv, inner = newton_step(P, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inner.iterations > 0 and np.isfinite(du).all() and np.isfinite(dv).all()
    assert peak < 2 * A.nbytes, f"peak {peak / A.nbytes:.2f} x the bytes of A"


def test_bordered_jacobian_is_symmetric():
    rng = np.random.default_rng(26)
    for a_in_structure in (True, False):
        A, S = pattern_instance(rng, n=8, a_in_structure=a_in_structure)
        P = ProblemInstance(A, S)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        K = bordered_jacobian(P, u, v)
        for trial in range(5):
            x = rng.standard_normal(17)
            y = rng.standard_normal(17)
            assert abs((K @ x) @ y - x @ (K @ y)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def test_newton_step_small_at_solution():
    P = full_instance(np.diag([3.0, 1.0]))
    state = SolverState.at(P, np.array([0.0, -1.0]), np.array([0.0, 1.0]))
    du, dv, _ = newton_step(P, state)
    assert np.linalg.norm(np.concatenate([du, dv])) <= 1e-10


def test_newton_quadratic_contraction():
    rng = np.random.default_rng(27)
    A, S = pattern_instance(rng, n=8)
    P = ProblemInstance(A, S)
    res = solve(P)
    assert res.converged
    # perturb the solution slightly; one tight Newton step must square the residual scale
    for scale in (1e-4, 1e-5):
        u = res.u + scale * rng.standard_normal(8)
        v = res.v + scale * rng.standard_normal(8)
        state = SolverState.at(P, u, v)
        du, dv, _ = newton_step(P, state)
        g_next = residual_G_beta(P, state.u + du, state.v + dv)[2]
        assert np.linalg.norm(g_next) <= 50.0 * state.residual_norm ** 2 / P.norm_fro


def test_line_search_eckart_young():
    P = full_instance(np.diag([3.0, 1.0]))
    starts = first_starts(P, 1)
    res = line_search_newton(P, starts[0].u0, starts[0].v0)
    assert res.converged
    assert abs(res.distance - 1.0) <= 1e-10
    assert np.allclose(as_dense(res.delta), np.diag([0.0, -1.0]), atol=1e-10)
    assert abs(np.linalg.norm(res.v) - 1.0) <= 1e-12


def test_line_search_monotone_trace():
    rng = np.random.default_rng(28)
    A, S = pattern_instance(rng, n=9)
    P = ProblemInstance(A, S)
    starts = first_starts(P, 1)
    res = line_search_newton(P, starts[0].u0, starts[0].v0)
    norms = [r.residual_norm for r in res.trace]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_convergence_on_the_last_budgeted_step_counts():
    # the step that reaches grad_tol may be the last one the budget allows
    A, S = pattern_instance(np.random.default_rng(0), n=8)
    free = solve(ProblemInstance(A, S))
    assert free.converged and free.iterations == 3
    last = solve(ProblemInstance(A, S, SolverOptions(max_newton_iters=3)))
    assert last.converged and last.iterations == 3
    assert last.distance == free.distance


def test_line_search_names_each_stop_reason(monkeypatch):
    # every run ends in one of four named stops, converged only at a root;
    # iterations counts the accepted steps
    def run(P, v0=None):
        start = first_starts(P, 1)[0]
        res = line_search_newton(P, start.u0, start.v0 if v0 is None else v0)
        return res.message, res.converged, res.iterations

    A, S = pattern_instance(np.random.default_rng(0), n=8)
    P = ProblemInstance(A, S)
    assert run(P, v0=np.zeros(8)) == ("non-finite residual at start", False, 0)
    P1 = ProblemInstance(A, S, SolverOptions(max_newton_iters=1))
    assert run(P1) == ("iteration budget 1 exhausted", False, 1)
    assert run(full_instance(np.diag([3.0, 1.0]))) == ("converged", True, 0)
    monkeypatch.setattr(solver, "newton_step",
                        lambda P, state: (np.zeros(P.m), np.zeros(P.n), None))
    assert run(P) == ("no descent within 40 backtracks at iteration 1", False, 0)


def test_line_search_random_pattern_certificates():
    rng = np.random.default_rng(29)
    for trial in range(5):
        A, S = pattern_instance(rng, n=10, density=0.5)
        P = ProblemInstance(A, S)
        res = solve(P)
        assert res.converged
        B = A + as_dense(res.delta)
        s = np.linalg.svd(B, compute_uv=False)
        assert s[-1] <= 1e-10 * s[0]
        proj_gap = np.linalg.norm(as_dense(S.project(res.delta)) - as_dense(res.delta))
        assert proj_gap <= 1e-13 * max(1.0, res.distance)
        assert res.grad_norm <= P.grad_tol


def test_scale_family_of_solutions():
    # u -> u/alpha, v -> alpha v preserves G = 0
    P = full_instance(np.diag([3.0, 1.0]))
    u = np.array([0.0, -1.0])
    v = np.array([0.0, 1.0])
    for alpha in (2.0, -1.0, 0.1):
        g = residual_G(P, u / alpha, alpha * v)
        assert np.linalg.norm(g) <= 1e-12


def test_starting_values_full_structure():
    A = np.diag([3.0, 1.0])
    P = full_instance(A)
    starts = first_starts(P, 1)
    s = starts[0]
    assert abs(s.sigma_hat - 1.0) <= 1e-12  # sigma_hat = sigma_n for full S
    assert np.allclose(np.abs(s.u0), [0.0, 1.0], atol=1e-12)
    # the seeded perturbation makes A + Delta0 orthogonal to u_n v_n^T
    delta0 = as_dense(P.structure.project_rank1(s.u0, s.v0))
    un, vn = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    assert abs(np.vdot(A + delta0, np.outer(un, vn))) <= 1e-12


def test_starting_values_take_the_norm_of_delta_coordinates(monkeypatch):
    # sigma_hat divides by ||project_rank1(u_k, v_k)||^2, read off the
    # coordinates M(v_k)^T u_k without building the projection
    rng = np.random.default_rng(24)
    A = rng.standard_normal((6, 5))
    for S in (FullStructure((6, 5)), random_pattern(rng, 6, 5)[0],
              random_orthonormal_basis(rng, 6, 5, 9)):
        P = ProblemInstance(A, S)
        trips = linalg.smallest_singular_triplets(P.A, 3, factor=P.factor)
        calls = count_structure_calls(monkeypatch, ("project_rank1",))
        starts = starting_values(P, trips)
        assert calls["project_rank1"] == 0
        monkeypatch.undo()
        for (sigma, uk, vk), s in zip(trips, starts):
            pn = np.linalg.norm(as_dense(S.project_rank1(uk, vk)))
            assert abs(s.sigma_hat - sigma / pn**2) <= 1e-12 * s.sigma_hat


def test_starting_values_single_entry_pattern():
    A = np.diag([3.0, 1.0])
    S = SparsityPattern(2, 2, [(1, 1)])
    P = ProblemInstance(A, S)
    s = first_starts(P, 1)[0]
    assert abs(s.sigma_hat - 1.0) <= 1e-12  # projection of u2 v2^T has norm 1


def test_starting_values_skips_orthogonal_structure():
    A = np.diag([3.0, 1.0])
    S = SparsityPattern(2, 2, [(0, 1)])  # orthogonal to u2 v2^T = e2 e2^T
    P = ProblemInstance(A, S)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        starts = first_starts(P, 1)
    assert starts[0].skipped
    assert any("skipped" in str(w.message) for w in caught)


def test_multistart_returns_minimum():
    rng = np.random.default_rng(30)
    # sparsified orthogonal matrix: distinct local solutions across starts
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = np.where(rng.random((20, 20)) < 0.5, Q, 0.0)
    P = ProblemInstance(A, options=SolverOptions(multistart=3))
    res = solve(P)
    assert res.converged
    conv = [s.distance for s in res.starts if s.converged]
    assert len(conv) >= 2
    assert abs(res.distance - min(conv)) <= 1e-14


def test_solve_degenerate_singular_input():
    # singular to SINGULAR_INPUT_RTOL ||A||_F, not to that times sigma_max(A):
    # the 1.5e-14 entry is below 1e-14 sqrt(3), so no Newton step is taken,
    # and the certificate sigmas are A's own, from its full SVD
    for A in (np.diag([1.0, 0.0]), np.diag([1.0, 1.0, 1.0, 1.5e-14])):
        res = solve(full_instance(A))
        assert res.converged and res.iterations == 0
        assert res.distance == 0.0
        assert res.message == "input numerically singular; distance 0"
        s = np.linalg.svd(A, compute_uv=False)
        assert res.sigma_error == ""
        assert res.sigma_min == s[-1] and res.sigma_max == s[0]


def test_unconverged_solve_returns_its_best_start():
    # a run that stops short of a root is returned, not raised: flagged
    # non-converged, with its stop message, its summary and sigma(A + Delta)
    rng = np.random.default_rng(32)
    A, S = pattern_instance(rng, n=10)
    P = ProblemInstance(A, S, SolverOptions(max_newton_iters=1))
    res = solve(P)
    assert not res.converged
    assert res.message == "iteration budget 1 exhausted"
    [summary] = res.starts
    assert not summary.converged and summary.reason == res.message
    s = np.linalg.svd(A + as_dense(res.delta), compute_uv=False)
    assert res.sigma_error == ""
    assert res.sigma_min == s[-1] and res.sigma_max == s[0]


def test_all_starts_skipped_raises_without_best():
    # the only start of diag(3, 1) lies along e2 e2^T, which a pattern on
    # entry (0, 1) cannot touch: nothing runs, and the summary says why
    P = ProblemInstance(np.diag([3.0, 1.0]), SparsityPattern(2, 2, [(0, 1)]))
    with pytest.warns(UserWarning, match="skipped"), pytest.raises(AllStartsFailed) as exc:
        solve(P)
    [summary] = exc.value.starts
    assert summary.skipped and summary.index == 1 and not summary.converged
    assert summary.reason == "projected rank-1 direction vanishes"


def test_rectangular_instance_rank_deficiency():
    # distance to the nearest rank-deficient 3x2 matrix is sigma_2
    rng = np.random.default_rng(34)
    A = rng.standard_normal((3, 2))
    P = ProblemInstance(A, FullStructure(A.shape))
    res = solve(P)
    s = np.linalg.svd(A, compute_uv=False)
    assert res.converged
    assert abs(res.distance - s[-1]) <= 1e-9 * s[-1]


def sparse_instance(n, seed, density=0.08):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(seed))
    return sp.csr_array(A + sp.diags(0.5 + np.random.default_rng(seed).random(n)))


def assert_sigma_bound(A, res):
    # above the dense threshold sigma_min is a residual upper bound of the
    # exact sigma_min(A + Delta), small at a root; sigma_max is not computed
    s = np.linalg.svd(as_dense(A) + as_dense(res.delta), compute_uv=False)
    assert res.sigma_min >= s[-1] - 1e-14 * s[0]
    assert res.sigma_min <= 1e-10 * s[0]
    assert res.sigma_max is None


def test_krylov_path_matches_dense_path(monkeypatch):
    # no route runs Lanczos for a largest singular value: the dense route
    # takes both certificate sigmas from one SVD, and the Krylov route
    # certifies by its residual bound alone
    A = sparse_instance(80, 40)
    spectral_norm_args = []
    spectral_norm = linalg.spectral_norm

    def recording_spectral_norm(B):
        spectral_norm_args.append(B)
        return spectral_norm(B)

    monkeypatch.setattr(linalg, "spectral_norm", recording_spectral_norm)
    dense = solve(ProblemInstance(A))
    assert spectral_norm_args == []
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 100)
    P = ProblemInstance(A)
    assert P.factor is not None
    krylov = solve(P)
    assert spectral_norm_args == []
    assert dense.converged and krylov.converged
    assert abs(krylov.distance - dense.distance) <= 1e-10 * dense.distance
    assert krylov.inner_iterations > 0
    assert all(r.inner_converged for r in krylov.trace)
    assert all(r.inner_residual <= solver.INNER_TOL for r in krylov.trace[1:])
    assert all(np.isnan(r.inner_residual) for r in dense.trace)
    assert krylov.sigma_error == ""
    assert_sigma_bound(A, krylov)


@pytest.mark.parametrize("kind", ["pattern-basis", "random-basis", "full"])
def test_krylov_path_matches_dense_path_on_general_structures(monkeypatch, kind):
    # structures whose Gram blocks come from m_matrix and n_matrix (a basis)
    # or whose off-diagonal block is dense (full), run from one perturbed
    # start on both routes. The tight grad_tol keeps the stopping test from
    # deciding the agreement: at the default the two runs can stop 1e-10
    # apart (relative) in distance
    A = sparse_instance(40, 48)
    rng = np.random.default_rng(48)
    if kind == "pattern-basis":
        S = SparsityPattern.from_matrix(A).to_basis()
    elif kind == "random-basis":
        S = random_orthonormal_basis(rng, 40, 40, 30)
    else:
        S = FullStructure(A.shape)
    options = SolverOptions(grad_tol=1e-14)
    P = ProblemInstance(A, S, options)
    start = first_starts(P, 1)[0]
    u0 = start.u0 + 0.01 * rng.standard_normal(40)
    dense = line_search_newton(P, u0, start.v0)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 50)
    P = ProblemInstance(A, S, options)
    assert P.factor is not None
    krylov = line_search_newton(P, u0, start.v0)
    assert dense.converged and krylov.converged
    assert krylov.iterations > 0 and krylov.inner_iterations > 0
    assert abs(krylov.distance - dense.distance) <= 1e-10 * dense.distance


def test_each_newton_step_builds_the_jacobian_once(monkeypatch):
    # bordered_jacobian is the one place H is built, and every step of
    # either route calls it exactly once
    assert not hasattr(solver, "apply_H") and not hasattr(solver, "assemble_H")
    assert not hasattr(ProblemInstance, "dense_A")
    built, steps = [], []
    jacobian, step = solver.bordered_jacobian, solver.newton_step

    def counting_jacobian(*args):
        built.append(len(steps))
        return jacobian(*args)

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(solver, "bordered_jacobian", counting_jacobian)
    monkeypatch.setattr(solver, "newton_step", counting_step)
    A = sparse_instance(40, 49)
    for threshold in (max(solver.DENSE_THRESHOLD, 80), 0):
        monkeypatch.setattr(solver, "DENSE_THRESHOLD", threshold)
        P = ProblemInstance(A)
        assert (P.factor is None) == (threshold > 0)
        built.clear()
        steps.clear()
        res = solve(P)
        assert res.converged and res.iterations > 0
        assert len(steps) == res.iterations
        assert built == list(range(1, len(steps) + 1))


def test_dense_route_builds_each_gram_factor_once(monkeypatch):
    # a basis fills all of H from one m_matrix and one n_matrix and never
    # calls the pattern kernel; a pattern uses the pattern kernel alone
    rng = np.random.default_rng(25)
    A = rng.standard_normal((6, 5))
    ops = ("m_matrix", "n_matrix", "gram_diagonals", "h_offdiag", "project_rank1")
    calls = count_structure_calls(monkeypatch, ops)
    u, v = rng.standard_normal(6), rng.standard_normal(5)
    cases = ((random_orthonormal_basis(rng, 6, 5, 8),
              {"m_matrix": 1, "n_matrix": 1, "project_rank1": 1}),
             (random_pattern(rng, 6, 5)[0], {"gram_diagonals": 1, "h_offdiag": 1}))
    for S, expected in cases:
        P = ProblemInstance(A, S)
        assert P.factor is None
        calls.clear()
        bordered_jacobian(P, u, v)
        assert dict(calls) == expected


#: the documented length of each vector argument of the structure maps,
#: which take them unchecked: m for u and the y of M^T, n for v and the y
#: of N^T, p (``dim``) for coordinates
MAP_ARGUMENTS = {"apply_m": "np", "apply_mt": "nm", "apply_n": "mp", "apply_nt": "mn",
                 "m_matrix": "n", "n_matrix": "m", "gram_diagonals": "mn", "h_offdiag": "mn"}


@pytest.mark.parametrize("case", ["pattern-dense", "pattern-krylov", "basis-dense",
                                  "basis-krylov", "full", "gcd"])
def test_maps_and_linalg_take_the_arrays_the_solver_built(monkeypatch, case):
    # the structure maps, factorize and smallest_singular_triplets check no
    # input; a solve and its certificate hand every map 1-D float64 vectors
    # of the documented lengths, and linalg the A ProblemInstance validated
    calls, bad, received = collections.Counter(), [], []
    for name, lengths in MAP_ARGUMENTS.items():
        def checking(self, *args, _op=getattr(LinearStructure, name), _name=name,
                     _lengths=lengths):
            size = {"m": self.shape[0], "n": self.shape[1], "p": self.dim}
            calls[_name] += 1
            for x, length in zip(args, _lengths, strict=True):
                if not (isinstance(x, np.ndarray) and x.dtype == np.float64
                        and x.shape == (size[length],)):
                    bad.append((_name, type(x).__name__, getattr(x, "dtype", None), np.shape(x)))
            return _op(self, *args)
        monkeypatch.setattr(LinearStructure, name, checking)
    for name in ("factorize", "smallest_singular_triplets"):
        def recording(A, *args, _fn=getattr(linalg, name), **kw):
            received.append(A)
            return _fn(A, *args, **kw)
        monkeypatch.setattr(linalg, name, recording)
    solved = []
    if case == "gcd":
        def capturing(P, _solve=gcd.solve):
            solved.append((P, _solve(P)))
            return solved[-1][1]
        monkeypatch.setattr(gcd, "solve", capturing)
        gcd.gcd_distance(gcd.make_test_polynomials(), 9)
    else:
        if case == "full":
            A = np.random.default_rng(27).standard_normal((7, 5))
            S = FullStructure(A.shape)
        else:
            A = sparse_instance(40, 48)
            S = SparsityPattern.from_matrix(A)
            S = S.to_basis() if case.startswith("basis") else S
        if case.endswith("krylov"):
            monkeypatch.setattr(solver, "DENSE_THRESHOLD", 50)
        P = ProblemInstance(A, S)
        solved.append((P, solve(P)))
    P, res = solved[0]
    certify_solution(P, res)
    # the smallest singular triplet of A already solves the full structure
    assert res.converged and (res.iterations > 0) == (case != "full")
    assert (P.factor is not None) == case.endswith("krylov")
    assert bad == []
    assert received and all(A is P.A for A in received)
    # only a basis on the Krylov route reaches apply_nt, in bordered_jacobian
    assert (calls["apply_nt"] > 0) == (case == "basis-krylov")


def test_krylov_newton_step_meets_inner_tol(monkeypatch):
    # the true relative residual of every inexact Newton step, measured
    # against the dense route's bordered matrix [[H, c], [c^T, 0]], c = [0; v],
    # is within the forcing term, along several accepted steps of one run
    A = sparse_instance(80, 40)
    rng = np.random.default_rng(41)
    dense = ProblemInstance(A)
    assert dense.factor is None
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 100)
    for inner_tol in (1e-2, 1e-6):
        monkeypatch.setattr(solver, "INNER_TOL", inner_tol)
        P = ProblemInstance(A)
        start = first_starts(P, 1)[0]
        for scale in (0.0, 0.1):
            state = SolverState.at(P, start.u0 + scale * rng.standard_normal(80), start.v0)
            for step in range(4):
                du, dv, inner = newton_step(P, state)
                K = bordered_jacobian(dense, state.u, state.v)
                assert np.array_equal(inner.x[:160], np.concatenate([du, dv]))
                true = np.linalg.norm(K @ inner.x + np.append(state.residual, 0.0))
                assert true <= inner_tol * state.residual_norm
                assert abs(true / state.residual_norm - inner.residual) <= 1e-10
                # backtrack to descent and accept
                alpha = 1.0
                nxt = SolverState.at(P, state.u + du, state.v + dv)
                while nxt.residual_norm >= state.residual_norm:
                    alpha *= 0.5
                    nxt = SolverState.at(P, state.u + alpha * du, state.v + alpha * dv)
                state = nxt


def test_krylov_newton_step_is_a_function_of_the_state(monkeypatch):
    # every Krylov step is one GCROT solve from zero: the same state gives
    # bit-identical steps, with nothing carried over from an earlier call
    A = sparse_instance(80, 40)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 100)
    P = ProblemInstance(A)
    assert P.factor is not None
    start = first_starts(P, 1)[0]
    state = SolverState.at(P, start.u0, start.v0)
    du1, dv1, inner1 = newton_step(P, state)
    du2, dv2, inner2 = newton_step(P, state)
    assert inner1.iterations > 0
    assert np.array_equal(du1, du2) and np.array_equal(dv1, dv2)
    assert inner1.iterations == inner2.iterations


def test_krylov_newton_step_preconditions_with_the_augmented_inverse(monkeypatch):
    # the preconditioner newton_step hands to GCROT inverts [[0, A], [A^T, 0]]
    # through the LU of A, sparse or dense, and passes the border entry through
    A = sparse_instance(40, 47)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 50)
    iterative = linalg.solve_symmetric_iterative
    captured = []

    def capturing(op, b, tol, precond):
        captured.append(precond)
        return iterative(op, b, tol, precond)

    monkeypatch.setattr(linalg, "solve_symmetric_iterative", capturing)
    n, N = 40, 80
    aug = np.block([[np.zeros((n, n)), A.toarray()], [A.toarray().T, np.zeros((n, n))]])
    x = np.random.default_rng(47).standard_normal(N + 1)
    for M in (A, A.toarray()):
        P = ProblemInstance(M)
        assert P.factor is not None
        start = first_starts(P, 1)[0]
        captured.clear()
        newton_step(P, SolverState.at(P, start.u0, start.v0))
        [precond] = captured
        y = precond(x)
        assert np.allclose(aug @ y[:N], x[:N], rtol=0, atol=1e-11)
        assert y[N] == x[N]


def test_krylov_multistart_starts_are_independent(monkeypatch):
    # each start runs its own Newton iteration: its summary under multistart
    # equals that of running the start alone
    A = sparse_instance(80, 40)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 100)
    P = ProblemInstance(A, options=SolverOptions(multistart=3))
    assert P.factor is not None
    res = solve(P)
    starts = first_starts(P, 3)
    assert len(res.starts) == 3 and not any(s.skipped for s in starts)
    assert all(s.inner_iterations > 0 for s in res.starts)
    for start, summary in zip(starts, res.starts):
        alone = line_search_newton(P, start.u0, start.v0, start.index)
        fields = ("converged", "distance", "grad_norm", "iterations", "backtracks",
                  "inner_iterations")
        assert [getattr(summary, f) for f in fields] == [getattr(alone, f) for f in fields]


def test_krylov_path_converges_on_hard_small_input(monkeypatch):
    # a small sparse input that penalty-damped Newton crawled on for about 80
    # iterations: both paths must reach the same distance in a few steps.
    # Every step converges within GCROT's first cycle, so the number of
    # pairs it carries between cycles (GCROT_RECYCLE) plays no part here
    A = sp.csr_array(sp.random(50, 50, density=0.1, random_state=1)
                     + sp.diags(0.5 + np.random.default_rng(1).random(50)))
    dense = solve(ProblemInstance(A))
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 0)
    P = ProblemInstance(A)
    assert P.factor is not None
    krylov = solve(P)
    assert dense.converged and krylov.converged
    assert dense.iterations <= 10 and krylov.iterations <= 10
    assert max(r.inner_iterations for r in krylov.trace) < linalg.GCROT_CYCLE
    assert abs(krylov.distance - dense.distance) <= 1e-9 * dense.distance


def count_lu(monkeypatch):
    """Record the shape of every ``LUFactor`` construction, failed ones included."""
    built = []

    class CountingLU(linalg.LUFactor):
        def __init__(self, A):
            built.append(A.shape)
            super().__init__(A)

    monkeypatch.setattr(linalg, "LUFactor", CountingLU)
    return built


def test_singular_sparse_input_above_threshold_short_circuits(monkeypatch):
    # an exactly singular square input has no LU; its one failed LU attempt
    # sends the triplets to the dense SVD and the solve reports distance 0,
    # also above the dense route's cap, which only refuses a Newton solve
    A = sparse_instance(60, 42).tolil()
    A[7, :] = 0.0
    A = sp.csr_array(A)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 50)
    built = count_lu(monkeypatch)
    for cap in (linalg.DENSE_FALLBACK_MAX_N, 100):
        monkeypatch.setattr(linalg, "DENSE_FALLBACK_MAX_N", cap)
        built.clear()
        P = ProblemInstance(A)
        assert P.factor is None and P.m + P.n > 100
        res = solve(P)
        assert res.converged and res.distance == 0.0
        assert "singular" in res.message
        assert built == [(60, 60)]


def test_nearly_singular_input_with_an_lu_short_circuits():
    # sigma_min(A) = 1e-13 is at most 1e-14 ||A||_F (1.4e-13), though not
    # 1e-14 sigma_max(A): the Lanczos triplets of this A with an LU find it
    # singular, and with u = 0 its certificate sigma_min is ||A v|| alone
    d = np.ones(200)
    d[123] = 1e-13
    P = ProblemInstance(sp.csr_array(sp.diags(d)))
    assert P.factor is not None
    res = solve(P)
    assert res.converged and res.distance == 0.0 and res.iterations == 0
    assert res.message == "input numerically singular; distance 0"
    assert res.sigma_error == ""
    assert abs(res.sigma_min - 1e-13) <= 1e-6 * 1e-13
    assert res.sigma_max is None


@pytest.mark.parametrize("shape", [(9, 12), (30, 40), (60, 90), (80, 120)])
def test_wide_input_is_refused_and_its_transpose_converges_only_at_a_root(shape):
    # for m < n every unit kernel vector v of A, with u = 0 and Delta = 0,
    # is a root of G: at 60 x 90 and 80 x 120 such solves reported distances
    # of 7e-23 to 2e-15 with a sigma_min(A + Delta) of about 0.3. A wide A is
    # refused, naming its transpose, and a converged tall transpose has
    # A + Delta singular
    m, n = shape
    for seed in range(3):
        A = sp.csr_array(sp.random(m, n, density=5 / n, random_state=np.random.default_rng(seed))
                         + sp.eye(m, n))
        with pytest.raises(DimensionMismatchError, match=rf"wide {m} x {n} .* {n} x {m}"):
            ProblemInstance(A)
        T = sp.csr_array(A.T)
        res = solve(ProblemInstance(T))
        if not res.converged:
            continue
        s = np.linalg.svd(T.toarray() + as_dense(res.delta), compute_uv=False)
        assert s[-1] <= 1e-8 * linalg.frobenius_norm(T)


def test_dense_input_above_threshold_reuses_its_lu(monkeypatch):
    # dense A takes the routes of sparse A: its one LU gives the triplets by
    # Lanczos on A^-1 A^-T and preconditions the Newton steps, and the
    # certificate needs no SVD of A + Delta
    A = sparse_instance(40, 46).toarray()
    reference = solve(ProblemInstance(A))
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 50)
    built = count_lu(monkeypatch)
    svd_calls = []

    def counting(svd):
        def wrapped(*args, **kwargs):
            svd_calls.append(svd.__module__)
            return svd(*args, **kwargs)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(scipy.linalg, "svd", counting(scipy.linalg.svd))
        patch.setattr(np.linalg, "svd", counting(np.linalg.svd))
        res = solve(ProblemInstance(A))
    assert built == [(40, 40)]
    assert svd_calls == []
    assert reference.converged and res.converged and res.inner_iterations > 0
    assert abs(res.distance - reference.distance) <= 1e-10 * reference.distance
    assert res.sigma_error == ""
    assert_sigma_bound(A, res)


def test_rectangular_sparse_input_routing(monkeypatch):
    # no LU for a rectangular A: above the threshold every phase stays on
    # the dense route, with exact certificate sigmas, up to the dense
    # route's cap; above the cap the solve is refused, naming shape and cap
    A = sp.csr_array(sp.random(60, 90, density=0.3, random_state=np.random.RandomState(44)).T)
    default = solve(ProblemInstance(A))
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 20)
    P = ProblemInstance(A)
    assert P.factor is None and P.m + P.n > solver.DENSE_THRESHOLD
    res = solve(P)
    assert default.converged and res.converged
    assert res.iterations == default.iterations == 4
    assert res.distance == default.distance and res.inner_iterations == 0
    assert abs(res.distance - 0.964482) <= 1e-6
    s = np.linalg.svd(A.toarray() + as_dense(res.delta), compute_uv=False)
    assert res.sigma_error == ""
    assert res.sigma_min == s[-1] and res.sigma_max == s[0]
    # above the cap it is refused before its full SVD
    monkeypatch.setattr(linalg, "DENSE_FALLBACK_MAX_N", 100)

    def no_svd(A, k):
        raise AssertionError("dense triplets of a refused input")

    monkeypatch.setattr(linalg, "_dense_triplets", no_svd)
    with pytest.raises(DimensionMismatchError, match=r"90 x 60 .* 100"):
        solve(ProblemInstance(A))


def test_route_boundary_is_the_dense_threshold():
    # one rule routes every input, whatever its storage: an A without LU
    # (a square one with m + n at DENSE_THRESHOLD, or a rectangular one
    # above it) takes the dense route in every phase, with no inner
    # iterations and exact certificate sigmas; a square A one size above
    # the threshold takes its LU and the Krylov route
    n = solver.DENSE_THRESHOLD // 2
    A, B = sparse_instance(n, 50), sparse_instance(n + 1, 50)
    for storage in (sp.csr_array, lambda A: A.toarray()):
        for C in (A, B[:, :n]):
            P = ProblemInstance(storage(C))
            assert P.factor is None
            res = solve(P)
            s = np.linalg.svd(C.toarray() + as_dense(res.delta), compute_uv=False)
            assert res.converged and res.sigma_error == "" and res.inner_iterations == 0
            assert res.sigma_min == s[-1] and res.sigma_max == s[0]
        P = ProblemInstance(storage(B))
        assert P.m + P.n > solver.DENSE_THRESHOLD and P.factor is not None


def test_routes_agree_on_dense_input_above_the_threshold(monkeypatch):
    # a dense 200 x 200 A with a 30% pattern runs on the Krylov route by
    # default; forcing the dense route finds the same multistart winner
    rng = np.random.default_rng(51)
    A = rng.standard_normal((200, 200)) * (rng.random((200, 200)) < 0.3) + np.eye(200)
    options = SolverOptions(multistart=4)
    P = ProblemInstance(A, options=options)
    assert P.factor is not None
    krylov = solve(P)
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 10**9)
    P = ProblemInstance(A, options=options)
    assert P.factor is None
    dense = solve(P)
    assert krylov.converged and dense.converged
    assert krylov.inner_iterations > 0
    assert abs(krylov.distance - dense.distance) <= 1e-8 * dense.distance


def test_sparse_solve_factors_A_once(monkeypatch):
    # the certificate of A + Delta factors nothing: the LU of A, built for
    # the triplets and the preconditioner, is the only one of the solve,
    # whichever kernel factors it
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 100)
    A = sparse_instance(80, 40)
    built = count_lu(monkeypatch)
    for spread in (0.0, 1.0):  # every sparse A densified for LAPACK, none
        monkeypatch.setattr(linalg, "LU_FILL_SPREAD", spread)
        assert linalg._lu_fills_in(A) == (spread == 0.0)
        built.clear()
        res = solve(ProblemInstance(A))
        assert res.converged and res.sigma_error == ""
        assert built == [(80, 80)]


def test_lu_kernels_give_the_same_solve(monkeypatch):
    # SuperLU and the densified LAPACK LU of one sparse random A precondition
    # the same GCROT solves: same Newton steps, same Krylov directions
    A = sp.csr_array(sp.random(400, 400, density=0.01, random_state=np.random.RandomState(47))
                     + 0.5 * sp.identity(400))
    results = []
    for spread in (0.0, 1.0):  # every sparse A densified for LAPACK, none
        monkeypatch.setattr(linalg, "LU_FILL_SPREAD", spread)
        P = ProblemInstance(A)
        assert P.factor is not None and linalg._lu_fills_in(A) == (spread == 0.0)
        results.append(solve(P))
    lapack, superlu = results
    assert lapack.converged and superlu.converged
    assert (lapack.iterations, lapack.backtracks) == (superlu.iterations, superlu.backtracks)
    assert [r.inner_iterations for r in lapack.trace] == [r.inner_iterations for r in superlu.trace]
    assert lapack.inner_iterations > 0
    assert abs(lapack.distance - superlu.distance) <= 1e-12 * superlu.distance


def test_sparse_one_column_input_takes_dense_certificate(monkeypatch):
    # svds needs min(m, n) >= 2, so a single sparse column above the
    # threshold keeps the exact SVD instead of raising from Lanczos
    rng = np.random.default_rng(45)
    A = sp.csr_array(rng.standard_normal((30, 1)))
    monkeypatch.setattr(solver, "DENSE_THRESHOLD", 10)
    res = solve(ProblemInstance(A))
    assert res.converged and res.sigma_error == ""
    assert abs(res.distance - np.linalg.norm(A.toarray())) <= 1e-10 * res.distance
    s = np.linalg.svd(A.toarray() + as_dense(res.delta), compute_uv=False)
    assert res.sigma_min == s[-1] and res.sigma_max == s[0]


def test_dense_input_above_threshold_certifies_without_lanczos(monkeypatch):
    # a dense A with an LU certifies by its residual bound alone: no svds
    # run for sigma_max(A + Delta), so none can fail the certificate
    rng = np.random.default_rng(0)
    A = (rng.random((200, 200)) < 0.4) * rng.standard_normal((200, 200)) + 3 * np.eye(200)
    calls = []

    def failing_svds(*args, **kwargs):
        calls.append(1)
        raise spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "svds", failing_svds)
    P = ProblemInstance(A)
    assert P.factor is not None
    res = solve(P)
    assert res.converged
    assert res.sigma_error == "" and res.sigma_max is None
    assert res.sigma_min <= 1e-12 * P.norm_fro
    assert calls == []


def test_krylov_route_sigma_min_is_the_returned_residual_bound():
    # the certificate reads the residual norms of the G the solve returned
    # rather than forming A + Delta again, on sparse and on dense input
    rng = np.random.default_rng(0)
    dense = (rng.random((200, 200)) < 0.4) * rng.standard_normal((200, 200)) + 3 * np.eye(200)
    sparse = sp.random(200, 200, density=0.02, random_state=np.random.RandomState(0)) + sp.eye(200)
    for A in (sparse, dense):
        P = ProblemInstance(A)
        assert P.factor is not None
        res = solve(P)
        assert res.converged
        assert res.sigma_min == min(res.residual_av / np.linalg.norm(res.v),
                                    res.residual_atu / np.linalg.norm(res.u))


def test_certificate_failure_is_recorded(monkeypatch):
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    P = full_instance(np.diag([3.0, 1.0]))
    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    res = solve(P)
    assert res.converged and abs(res.distance - 1.0) <= 1e-10
    assert res.sigma_min is None and res.sigma_max is None
    assert res.sigma_error == "sigma(A+Delta) not computed: LinAlgError"


def test_solver_options_validation():
    # an infinite grad_tol "converges" at iteration 0 on a non-root and a
    # NaN one never converges: only a positive finite value is accepted
    for grad_tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            SolverOptions(grad_tol=grad_tol)
    with pytest.raises(ValueError):
        SolverOptions(max_newton_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(multistart=0)
    # a fractional or infinite budget would fail deep inside solve
    for iters in (2.5, math.inf):
        with pytest.raises(ValueError, match="max_newton_iters must be an integer"):
            SolverOptions(max_newton_iters=iters)
    with pytest.raises(ValueError, match="multistart must be an integer"):
        SolverOptions(multistart=1.5)
    assert SolverOptions(max_newton_iters=np.int64(3), multistart=np.int64(2)).multistart == 2


def test_problem_instance_resolves_options_and_checks_structure_shape():
    # grad_tol defaults to a multiple of ||A||_F; set, it is used as given
    A = np.diag([3.0, 4.0])
    P = ProblemInstance(A)
    assert P.grad_tol == 5e-12
    P = ProblemInstance(A, options=SolverOptions(grad_tol=1e-9))
    assert P.grad_tol == 1e-9
    with pytest.raises(DimensionMismatchError, match="structure shape"):
        ProblemInstance(A, FullStructure((2, 3)))


@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
def test_solver_options_reject_a_bool(flag):
    # bool is an Integral and 0 < True < inf: a flag would become an
    # iteration budget or start count of 1, or an absolute tolerance of 1.0
    with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
        SolverOptions(grad_tol=flag)
    for name in ("max_newton_iters", "multistart"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolverOptions(**{name: flag})


def test_problem_instance_refuses_an_empty_matrix():
    with pytest.raises(DimensionMismatchError, match="matrix must be nonempty"):
        ProblemInstance(np.zeros((0, 3)))


def test_starting_values_take_the_start_count_as_given():
    # one start per triplet given, in the triplets' order; solve clamps the
    # count to min(m, n) before it computes them
    P = full_instance(np.diag([3.0, 1.0]))
    assert [s.sigma for s in first_starts(P, 2)] == [1.0, 3.0]


def test_square_input_without_lu_is_refused_above_the_dense_cap_unless_singular(monkeypatch):
    # a square A without LU is refused after its triplets, so a singular one
    # still gets distance 0 above the cap
    monkeypatch.setattr(linalg, "DENSE_FALLBACK_MAX_N", 10)
    A = np.random.default_rng(0).standard_normal((6, 6))
    with pytest.raises(DimensionMismatchError, match=r"6 x 6 .* capped at m \+ n = 10"):
        solve(ProblemInstance(A))
    res = solve(ProblemInstance(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 0.0])))
    assert res.converged and res.distance == 0.0
    assert res.message == "input numerically singular; distance 0"


#: the three ways a Newton run stops short of a root
UNCONVERGED_STOP = re.compile(r"non-finite residual at start|iteration budget \d+ exhausted"
                              r"|no descent within \d+ backtracks at iteration \d+")


def north_star_matrix(family, n, seed):
    """A seeded sparse n x n input: random (about 4 entries a row) or 7-diagonal banded."""
    if family == "random":
        return (sp.random(n, n, density=4 / n, random_state=np.random.RandomState(seed))
                + 0.5 * sp.eye(n))
    rng = np.random.default_rng(seed)
    return (sp.diags([rng.standard_normal(n - abs(k)) for k in range(-3, 4)], range(-3, 4))
            + 2.0 * sp.eye(n))


@pytest.fixture(scope="module")
def north_star_solves():
    """(label, P, result) for both families at n = 150 (dense route), 400 and 800 (Krylov)."""
    out = []
    for family in ("random", "banded"):
        for n in (150, 400, 800):
            for seed in range(3):
                P = ProblemInstance(north_star_matrix(family, n, seed))
                assert (P.factor is None) == (n == 150)
                out.append((f"{family} n={n} seed={seed}", P, solve(P)))
    return out


def test_solver_invariants_at_north_star_sizes(north_star_solves):
    # with the pattern of A: a converged result is a unit v in the kernel of
    # A + Delta, Delta in the structure with distance ||Delta||_F; an
    # unconverged one names its stop and still carries sigma(A + Delta);
    # sigma_max is computed on the dense route only
    failures = []
    for label, P, res in north_star_solves:
        tol = 1e-12 * P.norm_fro
        dense_sigma_max = (res.sigma_max is None) == (P.factor is not None)
        if not res.converged:
            if not (UNCONVERGED_STOP.fullmatch(res.message)
                    and res.sigma_min is not None and dense_sigma_max):
                failures.append(f"{label}: {res.message!r}, sigmas {res.sigma_min}, {res.sigma_max}")
            continue
        norm_delta = linalg.frobenius_norm(res.delta)
        checks = {
            "|v| = 1": abs(np.linalg.norm(res.v) - 1.0) <= 1e-12,
            "(A+Delta) v = 0": np.linalg.norm((P.A + res.delta) @ res.v) <= tol,
            "Delta in S": (linalg.frobenius_norm(P.structure.project(res.delta) - res.delta)
                           <= 1e-12 * (1.0 + res.distance)),
            "distance = |Delta|": abs(res.distance - norm_delta) <= 1e-12 * norm_delta,
            "sigma_min = 0": res.sigma_min <= tol,
            "sigma_max only on the dense route": dense_sigma_max,
        }
        failures += [f"{label}: {name}" for name, ok in checks.items() if not ok]
    assert not failures, failures


@pytest.mark.xfail(strict=True, reason="the certificate FAILs with rank_drop on 14 of the 17 "
                                       "converged results (ROADMAP item 1)")
def test_every_converged_north_star_result_certifies(north_star_solves):
    failed = [label for label, P, res in north_star_solves
              if res.converged and not certify_solution(P, res).passed]
    assert not failed, failed
