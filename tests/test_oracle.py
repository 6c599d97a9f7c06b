"""Variable-projection oracle: closed forms, brute-force agreement, certification."""

import types

import numpy as np
import pytest

from singdist import (
    FullStructure,
    ProblemInstance,
    SparsityPattern,
    StructureError,
    certify_solution,
    solve,
)
from singdist.oracle import evaluate
from singdist.structure import as_dense
from conftest import count_structure_calls, pattern_instance, random_orthonormal_basis


def brute_force_eval(A, S, v, eps):
    """Dense regularized least squares over the coefficient space."""
    M = S.m_matrix(v)
    r = -A @ v
    delta = np.linalg.solve(M.T @ M + eps * np.eye(S.dim), M.T @ r)
    f = delta @ delta + np.linalg.norm(M @ delta - r) ** 2 / eps
    return f, delta


def test_full_structure_closed_form():
    rng = np.random.default_rng(40)
    A = rng.standard_normal((5, 5))
    P = ProblemInstance(A, FullStructure(A.shape))
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    eps = 1e-8
    ev = evaluate(P, v, eps)
    # M M^T = ||v||^2 I = I, so u = -Av/(1+eps) and f = ||Av||^2/(1+eps)
    assert np.allclose(ev.u, -(A @ v) / (1 + eps), atol=1e-12)
    assert abs(ev.f_value - np.linalg.norm(A @ v) ** 2 / (1 + eps)) <= 1e-12


def test_full_structure_smallest_singular_value():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((6, 6))
    _, s, Vt = np.linalg.svd(A)
    P = ProblemInstance(A, FullStructure(A.shape))
    f = evaluate(P, Vt[-1], 1e-12).f_value
    assert abs(f - s[-1] ** 2) <= 1e-8 * (1 + s[-1] ** 2)


def test_matches_brute_force_on_patterns():
    rng = np.random.default_rng(42)
    for trial in range(10):
        A, S = pattern_instance(rng, n=8, density=0.5)
        P = ProblemInstance(A, S)
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        eps = 1e-8
        ev = evaluate(P, v, eps)
        f_ref, delta_ref = brute_force_eval(A, S, v, eps)
        assert abs(ev.f_value - f_ref) <= 1e-8 * (1 + abs(f_ref))
        assert np.linalg.norm(ev.delta - delta_ref) <= 1e-8 * (1 + np.linalg.norm(delta_ref))


def test_matches_brute_force_on_basis_structure():
    rng = np.random.default_rng(43)
    A = rng.standard_normal((6, 6))
    S = random_orthonormal_basis(rng, 6, 6, 12)
    P = ProblemInstance(A, S)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    eps = 1e-8
    ev = evaluate(P, v, eps)
    f_ref, delta_ref = brute_force_eval(A, S, v, eps)
    assert abs(ev.f_value - f_ref) <= 1e-8 * (1 + abs(f_ref))
    assert np.linalg.norm(ev.delta - delta_ref) <= 1e-8 * (1 + np.linalg.norm(delta_ref))


def test_evaluate_takes_the_gradient_from_delta_coordinates(monkeypatch):
    # grad_v = A^T u + N(u) delta reuses the coordinates delta = M(v)^T u
    rng = np.random.default_rng(46)
    A = rng.standard_normal((6, 5))
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    calls = count_structure_calls(monkeypatch, ("apply_mt", "apply_n", "apply_nt"))
    for S in (FullStructure((6, 5)), random_orthonormal_basis(rng, 6, 5, 9)):
        calls.clear()
        ev = evaluate(ProblemInstance(A, S), v, 1e-10)
        assert dict(calls) == {"apply_mt": 1, "apply_n": 1}
        Delta = as_dense(S.project_rank1(ev.u, v))
        assert np.allclose(ev.grad_v, (A + Delta).T @ ev.u, atol=1e-10)


def test_eval_invariant_and_rank1_identity():
    rng = np.random.default_rng(44)
    for trial in range(8):
        A, S = pattern_instance(rng, n=7)
        P = ProblemInstance(A, S)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        eps = 10.0 ** rng.uniform(-10, -4)
        ev = evaluate(P, v, eps)
        # Delta is the projected rank-1 matrix of (u, v), whose coordinates are delta
        Delta = as_dense(S.project_rank1(ev.u, v))
        assert np.allclose(Delta[S.rows, S.cols], ev.delta, rtol=1e-12, atol=1e-12)
        lhs = np.linalg.norm(Delta) ** 2
        lhs += np.linalg.norm((A + Delta) @ v) ** 2 / eps
        assert abs(lhs - ev.f_value) <= 1e-10 * (1 + abs(ev.f_value))


def test_f_eps_monotone_in_eps():
    rng = np.random.default_rng(45)
    for trial in range(5):
        A, S = pattern_instance(rng, n=7)
        P = ProblemInstance(A, S)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        f1 = evaluate(P, v, 1e-9).f_value
        f2 = evaluate(P, v, 1e-5).f_value
        assert f1 >= f2 - 1e-14


def test_evaluate_rejects_bad_arguments():
    A = np.eye(3)
    P = ProblemInstance(A, FullStructure(A.shape))
    with pytest.raises(Exception):
        evaluate(P, np.array([2.0, 0, 0]), 1e-8)  # not unit norm
    for bad in (np.nan, np.inf):  # abs(nan - 1) > tol is False: checked apart
        with pytest.raises(StructureError, match="v must be finite"):
            evaluate(P, np.array([bad, 1.0, 0]), 1e-8)
    for eps in (0.0, np.inf, np.nan):  # eps must be positive and finite
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            evaluate(P, np.array([1.0, 0, 0]), eps)


def test_certify_rejects_non_finite_eps_and_tolerance():
    # v = e1 is not a kernel vector of A + Delta for the claimed distance
    # 1e-4: the certificate FAILs, and an infinite eps (u = 0, so grad = 0)
    # or an infinite tolerance must not turn that into a PASS
    A = np.diag([1.0, 1e-4])
    P = ProblemInstance(A, FullStructure(A.shape))
    wrong = types.SimpleNamespace(v=np.array([1.0, 0.0]), distance=1e-4)
    assert not certify_solution(P, wrong).passed
    for eps in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            certify_solution(P, wrong, eps=eps)
    for tol_cert in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="tol_cert must be positive and finite"):
            certify_solution(P, wrong, tol_cert=tol_cert)


def test_certify_solver_output():
    rng = np.random.default_rng(46)
    A, S = pattern_instance(rng, n=9)
    P = ProblemInstance(A, S)
    res = solve(P)
    cert = certify_solution(P, res)
    assert cert.passed
    assert cert.grad_norm <= 1e-6


def test_certify_negative_control_perturbed_v():
    rng = np.random.default_rng(47)
    A, S = pattern_instance(rng, n=9)
    P = ProblemInstance(A, S)
    res = solve(P)
    bad_v = res.v + 1e-2 * rng.standard_normal(9)
    bad_v /= np.linalg.norm(bad_v)
    shim = types.SimpleNamespace(v=bad_v, distance=res.distance)
    cert = certify_solution(P, shim)
    assert not cert.passed


@pytest.mark.parametrize("shape", [(90, 60), (60, 90)])
def test_default_eps_does_not_bias_a_large_distance(shape):
    # eps enters u as a relative error eps / k1, so the gradient test is
    # biased in proportion to the distance: at the former default of
    # 1e-10 ||A||_F^2 these converged solves (distance 2.15 and 1.91)
    # FAILed with |grad| 2.5e-6 and 2.0e-6; at the default they PASS. A
    # wide draw is solved as its tall transpose, which has its distance
    A = np.random.default_rng(1).standard_normal(shape)
    A = A.T if shape[0] < shape[1] else A
    P = ProblemInstance(A, FullStructure(A.shape))
    res = solve(P)
    assert res.converged and res.distance > 1.5
    cert = certify_solution(P, res)
    assert cert.passed and not cert.rank_drop
    assert cert.grad_norm <= 1e-8


def test_certify_example_diag():
    P = ProblemInstance(np.diag([3.0, 1.0]), FullStructure((2, 2)))
    import types

    shim = types.SimpleNamespace(v=np.array([0.0, 1.0]), distance=1.0)
    cert = certify_solution(P, shim, eps=1e-10)
    assert cert.passed
    assert abs(cert.f_value - 1.0) <= 1e-6


def test_certification_rejects_dead_row_saddle():
    """Newton can converge to a saddle whose v annihilates entire row supports.

    With A inside a low-density pattern, the k=1 start sometimes lands on a
    stationary point of the penalized system that is not a minimizer of the
    variable-projection objective: some rows have all their pattern entries
    multiplied by zero components of v (gram diagonal K1 = 0) while u keeps
    mass there. The oracle gradient is then genuinely large, so certification
    must fail, and the curvature operator must be indefinite. Seed frozen
    from a search over the generator.
    """
    rng = np.random.default_rng(1)
    while True:
        mask = rng.random((30, 30)) < 0.2
        if not (mask.any(axis=0).all() and mask.any(axis=1).all()):
            continue
        A = np.where(mask, rng.standard_normal((30, 30)), 0.0)
        if np.linalg.svd(A, compute_uv=False)[-1] > 1e-3:
            break
    S = SparsityPattern.from_matrix(np.where(mask, 1.0, 0.0))
    P = ProblemInstance(A, S)
    res = solve(P)
    assert res.converged  # Newton is satisfied...
    cert = certify_solution(P, res)
    assert not cert.passed  # ...but the oracle correctly is not
    assert cert.grad_norm > 1e-4
    from singdist.solver import bordered_jacobian

    eigs = np.linalg.eigvalsh(bordered_jacobian(P, res.u, res.v)[:60, :60])
    assert eigs[0] < -1e-8  # a saddle, not a minimum
    k1, _ = S.gram_diagonals(np.zeros(30), res.v)
    assert k1.min() < 1e-12  # the dead rows that cause the failure


def test_certify_v_zero_rejected():
    import types

    P = ProblemInstance(np.eye(2), FullStructure((2, 2)))
    shim = types.SimpleNamespace(v=np.zeros(2), distance=0.0)
    with pytest.raises(StructureError):
        certify_solution(P, shim)


def test_evaluate_refuses_a_v_of_the_wrong_length():
    P = ProblemInstance(np.diag([3.0, 1.0]), FullStructure((2, 2)))
    with pytest.raises(StructureError, match="v must have length 2"):
        evaluate(P, np.ones(3) / np.sqrt(3.0), 1e-14)
