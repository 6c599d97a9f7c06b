"""Acceptance suite: one test per acceptance criterion, one printed line each.

Every test prints ``criterion N PASS/FAIL: <label> (...)`` so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist. Stated time
budgets are asserted alongside the numerical tolerances.
"""

import os
import pathlib
import time

import numpy as np
import pytest
import scipy.stats

from singdist import (
    BasisStructure,
    FullStructure,
    ProblemInstance,
    SolverOptions,
    SparsityPattern,
    certify_solution,
    gcd_distance,
    solve,
)
from singdist.gcd import make_test_polynomials
from singdist.oracle import evaluate
from singdist.solver import (
    apply_H,
    assemble_H,
    line_search_newton,
    residual_G,
    starting_values,
)
from singdist.structure import as_dense


def _report(num, label, failures, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        failures.append(f"elapsed {elapsed:.1f}s exceeds budget {budget:.0f}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num} {verdict}: {label} ({elapsed:.1f}s)", flush=True)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_full_structure_recovers_smallest_triplet():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    for k in range(50):
        n = (5, 10, 20)[k % 3]
        A = rng.standard_normal((n, n))
        U, s, Vt = np.linalg.svd(A)
        res = solve(ProblemInstance(A, FullStructure(A.shape)))
        if not res.converged:
            failures.append(f"instance {k}: not converged")
            continue
        sig = s[-1]
        if abs(res.distance - sig) > 1e-9 * sig:
            failures.append(f"instance {k}: distance {res.distance} vs sigma {sig}")
        gap = np.linalg.norm(as_dense(res.delta) + sig * np.outer(U[:, -1], Vt[-1]))
        if gap > 1e-6:
            failures.append(f"instance {k}: delta gap {gap:.2e}")
    _report(1, "full structure matches smallest singular triplet (50 instances)",
            failures, t0, budget=10.0)


def test_criterion_2_hand_worked_diagonal_case():
    t0 = time.perf_counter()
    failures = []
    A = np.diag([3.0, 1.0])
    P = ProblemInstance(A, FullStructure(A.shape))
    res = solve(P)
    if np.linalg.norm(as_dense(res.delta) - np.diag([0.0, -1.0])) > 1e-10:
        failures.append(f"delta {as_dense(res.delta)} not diag(0,-1)")
    H = assemble_H(P, res.u, res.v)
    eig = np.linalg.eigvalsh(H)
    # the curvature operator decouples into the 2x2 blocks [[1,3],[3,1]]
    # and [[1,-1],[-1,1]], so the spectrum is {-2, 4} plus {0, 2}
    ref = np.sort(np.concatenate([
        np.linalg.eigvalsh(np.array([[1.0, 3.0], [3.0, 1.0]])),
        np.linalg.eigvalsh(np.array([[1.0, -1.0], [-1.0, 1.0]])),
    ]))
    if np.max(np.abs(eig - ref)) > 1e-10:
        failures.append(f"spectrum {eig} vs {ref}")
    if np.sum(np.abs(eig) <= 1e-10) != 1:
        failures.append("expected exactly one zero eigenvalue")
    if eig[0] >= 0:
        failures.append("expected a negative eigenvalue")
    _report(2, "diag(3,1) solution and curvature spectrum", failures, t0)


def test_criterion_3_polynomial_distance_table():
    t0 = time.perf_counter()
    failures = []
    pair = make_test_polynomials()
    expected = {9: (3.996389e-3, 5e-3), 8: (1.728812e-4, 5e-3),
                7: (7.089025e-6, 5e-2), 6: (1.829296e-7, 5e-2)}
    got = {}
    for d, (ref, rtol) in expected.items():
        res = gcd_distance(pair, d)
        got[d] = res.distance
        if not res.converged:
            failures.append(f"d={d}: not converged")
        if abs(res.distance - ref) > rtol * ref:
            failures.append(f"d={d}: distance {res.distance:.6e} vs {ref:.6e}")
    # asking for a longer common factor can only cost more
    if not (got[9] > got[8] > got[7] > got[6]):
        failures.append(f"distances not monotone in d: {got}")
    _report(3, "common-factor distances d=9..6", failures, t0, budget=30.0)


def test_criterion_4_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = []
    for k in range(20):
        n = int(rng.integers(5, 16))
        density = rng.uniform(0.3, 0.7)
        while True:
            mask = rng.random((n, n)) < density
            if mask.any(axis=0).all() and mask.any(axis=1).all():
                break
        A = np.where(mask, rng.standard_normal((n, n)), 0.0)  # A in S
        P = ProblemInstance(A, SparsityPattern(n, n, np.argwhere(mask)))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)

        def F(uu, vv):
            delta = as_dense(P.structure.project_rank1(uu, vv))
            return 0.5 * np.linalg.norm(A + delta) ** 2

        # along a coordinate axis F is quadratic and central differences
        # are exact, so they are taken along a random orthonormal basis
        g = residual_G(P, u, v)
        W = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
        errs = []
        for h in (1e-3, 1e-4):
            fd = np.array([(F(u + h * w[:n], v + h * w[n:]) - F(u - h * w[:n], v - h * w[n:]))
                           / (2 * h) for w in W.T])
            errs.append(np.max(np.abs(fd - W.T @ g)))
        order = np.log10(errs[0] / errs[1])
        if order < 1.9:
            failures.append(f"instance {k}: gradient FD order {order:.2f}")

        w = rng.standard_normal(2 * n)
        Hw = apply_H(P, u, v, w[:n], w[n:])
        errs = []
        for h in (1e-3, 1e-4):
            fd = (residual_G(P, u + h * w[:n], v + h * w[n:])
                  - residual_G(P, u - h * w[:n], v - h * w[n:])) / (2 * h)
            errs.append(np.linalg.norm(fd - Hw))
        order = np.log10(errs[0] / errs[1])
        if order < 1.9:
            failures.append(f"instance {k}: curvature FD order {order:.2f}")
    _report(4, "residual and curvature match finite differences (20 instances)",
            failures, t0, budget=5.0)


def test_criterion_5_random_pattern_instances_solve_and_certify():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = []
    for k in range(20):
        while True:
            mask = rng.random((30, 30)) < 0.2
            if not (mask.any(axis=0).all() and mask.any(axis=1).all()):
                continue
            A = rng.standard_normal((30, 30)) / np.sqrt(30)
            if np.linalg.svd(A, compute_uv=False)[-1] > 1e-3:
                break
        P = ProblemInstance(A, SparsityPattern(30, 30, np.argwhere(mask)))
        res = solve(P)
        if not res.converged:
            failures.append(f"instance {k}: not converged")
            continue
        B = A + as_dense(res.delta)
        s = np.linalg.svd(B, compute_uv=False)
        if s[-1] > 1e-9 * s[0]:
            failures.append(f"instance {k}: sigma_min ratio {s[-1] / s[0]:.2e}")
        D = as_dense(res.delta)
        proj_gap = np.linalg.norm(as_dense(P.structure.project(D)) - D)
        if proj_gap > 1e-12:
            failures.append(f"instance {k}: off structure by {proj_gap:.2e}")
        if abs(np.linalg.norm(res.v) - 1.0) > 1e-8:
            failures.append(f"instance {k}: |v| = {np.linalg.norm(res.v)}")
        cert = certify_solution(
            P, res, eps=1e-10 * np.linalg.norm(A, "fro") ** 2, tol_cert=1e-6)
        if not cert.passed:
            failures.append(f"instance {k}: certificate failed, grad {cert.grad_norm:.2e}")
    _report(5, "sparse pattern instances solve and certify (20 instances)",
            failures, t0, budget=60.0)


def test_criterion_6_oracle_matches_dense_least_squares():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    failures = []
    for k in range(20):
        n = int(rng.integers(4, 9))
        use_basis = k % 2 == 1
        if use_basis:
            dim = int(rng.integers(2, min(40, n * n) + 1))
            Q, _ = np.linalg.qr(rng.standard_normal((n * n, dim)))
            S = BasisStructure([Q[:, i].reshape(n, n) for i in range(dim)])
        else:
            while True:
                mask = rng.random((n, n)) < rng.uniform(0.3, 0.8)
                if mask.any(axis=0).all() and mask.any(axis=1).all() and mask.sum() <= 40:
                    break
            S = SparsityPattern(n, n, np.argwhere(mask))
        A = rng.standard_normal((n, n))
        P = ProblemInstance(A, S)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for eps in (1e-6, 1e-10 * np.linalg.norm(A, "fro") ** 2):
            ev = evaluate(P, v, eps)
            M = S.m_matrix(v)
            r = -A @ v
            p = M.shape[1]
            # normal equations (M^T M + eps I) delta = M^T r, solved in the
            # numerically stable stacked form since M^T M is rank deficient
            # whenever p > n
            delta_ref = np.linalg.lstsq(
                np.vstack([M, np.sqrt(eps) * np.eye(p)]),
                np.concatenate([r, np.zeros(p)]), rcond=None)[0]
            f_ref = delta_ref @ delta_ref + np.linalg.norm(M @ delta_ref - r) ** 2 / eps
            if abs(ev.f_value - f_ref) > 1e-8 * (1.0 + abs(f_ref)):
                failures.append(f"instance {k}: f {ev.f_value} vs {f_ref}")
            if np.linalg.norm(ev.delta - delta_ref) > 1e-8 * (1.0 + np.linalg.norm(delta_ref)):
                failures.append(f"instance {k}: delta coords mismatch")
    _report(6, "oracle equals dense regularized least squares (20 instances)",
            failures, t0, budget=5.0)


def _orani678_path():
    env = os.environ.get("SINGDIST_ORANI678")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(__file__).resolve().parent.parent / "data" / "orani678.mtx"


def test_criterion_7_orani678_economic_matrix():
    t0 = time.perf_counter()
    path = _orani678_path()
    if not path.exists():
        print(f"criterion 7 SKIP: orani678 not present at {path} "
              "(run scripts/fetch_orani678.py)", flush=True)
        pytest.skip("orani678.mtx not available")
    from singdist.mmio import read_matrix

    failures = []
    A = read_matrix(path)
    P = ProblemInstance(A, SparsityPattern.from_matrix(A))
    res = solve(P)
    if not res.converged:
        failures.append("not converged")
    if res.iterations > 10:
        failures.append(f"{res.iterations} Newton iterations")
    B = as_dense(A) + as_dense(res.delta)
    smin = np.linalg.svd(B, compute_uv=False)[-1]
    if smin > 1e-11:
        failures.append(f"sigma_min(A+Delta) = {smin:.2e}")
    _report(7, "orani678 pattern-structured distance", failures, t0, budget=60.0)


def test_criterion_8_multistart_finds_distinct_local_solutions():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(8)
    Q = scipy.stats.ortho_group.rvs(50, random_state=rng)
    mask = rng.random((50, 50)) < 0.5
    A = np.where(mask, Q, 0.0)
    S = SparsityPattern.from_matrix(A)
    P = ProblemInstance(A, S)

    starts = starting_values(P, 5)
    dists = []
    for sp in starts:
        if sp.skipped:
            failures.append(f"start {sp.index} skipped: {sp.reason}")
            continue
        res = line_search_newton(P, sp.u0, sp.v0, sp.index)
        if not res.converged:
            failures.append(f"start {sp.index}: not converged")
            continue
        dists.append(res.distance)
        B = A + as_dense(res.delta)
        s = np.linalg.svd(B, compute_uv=False)
        if s[-1] > 1e-9 * s[0]:
            failures.append(f"start {sp.index}: sigma_min ratio {s[-1] / s[0]:.2e}")
        D = as_dense(res.delta)
        if np.linalg.norm(as_dense(S.project(D)) - D) > 1e-12:
            failures.append(f"start {sp.index}: off structure")
        if abs(np.linalg.norm(res.v) - 1.0) > 1e-8:
            failures.append(f"start {sp.index}: v not unit")
        if not certify_solution(P, res).passed:
            failures.append(f"start {sp.index}: certificate failed")
    if len(dists) == 5:
        if np.min(np.diff(np.sort(dists))) <= 1e-6:
            failures.append(f"local distances not distinct: {sorted(dists)}")
        ref = [0.01120, 0.04288, 0.07500, 0.11521, 0.19016]
        if not np.allclose(sorted(dists), ref, rtol=1e-3):
            failures.append(f"distances {sorted(dists)} moved from {ref}")
        multi = solve(ProblemInstance(A, S, SolverOptions(multistart=5)))
        if abs(multi.distance - min(dists)) > 1e-12 * (1.0 + min(dists)):
            failures.append(f"multistart min {multi.distance} vs {min(dists)}")
    _report(8, "five starts reach five distinct certified solutions", failures, t0)
