"""Sylvester front-end: test pair, structure isometry, distances, cofactors."""

import numpy as np
import pytest

from singdist import (
    InputError,
    PolynomialPair,
    SolverOptions,
    build_sylvester,
    extract_cofactors,
    gcd_distance,
)
from singdist.gcd import make_test_polynomials
from singdist.structure import as_dense


def polyval_ascending(c, x):
    return sum(ci * x ** i for i, ci in enumerate(c))


def test_builtin_pair_roots_and_norms():
    pair = make_test_polynomials()
    assert pair.deg_p == 10 and pair.deg_q == 10
    assert abs(np.linalg.norm(pair.p_coeffs) - 1.0) <= 1e-14
    assert abs(np.linalg.norm(pair.q_coeffs) - 1.0) <= 1e-14
    # roots of p are (-1)^j j/2: -1/2, 1, -3/2, ..., 5
    for j in range(1, 11):
        root = (-1) ** j * j / 2.0
        assert abs(polyval_ascending(pair.p_coeffs, root)) <= 1e-10
    # q shifts each root by -10^-j; j=1 gives -0.6
    assert abs(polyval_ascending(pair.q_coeffs, -0.6)) <= 1e-10
    for j in range(1, 11):
        root = (-1) ** j * j / 2.0 - 10.0 ** (-j)
        assert abs(polyval_ascending(pair.q_coeffs, root)) <= 1e-8


def test_pair_validation():
    with pytest.raises(InputError):
        PolynomialPair.from_coefficients([1.0], [1.0, 2.0])  # degree 0
    with pytest.raises(InputError):
        PolynomialPair.from_coefficients([1.0, 0.0], [1.0, 2.0])  # zero leading
    with pytest.raises(InputError):
        PolynomialPair.from_coefficients([1.0, np.inf], [1.0, 2.0])


def test_sylvester_shape_and_scaling():
    pair = make_test_polynomials()
    inst = build_sylvester(pair, 9)
    # two columns per block; rows hold the full convolution length
    assert inst.matrix.shape == (12, 4)
    assert inst.col_split == 2
    # first column of the p block is p itself scaled by 1/sqrt(deg q - d + 1)
    assert np.allclose(inst.matrix[:11, 0], pair.p_coeffs / np.sqrt(2.0), atol=1e-15)
    assert inst.matrix[11, 0] == 0.0
    assert inst.structure.dim == 22


def test_sylvester_blocks_are_convolution_matrices():
    # column j of a block holds the coefficients shifted down by j rows
    pair = make_test_polynomials()
    for d in (10, 8, 4):  # 1, 3 and 7 columns per block
        inst = build_sylvester(pair, d)
        k = inst.col_split
        for coeffs, block, scale in ((pair.p_coeffs, inst.matrix[:, :k], inst.scale_p),
                                     (pair.q_coeffs, inst.matrix[:, k:], inst.scale_q)):
            T = np.zeros((coeffs.size + k - 1, k))
            for j in range(k):
                T[j : j + coeffs.size, j] = coeffs
            assert np.array_equal(block, T * scale)


def test_sylvester_degree_range():
    pair = make_test_polynomials()
    with pytest.raises(InputError):
        build_sylvester(pair, 0)
    with pytest.raises(InputError):
        build_sylvester(pair, 11)


def test_sylvester_basis_orthonormal_and_isometric():
    pair = make_test_polynomials()
    for d in (9, 6):
        inst = build_sylvester(pair, d)
        S = inst.structure
        G = np.array([
            [np.vdot(as_dense(S.from_coefficients(np.eye(22)[i])),
                     as_dense(S.from_coefficients(np.eye(22)[j])))
             for j in range(22)] for i in range(22)
        ])
        assert np.allclose(G, np.eye(22), atol=1e-13)
        rng = np.random.default_rng(50)
        for trial in range(5):
            c = rng.standard_normal(22)
            X = as_dense(S.from_coefficients(c))
            assert abs(np.linalg.norm(X) - np.linalg.norm(c)) <= 1e-13


def test_exact_gcd_pair_is_singular():
    # q = p * (x - 1): at d = deg p the Sylvester matrix is rank deficient
    rng = np.random.default_rng(51)
    p = rng.standard_normal(5)  # degree 4
    p[-1] = 1.0
    q = np.convolve(p, np.array([-1.0, 1.0]))
    pair = PolynomialPair.from_coefficients(p, q)
    inst = build_sylvester(pair, 4)
    s = np.linalg.svd(inst.matrix, compute_uv=False)
    assert s[-1] <= 1e-12 * s[0]
    res = gcd_distance(pair, 4)
    assert res.distance <= 1e-12
    ext = extract_cofactors(inst, res)
    # recovered common factor is p up to scale
    g = ext.g / np.linalg.norm(ext.g)
    p_unit = pair.p_coeffs / np.linalg.norm(pair.p_coeffs)
    if g[-1] * p_unit[-1] < 0:
        g = -g
    assert np.linalg.norm(g - p_unit) <= 1e-6
    assert ext.residual <= 1e-8


def test_gcd_distance_d9():
    res = gcd_distance(make_test_polynomials(), 9)
    assert res.converged
    assert abs(res.distance - 3.9964e-3) <= 5e-3 * 3.9964e-3
    assert res.reliable
    # delta coordinates reproduce the perturbed coefficients
    assert np.allclose(res.p_perturbed - res.delta_p,
                       make_test_polynomials().p_coeffs, atol=1e-15)


def test_gcd_distance_reports_unconverged_best_effort():
    # no start converges within one Newton step; the best one is still reported
    res = gcd_distance(make_test_polynomials(), 7, SolverOptions(max_newton_iters=1))
    assert not res.converged and not res.result.converged
    assert res.result.iterations == 1
    assert res.warning == "solver did not converge"


def test_unconverged_gcd_distance_carries_its_stop_and_sigmas():
    # solve returns the unconverged best start, so its reason and the
    # certificate sigmas of the perturbed Sylvester matrix reach the report
    res = gcd_distance(make_test_polynomials(), 7, SolverOptions(max_newton_iters=1, multistart=2))
    assert not res.converged
    assert res.result.message == "iteration budget 1 exhausted"
    assert len(res.result.starts) == 2 and not any(s.converged for s in res.result.starts)
    assert res.result.sigma_error == ""
    assert 0.0 <= res.result.sigma_min <= res.result.sigma_max
    assert res.distance == res.result.distance


def test_gcd_distance_identical_pair_unreliable():
    pair = make_test_polynomials()
    same = PolynomialPair.from_coefficients(pair.p_coeffs, pair.p_coeffs)
    res = gcd_distance(same, 10)
    assert res.distance <= 1e-12
    assert not res.reliable
    assert "machine-precision" in res.warning


def test_cofactor_reconstruction_d9():
    pair = make_test_polynomials()
    res = gcd_distance(pair, 9)
    inst = build_sylvester(pair, 9)
    ext = extract_cofactors(inst, res)
    assert ext.residual <= 1e-8
    gu = np.convolve(ext.g, ext.u_cof)
    gw = np.convolve(ext.g, ext.w_cof)
    assert np.linalg.norm(res.p_perturbed - gu) <= 1e-8
    assert np.linalg.norm(res.q_perturbed - gw) <= 1e-8
    # the coefficient metric of the reconstruction equals the reported distance
    metric = np.hypot(np.linalg.norm(pair.p_coeffs - gu), np.linalg.norm(pair.q_coeffs - gw))
    assert abs(metric - res.distance) <= 1e-6
    assert max(np.linalg.norm(ext.u_cof), np.linalg.norm(ext.w_cof)) == pytest.approx(1.0)


def test_gcd_distance_d6_converges_within_default_budget():
    # the nearly degenerate d = 6 root needs no budget of its own
    res = gcd_distance(make_test_polynomials(), 6)
    assert res.converged
    assert res.result.iterations <= SolverOptions().max_newton_iters
    assert abs(res.distance - 1.829296e-7) <= 5e-2 * 1.829296e-7
