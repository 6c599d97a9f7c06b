"""Approximate polynomial GCD via structured Sylvester-matrix singularity.

Two polynomials p, q have a GCD of degree at least d exactly when their
d-truncated Sylvester matrix is rank deficient. The smallest coefficient
perturbation (in the Euclidean norm on stacked coefficients) that creates a
degree-d GCD is therefore a structured distance-to-rank-deficiency problem:
the perturbation structure is spanned by one scaled Toeplitz-diagonal
indicator matrix per polynomial coefficient, and the scaling makes the basis
orthonormal, so the Frobenius distance of the matrix problem equals the
coefficient distance ||(p_tilde - p, q_tilde - q)||_2.

Coefficient vectors are ascending (constant term first) throughout.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import ExtractionError, InputError
from .solver import ProblemInstance, SolveResult, SolverOptions, solve
from .structure import BasisStructure

__all__ = [
    "PolynomialPair",
    "SylvesterInstance",
    "GcdResult",
    "CofactorExtraction",
    "make_test_polynomials",
    "build_sylvester",
    "gcd_distance",
    "extract_cofactors",
]

#: squared distances below this are at machine-precision scale and flagged
RELIABILITY_FLOOR = 1e-15


@dataclasses.dataclass
class PolynomialPair:
    """A pair of real polynomials with unit-norm coefficient vectors."""

    p_coeffs: np.ndarray
    q_coeffs: np.ndarray

    @classmethod
    def from_coefficients(cls, p, q):
        """Validate and unit-normalize ascending coefficient vectors."""
        p = np.asarray(p, dtype=float).ravel()
        q = np.asarray(q, dtype=float).ravel()
        for name, c in (("p", p), ("q", q)):
            if c.size < 2:
                raise InputError(f"{name} must have degree at least 1")
            if not np.all(np.isfinite(c)):
                raise InputError(f"{name} has non-finite coefficients")
            if c[-1] == 0:
                raise InputError(f"{name} has zero leading coefficient")
        return cls(p / np.linalg.norm(p), q / np.linalg.norm(q))

    @property
    def deg_p(self):
        return self.p_coeffs.size - 1

    @property
    def deg_q(self):
        return self.q_coeffs.size - 1


def _poly_from_roots(roots):
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0]))
    return c


def make_test_polynomials() -> PolynomialPair:
    """The standard degree-10 test pair with a near-GCD of high degree.

    p has roots a_j = (-1)^j j/2 for j = 1..10 and q has the same roots
    shifted by -10^(-j), so the pair is close to pairs with a common factor
    of any degree up to 10, at distances shrinking rapidly with the degree.
    """
    j = np.arange(1, 11)
    roots_p = (-1.0) ** j * j / 2.0
    roots_q = roots_p - 10.0 ** (-j.astype(float))
    return PolynomialPair.from_coefficients(_poly_from_roots(roots_p), _poly_from_roots(roots_q))


@dataclasses.dataclass
class SylvesterInstance:
    """Scaled d-truncated Sylvester matrix plus its perturbation structure.

    The matrix is [T_p / sqrt(c_w) , T_q / sqrt(c_u)] with T_p, T_q the
    convolution (Toeplitz) blocks of p and q, c_w = deg q - d + 1 columns in
    the first block and c_u = deg p - d + 1 in the second; rank deficiency
    is equivalent to a common factor of degree >= d. One orthonormal basis
    matrix per polynomial coefficient spans the admissible perturbations.
    """

    matrix: np.ndarray
    structure: BasisStructure
    pair: PolynomialPair
    d: int
    col_split: int  # columns in the p block
    scale_p: float  # entry scale of the p block, 1/sqrt(deg q - d + 1)
    scale_q: float


def build_sylvester(pair: PolynomialPair, d: int) -> SylvesterInstance:
    """Assemble the scaled Sylvester matrix and perturbation basis for degree d."""
    mdeg, ndeg = pair.deg_p, pair.deg_q
    if not 1 <= d <= min(mdeg, ndeg):
        raise InputError(f"d={d} out of range 1..{min(mdeg, ndeg)}")
    cols_p = ndeg - d + 1
    cols_q = mdeg - d + 1
    rows = mdeg + ndeg - d + 1
    scale_p = 1.0 / np.sqrt(cols_p)
    scale_q = 1.0 / np.sqrt(cols_q)
    A = np.hstack([
        scipy.linalg.convolution_matrix(pair.p_coeffs, cols_p) * scale_p,
        scipy.linalg.convolution_matrix(pair.q_coeffs, cols_q) * scale_q,
    ])
    assert A.shape == (rows, cols_p + cols_q)
    mats = []
    shape = A.shape
    for i in range(mdeg + 1):
        # Perturbing p_i touches entries (i + j, j) across the p block.
        jj = np.arange(cols_p)
        mats.append(sp.coo_array((np.full(cols_p, scale_p), (i + jj, jj)), shape=shape))
    for i in range(ndeg + 1):
        jj = np.arange(cols_q)
        mats.append(sp.coo_array((np.full(cols_q, scale_q), (i + jj, cols_p + jj)), shape=shape))
    structure = BasisStructure(mats)
    return SylvesterInstance(
        matrix=A, structure=structure, pair=pair, d=d,
        col_split=cols_p, scale_p=scale_p, scale_q=scale_q,
    )


@dataclasses.dataclass
class GcdResult:
    """Distance to the nearest pair with a degree-d GCD, plus the witnesses."""

    d: int
    distance: float
    converged: bool
    p_perturbed: np.ndarray
    q_perturbed: np.ndarray
    delta_p: np.ndarray
    delta_q: np.ndarray
    kernel: np.ndarray
    result: SolveResult
    reliable: bool
    warning: str = ""


def gcd_distance(pair: PolynomialPair, d: int, options: SolverOptions | None = None) -> GcdResult:
    """Smallest coefficient perturbation giving p, q a GCD of degree d.

    Runs the Newton solver on the Sylvester instance. A non-converged best
    effort, as ``solve`` returns it, is still reported (with
    ``converged=False`` and a warning), since distances near machine
    precision legitimately defeat the residual test; ``reliable`` is False
    whenever distance^2 < 1e-15. ``AllStartsFailed`` from ``solve``, when
    no start could run, propagates.
    """
    inst = build_sylvester(pair, d)
    P = ProblemInstance(inst.matrix, inst.structure, options)
    result = solve(P)
    # Delta's coordinates M(v)^T u, the vector every residual of the solve used
    coords = inst.structure.apply_mt(result.v, result.u)
    delta_p = coords[: pair.deg_p + 1]
    delta_q = coords[pair.deg_p + 1 :]
    distance = float(result.distance)
    reliable = distance**2 >= RELIABILITY_FLOOR
    warning = ""
    if not reliable:
        warning = (
            "distance is below the machine-precision floor (distance^2 < 1e-15); "
            "the value is reported without an accuracy claim"
        )
    if not result.converged:
        warning = (warning + "; " if warning else "") + "solver did not converge"
    return GcdResult(
        d=d,
        distance=distance,
        converged=result.converged,
        p_perturbed=pair.p_coeffs + delta_p,
        q_perturbed=pair.q_coeffs + delta_q,
        delta_p=delta_p,
        delta_q=delta_q,
        kernel=result.v,
        result=result,
        reliable=reliable,
        warning=warning,
    )


@dataclasses.dataclass
class CofactorExtraction:
    """Common factor g and cofactors with the reconstruction residual."""

    g: np.ndarray
    u_cof: np.ndarray
    w_cof: np.ndarray
    residual: float
    reliable: bool
    warning: str = ""


def extract_cofactors(instance: SylvesterInstance, gcd_result: GcdResult) -> CofactorExtraction:
    """Reconstruct polynomials g, u, w with p_tilde = g u and q_tilde = g w.

    The kernel vector of the perturbed Sylvester matrix stacks the scaled
    cofactor coefficients: its p-block is proportional to w and its q-block
    to -u. The common factor g is fitted by least squares on the joint
    convolution system [C(u); C(w)] g = [p_tilde; q_tilde], and the reported
    residual is the Euclidean misfit of that reconstruction. Results are
    flagged unreliable at machine-precision distances, where the kernel
    vector carries no usable signal.
    """
    pair = instance.pair
    v = np.asarray(gcd_result.kernel, dtype=float)
    if v.size != instance.matrix.shape[1]:
        raise ExtractionError("kernel vector does not match the Sylvester column count")
    w_raw = v[: instance.col_split] * instance.scale_p
    u_raw = -v[instance.col_split :] * instance.scale_q
    norm_u, norm_w = np.linalg.norm(u_raw), np.linalg.norm(w_raw)
    if max(norm_u, norm_w) < 1e-10:
        raise ExtractionError("kernel cofactor blocks vanish; no extraction possible")
    scale = 1.0 / (norm_u if norm_u >= norm_w else norm_w)
    u_cof = u_raw * scale
    w_cof = w_raw * scale
    d = instance.d
    C = np.vstack([scipy.linalg.convolution_matrix(u_cof, d + 1),
                   scipy.linalg.convolution_matrix(w_cof, d + 1)])
    rhs = np.concatenate([gcd_result.p_perturbed, gcd_result.q_perturbed])
    g, *_ = np.linalg.lstsq(C, rhs, rcond=None)
    residual = float(np.linalg.norm(C @ g - rhs))
    reliable = gcd_result.reliable
    warning = "" if reliable else "distance at machine-precision scale; extraction unreliable"
    return CofactorExtraction(
        g=g, u_cof=u_cof, w_cof=w_cof, residual=residual,
        reliable=reliable, warning=warning,
    )
