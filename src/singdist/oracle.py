"""Independent variable-projection cross-check for solver results.

For a fixed unit vector v, the smallest structured perturbation making v a
kernel vector of A + Delta has a closed form: with M = M(v) and r = -A v,

    f_eps(v) = r^T (M M^T + eps I)^{-1} r,
    u        = (M M^T + eps I)^{-1} r,
    Delta    = project_rank1(u, v),

where eps > 0 regularizes the rank drops of M M^T. At a local minimizer of
the distance problem the Euclidean gradient (A + Delta)^T u of f_eps
vanishes, so evaluating this formula at a solver's v gives an independent
certificate: the gradient must be tiny and f_eps must match the squared
distance. This module shares no code path with the Newton solver beyond the
structure operators themselves.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .errors import StructureError
from .solver import ProblemInstance

__all__ = ["OracleEval", "CertificationReport", "evaluate", "certify_solution"]

#: default certification regularization, relative to ||A||_F^2. eps enters
#: u = r / (k1 + eps) as a relative error eps / k1, which biases the gradient
#: test in proportion to the distance: at 1e-10 a 90 x 60 FullStructure
#: solve at distance 2.15 FAILed with |grad| 2.5e-6, at 1e-14 it reads 2.5e-10
DEFAULT_EPS_REL = 1e-14

#: default certification tolerance on the gradient and the value gap
DEFAULT_TOL_CERT = 1e-6

#: how far v may deviate from unit norm before evaluate rejects it
UNIT_NORM_TOL = 1e-10


@dataclasses.dataclass
class OracleEval:
    """Closed-form inner solution at a fixed v.

    ``delta`` holds the basis coordinates of ``Delta`` (equal to M^T u), and
    ``min_gram_diag`` the smallest diagonal entry of M M^T, whose size
    relative to eps signals a nearby rank drop of the unregularized problem.
    """

    f_value: float
    u: np.ndarray
    delta: np.ndarray
    grad_v: np.ndarray
    eps: float
    min_gram_diag: float


def evaluate(P: ProblemInstance, v, eps: float) -> OracleEval:
    """Evaluate f_eps, the optimal structured Delta, and the gradient at v.

    Requires a finite v with ||v|| = 1 (tolerance 1e-10) and a finite
    eps > 0. Structures with ``diagonal_gram`` (every sparsity pattern, the
    full one included) have diagonal M M^T and are solved entrywise; a
    general basis assembles M densely and solves the regularized m x m Gram
    system, a dense m x m array whatever the size of the basis: on a 3000^2
    banded basis it raises peak RSS from 70 to 356 MB (ROADMAP item 1).
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    v = np.asarray(v, dtype=float)
    if v.shape != (P.n,):
        raise StructureError(f"v must have length {P.n}")
    if not np.isfinite(v).all():
        raise StructureError("v must be finite")
    if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
        raise StructureError("v must have unit norm")
    S = P.structure
    r = -(P.A @ v)
    if S.diagonal_gram:
        k1, _ = S.gram_diagonals(np.zeros(P.m), v)
        u = r / (k1 + eps)
        min_gram = float(k1.min())
    else:
        Mm = S.m_matrix(v)
        G = Mm @ Mm.T
        min_gram = float(np.diag(G).min())
        u = scipy.linalg.solve(G + eps * np.eye(P.m), r, assume_a="pos")
    f_value = float(r @ u)
    delta_coords = S.apply_mt(v, u)
    grad_v = P.A.T @ u + S.apply_n(u, delta_coords)
    return OracleEval(
        f_value=f_value,
        u=u,
        delta=delta_coords,
        grad_v=grad_v,
        eps=float(eps),
        min_gram_diag=min_gram,
    )


@dataclasses.dataclass
class CertificationReport:
    """Pass/fail certificate with the measured quantities."""

    passed: bool
    grad_norm: float
    f_value: float
    distance: float
    value_gap: float
    eps: float
    tol_cert: float
    min_gram_diag: float
    rank_drop: bool

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"certification {verdict}: |grad|={self.grad_norm:.3e}, "
            f"|f - dist^2|/(1+dist^2)={self.value_gap:.3e}, tol={self.tol_cert:.1e}"
        )


def certify_solution(P: ProblemInstance, result, eps: float | None = None,
                     tol_cert: float = DEFAULT_TOL_CERT) -> CertificationReport:
    """Certify a solve result by evaluating the oracle at its v.

    Checks ``||grad_v|| <= tol_cert`` and
    ``|f_eps - distance^2| <= tol_cert (1 + distance^2)``. Report-only: a
    failed certificate is returned, not raised. ``rank_drop`` flags
    min diag(M M^T) < eps or a basis of dimension p < m (M M^T then has
    rank at most p < m), where the unregularized objective has a removable
    discontinuity and the gradient test loses meaning. ``eps`` and
    ``tol_cert`` must be positive and finite: an infinite eps zeroes u and
    so the gradient, and an infinite tolerance passes anything.
    """
    if not 0 < tol_cert < math.inf:
        raise ValueError("tol_cert must be positive and finite")
    if eps is None:
        eps = DEFAULT_EPS_REL * max(P.norm_fro, 1e-300) ** 2
    v = np.asarray(result.v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise StructureError("result has v = 0; nothing to certify")
    ev = evaluate(P, v / nv, eps)
    distance = float(result.distance)
    grad_norm = float(np.linalg.norm(ev.grad_v))
    value_gap = abs(ev.f_value - distance**2) / (1.0 + distance**2)
    passed = bool(grad_norm <= tol_cert and value_gap <= tol_cert)
    return CertificationReport(
        passed=passed,
        grad_norm=grad_norm,
        f_value=ev.f_value,
        distance=distance,
        value_gap=float(value_gap),
        eps=float(eps),
        tol_cert=float(tol_cert),
        min_gram_diag=ev.min_gram_diag,
        rank_drop=bool(ev.min_gram_diag < eps or P.structure.dim < P.m),
    )
