"""Newton solver for the structured distance to singularity.

The distance from a nonsingular A to the nearest singular matrix A + Delta
with Delta constrained to a linear structure S is computed through the
stationarity system in two vectors,

    G(u, v) = [ (A + Delta) v ; (A + Delta)^T u ] = 0,
    Delta = project_rank1(S, u, v),

whose roots give structured singular perturbations. Delta, and so every
root, is invariant under the gauge (u, v) -> (u s, v / s); the roots form
curves, and at each the Jacobian H of G is singular along (u, -v). Each
Newton step fixes the gauge with a border (H. B. Keller's bordering method),

    [[H, c], [c^T, 0]] [du; dv; lam] = [-G; 0],   c = [0; v],

which asks v . dv = 0 and is nonsingular at any root isolated up to the
gauge, because c^T (u, -v) = -||v||^2 != 0; ``bordered_jacobian`` builds
it once per step, the one place H is built. Every trial point is rescaled
to ||v|| = 1 through the gauge, and a backtracking line search halves the
step until ||G|| there strictly decreases.

Starting values come from the smallest singular triplets of A: for the k-th
triplet (sigma, u_k, v_k) the initial pair is v_0 = v_k and
u_0 = -sigma_hat u_k with sigma_hat = sigma / ||project_rank1(u_k, v_k)||^2,
which makes A + Delta_0 orthogonal to the rank-1 direction u_k v_k^T.
Multi-start runs Newton from several triplets and keeps the converged result
of smallest ||Delta||, or, when none converged, the run of smallest ||G||.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import time
import warnings

import numpy as np

from . import linalg
from .errors import AllStartsFailed, DimensionMismatchError, StructureError
from .structure import LinearStructure, SparsityPattern, as_dense

__all__ = [
    "SolverOptions",
    "ProblemInstance",
    "SolverState",
    "SolveResult",
    "IterationRecord",
    "StartingPoint",
    "StartSummary",
    "residual_G",
    "residual_G_beta",
    "bordered_jacobian",
    "newton_step",
    "line_search_newton",
    "starting_values",
    "solve",
]

#: sigma_min(A) / ||A||_F at or below which the input counts as already singular
SINGULAR_INPUT_RTOL = 1e-14

#: starts whose projected rank-1 direction has norm below this are skipped
START_PROJECTION_TOL = 1e-14

#: step halvings tried per Newton iteration before the run stops without descent
MAX_BACKTRACKS = 40

#: problems with at most this many total unknowns (m + n), dense or sparse,
#: assemble H densely and take the full SVD for their triplets and
#: certificate; larger square ones are LU-factored once. It is the measured
#: crossover: a whole solve on the Krylov path beats the dense one from
#: m + n = 300 on for sparse random (5 entries per row), 7-diagonal banded
#: and dense 40%-pattern input, and loses at m + n = 200 on banded input
#: (bordered Newton, one GCROT solve from zero per step, 2 BLAS threads;
#: BENCH_dense_threshold.json). Smaller and rectangular problems keep the
#: dense solve and its least-squares fallback.
DENSE_THRESHOLD = 300

#: forcing term of the Krylov path: the true relative residual every inner
#: GCROT solve reaches; tighter values cost time, not accuracy
INNER_TOL = 1e-2


@dataclasses.dataclass
class SolverOptions:
    """Tuning knobs for the Newton solve.

    ``grad_tol`` defaults to ``None``, meaning 1e-12 ||A||_F, resolved per
    instance; a given value must be positive and finite. Which route a solve
    takes is decided by whether A has an LU, not by an option: see
    ``ProblemInstance.factor`` and ``DENSE_THRESHOLD``.
    The Krylov forcing term is the constant ``INNER_TOL``.
    """

    grad_tol: float | None = None
    max_newton_iters: int = 100
    multistart: int = 1

    def __post_init__(self):
        # True is an Integral and 0 < True < inf, yet a flag is no budget or tolerance
        flag = (bool, np.bool_)
        if self.grad_tol is not None and (isinstance(self.grad_tol, flag)
                                          or not 0 < self.grad_tol < math.inf):
            raise ValueError("grad_tol must be positive and finite")
        for name in ("max_newton_iters", "multistart"):
            value = getattr(self, name)
            if isinstance(value, flag) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.max_newton_iters < 1:
            raise ValueError("iteration budgets must be positive")
        if self.multistart < 1:
            raise ValueError("multistart must be at least 1")


class ProblemInstance:
    """A matrix together with its structure and solver options.

    ``structure`` defaults to the sparsity pattern of A itself, the natural
    setting for preserving the nonzero structure of a sparse matrix. A may
    be tall, in which case the computed distance is to the nearest
    rank-deficient matrix; u and v then have the row and column dimensions.
    A wide A (m < n), whose own kernel vectors are roots with u = 0, is
    refused: its transpose, with the transposed structure, is not.
    An A whose sum of squares overflows, or underflows below the normal
    double range while A is nonzero, is refused with ``StructureError``.
    A is held once: A^T products use its transpose view, and each Newton
    step reads it once in ``bordered_jacobian``.
    """

    def __init__(self, A, structure: LinearStructure | None = None, options: SolverOptions | None = None):
        self.A = linalg.validate_matrix(A)
        if self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise DimensionMismatchError("matrix must be nonempty")
        self.m, self.n = self.A.shape
        if self.m < self.n:
            raise DimensionMismatchError(f"a wide {self.m} x {self.n} matrix is not supported: "
                                         f"solve its {self.n} x {self.m} transpose")
        with np.errstate(over="ignore"):
            self.norm_fro = linalg.frobenius_norm(self.A)
        # a nonzero A's sum of squares, norm_fro^2, must be finite and normal
        if not math.sqrt(np.finfo(float).tiny) <= self.norm_fro < math.inf:
            scale = float(abs(self.A).max())
            if scale > 0:
                raise StructureError(f"A is out of scale: its largest entry is {scale:.3e}, and "
                                     "the sum of its squares leaves the normal double range; "
                                     "rescale A")
        if structure is None:
            structure = SparsityPattern.from_matrix(self.A)
        if structure.shape != self.A.shape:
            raise DimensionMismatchError(
                f"structure shape {structure.shape} does not match matrix shape {self.A.shape}"
            )
        self.structure = structure
        self.options = options if options is not None else SolverOptions()

    @property
    def grad_tol(self):
        if self.options.grad_tol is not None:
            return self.options.grad_tol
        return 1e-12 * self.norm_fro if self.norm_fro > 0 else 1e-12

    @functools.cached_property
    def factor(self):
        """The LU of A: the solve ``factor(b, trans=False)`` that ``linalg.factorize`` returns.

        The triplets and the Newton preconditioner share it. Built on first
        use for a square A, dense or sparse, above ``DENSE_THRESHOLD``
        unknowns (m + n); None at or below it, and when A is rectangular or
        exactly singular. Whether it exists is the one route decision of a
        solve. Without it every phase is dense: full-SVD triplets, the
        dense Newton solve and exact certificate sigmas, at most
        ``linalg.DENSE_FALLBACK_MAX_N`` unknowns (``solve`` refuses more).
        With it every phase is Krylov: Lanczos triplets on A^-1 A^-T, GCROT
        Newton steps preconditioned through this LU, and the residual bound
        for sigma_min(A + Delta).
        """
        if self.m != self.n or self.m + self.n <= DENSE_THRESHOLD:
            return None
        return linalg.factorize(self.A)


def residual_G(P: ProblemInstance, u, v):
    """Stacked residual [(A+Delta)v; (A+Delta)^T u], Delta = project_rank1(u, v).

    Delta's coordinates d = M(v)^T u = N(u)^T v serve both halves, through
    Delta v = M d and Delta^T u = N d, so no matrix is materialized.
    """
    S = P.structure
    d = S.apply_mt(v, u)
    r1 = P.A @ v + S.apply_m(v, d)
    r2 = P.A.T @ u + S.apply_n(u, d)
    return np.concatenate([r1, r2])


def residual_G_beta(P: ProblemInstance, u, v):
    """The gauge representative (u s, v / s), s = ||v||, and ``residual_G`` there.

    Returns ``(u, v, G)`` with ||v|| = 1. A point whose v is zero or whose
    entries are not finite has no representative; its G is NaN, which no
    line search accepts. The name is kept for the benchmark's
    ``solver.residual`` hook (``perfbench/tracing.py``) until ROADMAP item 10
    renames both.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = float(np.linalg.norm(v))
    if not (0.0 < s < math.inf and np.isfinite(u).all()):
        return u, v, np.full(P.m + P.n, math.nan)
    u, v = u * s, v / s
    return u, v, residual_G(P, u, v)


def bordered_jacobian(P: ProblemInstance, u, v):
    """The bordered Jacobian K = [[H, c], [c^T, 0]] of G at (u, v), c = [0; v].

    H = [[M M^T, A + Delta + M N^T], [(A + Delta + M N^T)^T, N N^T]] with
    M = M(v), N = N(u) and Delta = ``project_rank1(u, v)``; K is symmetric.
    On the dense route (A without LU, ``P.factor`` is None) K is one
    ndarray filled in place: A is copied into the off-diagonal block; a
    pattern, whose M N^T is Delta, adds 2 Delta at its entries (from
    ``apply_mt``) and sets the diagonal Gram blocks (``gram_diagonals``);
    a basis adds Delta, then M N^T, and writes M M^T and N N^T, all from
    one ``m_matrix`` and one ``n_matrix``. The block is then mirrored.
    On the Krylov route (A with LU) it is x -> K x, applied block by
    block so that memory stays linear in A: B x2 and B^T x1, with
    B = A + ``h_offdiag`` (A + Delta + M N^T) for a pattern plus its
    diagonal Gram blocks, and B = A + Delta for a basis plus the maps,
    H [x1; x2] = [B x2 + M w; B^T x1 + N w] with w = M^T x1 + N^T x2.
    """
    S = P.structure
    m, N = P.m, P.m + P.n
    if P.factor is None:
        K = np.zeros((N + 1, N + 1))
        K[:m, m:N] = as_dense(P.A)
        if S.diagonal_gram:
            K[S.rows, m + S.cols] += 2.0 * S.apply_mt(v, u)
            K[np.arange(N), np.arange(N)] = np.concatenate(S.gram_diagonals(u, v))
        else:
            Mm, Nm = S.m_matrix(v), S.n_matrix(u)
            K[:m, m:N] += as_dense(S.project_rank1(u, v))
            K[:m, m:N] += Mm @ Nm.T
            K[:m, :m], K[m:N, m:N] = Mm @ Mm.T, Nm @ Nm.T
        K[m:N, :m] = K[:m, m:N].T
        K[m:N, N] = K[N, m:N] = v
        return K

    if S.diagonal_gram:
        g1, g2 = S.gram_diagonals(u, v)
        B = P.A + S.h_offdiag(u, v)
    else:
        B = P.A + S.project_rank1(u, v)
    Bt = B.T

    def K(x):
        x1, x2 = x[:m], x[m:N]
        if S.diagonal_gram:
            y1, y2 = g1 * x1, g2 * x2
        else:
            w = S.apply_mt(v, x1) + S.apply_nt(u, x2)
            y1, y2 = S.apply_m(v, w), S.apply_n(u, w)
        y1 += B @ x2
        y2 += Bt @ x1 + x[N] * v
        return np.concatenate([y1, y2, [v @ x2]])
    return K


@dataclasses.dataclass
class SolverState:
    """One Newton iterate, with ||v|| = 1, and its cached residual."""

    u: np.ndarray
    v: np.ndarray
    residual: np.ndarray
    residual_norm: float

    @classmethod
    def at(cls, P: ProblemInstance, u, v):
        """The state at the gauge representative of (u, v) (see ``residual_G_beta``)."""
        u, v, g = residual_G_beta(P, u, v)
        return cls(u=u, v=v, residual=g, residual_norm=float(np.linalg.norm(g)))


def newton_step(P: ProblemInstance, state: SolverState):
    """Solve the bordered Newton system at the state; returns (du, dv, inner).

    The system is [[H, c], [c^T, 0]] [du; dv; lam] = [-G; 0] with
    c = [0; v]: the border row asks v . dv = 0, which removes the gauge
    direction (u, -v) from the step, and lam is discarded. Both paths
    build the bordered matrix once per step through ``bordered_jacobian``.
    An A without LU (``P.factor`` is None) takes the dense route: the
    array it fills is solved by LAPACK's LU (``linalg.solve_dense``) or its
    minimum-norm fallback (``inner`` is None). An A with LU applies it
    block by block, one product with B = A + Delta (a pattern's with its
    M N^T) and one with B^T per application (a basis leaves M N^T to the
    maps), in GCROT to a true relative residual
    of at most ``INNER_TOL``, starting from zero and right-preconditioned
    by the inverse of blockdiag([[0, A], [A^T, 0]], 1) (H's leading part
    while u and Delta are small), which maps
    [x1; x2; x_N] to [A^-T x2; A^-1 x1; x_N] through two solves with that
    LU. ``inner`` is the ``linalg.IterativeSolve`` with its iterations,
    achieved residual and convergence. The step depends on P and the state
    alone.
    """
    m, N = P.m, P.m + P.n
    K = bordered_jacobian(P, state.u, state.v)
    rhs = np.append(-state.residual, 0.0)
    if P.factor is None:
        x = linalg.solve_dense(K, rhs).x
        return x[:m], x[m:N], None

    def precond(x):
        return np.concatenate([P.factor(x[m:N], trans=True), P.factor(x[:m]), x[N:]])

    it = linalg.solve_symmetric_iterative(K, rhs, INNER_TOL, precond)
    return it.x[:m], it.x[m:N], it


@dataclasses.dataclass
class IterationRecord:
    """Per accepted iteration: residual after the step and step diagnostics.

    ``inner_residual`` is the true relative residual the Krylov solve of the
    step achieved (requested: ``INNER_TOL``); NaN on the dense path and at
    iteration 0.
    """

    iteration: int
    residual_norm: float
    alpha: float
    backtracks: int
    inner_iterations: int
    inner_converged: bool = True
    inner_residual: float = math.nan


@dataclasses.dataclass
class StartSummary:
    """Condensed per-start outcome carried by multi-start results."""

    index: int
    sigma: float
    sigma_hat: float
    skipped: bool = False
    reason: str = ""
    converged: bool = False
    distance: float = math.nan
    grad_norm: float = math.nan
    iterations: int = 0
    backtracks: int = 0
    inner_iterations: int = 0


@dataclasses.dataclass
class SolveResult:
    """Outcome of a Newton run (or of the best start under multi-start).

    ``converged`` is True only when ``message`` is "converged" (or names a
    singular input); otherwise ``message`` says why the run stopped.
    ``sigma_min`` and ``sigma_max`` of A + Delta are set by ``solve`` on
    every result it returns, converged or not, a singular input's included.
    For an A without LU (``ProblemInstance.factor`` is None) both are
    exact, from a full SVD.
    For an A with LU, dense or sparse, ``sigma_min`` is the residual upper
    bound ||(A + Delta) v|| (or its left counterpart, whichever is smaller),
    read from ``residual_av`` and ``residual_atu``, which certifies
    singularity without factoring A + Delta, and ``sigma_max`` is None
    (``linalg.spectral_norm`` gives it on demand).
    ``sigma_error`` can only come from the dense SVD.
    """

    converged: bool
    distance: float
    delta: object
    u: np.ndarray
    v: np.ndarray
    residual_av: float
    residual_atu: float
    grad_norm: float
    iterations: int
    trace: list
    message: str = ""
    start_index: int = 0
    sigma_min: float | None = None
    sigma_max: float | None = None
    starts: list = dataclasses.field(default_factory=list)
    wall_time: float = 0.0
    sigma_error: str = ""

    @property
    def backtracks(self):
        return sum(r.backtracks for r in self.trace)

    @property
    def inner_iterations(self):
        return sum(r.inner_iterations for r in self.trace)


def _finalize(P: ProblemInstance, state: SolverState, converged, message, trace, start_index, t0):
    delta = P.structure.project_rank1(state.u, state.v)
    r1, r2 = state.residual[: P.m], state.residual[P.m :]
    return SolveResult(
        converged=converged,
        distance=linalg.frobenius_norm(delta),
        delta=delta,
        u=state.u,
        v=state.v,
        residual_av=float(np.linalg.norm(r1)),
        residual_atu=float(np.linalg.norm(r2)),
        grad_norm=state.residual_norm,
        iterations=trace[-1].iteration if trace else 0,
        trace=trace,
        message=message,
        start_index=start_index,
        wall_time=time.perf_counter() - t0,
    )


def line_search_newton(P: ProblemInstance, start_u, start_v, start_index: int = 0) -> SolveResult:
    """Newton iteration with backtracking from one starting pair.

    Each step solves the bordered system for the Newton direction (see
    ``newton_step``), then halves the step length until || G || at the trial
    point, rescaled to || v || = 1 through the gauge, strictly decreases; a
    trial point with no such representative counts as no descent. The run
    stops for one of four reasons, which become the result's ``message``:
    a non-finite residual at the start, "converged", no descent within the
    backtrack budget, or the iteration budget exhausted. Whatever the
    reason, the last accepted iterate is returned, flagged converged only
    for "converged". Every iterate, the returned one included, has
    || v || = 1.
    """
    t0 = time.perf_counter()
    budget = P.options.max_newton_iters
    grad_tol = P.grad_tol
    state = SolverState.at(P, start_u, start_v)
    trace = [IterationRecord(0, state.residual_norm, math.nan, 0, 0)]
    message = "" if np.isfinite(state.residual_norm) else "non-finite residual at start"
    it = 0
    while not message:
        if state.residual_norm <= grad_tol:
            message = "converged"
        elif it == budget:
            message = f"iteration budget {budget} exhausted"
        else:
            it += 1
            du, dv, inner = newton_step(P, state)
            alpha = 1.0
            for bt in range(MAX_BACKTRACKS + 1):
                trial = SolverState.at(P, state.u + alpha * du, state.v + alpha * dv)
                if trial.residual_norm < state.residual_norm:  # False for NaN
                    state = trial
                    trace.append(IterationRecord(it, state.residual_norm, alpha, bt,
                                                 inner.iterations if inner else 0,
                                                 inner.converged if inner else True,
                                                 inner.residual if inner else math.nan))
                    break
                alpha *= 0.5
            else:
                message = f"no descent within {MAX_BACKTRACKS} backtracks at iteration {it}"
    return _finalize(P, state, message == "converged", message, trace, start_index, t0)


@dataclasses.dataclass
class StartingPoint:
    """One multi-start initial pair derived from a singular triplet."""

    index: int
    sigma: float
    sigma_hat: float
    u0: np.ndarray | None
    v0: np.ndarray | None
    skipped: bool = False
    reason: str = ""


def starting_values(P: ProblemInstance, triplets):
    """Initial pairs from the smallest singular triplets of A, one per triplet.

    ``triplets`` are the ``(sigma_k, u_k, v_k)`` of
    ``linalg.smallest_singular_triplets``, smallest first. For each,
    sigma_hat = sigma / ||project_rank1(u_k, v_k)||_F^2 scales
    u_0 = -sigma_hat u_k so that A + Delta_0 is orthogonal to u_k v_k^T;
    the norm is read off its coordinates M(v_k)^T u_k. Triplets whose
    projected rank-1 direction nearly vanishes cannot seed a perturbation
    and are skipped with a warning.
    """
    out = []
    for k, (sigma, uk, vk) in enumerate(triplets, start=1):
        pn = linalg.frobenius_norm(P.structure.apply_mt(vk, uk))
        if pn < START_PROJECTION_TOL:
            warnings.warn(
                f"start {k}: structure nearly orthogonal to the rank-1 direction; skipped",
                stacklevel=2,
            )
            out.append(StartingPoint(k, float(sigma), math.inf, None, None, True,
                                     "projected rank-1 direction vanishes"))
            continue
        sigma_hat = float(sigma / pn**2)
        out.append(StartingPoint(k, float(sigma), sigma_hat, -sigma_hat * uk, vk.copy()))
    return out


def _certificate_sigmas(P: ProblemInstance, result: SolveResult):
    """(sigma_min, sigma_max, reason) of B = A + Delta; the sigmas are None when unavailable.

    Routed like the rest of the solve. Without an LU of A both sigmas are
    exact, from a full SVD, the only step that can fail. With one, A is
    square and B is neither formed nor factored: ``sigma_min`` is the
    residual upper bound the root (u, v) gives,
    min(||B v|| / ||v||, ||B^T u|| / ||u||) (the first alone when u = 0),
    whose norms are the result's ``residual_av`` and ``residual_atu``, the
    two halves of the G that ``residual_G`` computed there, and
    ``sigma_max`` is None. ``reason`` is empty on success and otherwise a
    fixed string naming the exception, so reports stay deterministic.
    """
    if P.factor is None:
        try:
            s = np.linalg.svd(as_dense(P.A + result.delta), compute_uv=False)
        except (np.linalg.LinAlgError, MemoryError) as exc:
            return None, None, f"sigma(A+Delta) not computed: {type(exc).__name__}"
        return float(s[-1]), float(s[0]), ""
    u, v = result.u, result.v
    smin = min(result.residual_av / np.linalg.norm(v),
               result.residual_atu / np.linalg.norm(u) if u.any() else math.inf)
    return float(smin), None, ""


def _summarize(start: StartingPoint, result: SolveResult | None):
    s = StartSummary(index=start.index, sigma=start.sigma, sigma_hat=start.sigma_hat,
                     skipped=start.skipped, reason=start.reason)
    if result is not None:
        s.converged = result.converged
        s.distance = result.distance
        s.grad_norm = result.grad_norm
        s.iterations = result.iterations
        s.backtracks = result.backtracks
        s.inner_iterations = result.inner_iterations
        if not result.converged:
            s.reason = result.message
    return s


def _over_dense_cap(P: ProblemInstance):
    return DimensionMismatchError(
        f"a {P.m} x {P.n} matrix without LU takes the dense route, which is capped "
        f"at m + n = {linalg.DENSE_FALLBACK_MAX_N}"
    )


def solve(P: ProblemInstance) -> SolveResult:
    """Full solve: starting values, (multi-start) Newton, best-of selection.

    Returns the converged result of smallest ||Delta||_F or, when no start
    converged, the run of smallest ||G|| with ``converged=False`` and its
    stop message; either carries the per-start summaries and the
    singular-value certificate of A + Delta. An input with
    sigma_min(A) <= ``SINGULAR_INPUT_RTOL`` ||A||_F short-circuits to
    distance zero. An A without LU (see ``ProblemInstance.factor``) is
    refused with ``DimensionMismatchError`` above
    ``linalg.DENSE_FALLBACK_MAX_N`` unknowns (m + n), the dense route's
    memory cap: a rectangular one before its triplets, so also when it is
    rank-deficient; a square one, whose LU found it exactly singular, only
    if its triplets do not. ``AllStartsFailed`` is raised, with the
    summaries, only when every start was skipped and no Newton run took
    place.
    """
    t0 = time.perf_counter()
    if P.m != P.n and P.m + P.n > linalg.DENSE_FALLBACK_MAX_N:
        # refused before its full SVD: a rectangular A has no LU
        raise _over_dense_cap(P)
    K = min(P.options.multistart, P.m, P.n)
    trips = linalg.smallest_singular_triplets(P.A, K, factor=P.factor)
    if trips[0][0] <= SINGULAR_INPUT_RTOL * P.norm_fro:
        # Already singular: the zero perturbation is optimal.
        best = _finalize(P, SolverState.at(P, np.zeros(P.m), trips[0][2]), True,
                         "input numerically singular; distance 0", [], 0, t0)
    else:
        if P.factor is None and P.m + P.n > linalg.DENSE_FALLBACK_MAX_N:
            raise _over_dense_cap(P)
        starts = starting_values(P, trips)
        results = {s.index: line_search_newton(P, s.u0, s.v0, s.index)
                   for s in starts if not s.skipped}
        summaries = [_summarize(s, results.get(s.index)) for s in starts]
        if not results:
            raise AllStartsFailed(
                "every start was skipped (structure orthogonal to all rank-1 directions)",
                starts=summaries,
            )
        converged = [r for r in results.values() if r.converged]
        best = (min(converged, key=lambda r: r.distance) if converged
                else min(results.values(), key=lambda r: r.grad_norm))
        best.starts = summaries
    best.sigma_min, best.sigma_max, best.sigma_error = _certificate_sigmas(P, best)
    best.wall_time = time.perf_counter() - t0
    return best
