"""Linear-algebra backends: one LU of A, singular triplets, direct and Krylov solves.

The solver is written against the contracts in this module so the numerical
backends stay swappable:

* ``factorize``: one LU factorization of a square A, returned as its solve
  function ``solve(b, trans=False)``: LAPACK's ``dgetrf``/``dgetrs`` for
  dense A and for sparse A whose LU is predicted to fill in, densified up
  to ``DENSE_FALLBACK_MAX_N``^2 entries, SuperLU for other sparse A; an
  exact zero pivot (LAPACK's ``info``) means no LU. The triplet solver and
  the Newton preconditioner share it, so A is factored once per problem.
* ``smallest_singular_triplets``: the K smallest singular triplets of a dense
  or sparse matrix, checked against ||A||_F, which it computes on every
  call. Handed the LU solve of A and K <= n - 2, it runs Lanczos on
  A^-1 A^-T, two triangular solves per step, whose largest eigenvalues are
  1 / sigma^2 of the smallest singular values, so it is robust for
  singular values near zero; otherwise it takes a full SVD.
* ``solve_dense``: LAPACK's LU solve with its condition estimate, called
  directly, falling back to a minimum-norm least-squares solution when the
  matrix is numerically singular.
* ``solve_symmetric_iterative``: right-preconditioned flexible GCROT with
  no pairs carried between cycles, for a symmetric (possibly indefinite)
  operator and its preconditioner, both given as matvec callables (the
  solver's preconditioner is built on the solve ``factorize`` returns),
  with a budget of as many Krylov directions as the order of the system.
  It stops on the true relative residual and returns it, so callers can
  treat inexact solutions as search directions.
* ``spectral_norm``: sigma_max of a dense or sparse matrix by one Lanczos
  run, on demand. No solve calls it: where a Krylov-route result's
  ``sigma_max`` is None, ``spectral_norm(P.A + res.delta)`` gives it.

``validate_matrix`` checks a matrix from outside once, in
``solver.ProblemInstance``; the kernels take the float ndarray or CSR it
returns, and the float vectors of the Krylov solvers, as they are.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .errors import DimensionMismatchError, StructureError, TripletError

__all__ = [
    "smallest_singular_triplets",
    "solve_dense",
    "solve_symmetric_iterative",
    "spectral_norm",
    "factorize",
    "DenseSolve",
    "IterativeSolve",
    "validate_matrix",
    "frobenius_norm",
]

#: memory cap of the dense route: the dense SVD of a sparse A takes at most
#: DENSE_FALLBACK_MAX_N^2 entries (a square A of order 4000, also one whose
#: Lanczos run fails), as does the densified LU of a sparse A that
#: ``factorize`` hands to LAPACK, and ``solver.solve`` refuses an A without
#: LU above m + n of this, whose bordered Newton matrix is dense. Not a
#: crossover: 4000^2 doubles is 128 MB.
DENSE_FALLBACK_MAX_N = 4000

#: fill predictor of ``factorize``: a sparse A whose rows, in the reverse
#: Cuthill-McKee column order of its bipartite graph, span on average more
#: than this fraction of the n columns is densified and factored by LAPACK,
#: since its sparse LU fills in. It is the measured crossover of a solve's
#: whole LU cost, the factor plus the 41-75 solves through it that one
#: solve of a benchmark input made (n = 400-3000, 2 BLAS threads;
#: BENCH_lu_kernel.json): random graphs reading up to 0.45 cost 5-43% more
#: densified at n = 800-1500, those reading 0.46-0.47 cost the same either
#: way at n = 800-1500, and from 0.49 up the densified LU is cheaper at
#: every size. Banded, 2D and 3D Laplacian and block-diagonal input read at
#: most 0.12.
LU_FILL_SPREAD = 0.47

#: FGMRES cycle length of GCROT, which carries no pairs between cycles
#: (k = 0): every solve starts from x0 = 0, and the preconditioned Newton
#: systems of the benchmark converge within at most 18 directions of the
#: first cycle, so no solve restarts
GCROT_CYCLE = 60

#: relative singular-value cutoff below which solve_dense switches to
#: minimum-norm least squares
RCOND_CUTOFF = 1e-14

#: relative residual bound singular triplets must satisfy
TRIPLET_RESIDUAL_TOL = 1e-10


def validate_matrix(A):
    """Check and normalize a matrix to float ndarray or CSR.

    Real entries and finite values are required; sparse input is returned as
    canonical ``csr_array``, dense input as a float ndarray.
    """
    if sp.issparse(A):
        A = sp.csr_array(A)
        if np.iscomplexobj(A.data):
            raise StructureError("complex matrices are not supported")
        A = A.astype(float)
        A.sum_duplicates()
        A.sort_indices()
        if A.nnz and not np.all(np.isfinite(A.data)):
            raise StructureError("matrix contains non-finite entries")
        return A
    A = np.asarray(A)
    if np.iscomplexobj(A):
        raise StructureError("complex matrices are not supported")
    if A.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {A.shape}")
    A = A.astype(float, copy=False)
    if not np.all(np.isfinite(A)):
        raise StructureError("matrix contains non-finite entries")
    return A


def frobenius_norm(A):
    if sp.issparse(A):
        return float(np.sqrt((A.data**2).sum()))
    # summed in numpy: np.linalg.norm's threaded BLAS dot stalls the LAPACK
    # LU of A that follows it
    return math.sqrt(np.square(A).sum())


def _lu_fills_in(A):
    """Whether to densify the square sparse ``A`` for LAPACK: its LU is predicted to fill in.

    Orders the bipartite graph [[0, P], [P^T, 0]] of A's pattern P by
    reverse Cuthill-McKee, which orders the columns apart from the rows, so
    a band whose rows and columns were permuted independently is found
    again. The predictor is the mean spread (last minus first column
    position) of a row in that order, as a fraction of n, against
    ``LU_FILL_SPREAD``. False above ``DENSE_FALLBACK_MAX_N``^2 entries.
    """
    n = A.shape[0]
    if n * n > DENSE_FALLBACK_MAX_N**2:
        return False
    A = sp.csr_array(A)
    P = sp.csr_array((np.ones(A.nnz, dtype=np.int8), A.indices, A.indptr), shape=A.shape)
    order = csgraph.reverse_cuthill_mckee(
        sp.block_array([[None, P], [P.T, None]], format="csr"), symmetric_mode=True)
    col_pos = np.empty(n, dtype=np.intp)
    col_pos[order[order >= n] - n] = np.arange(n)
    pos = col_pos[A.indices]
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]
    spread = np.maximum.reduceat(pos, starts) - np.minimum.reduceat(pos, starts)
    return bool(spread.sum() > LU_FILL_SPREAD * n * n)


def factorize(A):
    """The LU solve ``solve(b, trans=False)`` of a square A; None if exactly singular.

    A is a float ndarray or CSR as ``validate_matrix`` returns it, and
    ``solve(b, trans)`` gives ``A^-1 b``, or ``A^-T b`` when ``trans``.
    SuperLU factors a sparse A whose LU stays sparse. LAPACK, called
    directly (``dgetrf``, ``dgetrs``), factors a dense A, and a sparse A
    whose LU is predicted to fill in (``_lu_fills_in``), densified: on a
    2,100-row random graph with 5 entries per row, 84 ms instead of
    SuperLU's 247 ms. Either kernel's exact zero pivot (LAPACK's ``info``,
    no warning), or a non-finite LAPACK factor, gives None.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"factorize needs a square matrix, got {A.shape}")
    if sp.issparse(A) and not _lu_fills_in(A):
        try:
            lu = spla.splu(sp.csc_array(A))
        except RuntimeError:  # "Factor is exactly singular"
            return None
        return lambda b, trans=False: lu.solve(b, trans="T" if trans else "N")
    densified = sp.issparse(A)
    # LAPACK factors a Fortran-order copy in place; from C order dgetrf
    # would make a second n^2 copy
    lu, piv, info = scipy.linalg.lapack.dgetrf(A.toarray(order="F") if densified else A,
                                               overwrite_a=densified)
    if info > 0 or not np.all(np.isfinite(lu)):
        return None
    return lambda b, trans=False: scipy.linalg.lapack.dgetrs(lu, piv, b, trans=int(trans))[0]


def _dense_triplets(A, k):
    m, n = A.shape
    if sp.issparse(A) and m * n > DENSE_FALLBACK_MAX_N**2:
        raise TripletError(
            f"dense SVD of a sparse {m} x {n} matrix exceeds {DENSE_FALLBACK_MAX_N}^2 entries"
        )
    U, s, Vt = scipy.linalg.svd(A.toarray() if sp.issparse(A) else A, full_matrices=False)
    out = []
    for i in range(1, k + 1):
        out.append((float(s[-i]), U[:, -i].copy(), Vt[-i, :].copy()))
    return out


def _lanczos_triplets(A, k, factor):
    """Lanczos on A^-1 A^-T, applied through ``factor``, then one inverse-iteration step.

    The k largest eigenvalues 1 / sigma^2 of A^-1 A^-T = (A^T A)^-1 belong to
    the k smallest singular values of A, with the right singular vectors as
    eigenvectors; this Krylov space holds what Lanczos on the augmented matrix
    [[0, A], [A^T, 0]] holds, at half the order and without each +-sigma pair
    twice (Golub & Kahan 1965). Each u is A^-T v normalized, not A v / sigma:
    A magnifies the error of a Ritz vector along the large singular directions
    by sigma_max / sigma, A^-T damps it, and sigma = u^T A v = 1 / ||A^-T v||
    comes out positive. The caller guarantees k <= n - 2.
    """
    n = A.shape[1]
    gram_inverse = spla.LinearOperator(
        (n, n), dtype=float,
        matvec=lambda x: factor(factor(np.ravel(x), trans=True)),
    )
    v0 = np.random.default_rng(0).standard_normal(n)
    # a basis of 4k + 4 vectors: on the 800- and 2,100-row benchmark inputs,
    # k = 1 took 19-43 LU solves where ARPACK's default of 20 vectors took
    # 43, and k = 2 and 4 took at most 6 solves more than with the default
    w, V = spla.eigsh(gram_inverse, k=k, which="LM", v0=v0, ncv=min(n, 4 * k + 4))
    out = []
    for j in np.argsort(w)[::-1]:
        v = V[:, j] / np.linalg.norm(V[:, j])
        u = factor(v, trans=True)
        u /= np.linalg.norm(u)
        out.append((float(u @ (A @ v)), u, v))
    return out


def spectral_norm(A):
    """Largest singular value of a dense or sparse ``A`` by Lanczos (``svds``).

    Needs min(m, n) >= 2. The start vector is drawn from seed 0, so the
    result is repeatable; the Lanczos basis is ARPACK's default.
    """
    v0 = np.random.default_rng(0).standard_normal(min(A.shape))
    s = spla.svds(A, k=1, which="LM", v0=v0, return_singular_vectors=False)
    return float(s[0])


def smallest_singular_triplets(A, k=1, *, factor=None):
    """The ``k`` smallest singular triplets of ``A``, ascending in sigma.

    A list of (sigma, u, v) with unit-norm vectors satisfying
    ``A v = sigma u`` and ``A^T u = sigma v`` to a residual of
    ``TRIPLET_RESIDUAL_TOL`` relative to ||A||_F, which bounds sigma_max(A)
    from above and costs no Lanczos run; it is computed on every call. A
    full SVD answers when ``factor`` is None or k >= n - 1, and when
    Lanczos fails; otherwise, with ``factor`` the solve ``factorize``
    returns for a square A (dense or sparse), Lanczos on A^-1 A^-T from a
    fixed start vector (seed 0) does. The SVD of a sparse A with more than
    ``DENSE_FALLBACK_MAX_N``^2 entries raises ``TripletError``, as does a
    triplet residual above the bound, with the achieved residual.
    """
    m, n = A.shape
    if k < 1 or k > min(m, n):
        raise DimensionMismatchError(f"k={k} out of range for shape {A.shape}")
    # eigsh takes k < n, and at k = n - 1 its basis is the whole space
    if factor is None or k >= n - 1:
        trips = _dense_triplets(A, k)
    else:
        try:
            trips = _lanczos_triplets(A, k, factor)
        except (RuntimeError, np.linalg.LinAlgError):  # breakdown or no convergence
            trips = _dense_triplets(A, k)
    scale = max(frobenius_norm(A), 1e-300)
    worst = 0.0
    for sigma, u, v in trips:
        r1 = np.linalg.norm(A @ v - sigma * u)
        r2 = np.linalg.norm(A.T @ u - sigma * v)
        worst = max(worst, r1 / scale, r2 / scale)
    if worst > TRIPLET_RESIDUAL_TOL:
        raise TripletError(
            f"singular triplet residual {worst:.3e} exceeds {TRIPLET_RESIDUAL_TOL:.1e}",
            achieved_residual=worst,
        )
    return trips


@dataclasses.dataclass
class DenseSolve:
    """Result of ``solve_dense``: the solution and whether least squares gave it."""

    x: np.ndarray
    used_least_squares: bool


def solve_dense(M, b):
    """Solve the square system ``M x = b`` directly.

    LAPACK's LU with partial pivoting (``dgetrf``), its 1-norm condition
    estimate (``dgecon``) and its solve (``dgetrs``). Where the reciprocal
    condition estimate is below ``RCOND_CUTOFF`` (0 for an exact zero pivot,
    which emits no warning), the minimum-norm least-squares solution, rank
    decided by the same relative cutoff, is returned instead.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"solve_dense needs a square matrix, got {M.shape}")
    if b.shape[0] != M.shape[0]:
        raise DimensionMismatchError("right-hand side length mismatch")
    anorm = np.linalg.norm(M, 1)  # first: beside the LU's n^2 factor its temporary page-faults
    lu, piv, _info = scipy.linalg.lapack.dgetrf(M)
    rcond, _info = scipy.linalg.lapack.dgecon(lu, anorm)
    if not np.isfinite(rcond) or rcond < RCOND_CUTOFF:
        x, *_ = np.linalg.lstsq(M, b, rcond=RCOND_CUTOFF)
        return DenseSolve(x=x, used_least_squares=True)
    x, _info = scipy.linalg.lapack.dgetrs(lu, piv, b)
    return DenseSolve(x=x, used_least_squares=False)


@dataclasses.dataclass
class IterativeSolve:
    """Result of ``solve_symmetric_iterative``."""

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool


def solve_symmetric_iterative(op, b, tol, precond):
    """Right-preconditioned GCROT on a symmetric (possibly indefinite) system.

    ``op`` is the matvec callable of the system; the caller asserts
    symmetry. ``precond``, also a callable, approximates the inverse of
    ``op`` (it need not be definite, nor symmetric) and is applied on the
    right, so the residual minimised is the true one. The solve stops when
    the true relative residual ||b - op x|| / ||b|| is at most ``tol`` or
    after about as many new Krylov directions as the order of the system,
    rounded up to whole ``GCROT_CYCLE`` cycles; no pairs are carried from
    one cycle to the next. Each direction costs one application of
    ``precond`` and one of ``op``; ``iterations`` counts them.

    Returns the iterate with that achieved residual; an unconverged solve is
    not an error, since an inexact step is still a usable search direction.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return IterativeSolve(x=np.zeros(n), residual=0.0, iterations=0, converged=True)
    count = 0

    def counted_precond(x):
        nonlocal count
        count += 1
        return precond(x)

    linop = spla.LinearOperator((n, n), matvec=op, dtype=float)
    x, _info = spla.gcrotmk(
        linop, b, rtol=tol, maxiter=-(-n // GCROT_CYCLE), m=GCROT_CYCLE, k=0,
        M=spla.LinearOperator((n, n), matvec=counted_precond, dtype=float))
    res = float(np.linalg.norm(b - op(x)) / bnorm)
    return IterativeSolve(x=x, residual=res, iterations=count, converged=res <= tol)
