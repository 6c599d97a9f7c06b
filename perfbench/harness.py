"""Set-up, timed operations and output checks of one benchmark pass.

Library calls go through module attributes (``solver.solve``,
``mmio.read_matrix``, ...) looked up at call time, so the hooks that
``tracing`` installs on those attributes see every call.

An *operation* is what ``singdist solve`` does: ``solve`` followed by
``certify_solution`` on its result; for a polynomial pair it is
``gcd_distance`` followed by ``extract_cofactors``. It fails if it raises,
ends non-converged, or its output fails ``check``.
"""

from __future__ import annotations

import copy
import dataclasses
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from singdist import gcd, mmio, oracle, solver, structure
from singdist.errors import AllStartsFailed

#: ||(A + Delta) v|| allowed at a converged result, relative to ||A||_F
KERNEL_RTOL = 1e-8

#: deviation of ||v|| from 1 allowed at a converged result
UNIT_TOL = 1e-8

#: ||project(Delta) - Delta||_F and |distance - ||Delta||_F|, relative to 1 + distance
STRUCTURE_RTOL = 1e-10

#: how far a distance may exceed its recorded reference (seed-commit values)
RECORDED_RTOL = 1e-6

#: how far a full-structure distance may exceed sigma_min(A)
SIGMA_RTOL = 1e-9

#: cofactor reconstruction misfit allowed for a converged GCD result
COFACTOR_TOL = 1e-6


@dataclasses.dataclass
class Prepared:
    """An operation's program-side inputs after set-up."""

    op: object
    P: object = None
    pair: object = None
    sylvester: object = None


@dataclasses.dataclass
class Outcome:
    """What one timed operation returned."""

    seconds: float
    converged: bool = False
    result: object = None  # SolveResult, or GcdResult for a polynomial pair
    cert: object = None
    cofactors: object = None
    starts: list = dataclasses.field(default_factory=list)
    error: str = ""
    problems: list = dataclasses.field(default_factory=list)

    @property
    def ok(self):
        return self.converged and not self.error and not self.problems


def _structure(op, A):
    spec = op.structure
    if spec == "full":
        return structure.FullStructure(A.shape)
    if spec == "pattern-of-A":
        return structure.SparsityPattern.from_matrix(A)
    kind, data = spec
    if kind == "pattern":
        return structure.SparsityPattern(A.shape[0], A.shape[1], data)
    return structure.BasisStructure(data)


def setup(op):
    """Program-side set-up: read the input, build the structure and the problem."""
    if op.kind == "gcd":
        pair = gcd.PolynomialPair.from_coefficients(*op.poly)
        return Prepared(op, pair=pair, sylvester=gcd.build_sylvester(pair, op.d))
    A = mmio.read_matrix(op.path) if op.path else op.A
    options = solver.SolverOptions(**op.options) if op.options else None
    return Prepared(op, P=solver.ProblemInstance(A, _structure(op, A), options))


def run_op(prep):
    """Run one operation; every exception it raises counts as a failure."""
    t0 = time.perf_counter()
    out = Outcome(seconds=0.0)
    try:
        if prep.op.kind == "gcd":
            res = gcd.gcd_distance(prep.pair, prep.op.d)
            out.result, out.converged = res, bool(res.converged)
            out.starts = res.result.starts
            out.cofactors = gcd.extract_cofactors(prep.sylvester, res)
        else:
            try:
                res = solver.solve(prep.P)
            except AllStartsFailed as exc:
                out.result, out.starts = exc.best, exc.starts
                out.error = f"AllStartsFailed: {exc}"
            else:
                out.result, out.converged, out.starts = res, bool(res.converged), res.starts
                out.cert = oracle.certify_solution(prep.P, res)
    except Exception as exc:  # a raising operation is a counted failure, not a crash
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out


def _dense(X):
    return X.toarray() if sp.issparse(X) else np.asarray(X, dtype=float)


def _frobenius(X):
    return spla.norm(X) if sp.issparse(X) else np.linalg.norm(X)


def check(prep, out, references):
    """Problems with a converged result's output; an empty list means correct.

    Checks ||v|| = 1, (A + Delta) v = 0 relative to ||A||_F, Delta in the
    structure, distance = ||Delta||_F, and the distance against its
    reference. A distance below the reference passes: it is a better
    solution that also passed every other check.
    """
    if not out.converged or out.error or out.result is None:
        return []
    op = prep.op
    if op.kind == "gcd":
        res = out.result.result
        A, S = prep.sylvester.matrix, prep.sylvester.structure
    else:
        res, A, S = out.result, op.A, prep.P.structure
    problems = []
    v = np.asarray(res.v, dtype=float)
    # a sparse problem is checked sparse, so the checker's memory stays small
    # next to the program's and peak_rss_mb measures the program
    if sp.issparse(A) and sp.issparse(res.delta):
        A, delta = sp.csr_array(A), sp.csr_array(res.delta, dtype=float)
    else:
        A, delta = _dense(A), _dense(res.delta)
    distance = float(out.result.distance)
    norm_a = _frobenius(A)
    if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
        problems.append(f"|v| = {np.linalg.norm(v):.3e}")
    kernel = np.linalg.norm((A + delta) @ v)
    if kernel > KERNEL_RTOL * norm_a:
        problems.append(f"|(A+Delta)v| = {kernel:.3e} vs |A|_F = {norm_a:.3e}")
    scale = 1.0 + distance
    off = _frobenius(S.project(delta) - delta)
    if off > STRUCTURE_RTOL * scale:
        problems.append(f"Delta leaves the structure by {off:.3e}")
    if abs(_frobenius(delta) - distance) > STRUCTURE_RTOL * scale:
        problems.append(f"distance {distance:.6e} != |Delta|_F {_frobenius(delta):.6e}")
    kind = op.reference[0]
    if kind == "table":
        ref, rtol = op.reference[1:]
    elif kind == "sigma_min":
        ref, rtol = np.linalg.svd(_dense(A), compute_uv=False)[-1], SIGMA_RTOL
    else:
        ref, rtol = references.get(op.key), RECORDED_RTOL
    if ref is not None and distance > ref * (1.0 + rtol):
        problems.append(f"distance {distance:.9e} exceeds reference {ref:.9e}")
    if op.kind == "gcd":
        coeff = np.linalg.norm(np.concatenate([out.result.delta_p, out.result.delta_q]))
        if abs(coeff - distance) > STRUCTURE_RTOL * scale:
            problems.append(f"coefficient distance {coeff:.6e} != {distance:.6e}")
        if out.cofactors.residual > COFACTOR_TOL:
            problems.append(f"cofactor misfit {out.cofactors.residual:.3e}")
    return problems


def corrupted(out):
    """A copy of a converged outcome with Delta scaled by 0.5 (a wrong answer)."""
    bad = copy.copy(out)
    bad.result = copy.copy(out.result)
    res = bad.result
    if not isinstance(res, solver.SolveResult):  # a GcdResult wraps the SolveResult
        res.result = copy.copy(res.result)
        res = res.result
    res.delta = 0.5 * res.delta
    return bad
