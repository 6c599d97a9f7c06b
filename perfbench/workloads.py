"""Seeded workload generation for the singdist benchmark.

Every workload is a fixed list of *base* instances, drawn once from a fixed
generator seed per instance set, and the ``--seed`` of a run draws a random
isomorphism of each of them: independent row and column permutations and
+-1 scalings of A and of its perturbation structure (for a basis structure,
also a random orthogonal change of basis of the subspace). An isomorphic
instance has the same structured distance and the same Newton trajectory up
to rounding, so the work a pass does (iterations, backtracks, failures) does
not depend on the seed, while the bytes the program receives, the order of
the pattern entries and every floating-point sum do. A fresh random instance
per seed would not do: the Newton iteration count of one sparse instance
varies about twofold between random draws, which would make the measured
time a property of the seed rather than of the code.

The ``held-out`` instance set draws its base instances from another
generator seed (the polynomial pair is the paper's and the same in both);
its reference distances are recorded next to the default set's, so a later
claim can be re-checked on base instances nobody tuned against.

Nothing here imports singdist: the program receives only the generated
arrays and Matrix Market files.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

WORKLOADS = ("small-batch", "sparse-direct", "sparse-krylov")

#: generator seed of the base instances of each instance set
INSTANCE_SETS = {"default": 1, "held-out": 2}

#: criterion-3 distances of the standard polynomial pair and their tolerances.
#: d = 6 is left out of every workload: its 3,562-iteration crawl is 90% of a
#: sweep and its time swung 1.8x between quiet and busy periods of a shared
#: 2-vCPU machine, which no run length made steady (see CHANGES.md).
GCD_TABLE = {9: (3.996389e-3, 5e-3), 8: (1.728812e-4, 5e-3), 7: (7.089025e-6, 5e-2)}


@dataclasses.dataclass
class Op:
    """One operation: its inputs, how the program gets them, and its reference.

    ``structure`` is ``"full"``, ``"pattern-of-A"``, ``("pattern", entries)``
    or ``("basis", mats)``. A sparse A is handed over as the Matrix Market
    file ``path`` and read by the program; a dense A is handed over in
    memory. ``A`` is kept either way for the output checks. ``options``
    are ``SolverOptions`` fields that differ from the defaults. ``reference``
    is ``("sigma_min",)``, ``("table", value, rtol)`` or ``("recorded",)``
    (the distance recorded for ``key``).
    """

    key: str
    kind: str  # "matrix" or "gcd"
    A: object = None
    path: str | None = None
    structure: object = "pattern-of-A"
    options: dict = dataclasses.field(default_factory=dict)
    poly: tuple | None = None
    d: int = 0
    reference: tuple = ("recorded",)


def _signs(rng, n):
    return rng.choice(np.array([-1.0, 1.0]), size=n)


class Isomorphism:
    """A -> D_r P_r A P_c^T D_c with random permutations and signs."""

    def __init__(self, rng, m, n):
        self.rows = rng.permutation(m)
        self.cols = rng.permutation(n)
        self.rs = _signs(rng, m)
        self.cs = _signs(rng, n)

    def matrix(self, A):
        if sp.issparse(A):
            A = sp.csr_array(A)[self.rows][:, self.cols]
            return sp.csr_array(sp.diags_array(self.rs) @ A @ sp.diags_array(self.cs))
        return self.rs[:, None] * np.asarray(A)[np.ix_(self.rows, self.cols)] * self.cs[None, :]

    def mask(self, mask):
        return mask[np.ix_(self.rows, self.cols)]


def _poly_from_roots(roots):
    c = np.array([1.0])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0]))
    return c


def _gcd_ops(rng):
    # The standard pair is fixed by the paper; its isometries are swapping p
    # and q, x -> -x and reversing the coefficients, each a permutation and
    # sign change of the Sylvester matrix that keeps every distance.
    j = np.arange(1, 11)
    roots_p = (-1.0) ** j * j / 2.0
    roots_q = roots_p - 10.0 ** (-j.astype(float))
    p, q = _poly_from_roots(roots_p), _poly_from_roots(roots_q)
    if rng.random() < 0.5:
        p, q = q, p
    if rng.random() < 0.5:
        s = (-1.0) ** np.arange(p.size)
        p, q = p * s, q * s
    if rng.random() < 0.5:
        p, q = p[::-1].copy(), q[::-1].copy()
    return [Op(key=f"small-batch/gcd-d{d}", kind="gcd", poly=(p, q), d=d,
               reference=("table",) + ref) for d, ref in GCD_TABLE.items()]


def _covered_mask(gen, n, density):
    while True:
        mask = gen.random((n, n)) < density
        if mask.any(axis=0).all() and mask.any(axis=1).all():
            return mask


def _orthonormal_basis(gen, n, p):
    Q, _ = np.linalg.qr(gen.standard_normal((n * n, p)))
    return Q


def _small_batch_ops(rng, base_seed):
    gen = np.random.default_rng(base_seed)
    ops = []
    for k in range(60):
        n = (5, 10, 20)[k % 3]
        A = gen.standard_normal((n, n))
        iso = Isomorphism(rng, n, n)
        ops.append(Op(key=f"small-batch/full{k:02d}", kind="matrix", A=iso.matrix(A),
                      structure="full", reference=("sigma_min",)))
    for k in range(40):
        while True:
            mask = _covered_mask(gen, 30, 0.2)
            A = gen.standard_normal((30, 30)) / np.sqrt(30)
            if np.linalg.svd(A, compute_uv=False)[-1] > 1e-3:
                break
        iso = Isomorphism(rng, 30, 30)
        ops.append(Op(key=f"small-batch/pattern30-{k:02d}", kind="matrix", A=iso.matrix(A),
                      structure=("pattern", np.argwhere(iso.mask(mask)))))
    for k in range(40):
        n = int(gen.integers(6, 9))
        p = int(gen.integers(-(-n * n // 3), n * n // 2 + 1))
        Q = _orthonormal_basis(gen, n, p)
        A = gen.standard_normal((n, n))
        iso = Isomorphism(rng, n, n)
        # a random orthogonal change of basis keeps the subspace
        R, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Q = Q @ R
        mats = [iso.matrix(Q[:, i].reshape(n, n)) for i in range(p)]
        ops.append(Op(key=f"small-batch/basis{k:02d}", kind="matrix", A=iso.matrix(A),
                      structure=("basis", mats)))
    for n in (50, 300):
        A = np.where(gen.random((n, n)) < 0.3, gen.standard_normal((n, n)), 0.0) + np.eye(n)
        iso = Isomorphism(rng, n, n)
        ops.append(Op(key=f"small-batch/multistart{n}", kind="matrix", A=iso.matrix(A),
                      options={"multistart": 4}))
    return ops + _gcd_ops(rng)


def _sparse_random(n, density, base_seed):
    A = sp.random(n, n, density=density, random_state=base_seed, format="csr")
    return sp.csr_array(A + 0.5 * sp.identity(n, format="csr"))


def _banded(n, base_seed):
    gen = np.random.default_rng(base_seed)
    offsets = [-3, -2, -1, 1, 2, 3]
    diags = [gen.standard_normal(n - abs(k)) for k in offsets] + [np.full(n, 2.0)]
    return sp.csr_array(sp.diags(diags, offsets + [0], format="csr"))


#: sizes of the sparse instances; m + n of the Krylov ones exceeds the
#: solver's dense threshold (4000) so MINRES runs, the direct one stays below
DIRECT_N = 800
KRYLOV_N = 2100

#: Newton budget of the random Krylov instance. From iteration 12 on its
#: residual crawls near 1e-4, far above the convergence tolerance, so it
#: exhausts this budget (and the default one of 100) under every isomorphism
#: tried rather than being on the edge of converging; the default budget
#: would repeat the same crawl at about three times the cost.
KRYLOV_NEWTON_BUDGET = 20


def _sparse_ops(name, rng, base_seed, input_dir):
    # (label, base matrix, solver options)
    if name == "sparse-direct":
        bases = [("random", _sparse_random(DIRECT_N, 0.006, base_seed), {})]
    else:
        bases = [("banded", _banded(KRYLOV_N, base_seed), {}),
                 ("random", _sparse_random(KRYLOV_N, 0.002, base_seed),
                  {"max_newton_iters": KRYLOV_NEWTON_BUDGET})]
    ops = []
    for label, A, options in bases:
        A = Isomorphism(rng, *A.shape).matrix(A)
        path = os.path.join(input_dir, f"{name}-{label}.mtx")
        scipy.io.mmwrite(path, sp.coo_array(A))
        ops.append(Op(key=f"{name}/{label}", kind="matrix", A=A, path=path, options=options))
    return ops


def _smoke_ops(rng, base_seed, input_dir):
    # A few seconds' worth of every operation kind, for the benchmark's own
    # tests; pattern30-02 ends non-converged in the default instance set.
    keep = ("small-batch/full00", "small-batch/pattern30-00", "small-batch/pattern30-02",
            "small-batch/basis00", "small-batch/gcd-d9")
    ops = [op for op in _small_batch_ops(rng, base_seed) if op.key in keep]
    A = Isomorphism(rng, 60, 60).matrix(_sparse_random(60, 0.05, base_seed))
    path = os.path.join(input_dir, "smoke-sparse.mtx")
    scipy.io.mmwrite(path, sp.coo_array(A))
    return ops + [Op(key="smoke/sparse", kind="matrix", A=A, path=path)]


def generate(name, seed, input_dir, instance_set="default"):
    """The operations of workload ``name`` for ``seed``; sparse inputs go to files.

    ``smoke`` is a reduced workload for the benchmark's own tests.
    """
    if name not in WORKLOADS + ("smoke",):
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    base_seed = INSTANCE_SETS[instance_set]
    rng = np.random.default_rng([seed, base_seed])
    if name == "small-batch":
        return _small_batch_ops(rng, base_seed)
    os.makedirs(input_dir, exist_ok=True)
    if name == "smoke":
        return _smoke_ops(rng, base_seed, input_dir)
    return _sparse_ops(name, rng, base_seed, input_dir)
