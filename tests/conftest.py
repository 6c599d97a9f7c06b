"""Shared generators for seeded property tests.

All randomness flows through numpy Generators seeded at the call site, so
every test is reproducible from its literal seed.
"""

import collections

import numpy as np

from singdist import BasisStructure, FullStructure, SparsityPattern, linalg
from singdist.solver import starting_values
from singdist.structure import LinearStructure


def random_pattern(rng, m, n, density=0.5):
    """A random sparsity pattern with at least one entry."""
    while True:
        mask = rng.random((m, n)) < density
        if mask.any():
            return SparsityPattern.from_matrix(np.where(mask, 1.0, 0.0)), mask


def random_covered_pattern(rng, n, density):
    """Pattern whose every row and column holds at least one entry."""
    while True:
        mask = rng.random((n, n)) < density
        if mask.any(axis=0).all() and mask.any(axis=1).all():
            return SparsityPattern.from_matrix(np.where(mask, 1.0, 0.0)), mask


def pattern_instance(rng, n=10, density=0.5, a_in_structure=True, min_sigma=1e-3):
    """Well-conditioned (A, pattern) pair, A inside the pattern by default."""
    while True:
        S, mask = random_covered_pattern(rng, n, density)
        if a_in_structure:
            A = np.where(mask, rng.standard_normal((n, n)), 0.0)
        else:
            A = rng.standard_normal((n, n)) / np.sqrt(n)
        if np.linalg.svd(A, compute_uv=False)[-1] > min_sigma:
            return A, S


def random_orthonormal_basis(rng, m, n, dim):
    """An orthonormal list of dim m-by-n matrices (QR on their vectorizations)."""
    V = rng.standard_normal((m * n, dim))
    Q, _ = np.linalg.qr(V)
    return BasisStructure([Q[:, i].reshape(m, n) for i in range(dim)])


def first_starts(P, K):
    """The starts ``solve`` seeds from the K smallest singular triplets of A."""
    return starting_values(P, linalg.smallest_singular_triplets(P.A, K, factor=P.factor))


def count_structure_calls(monkeypatch, names):
    """A Counter of calls to the named structure operators, on every class defining one."""
    calls = collections.Counter()
    for cls in (LinearStructure, FullStructure):
        for name in set(names) & set(vars(cls)):
            def counting(self, *args, _op=vars(cls)[name], _name=name):
                calls[_name] += 1
                return _op(self, *args)
            monkeypatch.setattr(cls, name, counting)
    return calls
