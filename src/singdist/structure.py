"""Linear matrix structures and their projection and rank-1 operators.

A structure S is a linear subspace of m x n real matrices. Two kinds are
implemented: a sparsity pattern (``SparsityPattern``) and a general
orthonormal basis (``BasisStructure``). The unconstrained space
(``FullStructure``) is the pattern of every entry. Every structure owns the
orthogonal projection ``project``, the projected rank-1 map
``project_rank1(u, v) = project(u v^T)``, and matrix-free applications of
the operators

    M(v): R^p -> R^m,  columns B_i v   (B_1 .. B_p the orthonormal basis)
    N(u): R^p -> R^n,  columns B_i^T u

which appear throughout the residual and curvature formulas of the solver.
For patterns the basis is the set of elementary matrices e_i e_j^T over the
pattern in row-major order, M M^T and N N^T are diagonal, and all operations
run in O(p) without forming any dense matrix; a general basis has dense
Gram blocks, assembled from ``m_matrix`` and ``n_matrix``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, StructureError

__all__ = [
    "LinearStructure",
    "FullStructure",
    "SparsityPattern",
    "BasisStructure",
    "as_dense",
]


def as_dense(X):
    """Return ``X`` as a dense ndarray, whether it is sparse or already dense."""
    if sp.issparse(X):
        return np.asarray(X.todense())
    return np.asarray(X)


def _check_real(arr, what):
    if np.iscomplexobj(arr):
        raise StructureError(f"{what} must be real valued")


def _as_vector(x, length, what):
    x = np.asarray(x)
    _check_real(x, what)
    x = x.astype(float, copy=False)
    if x.ndim != 1 or x.shape[0] != length:
        raise DimensionMismatchError(
            f"{what} must be a vector of length {length}, got shape {x.shape}"
        )
    return x


class LinearStructure:
    """Abstract base for linear matrix subspaces.

    Subclasses provide ``shape`` (m, n) and ``dim`` (the number p of basis
    elements) and implement the operations below. All operations are
    read-only; instances are immutable after construction and safe to share
    between concurrent solves.

    ``diagonal_gram`` says which of the two Gram-block kernels a structure
    uses: True when M(v) M(v)^T and N(u) N(u)^T are diagonal for every u, v
    (every sparsity pattern, the full one included), so ``gram_diagonals``
    gives them; False for a general basis, whose Gram blocks are formed
    from ``m_matrix`` and ``n_matrix``.
    """

    shape: tuple
    dim: int
    diagonal_gram = False

    def _check_matrix(self, X, what="matrix"):
        if X.shape != self.shape:
            raise DimensionMismatchError(
                f"{what} has shape {X.shape}, structure expects {self.shape}"
            )

    def _uv(self, u, v):
        m, n = self.shape
        return _as_vector(u, m, "u"), _as_vector(v, n, "v")

    def project(self, X):
        """Orthogonal projection of ``X`` onto the subspace."""
        raise NotImplementedError

    def project_rank1(self, u, v):
        """``project(u v^T)`` without materializing the outer product."""
        raise NotImplementedError

    def apply_m(self, v, x):
        """``M(v) x`` for a coefficient vector x of length ``dim``."""
        raise NotImplementedError

    def apply_mt(self, v, y):
        """``M(v)^T y`` for y of length m."""
        raise NotImplementedError

    def apply_n(self, u, x):
        """``N(u) x`` for a coefficient vector x of length ``dim``."""
        raise NotImplementedError

    def apply_nt(self, u, y):
        """``N(u)^T y`` for y of length n."""
        raise NotImplementedError

    def gram_diagonals(self, u, v):
        """Diagonals of M(v) M(v)^T and N(u) N(u)^T.

        Defined only where ``diagonal_gram`` is True; any other structure
        raises ``StructureError``.
        """
        raise StructureError(
            f"{type(self).__name__} has no diagonal Gram matrices"
        )

    def h_offdiag(self, u, v):
        """The off-diagonal curvature block ``project_rank1(u, v) + M(v) N(u)^T``."""
        raise NotImplementedError

    def m_matrix(self, v):
        """Dense m x p assembly of M(v); intended for small problems and tests."""
        raise NotImplementedError

    def n_matrix(self, u):
        """Dense n x p assembly of N(u); intended for small problems and tests."""
        raise NotImplementedError


class SparsityPattern(LinearStructure):
    """A sparsity pattern J: matrices supported on a fixed set of entries.

    Entries are stored zero-based in canonical row-major order, which also
    fixes the basis enumeration: the k-th basis matrix is e_i e_j^T for the
    k-th pattern entry (i, j). Duplicate or out-of-bounds entries are
    rejected.
    """

    diagonal_gram = True

    def __init__(self, n_rows, n_cols, entries):
        if n_rows <= 0 or n_cols <= 0:
            raise StructureError("dimensions must be positive")
        self.shape = (int(n_rows), int(n_cols))
        entries = np.asarray(entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[1] != 2:
            raise StructureError("entries must be an array of (row, col) pairs")
        if entries.shape[0] == 0:
            raise StructureError("pattern must contain at least one entry")
        rows, cols = entries[:, 0], entries[:, 1]
        if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise StructureError("pattern entry out of bounds")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        keys = rows * n_cols + cols
        if np.any(np.diff(keys) == 0):
            raise StructureError("duplicate pattern entries")
        self.rows = rows
        self.cols = cols
        self.dim = rows.shape[0]
        # Row-major order is exactly CSR order, so the symbolic CSR structure
        # of every matrix in the subspace can be precomputed once.
        counts = np.bincount(rows, minlength=self.shape[0])
        self._indptr = np.concatenate(([0], np.cumsum(counts)))
        self._mask = sp.csr_array(
            (np.ones(self.dim), cols.astype(np.int32), self._indptr.astype(np.int32)),
            shape=self.shape,
        )

    @staticmethod
    def from_matrix(A):
        """Pattern of the nonzero entries of ``A`` (a ``SparsityPattern``)."""
        if sp.issparse(A):
            coo = sp.coo_array(A)
            keep = coo.data != 0
            entries = np.column_stack([coo.row[keep], coo.col[keep]])
            return SparsityPattern(A.shape[0], A.shape[1], entries)
        A = np.asarray(A)
        rows, cols = np.nonzero(A)
        return SparsityPattern(A.shape[0], A.shape[1], np.column_stack([rows, cols]))

    def __repr__(self):
        return f"SparsityPattern({self.shape[0]}x{self.shape[1]}, {self.dim} entries)"

    def entries(self):
        """The pattern as an array of (row, col) pairs in canonical order."""
        return np.column_stack([self.rows, self.cols])

    def to_basis(self):
        """Equivalent ``BasisStructure`` of elementary matrices (small p only)."""
        mats = []
        for i, j in zip(self.rows, self.cols):
            mats.append(
                sp.csr_array(([1.0], ([int(i)], [int(j)])), shape=self.shape)
            )
        return BasisStructure(mats)

    def _coef(self, data):
        """Matrix in the subspace from per-entry values, as CSR."""
        return sp.csr_array(
            (data, self.cols.astype(np.int32), self._indptr.astype(np.int32)),
            shape=self.shape,
        )

    def project(self, X):
        if sp.issparse(X):
            _check_real(X.data, "matrix")
            self._check_matrix(X)
            return sp.csr_array(X.multiply(self._mask))
        X = np.asarray(X)
        _check_real(X, "matrix")
        self._check_matrix(X)
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = X[self.rows, self.cols]
        return out

    def project_rank1(self, u, v):
        u, v = self._uv(u, v)
        return self._coef(u[self.rows] * v[self.cols])

    def apply_m(self, v, x):
        v = _as_vector(v, self.shape[1], "v")
        x = _as_vector(x, self.dim, "x")
        return np.bincount(self.rows, weights=x * v[self.cols], minlength=self.shape[0])

    def apply_mt(self, v, y):
        v = _as_vector(v, self.shape[1], "v")
        y = _as_vector(y, self.shape[0], "y")
        return y[self.rows] * v[self.cols]

    def apply_n(self, u, x):
        u = _as_vector(u, self.shape[0], "u")
        x = _as_vector(x, self.dim, "x")
        return np.bincount(self.cols, weights=x * u[self.rows], minlength=self.shape[1])

    def apply_nt(self, u, y):
        u = _as_vector(u, self.shape[0], "u")
        y = _as_vector(y, self.shape[1], "y")
        return u[self.rows] * y[self.cols]

    def gram_diagonals(self, u, v):
        u, v = self._uv(u, v)
        k1 = np.bincount(self.rows, weights=v[self.cols] ** 2, minlength=self.shape[0])
        k2 = np.bincount(self.cols, weights=u[self.rows] ** 2, minlength=self.shape[1])
        return k1, k2

    def h_offdiag(self, u, v):
        # M N^T coincides with the projected rank-1 matrix on a pattern.
        u, v = self._uv(u, v)
        return self._coef(2.0 * u[self.rows] * v[self.cols])

    def m_matrix(self, v):
        v = _as_vector(v, self.shape[1], "v")
        out = np.zeros((self.shape[0], self.dim))
        out[self.rows, np.arange(self.dim)] = v[self.cols]
        return out

    def n_matrix(self, u):
        u = _as_vector(u, self.shape[0], "u")
        out = np.zeros((self.shape[1], self.dim))
        out[self.cols, np.arange(self.dim)] = u[self.rows]
        return out


class FullStructure(SparsityPattern):
    """The unconstrained structure: the sparsity pattern of every entry.

    The basis is every elementary matrix in row-major order, so
    ``M(v) vec(X) = X v`` and ``N(u) vec(X) = X^T u``, and the pattern
    operators apply unchanged. The pattern arrays take O(m n) memory and
    set-up time. ``project_rank1`` returns the dense outer product u v^T.
    """

    def __init__(self, n_rows, n_cols=None):
        if n_cols is None:
            if isinstance(n_rows, tuple):  # FullStructure(A.shape)
                n_rows, n_cols = n_rows
            else:
                n_cols = n_rows
        if n_rows <= 0 or n_cols <= 0:
            raise StructureError("dimensions must be positive")
        super().__init__(n_rows, n_cols, np.indices((n_rows, n_cols)).reshape(2, -1).T)

    def __repr__(self):
        return f"FullStructure({self.shape[0]}, {self.shape[1]})"

    def project_rank1(self, u, v):
        u, v = self._uv(u, v)
        return np.outer(u, v)


class BasisStructure(LinearStructure):
    """Structure given by an explicit orthonormal basis of sparse matrices.

    The basis is held as one sparse p x E matrix V whose row k is vec(B_k)
    restricted to the E entries that some basis matrix touches, so memory
    follows the basis, not m n. Orthonormality in the Frobenius inner
    product is verified at construction on the entries of the Gram matrix
    V V^T (tolerance 1e-12), and violations are rejected rather than
    repaired, since silently re-orthonormalizing would change the subspace
    the caller asked for. Basis elements may have overlapping supports;
    duplicate entries within one element are summed.
    """

    #: tolerance on every entry of the Gram matrix minus the identity
    ORTHONORMALITY_TOL = 1e-12

    def __init__(self, mats):
        if len(mats) == 0:
            raise StructureError("basis must contain at least one matrix")
        shape = None
        idx, flat, vals = [], [], []
        for k, B in enumerate(mats):
            B = sp.coo_array(B)
            if B.ndim != 2:
                raise StructureError(f"basis matrix {k} must be 2-d, got shape {B.shape}")
            _check_real(B.data, f"basis matrix {k}")
            if shape is None:
                shape = B.shape
            elif B.shape != shape:
                raise StructureError("basis matrices must share one shape")
            idx.append(np.full(B.nnz, k))
            flat.append(np.ravel_multi_index((B.row, B.col), shape))
            vals.append(B.data.astype(float))
        self.shape = (int(shape[0]), int(shape[1]))
        self.dim = len(mats)
        if self.dim > self.shape[0] * self.shape[1]:
            raise StructureError("more basis matrices than matrix entries")
        # Compress the columns to the touched entries; CSR conversion sums
        # duplicates and orders each row by entry, i.e. row-major per B_k.
        entries, col = np.unique(np.concatenate(flat), return_inverse=True)
        V = sp.csr_array((np.concatenate(vals), (np.concatenate(idx), col)),
                         shape=(self.dim, entries.size))
        D = sp.coo_array(sp.triu(V @ V.T - sp.eye_array(self.dim)))
        bad = np.flatnonzero(np.abs(D.data) > self.ORTHONORMALITY_TOL)
        if bad.size:
            t = bad[np.lexsort((D.col[bad], D.row[bad]))[0]]
            i, j = int(D.row[t]), int(D.col[t])
            g = D.data[t] + (i == j)
            raise StructureError(f"basis not orthonormal: <B{i}, B{j}> = {g:.3e}")
        # COO view of V for vectorized operator application: entry t belongs
        # to basis matrix _idx[t] at position (_rows[t], _cols[t]).
        V = sp.coo_array(V)
        self._idx = V.row.astype(np.intp)
        self._rows, self._cols = np.unravel_index(entries[V.col], self.shape)
        self._vals = V.data

    def __repr__(self):
        return f"BasisStructure({self.shape[0]}x{self.shape[1]}, p={self.dim})"

    def coefficients(self, X):
        """Coordinates <B_i, X> of the projection of ``X`` in the basis."""
        X = as_dense(X)
        _check_real(X, "matrix")
        self._check_matrix(X)
        return np.bincount(
            self._idx, weights=self._vals * X[self._rows, self._cols], minlength=self.dim
        )

    def from_coefficients(self, c):
        """The member matrix sum_i c_i B_i, as CSR."""
        c = _as_vector(c, self.dim, "coefficients")
        return sp.csr_array(
            (self._vals * c[self._idx], (self._rows, self._cols)), shape=self.shape
        )

    def project(self, X):
        dense = not sp.issparse(X)
        c = self.coefficients(X)
        out = self.from_coefficients(c)
        return as_dense(out) if dense else out

    def project_rank1(self, u, v):
        u, v = self._uv(u, v)
        # <B_i, u v^T> = u^T B_i v, the i-th entry of M(v)^T u
        return self.from_coefficients(self._mt(v, u))

    def apply_m(self, v, x):
        v = _as_vector(v, self.shape[1], "v")
        x = _as_vector(x, self.dim, "x")
        w = self._vals * x[self._idx] * v[self._cols]
        return np.bincount(self._rows, weights=w, minlength=self.shape[0])

    def _mt(self, v, y):
        """``M(v)^T y`` for checked vectors, shared so no operator calls another public one."""
        w = self._vals * v[self._cols] * y[self._rows]
        return np.bincount(self._idx, weights=w, minlength=self.dim)

    def apply_mt(self, v, y):
        v = _as_vector(v, self.shape[1], "v")
        y = _as_vector(y, self.shape[0], "y")
        return self._mt(v, y)

    def apply_n(self, u, x):
        u = _as_vector(u, self.shape[0], "u")
        x = _as_vector(x, self.dim, "x")
        w = self._vals * x[self._idx] * u[self._rows]
        return np.bincount(self._cols, weights=w, minlength=self.shape[1])

    def apply_nt(self, u, y):
        u = _as_vector(u, self.shape[0], "u")
        y = _as_vector(y, self.shape[1], "y")
        w = self._vals * u[self._rows] * y[self._cols]
        return np.bincount(self._idx, weights=w, minlength=self.dim)

    def m_matrix(self, v):
        v = _as_vector(v, self.shape[1], "v")
        out = np.zeros((self.shape[0], self.dim))
        np.add.at(out, (self._rows, self._idx), self._vals * v[self._cols])
        return out

    def n_matrix(self, u):
        u = _as_vector(u, self.shape[0], "u")
        out = np.zeros((self.shape[1], self.dim))
        np.add.at(out, (self._cols, self._idx), self._vals * u[self._rows])
        return out

    def h_offdiag(self, u, v):
        u, v = self._uv(u, v)
        Mm = self.m_matrix(v)
        Nm = self.n_matrix(u)
        return as_dense(self.from_coefficients(self._mt(v, u))) + Mm @ Nm.T
