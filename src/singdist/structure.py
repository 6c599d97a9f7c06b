"""Linear matrix structures and their projection and rank-1 operators.

A structure S is a linear subspace of m x n real matrices with an
orthonormal basis B_1 .. B_p (Frobenius inner product), stored in one form:
the E entries (i, j) that some member can touch, in row-major order, and
the p x E coefficient matrix V whose row k is vec(B_k) on those entries.
A sparsity pattern (``SparsityPattern``) has the elementary matrices
e_i e_j^T of its entries as basis, so V is the identity and is not stored;
a general orthonormal basis is a ``BasisStructure``; the unconstrained
space (``FullStructure``) is the pattern of every entry.

Each operator is written once, on ``LinearStructure``: the orthogonal
projection ``project``, the projected rank-1 map
``project_rank1(u, v) = project(u v^T)``, and matrix-free applications of

    M(v): R^p -> R^m,  columns B_k v
    N(u): R^p -> R^n,  columns B_k^T u

which appear throughout the residual and curvature formulas of the solver.
Each is an entry-wise kernel on the E entries composed with V (entry values
to coordinates) or V^T (coordinates to entry values), so time and memory
follow E and the nonzeros of V, never m n. Delta = project_rank1(u, v) has
coordinates delta = M(v)^T u = N(u)^T v, one vector for both
Delta v = M delta and Delta^T u = N delta, and the only formula for
Delta's coordinates (``apply_mt``). The curvature blocks M M^T, N N^T and
M N^T come from two Gram kernels, each used whole: the pattern kernel only
where ``diagonal_gram`` holds (diagonal Gram blocks, ``gram_diagonals``,
and M N^T = Delta, which the dense Newton step adds from ``apply_mt``
straight into its array and the Krylov route adds to Delta through
``h_offdiag``), and the factor kernel for every basis (``m_matrix``,
``n_matrix`` and the Delta ``project`` returns for u v^T on the dense
Newton route, the maps on the Krylov route).
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
    """A linear matrix subspace in its stored form, with every operator.

    ``shape`` is (m, n) and ``dim`` the number p of basis elements.
    ``rows`` and ``cols`` hold the E entries that some member can touch, in
    row-major order, which is also CSR order, so every member is a CSR
    matrix on one symbolic structure. ``_V`` is the p x E coefficient
    matrix (``None`` for the identity of a pattern) and ``_Vt`` its
    transpose view. Subclasses only build this form. All operations are
    read-only; instances are immutable after construction and safe to share
    between concurrent solves.

    Outside input is checked once: the constructors, ``project``,
    ``project_rank1`` and ``from_coefficients`` reject complex values and
    wrong shapes. The maps take the solver's 1-D float vectors as given: u
    of length m, v of length n, coordinates of length ``dim``.

    ``diagonal_gram`` is True where M(v) M(v)^T and N(u) N(u)^T are diagonal
    for every u, v, so the pattern kernel holds: on every sparsity pattern.
    """

    diagonal_gram = False

    def __init__(self, shape, rows, cols, V=None):
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows, self.cols = rows, cols
        self.dim = rows.shape[0] if V is None else V.shape[0]
        counts = np.bincount(rows, minlength=self.shape[0])
        self._indices = cols.astype(np.int32)
        self._indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        self._V = V
        self._Vt = None if V is None else V.T

    def _check_matrix(self, X, what="matrix"):
        if X.shape != self.shape:
            raise DimensionMismatchError(
                f"{what} has shape {X.shape}, structure expects {self.shape}"
            )

    def _uv(self, u, v):
        m, n = self.shape
        return _as_vector(u, m, "u"), _as_vector(v, n, "v")

    def _coords(self, w):
        """Coordinates ``V w`` of the projection of the matrix with entry values w."""
        return w if self._V is None else self._V @ w

    def _values(self, x):
        """Entry values ``V^T x`` of the member with coordinates x."""
        return x if self._V is None else self._Vt @ x

    def _member(self, w):
        """The matrix with entry values w, as CSR."""
        return sp.csr_array((w, self._indices, self._indptr), shape=self.shape)

    def _entry_values(self, X):
        """Values of ``X`` on the E entries, after checking it; a sparse X stays sparse."""
        X = sp.csr_array(X) if sp.issparse(X) else np.asarray(X)
        _check_real(X.data if sp.issparse(X) else X, "matrix")
        self._check_matrix(X)
        return np.asarray(X[self.rows, self.cols], dtype=float).ravel()

    def _gram_factor(self, line, size, w):
        """Dense size x p matrix with columns sum_t V[k, t] w_t e_{line_t}.

        M(v) for (line, w) = (rows, v[cols]); N(u) for (cols, u[rows]).
        """
        p = self.dim
        if self._V is None:
            out = np.zeros((size, p))
            out[line, np.arange(p)] = w
            return out
        V = self._V
        k = np.repeat(np.arange(p), np.diff(V.indptr))
        out = np.bincount(line[V.indices] * p + k, weights=V.data * w[V.indices],
                          minlength=size * p)
        return out.reshape(size, p)

    def project(self, X):
        """Orthogonal projection of ``X`` onto the subspace (CSR for sparse X)."""
        w = self._values(self._coords(self._entry_values(X)))
        if sp.issparse(X):
            return self._member(w)
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = w
        return out

    def project_rank1(self, u, v):
        """``project(u v^T)`` without materializing the outer product, as CSR."""
        u, v = self._uv(u, v)
        return self._member(self._values(self._coords(u[self.rows] * v[self.cols])))

    def apply_m(self, v, x):
        """``M(v) x`` for a coefficient vector x of length ``dim``."""
        w = self._values(x) * v[self.cols]
        return np.bincount(self.rows, weights=w, minlength=self.shape[0])

    def apply_mt(self, v, y):
        """``M(v)^T y`` for y of length m."""
        return self._coords(y[self.rows] * v[self.cols])

    def apply_n(self, u, x):
        """``N(u) x`` for a coefficient vector x of length ``dim``."""
        w = self._values(x) * u[self.rows]
        return np.bincount(self.cols, weights=w, minlength=self.shape[1])

    def apply_nt(self, u, y):
        """``N(u)^T y`` for y of length n."""
        return self._coords(u[self.rows] * y[self.cols])

    def gram_diagonals(self, u, v):
        """Diagonals of M(v) M(v)^T and N(u) N(u)^T.

        Pattern kernel: defined only where ``diagonal_gram`` is True; any
        other structure raises ``StructureError``.
        """
        if not self.diagonal_gram:
            raise StructureError(f"{type(self).__name__} has no diagonal Gram matrices")
        k1 = np.bincount(self.rows, weights=v[self.cols] ** 2, minlength=self.shape[0])
        k2 = np.bincount(self.cols, weights=u[self.rows] ** 2, minlength=self.shape[1])
        return k1, k2

    def h_offdiag(self, u, v):
        """The off-diagonal curvature block ``project_rank1(u, v) + M(v) N(u)^T``.

        Pattern kernel of the Krylov Newton route: M N^T is the projected
        rank-1 matrix itself, so the block is twice it, as CSR. Like
        ``gram_diagonals``, it raises ``StructureError`` where
        ``diagonal_gram`` is False; a general basis forms the block from its
        factor kernel, ``m_matrix`` and ``n_matrix``.
        """
        if not self.diagonal_gram:
            raise StructureError(f"{type(self).__name__} has no pattern off-diagonal block")
        return self._member(2.0 * (u[self.rows] * v[self.cols]))

    def m_matrix(self, v):
        """Dense m x p assembly of M(v), for the dense Newton step and the oracle."""
        return self._gram_factor(self.rows, self.shape[0], v[self.cols])

    def n_matrix(self, u):
        """Dense n x p assembly of N(u), for the dense Newton step."""
        return self._gram_factor(self.cols, self.shape[1], u[self.rows])


class SparsityPattern(LinearStructure):
    """A sparsity pattern J: matrices supported on a fixed set of entries.

    Entries are stored zero-based in canonical row-major order, which also
    fixes the basis enumeration: the k-th basis matrix is e_i e_j^T for the
    k-th pattern entry (i, j), so the coefficient matrix V is the identity.
    Duplicate or out-of-bounds entries are rejected.
    """

    diagonal_gram = True

    def __init__(self, n_rows, n_cols, entries):
        if n_rows <= 0 or n_cols <= 0:
            raise StructureError("dimensions must be positive")
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
        if np.any(np.diff(rows * n_cols + cols) == 0):
            raise StructureError("duplicate pattern entries")
        super().__init__((n_rows, n_cols), rows, cols)

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

    def to_basis(self):
        """Equivalent ``BasisStructure`` of elementary matrices (small p only)."""
        return BasisStructure([sp.csr_array(([1.0], ([int(i)], [int(j)])), shape=self.shape)
                               for i, j in zip(self.rows, self.cols)])


class FullStructure(SparsityPattern):
    """The unconstrained structure: the sparsity pattern of every entry.

    The basis is every elementary matrix in row-major order, so
    ``M(v) vec(X) = X v`` and ``N(u) vec(X) = X^T u``, and the pattern
    operators apply unchanged. The pattern arrays take O(m n) memory and
    set-up time. ``project_rank1`` returns the dense outer product u v^T.
    """

    def __init__(self, shape):
        n_rows, n_cols = shape
        if n_rows <= 0 or n_cols <= 0:
            raise StructureError("dimensions must be positive")
        super().__init__(n_rows, n_cols, np.indices((n_rows, n_cols)).reshape(2, -1).T)

    def __repr__(self):
        return f"FullStructure({self.shape})"

    def project_rank1(self, u, v):
        u, v = self._uv(u, v)
        return np.outer(u, v)


class BasisStructure(LinearStructure):
    """Structure given by an explicit orthonormal basis of sparse matrices.

    The basis is held as the sparse p x E coefficient matrix V whose row k
    is vec(B_k) restricted to the E entries that some basis matrix touches,
    so memory follows the basis, not m n. Construction is one pass over
    each member's stored entries: a dense member contributes its nonzeros,
    a sparse one every stored entry (an explicitly stored zero is a touched
    entry). Every value read must be finite. Orthonormality in the
    Frobenius inner product is verified on the sparse Gram matrix V V^T
    (tolerance 1e-12), and violations are rejected rather than repaired,
    since silently re-orthonormalizing would change the subspace the caller
    asked for. Basis elements may have
    overlapping supports; duplicate entries within one element are summed.
    """

    #: tolerance on every entry of the Gram matrix minus the identity
    ORTHONORMALITY_TOL = 1e-12

    def __init__(self, mats):
        if len(mats) == 0:
            raise StructureError("basis must contain at least one matrix")
        p = len(mats)
        shape = None
        rows, cols, vals = [], [], []
        for k, B in enumerate(mats):
            sparse = sp.issparse(B)
            B = sp.coo_array(B) if sparse else np.asarray(B)
            if B.ndim != 2:
                raise StructureError(f"basis matrix {k} must be 2-d, got shape {B.shape}")
            # a dense member gives its nonzeros, a sparse one every stored entry
            if sparse:
                r, c, x = B.row, B.col, B.data
            else:
                r, c = np.nonzero(B)
                x = B[r, c]
            _check_real(x, f"basis matrix {k}")
            x = x.astype(float, copy=False)
            if not np.isfinite(x).all():
                raise StructureError(f"basis matrix {k} contains non-finite entries")
            if shape is None:
                shape = B.shape
            elif B.shape != shape:
                raise StructureError("basis matrices must share one shape")
            rows.append(r)
            cols.append(c)
            vals.append(x)
        if p > shape[0] * shape[1]:
            raise StructureError("more basis matrices than matrix entries")
        # Compress the columns to the touched entries, which np.unique sorts
        # into row-major order; CSR conversion sums duplicates.
        flat = np.ravel_multi_index((np.concatenate(rows), np.concatenate(cols)), shape)
        entries, col = np.unique(flat, return_inverse=True)
        idx = np.repeat(np.arange(p), [r.size for r in rows])
        V = sp.csr_array((np.concatenate(vals), (idx, col)), shape=(p, entries.size))
        # <B_i, B_i> from the squared row norms, so an all-zero member fails
        # too; <B_i, B_j> for i < j from the stored entries of V V^T
        diag = np.bincount(np.repeat(np.arange(p), np.diff(V.indptr)),
                           weights=V.data ** 2, minlength=p)
        G = sp.coo_array(V @ V.T)
        off = (G.row < G.col) & (np.abs(G.data) > self.ORTHONORMALITY_TOL)
        bad = np.flatnonzero(np.abs(diag - 1.0) > self.ORTHONORMALITY_TOL)
        i = np.concatenate((bad, G.row[off]))
        if i.size:
            j = np.concatenate((bad, G.col[off]))
            t = np.lexsort((j, i))[0]
            g = np.concatenate((diag[bad], G.data[off]))[t]
            raise StructureError(f"basis not orthonormal: <B{i[t]}, B{j[t]}> = {g:.3e}")
        super().__init__(shape, *np.unravel_index(entries, shape), V)

    def __repr__(self):
        return f"BasisStructure({self.shape[0]}x{self.shape[1]}, p={self.dim})"

    def from_coefficients(self, c):
        """The member matrix sum_i c_i B_i, as CSR."""
        return self._member(self._values(_as_vector(c, self.dim, "coefficients")))
