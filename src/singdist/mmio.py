"""File I/O: the command line's five inputs and its one output.

It reads matrices, sparsity patterns, perturbation bases, kernel vectors
and polynomial pairs, and writes the perturbation of ``singdist solve
--write-delta``. Matrix Market is the only matrix exchange format. Dense
files come back as float ndarrays, coordinate files as csr_array, and
coordinate *pattern* files as a SparsityPattern. Perturbation bases are
directories of Matrix Market files listed in order by a ``manifest.json``.
A kernel vector is an n-by-1 Matrix Market array. Polynomial pairs are
JSON objects ``{"p": [...], "q": [...]}`` with ascending coefficients, or
plain text with one whitespace-separated coefficient line per polynomial.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import InputError
from .gcd import PolynomialPair
from .structure import BasisStructure, SparsityPattern, as_dense

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_pattern",
    "read_basis",
    "read_vector",
    "read_polynomial_pair",
]


def _read_mm(path):
    try:
        return scipy.io.mmread(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read Matrix Market file {path!r}: {exc}") from exc


def read_matrix(path) -> np.ndarray | sp.csr_array:
    """Read a real Matrix Market file as a float ndarray (array format) or csr_array."""
    M = _read_mm(path)
    if np.iscomplexobj(M):
        raise InputError(f"{path!r} holds complex values; only real matrices are supported")
    if sp.issparse(M):
        return sp.csr_array(M).astype(float)
    return np.asarray(M, dtype=float)


def write_matrix(path, A) -> None:
    """Write a matrix in Matrix Market format (coordinate if sparse)."""
    scipy.io.mmwrite(path, sp.coo_array(A) if sp.issparse(A) else np.asarray(A))


def read_pattern(path) -> SparsityPattern:
    """Read a sparsity pattern from a Matrix Market coordinate file.

    Pattern-format files are the natural encoding; general coordinate files
    are accepted too, with the pattern taken from the stored entries
    (including explicit zeros, which Matrix Market keeps).
    """
    M = _read_mm(path)
    if not sp.issparse(M):
        raise InputError(f"{path!r} is a dense array; pattern files must be coordinate format")
    coo = sp.coo_array(M)
    return SparsityPattern(coo.shape[0], coo.shape[1], np.column_stack((coo.row, coo.col)))


def read_basis(directory) -> BasisStructure:
    """Read an orthonormal basis from a directory with a ``manifest.json``.

    The manifest is either a list of file names or ``{"files": [...]}``;
    order in the list fixes the coefficient order of the structure.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read basis manifest {manifest_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {manifest_path!r}: {exc}") from exc
    files = manifest.get("files") if isinstance(manifest, dict) else manifest
    if not isinstance(files, list) or not files or not all(isinstance(f, str) for f in files):
        raise InputError(f"{manifest_path!r} must list basis file names")
    mats = [read_matrix(os.path.join(directory, name)) for name in files]
    return BasisStructure(mats)


def read_vector(path) -> np.ndarray:
    """Read a vector stored as an n-by-1 (or 1-by-n) Matrix Market array."""
    M = as_dense(read_matrix(path))
    if 1 not in M.shape:
        raise InputError(f"{path!r} is not a vector (need an n-by-1 array)")
    return M.ravel()


def read_polynomial_pair(path) -> PolynomialPair:
    """Read a polynomial pair from JSON or two-line plain text."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read polynomial file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path!r}: {exc}") from exc
        if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
            raise InputError(f'{path!r} must contain keys "p" and "q"')
        p, q = obj["p"], obj["q"]
    else:
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
        if len(lines) != 2:
            raise InputError(f"{path!r} must have exactly two coefficient lines, found {len(lines)}")
        try:
            p = [float(t) for t in lines[0].split()]
            q = [float(t) for t in lines[1].split()]
        except ValueError as exc:
            raise InputError(f"bad coefficient in {path!r}: {exc}") from exc
    try:
        return PolynomialPair.from_coefficients(p, q)
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path!r}: {exc}") from exc
