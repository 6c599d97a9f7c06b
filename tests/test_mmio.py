"""File I/O: Matrix Market round trips, patterns, bases, polynomial files.

The readers of vectors, bases and polynomial pairs read hand-written files
in each documented format; the package writes only matrices.
"""

import os

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from singdist import InputError, PolynomialPair, SparsityPattern, StructureError
from singdist.mmio import (
    read_basis,
    read_matrix,
    read_pattern,
    read_polynomial_pair,
    read_vector,
    write_matrix,
)
from singdist.structure import as_dense


def test_dense_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(60)
    A = rng.standard_normal((4, 3))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert isinstance(B, np.ndarray)
    assert np.allclose(A, B, atol=1e-14)


def test_sparse_matrix_roundtrip(tmp_path):
    A = sp.csr_array(np.array([[0.0, 1.5], [2.5, 0.0]]))
    path = tmp_path / "a.mtx"
    write_matrix(path, A)
    B = read_matrix(path)
    assert sp.issparse(B)
    assert np.allclose(as_dense(B), as_dense(A), atol=1e-14)


def test_read_pattern_from_coordinate_file(tmp_path):
    coo = sp.coo_array((np.array([1.0, 2.0, 3.0]),
                        (np.array([0, 1, 2]), np.array([1, 0, 2]))), shape=(3, 3))
    path = tmp_path / "p.mtx"
    scipy.io.mmwrite(path, coo)
    S = read_pattern(path)
    assert isinstance(S, SparsityPattern)
    assert S.rows.tolist() == [0, 1, 2] and S.cols.tolist() == [1, 0, 2]


def test_read_pattern_format_file(tmp_path):
    # the pattern variant stores no values at all
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 1\n"
        "2 2\n"
    )
    S = read_pattern(path)
    assert S.rows.tolist() == [0, 1] and S.cols.tolist() == [0, 1]


def test_read_pattern_rejects_empty_file(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 0\n")
    with pytest.raises(StructureError, match="at least one entry"):
        read_pattern(path)


def test_read_pattern_rejects_dense(tmp_path):
    path = tmp_path / "d.mtx"
    write_matrix(path, np.eye(2))
    with pytest.raises(InputError):
        read_pattern(path)


def test_read_vector_from_a_hand_written_array(tmp_path):
    # an n-by-1 array, or its 1-by-n transpose (array entries are column-major)
    path = tmp_path / "v.mtx"
    for shape in ("3 1", "1 3"):
        path.write_text(f"%%MatrixMarket matrix array real general\n{shape}\n1\n-2\n0.5\n")
        assert read_vector(path).tolist() == [1.0, -2.0, 0.5]


def test_read_vector_rejects_matrix(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(3))
    with pytest.raises(InputError):
        read_vector(path)


@pytest.mark.parametrize("kind", ["coordinate", "array", "vector", "basis"])
def test_complex_input_is_refused(tmp_path, kind):
    # complex data is refused as bad input, never cut to its real part
    Z = {"coordinate": sp.coo_array(np.array([[1 + 2j, 0], [0, 3]])),
         "array": np.array([[1 + 2j, 0], [0, 3]]),
         "vector": np.array([[0], [1 + 1j]]),
         "basis": sp.coo_array(np.array([[1j, 0], [0, 0]]))}[kind]
    path = tmp_path / "z.mtx"
    scipy.io.mmwrite(path, Z)
    read = {"coordinate": read_matrix, "array": read_matrix, "vector": read_vector,
            "basis": read_basis}[kind]
    if kind == "basis":
        (tmp_path / "manifest.json").write_text('["z.mtx"]')
        path = tmp_path
    with pytest.raises(InputError, match="complex"):
        read(path)


def test_read_basis_from_a_hand_written_directory(tmp_path):
    # members in either Matrix Market format; the manifest, a list or
    # {"files": [...]}, fixes the coefficient order
    (tmp_path / "b0.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 0.6\n2 3 0.8\n")
    (tmp_path / "b1.mtx").write_text(
        "%%MatrixMarket matrix array real general\n2 3\n0\n0\n1\n0\n0\n0\n")
    B0 = np.array([[0.6, 0.0, 0.0], [0.0, 0.0, 0.8]])
    B1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    for manifest, order in (('["b0.mtx", "b1.mtx"]', (B0, B1)),
                            ('{"files": ["b1.mtx", "b0.mtx"]}', (B1, B0))):
        (tmp_path / "manifest.json").write_text(manifest)
        S = read_basis(tmp_path)
        assert S.dim == 2 and S.shape == (2, 3)
        for c, B in zip(np.eye(2), order):
            assert np.allclose(as_dense(S.from_coefficients(c)), B, rtol=0, atol=1e-15)


def test_read_basis_bad_manifest(tmp_path):
    d = tmp_path / "basis"
    os.makedirs(d)
    (d / "manifest.json").write_text("{\"files\": []}")
    with pytest.raises(InputError):
        read_basis(d)
    (d / "manifest.json").write_text("not json")
    with pytest.raises(InputError):
        read_basis(d)
    with pytest.raises(InputError):
        read_basis(tmp_path / "missing")


def test_polynomial_json_reads_bit_exact(tmp_path):
    # 17 significant digits in the file are the coefficients, to the last bit
    p = [0.1, -0.30000000000000004, 2.2250738585072014e-308, 7]
    q = [1.0000000000000002, 3]
    path = tmp_path / "pair.json"
    path.write_text('{"p": [0.1, -0.30000000000000004, 2.2250738585072014e-308, 7],\n'
                    ' "q": [1.0000000000000002, 3]}\n')
    pair = read_polynomial_pair(path)
    expected = PolynomialPair.from_coefficients(p, q)
    assert np.array_equal(pair.p_coeffs, expected.p_coeffs)
    assert np.array_equal(pair.q_coeffs, expected.q_coeffs)


def test_polynomial_text_format(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("# p then q, ascending\n1 0 1\n2 1\n")
    pair = read_polynomial_pair(path)
    assert pair.deg_p == 2 and pair.deg_q == 1
    assert np.allclose(pair.p_coeffs, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-15)


def test_polynomial_file_errors(tmp_path):
    with pytest.raises(InputError):
        read_polynomial_pair(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": [1, 2]}')
    with pytest.raises(InputError):
        read_polynomial_pair(bad)
    one_line = tmp_path / "one.txt"
    one_line.write_text("1 2 3\n")
    with pytest.raises(InputError):
        read_polynomial_pair(one_line)
    # coefficients that are not a list of numbers are bad input, named by file
    for p in ('{"a": 1}', '["x", 1]', '[1, [2, 3]]'):
        bad.write_text(f'{{"p": {p}, "q": [1, 2]}}')
        with pytest.raises(InputError, match="bad.json"):
            read_polynomial_pair(bad)


@pytest.mark.parametrize("name, text, match", [
    ("broken.json", '{"p": [1, 2], "q": ', "invalid JSON in"),
    ("word.txt", "1 2 3\n1 x\n", "bad coefficient in"),
])
def test_polynomial_file_with_unreadable_text_is_refused(tmp_path, name, text, match):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InputError, match=match):
        read_polynomial_pair(path)
