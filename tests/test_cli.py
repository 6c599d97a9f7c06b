"""Command-line surface: exit codes, report schema, determinism."""

import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from singdist.gcd import make_test_polynomials
from singdist.mmio import write_matrix
from singdist.cli import main, render_report


def run(args):
    return main([str(a) for a in args])


def write_column(path, v):
    """A kernel vector as certify reads it: an n-by-1 Matrix Market array."""
    write_matrix(path, np.reshape(v, (-1, 1)))


def write_diag(tmp_path, diag=(3.0, 1.0)):
    path = tmp_path / "a.mtx"
    write_matrix(path, np.diag(diag))
    return path


def load_report(path):
    with open(path) as fh:
        rep = json.load(fh)
    assert rep["schema"] == 1
    return rep


def test_solve_full_structure(tmp_path, capsys):
    mat = write_diag(tmp_path)
    out = tmp_path / "report.json"
    code = run(["solve", mat, "--full", "--out", out])
    assert code == 0
    rep = load_report(out)
    assert abs(rep["distance"] - 1.0) <= 1e-10
    assert rep["converged"] is True
    assert rep["certification"]["passed"] is True
    assert "distance" in capsys.readouterr().out


def test_solve_default_pattern_structure(tmp_path):
    # pattern defaults to the nonzero pattern of A; diag pattern keeps diag(3,1)
    # at distance 1 as well (the (2,2) entry absorbs everything)
    mat = write_diag(tmp_path)
    out = tmp_path / "report.json"
    assert run(["solve", mat, "--out", out]) == 0
    rep = load_report(out)
    assert rep["input"]["structure"] == "pattern(A)"
    assert rep["input"]["structure_dim"] == 2
    assert abs(rep["distance"] - 1.0) <= 1e-10


def test_solve_basis_structure_from_directory(tmp_path):
    # the diagonal basis of diag(3, 1) gives the same distance as its pattern
    mat = write_diag(tmp_path)
    basis_dir = tmp_path / "basis"
    basis_dir.mkdir()
    for k in (1, 2):
        (basis_dir / f"e{k}{k}.mtx").write_text(
            f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{k} {k} 1\n")
    (basis_dir / "manifest.json").write_text('{"files": ["e11.mtx", "e22.mtx"]}')
    out = tmp_path / "report.json"
    assert run(["solve", mat, "--basis", basis_dir, "--out", out]) == 0
    rep = load_report(out)
    assert rep["input"]["structure"] == f"basis:{basis_dir}"
    assert rep["input"]["structure_dim"] == 2
    assert abs(rep["distance"] - 1.0) <= 1e-10


def test_solve_writes_delta(tmp_path):
    from singdist.mmio import read_matrix

    mat = write_diag(tmp_path)
    delta_path = tmp_path / "delta.mtx"
    assert run(["solve", mat, "--full", "--write-delta", delta_path]) == 0
    D = read_matrix(delta_path)
    from singdist.structure import as_dense

    assert np.allclose(as_dense(D), np.diag([0.0, -1.0]), atol=1e-10)
    # a full-structure Delta is dense, so it is written in array format
    assert delta_path.read_text().startswith("%%MatrixMarket matrix array")


def test_solve_reports_certificate_failure(tmp_path, capsys, monkeypatch):
    def broken_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    mat = write_diag(tmp_path)
    out = tmp_path / "report.json"
    monkeypatch.setattr(np.linalg, "svd", broken_svd)
    assert run(["solve", mat, "--full", "--out", out]) == 0
    rep = load_report(out)
    assert rep["sigma_min"] is None and rep["sigma_max"] is None
    assert rep["sigma_error"] == "sigma(A+Delta) not computed: LinAlgError"
    assert "sigma(A+Delta) not computed: LinAlgError" in capsys.readouterr().out


def test_solve_input_errors(tmp_path, capsys):
    assert run(["solve", tmp_path / "missing.mtx"]) == 1
    rect = tmp_path / "rect.mtx"
    write_matrix(rect, np.ones((2, 3)))
    assert run(["solve", rect]) == 1
    mat = write_diag(tmp_path)
    capsys.readouterr()
    for grad_tol in ("inf", "nan"):
        assert run(["solve", mat, "--grad-tol", grad_tol]) == 1
        assert capsys.readouterr().err == "error: grad_tol must be positive and finite\n"


def test_complex_input_exits_1(tmp_path, capsys):
    # a complex matrix or kernel vector is refused, not solved or certified
    # on its real part
    mat = tmp_path / "z.mtx"
    scipy.io.mmwrite(mat, sp.coo_array(np.array([[1 + 2j, 0], [0, 3]])))
    assert run(["solve", mat]) == 1
    assert "complex" in capsys.readouterr().err
    real, delta, v = write_diag(tmp_path, (1.0, 1.0)), tmp_path / "d.mtx", tmp_path / "v.mtx"
    write_matrix(delta, np.diag([0.0, -1.0]))
    scipy.io.mmwrite(v, np.array([[0], [1 + 1j]]))
    assert run(["certify", real, delta, v, "--full"]) == 1
    assert "complex" in capsys.readouterr().err


def test_solve_singular_input_reports_zero(tmp_path):
    mat = tmp_path / "s.mtx"
    write_matrix(mat, np.diag([1.0, 0.0]))
    out = tmp_path / "report.json"
    assert run(["solve", mat, "--full", "--out", out]) == 0
    rep = load_report(out)
    assert rep["distance"] == 0.0
    assert "singular" in rep["message"]


def test_solve_nonconvergence_exit_code(tmp_path):
    # dense A with a strict sub-pattern needs a few Newton steps; capping the
    # iteration count forces the failure path
    import scipy.io
    import scipy.sparse as sp

    rng = np.random.default_rng(70)
    mask = rng.random((8, 8)) < 0.5
    A = rng.standard_normal((8, 8))
    mat = tmp_path / "r.mtx"
    write_matrix(mat, A)
    pattern_file = tmp_path / "pat.mtx"
    scipy.io.mmwrite(pattern_file, sp.coo_array(mask.astype(float)))
    out = tmp_path / "report.json"
    base = ["solve", mat, "--pattern", pattern_file, "--out", out]
    assert run(base) == 0
    assert load_report(out)["iterations"] >= 2
    assert run(base + ["--max-iters", 1]) == 2
    rep = load_report(out)
    assert rep["converged"] is False


def test_unconverged_solve_report_is_complete_and_deterministic(tmp_path, capsys):
    # a solve that stops short of a root exits 2 with its stop message and
    # sigma(A + Delta) in a report that repeats byte for byte, wall time aside
    rng = np.random.default_rng(70)
    mask = rng.random((8, 8)) < 0.5
    mat, pattern_file = tmp_path / "r.mtx", tmp_path / "pat.mtx"
    write_matrix(mat, rng.standard_normal((8, 8)))
    scipy.io.mmwrite(pattern_file, sp.coo_array(mask.astype(float)))
    texts = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run(["solve", mat, "--pattern", pattern_file, "--max-iters", 1, "--out", out]) == 2
        rep = load_report(out)
        assert rep["converged"] is False and rep["message"] == "iteration budget 1 exhausted"
        assert isinstance(rep["sigma_min"], float) and isinstance(rep["sigma_max"], float)
        assert rep["sigma_error"] == ""
        texts.append([line for line in out.read_text().splitlines() if "wall_time_s" not in line])
    assert texts[0] == texts[1]
    assert "did not converge: iteration budget 1 exhausted" in capsys.readouterr().out


def test_solve_accepts_a_tall_matrix_and_refuses_a_wide_one(tmp_path, capsys):
    # a tall A is solved as the library solves it, for the nearest
    # rank-deficient matrix; a wide one exits 1 naming its transpose. The
    # sparse certificate's verdict is not asserted: a pattern's dead rows
    # fail it (ROADMAP item 1)
    rng = np.random.default_rng(74)
    dense, sparse = tmp_path / "dense.mtx", tmp_path / "sparse.mtx"
    write_matrix(dense, rng.standard_normal((9, 6)))
    write_matrix(sparse, sp.random(9, 6, density=0.3, random_state=rng) + sp.eye(9, 6))
    for mat, flags in ((dense, ["--full"]), (sparse, [])):
        out = tmp_path / f"{mat.stem}-report.json"
        assert run(["solve", mat, *flags, "--out", out]) == 0
        rep = load_report(out)
        assert (rep["input"]["rows"], rep["input"]["cols"]) == (9, 6)
        assert rep["converged"] is True and rep["sigma_min"] <= 1e-12 * rep["sigma_max"]
    assert load_report(tmp_path / "dense-report.json")["certification"]["passed"] is True
    wide = tmp_path / "wide.mtx"
    write_matrix(wide, rng.standard_normal((6, 9)))
    capsys.readouterr()
    assert run(["solve", wide]) == 1
    assert capsys.readouterr().err == (
        "error: a wide 6 x 9 matrix is not supported: solve its 9 x 6 transpose\n")


def test_solve_with_every_start_skipped_exits_1(tmp_path, capsys):
    # no start can run (see test_all_starts_skipped_raises_without_best):
    # the structure cannot perturb A toward singularity, so the input is bad
    import scipy.io
    import scipy.sparse as sp

    mat = write_diag(tmp_path)
    pattern_file = tmp_path / "pat.mtx"
    scipy.io.mmwrite(pattern_file, sp.coo_array(([1.0], ([0], [1])), shape=(2, 2)))
    with pytest.warns(UserWarning, match="skipped"):
        assert run(["solve", mat, "--pattern", pattern_file]) == 1
    assert capsys.readouterr().err == (
        "error: every start was skipped (structure orthogonal to all rank-1 directions)\n")


def test_report_determinism(tmp_path):
    rng = np.random.default_rng(71)
    mat = tmp_path / "r.mtx"
    write_matrix(mat, rng.standard_normal((6, 6)))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run(["solve", mat, "--full", "--out", out]) == 0
        rep = load_report(out)
        rep.pop("wall_time_s")  # the one deliberately volatile field
        assert all("inner_residual" in r for r in rep["trace"])
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_solve_on_the_krylov_route_reports_the_residual_bound(tmp_path, capsys):
    # above the dense threshold A has an LU: the certificate is the residual
    # bound alone, sigma_max is null, and the report stays deterministic
    A = sp.random(200, 200, density=0.02, random_state=np.random.RandomState(0)) + sp.eye(200)
    mat = tmp_path / "k.mtx"
    write_matrix(mat, A)
    texts = []
    for name in ("k1.json", "k2.json"):
        out = tmp_path / name
        assert run(["solve", mat, "--out", out]) == 0
        rep = load_report(out)
        assert rep["sigma_max"] is None and rep["sigma_error"] == ""
        assert rep["sigma_min"] <= 1e-12 * np.linalg.norm(A.toarray())
        assert "(residual bound)" in capsys.readouterr().out
        texts.append([line for line in out.read_text().splitlines()
                      if '"wall_time_s"' not in line])
    assert texts[0] == texts[1]


def test_report_float_precision():
    text = render_report({"x": 0.1, "flag": True, "n": 3})
    assert '"x": 0.10000000000000001' in text
    assert '"flag": true' in text


def test_multistart_report_lists_starts(tmp_path):
    rng = np.random.default_rng(72)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = np.where(rng.random((20, 20)) < 0.5, Q, 0.0)
    mat = tmp_path / "q.mtx"
    write_matrix(mat, A)
    out = tmp_path / "report.json"
    assert run(["solve", mat, "--multistart", 3, "--out", out]) == 0
    rep = load_report(out)
    assert len(rep["starts"]) == 3
    conv = [s["distance"] for s in rep["starts"] if s["converged"]]
    assert abs(rep["distance"] - min(conv)) <= 1e-14


def test_gcd_builtin_single_degree(tmp_path):
    out = tmp_path / "gcd.json"
    assert run(["gcd", "--builtin", "clustered", "--d", 9, "--out", out]) == 0
    rep = load_report(out)
    row = rep["results"][0]
    assert row["d"] == 9
    assert abs(row["distance"] - 3.9964e-3) <= 5e-3 * 3.9964e-3


def test_gcd_sweep_table(tmp_path, capsys):
    out = tmp_path / "gcd.json"
    assert run(["gcd", "--builtin", "clustered", "--sweep", "8:9", "--cofactors",
                "--out", out]) == 0
    rep = load_report(out)
    assert [row["d"] for row in rep["results"]] == [9, 8]
    for row in rep["results"]:
        cof = row["cofactors"]
        assert set(cof) == {"g", "u", "w", "residual", "reliable"}
        assert len(cof["g"]) == row["d"] + 1 and cof["reliable"] is True
    text = capsys.readouterr().out
    assert "distance" in text and "converged" in text


def test_gcd_identical_pair_from_file(tmp_path):
    p = make_test_polynomials().p_coeffs.tolist()
    poly = tmp_path / "same.json"
    poly.write_text(json.dumps({"p": p, "q": p}))
    out = tmp_path / "gcd.json"
    assert run(["gcd", "--poly", poly, "--d", 10, "--out", out]) == 0
    rep = load_report(out)
    assert rep["results"][0]["distance"] <= 1e-12
    assert rep["results"][0]["reliable"] is False


def test_gcd_poly_with_non_numeric_coefficients_exits_1(tmp_path, capsys):
    poly = tmp_path / "f.json"
    poly.write_text('{"p": {"a": 1}, "q": [1, 2]}')
    assert run(["gcd", "--poly", poly, "--d", 1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "f.json" in err and "Traceback" not in err


def test_gcd_bad_degree(capsys):
    assert run(["gcd", "--builtin", "clustered", "--d", 99]) == 1
    assert run(["gcd", "--builtin", "clustered", "--sweep", "9-8"]) == 1
    assert capsys.readouterr().err.endswith("error: --sweep expects D1:D2, got '9-8'\n")


@pytest.mark.parametrize("flag, message", [
    ("--max-iters", "iteration budgets must be positive"),
    ("--multistart", "multistart must be at least 1"),
])
def test_gcd_rejects_invalid_solver_options(capsys, flag, message):
    assert run(["gcd", "--builtin", "clustered", "--d", 9, flag, 0]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert "distance" not in out  # rejected before the table starts


def test_certify_pipeline_and_negative_controls(tmp_path):
    rng = np.random.default_rng(73)
    A = rng.standard_normal((6, 6))
    mat = tmp_path / "a.mtx"
    write_matrix(mat, A)
    delta_path = tmp_path / "delta.mtx"
    v_path = tmp_path / "v.mtx"
    assert run(["solve", mat, "--full", "--write-delta", delta_path]) == 0

    # recover v from the solve and write it
    from singdist import FullStructure, ProblemInstance, solve

    res = solve(ProblemInstance(A, FullStructure(A.shape)))
    write_column(v_path, res.v)
    assert run(["certify", mat, delta_path, v_path, "--full"]) == 0

    # corrupt v: certification fails with exit 2
    bad_v = res.v + 1e-2 * rng.standard_normal(6)
    bad_v /= np.linalg.norm(bad_v)
    bad_v_path = tmp_path / "bad_v.mtx"
    write_column(bad_v_path, bad_v)
    assert run(["certify", mat, delta_path, bad_v_path, "--full"]) == 2

    # off-structure delta: projection residual check fails
    from singdist.mmio import read_matrix
    from singdist.structure import as_dense

    D = as_dense(read_matrix(delta_path))
    pattern_file = tmp_path / "pat.mtx"
    import scipy.io
    import scipy.sparse as sp

    scipy.io.mmwrite(pattern_file, sp.coo_array(np.triu(np.ones((6, 6)))))
    assert run(["certify", mat, delta_path, v_path, "--pattern", pattern_file]) == 2


def test_certify_input_errors(tmp_path, capsys):
    mat = write_diag(tmp_path)
    delta = tmp_path / "delta.mtx"
    v = tmp_path / "v.mtx"
    write_matrix(delta, np.zeros((3, 3)))
    write_column(v, np.array([0.0, 1.0]))
    assert run(["certify", mat, delta, v, "--full"]) == 1
    assert capsys.readouterr().err == (
        "error: delta shape (3, 3) does not match matrix shape (2, 2)\n")
    write_matrix(delta, np.diag([0.0, -1.0]))
    write_column(v, np.array([0.0, 1.0, 0.0]))
    assert run(["certify", mat, delta, v, "--full"]) == 1
    assert capsys.readouterr().err == "error: v has length 3, expected 2\n"
    # a wrong kernel vector: A = diag(1, 1e-4), v = e1 and distance 1e-4
    # FAILs at the default eps, and an infinite eps or tolerance is refused
    write_matrix(mat, np.diag([1.0, 1e-4]))
    write_matrix(delta, np.diag([0.0, -1e-4]))
    write_column(v, np.array([1.0, 0.0]))
    assert run(["certify", mat, delta, v, "--full"]) == 2
    capsys.readouterr()
    for flag, name in (("--eps", "eps"), ("--tol", "tol_cert")):
        for value in ("inf", "nan"):
            assert run(["certify", mat, delta, v, "--full", flag, value]) == 1
            assert capsys.readouterr().err == f"error: {name} must be positive and finite\n"
    # a non-finite perturbation or kernel vector is bad input, not a FAIL
    write_column(v, np.array([np.nan, 1.0]))
    assert run(["certify", mat, delta, v, "--full"]) == 1
    assert capsys.readouterr().err == "error: v contains non-finite entries\n"
    write_column(v, np.array([1.0, 0.0]))
    write_matrix(delta, np.diag([np.nan, -1e-4]))
    assert run(["certify", mat, delta, v, "--full"]) == 1
    assert capsys.readouterr().err == "error: delta contains non-finite entries\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "singdist" in capsys.readouterr().out


def test_certify_keeps_a_sparse_delta_sparse(tmp_path, monkeypatch):
    # certify takes the norms of Delta and of its projection on the sparse
    # matrices themselves; neither is densified to m n entries
    import scipy.sparse as sp

    from singdist import ProblemInstance, SparsityPattern, solve

    rng = np.random.default_rng(40)
    A = sp.csr_array(sp.random(40, 40, density=0.1, random_state=rng)) + sp.eye_array(40)
    res = solve(ProblemInstance(A, SparsityPattern.from_matrix(A)))
    assert res.converged and sp.issparse(res.delta)
    mat, delta, v = tmp_path / "a.mtx", tmp_path / "delta.mtx", tmp_path / "v.mtx"
    write_matrix(mat, A)
    write_matrix(delta, res.delta)
    write_column(v, res.v)

    def densify(self, *args, **kwargs):
        raise AssertionError("a sparse matrix was densified")

    monkeypatch.setattr(sp.csr_array, "todense", densify)
    monkeypatch.setattr(sp.csr_array, "toarray", densify)
    out = tmp_path / "report.json"
    code = run(["certify", mat, delta, v, "--out", out])
    rep = load_report(out)
    # the verdict is the certificate's own: Delta lies in the structure
    assert code == (0 if rep["passed"] else 2)
    assert rep["passed"] is rep["certification"]["passed"]
    assert rep["structure_residual"] <= 1e-14 * res.distance
    assert abs(rep["certification"]["distance"] - res.distance) <= 1e-14 * res.distance


def test_report_renders_numpy_integers_and_refuses_unknown_objects():
    # every count, index and shape in a report is a Python int: a numpy
    # integer is refused like any other unknown object
    with pytest.raises(TypeError, match="cannot serialize int64 in a report"):
        render_report({"n": np.int64(3)})
    with pytest.raises(TypeError, match="cannot serialize object in a report"):
        render_report({"x": object()})
