"""Command-line interface: solve, gcd, and certify subcommands.

Reports are JSON with ``schema: 1``, sorted keys, and every float rendered
with 17 significant digits, so identical inputs and flags produce identical
files (the ``wall_time_s`` field is the one deliberately volatile value).
Exit codes: 0 success/convergence, 1 input error, 2 non-convergence or a
failed certificate of ``singdist certify``. A converged ``singdist solve``
exits 0 even when its certificate FAILs; the verdict is in the report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys
import types

import numpy as np
import scipy.sparse as sp

from . import __version__, linalg, mmio
from .errors import InputError, SingdistError
from .gcd import extract_cofactors, build_sylvester, gcd_distance, make_test_polynomials
from .oracle import DEFAULT_TOL_CERT, certify_solution
from .solver import ProblemInstance, SolverOptions, solve
from .structure import FullStructure

__all__ = ["main", "cmd_solve", "cmd_gcd", "cmd_certify", "render_report"]

SCHEMA_VERSION = 1

#: a stored perturbation farther than this from its structure projection fails
STRUCTURE_RESIDUAL_TOL = 1e-10

_TOKEN = "\x00f{}\x00"
_TOKEN_RE = re.compile(r'"\\u0000f(\d+)\\u0000"')


def _encode(obj, registry):
    """Replace floats by tokens so the final rendering controls their digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return repr(x)
        registry.append(x)
        return _TOKEN.format(len(registry) - 1)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _encode(v, registry) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v, registry) for v in obj]
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), registry)
    if dataclasses.is_dataclass(obj):
        return _encode(dataclasses.asdict(obj), registry)
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def render_report(report: dict) -> str:
    """Serialize a report deterministically: sorted keys, %.17g floats."""
    registry: list[float] = []
    text = json.dumps(_encode(report, registry), sort_keys=True, indent=2)
    return _TOKEN_RE.sub(lambda m: "%.17g" % registry[int(m.group(1))], text) + "\n"


def _emit(report, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(render_report(report))
        print(f"report written to {out_path}")


def _nnz(A):
    return int(A.nnz) if sp.issparse(A) else int(np.count_nonzero(A))


def _load_structure(args, A):
    """The structure the flags name and its description; None is the pattern of A."""
    if args.full:
        return FullStructure(A.shape), "full"
    if args.pattern:
        return mmio.read_pattern(args.pattern), f"pattern:{args.pattern}"
    if args.basis:
        return mmio.read_basis(args.basis), f"basis:{args.basis}"
    return None, "pattern(A)"


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        grad_tol=args.grad_tol,
        max_newton_iters=args.max_iters,
        multistart=args.multistart,
    )


def _result_report(input_desc, options, result):
    return {
        "schema": SCHEMA_VERSION,
        "command": "solve",
        "input": input_desc,
        "options": options,
        "converged": result.converged,
        "distance": result.distance,
        "grad_norm": result.grad_norm,
        "residual_av": result.residual_av,
        "residual_atu": result.residual_atu,
        "sigma_min": result.sigma_min,
        "sigma_max": result.sigma_max,
        "sigma_error": result.sigma_error,
        "iterations": result.iterations,
        "backtracks": result.backtracks,
        "inner_iterations": result.inner_iterations,
        "start_index": result.start_index,
        "message": result.message,
        "starts": result.starts,
        "trace": result.trace,
        "wall_time_s": result.wall_time,
    }


def cmd_solve(args) -> int:
    A = mmio.read_matrix(args.matrix)
    structure, structure_desc = _load_structure(args, A)
    P = ProblemInstance(A, structure, _solver_options(args))
    input_desc = {
        "file": args.matrix,
        "rows": P.m,
        "cols": P.n,
        "nnz": _nnz(P.A),
        "structure": structure_desc,
        "structure_dim": P.structure.dim,
    }
    options = dataclasses.asdict(P.options)
    options["grad_tol_resolved"] = P.grad_tol
    result = solve(P)
    report = _result_report(input_desc, options, result)
    print(f"matrix {args.matrix}: {P.m} x {P.n}, nnz {input_desc['nnz']}, "
          f"structure {structure_desc} (dim {P.structure.dim})")
    if result.converged:
        cert = certify_solution(P, result)
        report["certification"] = cert
        print(f"distance ||Delta||_F = {result.distance:.12e}")
        print(f"converged: {result.message} ({result.iterations} Newton iterations, "
              f"start {result.start_index})")
        print(f"||(A+Delta)v|| = {result.residual_av:.3e}   "
              f"||(A+Delta)^T u|| = {result.residual_atu:.3e}")
        if result.sigma_max is not None:
            print(f"sigma_min(A+Delta) = {result.sigma_min:.6e}   "
                  f"sigma_max(A+Delta) = {result.sigma_max:.6e}")
        elif result.sigma_min is not None:
            print(f"sigma_min(A+Delta) <= {result.sigma_min:.6e} (residual bound)")
        elif result.sigma_error:
            print(result.sigma_error)
        print(str(cert))
    else:
        print(f"did not converge: {result.message}")
        print(f"best ||G|| = {result.grad_norm:.3e} after {result.iterations} iterations")
    if args.write_delta:
        mmio.write_matrix(args.write_delta, result.delta)
        print(f"perturbation written to {args.write_delta}")
    _emit(report, args.out)
    return 0 if result.converged else 2


def _parse_sweep(text):
    m = re.fullmatch(r"(\d+):(\d+)", text)
    if not m:
        raise InputError(f"--sweep expects D1:D2, got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    lo, hi = min(a, b), max(a, b)
    return list(range(hi, lo - 1, -1))  # descending, largest degree first


def cmd_gcd(args) -> int:
    if args.builtin:
        pair = make_test_polynomials()
        source = f"builtin:{args.builtin}"
    else:
        pair = mmio.read_polynomial_pair(args.poly)
        source = args.poly
    opts = SolverOptions(max_newton_iters=args.max_iters, multistart=args.multistart)
    input_desc = {"poly": source, "deg_p": pair.deg_p, "deg_q": pair.deg_q}
    degrees = _parse_sweep(args.sweep) if args.sweep else [args.d]
    rows = []
    all_ok = True
    print(f"polynomials {source}: deg p = {pair.deg_p}, deg q = {pair.deg_q}")
    print(f"{'d':>3}  {'distance':>13}  {'iters':>6}  {'converged':>9}  notes")
    for d in degrees:
        res = gcd_distance(pair, d, opts)
        all_ok = all_ok and res.converged
        notes = res.warning if res.warning else ""
        print(f"{d:>3}  {res.distance:>13.4e}  {res.result.iterations:>6d}  "
              f"{'yes' if res.converged else 'no':>9}  {notes}")
        row = {
            "d": d,
            "distance": res.distance,
            "converged": res.converged,
            "reliable": res.reliable,
            "warning": res.warning,
            "iterations": res.result.iterations,
            "grad_norm": res.result.grad_norm,
            "delta_p_norm": float(np.linalg.norm(res.delta_p)),
            "delta_q_norm": float(np.linalg.norm(res.delta_q)),
        }
        if args.cofactors:
            inst = build_sylvester(pair, d)
            ext = extract_cofactors(inst, res)
            row["cofactors"] = {
                "g": ext.g,
                "u": ext.u_cof,
                "w": ext.w_cof,
                "residual": ext.residual,
                "reliable": ext.reliable,
            }
        rows.append(row)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "gcd",
        "input": input_desc,
        "options": opts,
        "results": rows,
    }
    _emit(report, args.out)
    return 0 if all_ok else 2


def cmd_certify(args) -> int:
    A = mmio.read_matrix(args.matrix)
    delta = mmio.read_matrix(args.delta)
    v = mmio.read_vector(args.v)
    if delta.shape != A.shape:
        raise InputError(f"delta shape {delta.shape} does not match matrix shape {A.shape}")
    if v.size != A.shape[1]:
        raise InputError(f"v has length {v.size}, expected {A.shape[1]}")
    for name, X in (("delta", delta), ("v", v)):
        if not np.isfinite(X.data if sp.issparse(X) else X).all():
            raise InputError(f"{name} contains non-finite entries")
    structure, structure_desc = _load_structure(args, A)
    P = ProblemInstance(A, structure)
    proj_residual = linalg.frobenius_norm(P.structure.project(delta) - delta)
    distance = linalg.frobenius_norm(delta)
    in_structure = proj_residual <= STRUCTURE_RESIDUAL_TOL * max(1.0, distance)
    shim = types.SimpleNamespace(v=v, distance=distance)
    cert = certify_solution(P, shim, eps=args.eps, tol_cert=args.tol)
    passed = bool(cert.passed and in_structure)
    report = {
        "schema": SCHEMA_VERSION,
        "command": "certify",
        "input": {
            "file": args.matrix,
            "delta": args.delta,
            "v": args.v,
            "rows": A.shape[0],
            "cols": A.shape[1],
            "structure": structure_desc,
        },
        "passed": passed,
        "structure_residual": proj_residual,
        "certification": cert,
    }
    if not in_structure:
        print(f"FAIL: perturbation is not in the structure "
              f"(projection residual {proj_residual:.3e} > {STRUCTURE_RESIDUAL_TOL:.1e})")
    print(str(cert))
    _emit(report, args.out)
    return 0 if passed else 2


def _add_structure_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--pattern", metavar="FILE",
                   help="sparsity pattern from a Matrix Market coordinate file")
    g.add_argument("--basis", metavar="DIR",
                   help="orthonormal basis directory with manifest.json")
    g.add_argument("--full", action="store_true",
                   help="unstructured perturbations (every entry free)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singdist",
        description="Structured distance to singularity via Newton iteration.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="nearest structured singular matrix")
    ps.add_argument("matrix", help="square or tall matrix in Matrix Market format")
    _add_structure_flags(ps)
    ps.add_argument("--multistart", type=int, default=SolverOptions.multistart, metavar="K",
                    help="number of singular-triplet starts")
    ps.add_argument("--grad-tol", type=float, default=None,
                    help="residual tolerance (default 1e-12 ||A||_F)")
    ps.add_argument("--max-iters", type=int, default=SolverOptions.max_newton_iters,
                    help="Newton iteration budget")
    ps.add_argument("--out", metavar="FILE", help="write the JSON report here")
    ps.add_argument("--write-delta", metavar="FILE", help="write Delta in Matrix Market format")
    ps.set_defaults(func=cmd_solve)

    pg = sub.add_parser("gcd", help="nearest polynomials with a degree-d GCD")
    src = pg.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=("clustered",),
                     help="built-in degree-10 pair with pairwise nearby roots")
    src.add_argument("--poly", metavar="FILE", help="polynomial pair file (JSON or two lines)")
    deg = pg.add_mutually_exclusive_group(required=True)
    deg.add_argument("--d", type=int, help="GCD degree")
    deg.add_argument("--sweep", metavar="D1:D2", help="run a range of degrees")
    pg.add_argument("--multistart", type=int, default=SolverOptions.multistart, metavar="K")
    pg.add_argument("--max-iters", type=int, default=SolverOptions.max_newton_iters,
                    help="Newton iteration budget")
    pg.add_argument("--cofactors", action="store_true",
                    help="also extract g, u, w with p ~ g u and q ~ g w")
    pg.add_argument("--out", metavar="FILE", help="write the JSON report here")
    pg.set_defaults(func=cmd_gcd)

    pc = sub.add_parser("certify", help="independently certify a solution")
    pc.add_argument("matrix", help="matrix in Matrix Market format")
    pc.add_argument("delta", help="perturbation in Matrix Market format")
    pc.add_argument("v", help="kernel vector as an n-by-1 Matrix Market array")
    _add_structure_flags(pc)
    pc.add_argument("--eps", type=float, default=None,
                    help="oracle regularization (default 1e-14 ||A||_F^2)")
    pc.add_argument("--tol", type=float, default=DEFAULT_TOL_CERT, help="certification tolerance")
    pc.add_argument("--out", metavar="FILE", help="write the JSON report here")
    pc.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingdistError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
