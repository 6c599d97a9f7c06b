"""The README's code runs and states the code's values, and the package exports
exactly its public surface."""

import argparse
import ast
import dataclasses
import functools
import importlib
import pathlib
import re

import pytest

import singdist
from singdist import cli, linalg, oracle, solver

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: the names the README uses, the exceptions, and the result and structure
#: types those return
PUBLIC_NAMES = {
    "SingdistError", "StructureError", "DimensionMismatchError", "TripletError",
    "AllStartsFailed", "ExtractionError", "InputError",
    "LinearStructure", "FullStructure", "SparsityPattern", "BasisStructure",
    "SolverOptions", "ProblemInstance", "SolveResult", "solve",
    "CertificationReport", "certify_solution",
    "PolynomialPair", "SylvesterInstance", "GcdResult", "CofactorExtraction",
    "build_sylvester", "gcd_distance", "extract_cofactors",
}

#: every settable value of ``SolverOptions``; each changes the answer or is
#: set by a benchmark workload, so a new knob is a reviewed edit
SOLVER_OPTION_FIELDS = ("grad_tol", "max_newton_iters", "multistart")

#: modules looked up as attributes of the package (the benchmark's tracer does)
MODULES = ("solver", "linalg", "oracle", "gcd", "mmio", "structure")


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)


def test_readme_has_python_blocks():
    assert len(python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_block_runs_on_exported_names(index):
    code = python_blocks()[index]
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module == "singdist":
            assert {alias.name for alias in node.names} <= set(singdist.__all__)
    exec(compile(code, f"README.md python block {index}", "exec"), {})


def test_public_surface():
    assert set(singdist.__all__) == PUBLIC_NAMES
    assert len(singdist.__all__) == len(PUBLIC_NAMES)
    for name in singdist.__all__:
        assert getattr(singdist, name) is not None
    for module in MODULES:
        assert getattr(singdist, module).__name__ == f"singdist.{module}"
    # every submodule export resolves, so a deletion leaves no stale name
    for module in MODULES + ("cli",):
        mod = importlib.import_module(f"singdist.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"singdist.{module}.__all__ names missing {missing}"


def readme_dotted_names():
    """The backticked dotted names of the README's prose rooted in the package.

    A root is ``singdist``, one of its modules or a name it exports, as in
    ``linalg.LU_FILL_SPREAD`` or ``ProblemInstance.factor``; a call's
    arguments are dropped.
    """
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    roots = {"singdist", *MODULES, *singdist.__all__}
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if match and match.group().split(".")[0] in roots:
            names.add(match.group())
    return sorted(names)


def test_readme_names_resolve():
    # a renamed or deleted name leaves no stale reference in the README
    names = readme_dotted_names()
    assert names
    stale = []
    for name in names:
        head, *rest = name.split(".")
        root = singdist if head == "singdist" else getattr(singdist, head)
        try:
            functools.reduce(getattr, rest, root)
        except AttributeError:
            stale.append(name)
    assert not stale, f"README names missing from the package: {stale}"
    files = set(re.findall(r"BENCH_\w+\.json", README.read_text()))
    assert files
    absent = sorted(f for f in files if not (ROOT / f).is_file())
    assert not absent, f"README names missing benchmark records: {absent}"


def test_solver_option_fields():
    fields = tuple(f.name for f in dataclasses.fields(singdist.SolverOptions))
    assert fields == SOLVER_OPTION_FIELDS


def _number_after(text, pattern):
    match = re.search(pattern, text)
    assert match, f"no text matches {pattern!r}"
    return float(match.group(1))


def test_readme_states_the_codes_values():
    # every run of whitespace, line breaks included, as one space
    text = " ".join(README.read_text().split())
    assert f"m + n ≤ {solver.DENSE_THRESHOLD}" in text
    assert f"m + n > {solver.DENSE_THRESHOLD}" in text
    assert f"{linalg.DENSE_FALLBACK_MAX_N} unknowns" in text
    assert f"{linalg.DENSE_FALLBACK_MAX_N}² entries" in text
    assert _number_after(text, r"true relative residual of (\S+)") == solver.INNER_TOL
    assert f"cycles of {linalg.GCROT_CYCLE} directions" in text
    assert (_number_after(text, r"at most (\S+) \|\|A\|\|_F gives distance 0")
            == solver.SINGULAR_INPUT_RTOL)


def test_eps_help_states_the_oracle_default():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    eps = next(a for a in sub.choices["certify"]._actions if "--eps" in a.option_strings)
    assert _number_after(eps.help, r"default (\S+) ") == oracle.DEFAULT_EPS_REL
