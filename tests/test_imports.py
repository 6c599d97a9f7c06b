"""Every module-level import of the package is used where it is made.

An import is used when its bound name is read somewhere in the module or is
listed in the module's ``__all__``. ``from . import <submodule>`` in
``__init__.py`` is exempt: it binds the package's submodules as attributes
of the package (``singdist.solver``, ...), which is how callers, the
benchmark's tracer among them, reach them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "singdist"


def bound_names(node):
    """The names a module-level import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            if path.name == "__init__.py" and node.level == 1 and node.module is None:
                continue
        elif not isinstance(node, ast.Import):
            continue
        unused += [f"line {node.lineno}: {name}" for name in bound_names(node) if name not in used]
    return unused


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports(PACKAGE / module) == []


def test_check_flags_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nimport scipy.sparse as sp\nfrom math import inf, pi\n"
                    "__all__ = ['pi']\n\ndef f(x):\n    return np.abs(x)\n")
    assert unused_imports(path) == ["line 2: sp", "line 3: inf"]
