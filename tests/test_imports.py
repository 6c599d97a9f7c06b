"""Every module-level import of the package is used, and every export has a caller.

An import is used when its bound name is read somewhere in the module or is
listed in the module's ``__all__``. ``from . import <submodule>`` in
``__init__.py`` is exempt: it binds the package's submodules as attributes
of the package (``singdist.solver``, ...), which is how callers, the
benchmark's tracer among them, reach them.

A name in a submodule's ``__all__`` has a caller when the package reads it
(as a name or an attribute) or when it appears as a word in the README or
in the benchmark's scripts. Tests do not count: code only they call is not
part of the package's surface. ``__init__.py``'s names are pinned by
``test_readme.test_public_surface``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "singdist"


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


def read_names(paths):
    """Every name read, and every attribute taken, in the given modules."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def exports_without_a_caller(package, texts):
    """``module: name`` for each submodule export neither read in ``package`` nor in ``texts``."""
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    callers = read_names(package.glob("*.py"))
    callers |= {w for text in texts for w in re.findall(r"\w+", text.read_text())}
    return [f"{path.name}: {name}" for path in modules
            for name in sorted(exported(ast.parse(path.read_text()))) if name not in callers]


def test_every_export_has_a_program_caller():
    texts = [ROOT / "README.md", *(ROOT / "perfbench").glob("*.py")]
    assert exports_without_a_caller(PACKAGE, texts) == []


def test_check_flags_an_export_without_a_caller(tmp_path):
    # __init__.py's own exports are left to test_public_surface
    (tmp_path / "__init__.py").write_text("from .a import h\n__all__ = ['h']\n")
    (tmp_path / "a.py").write_text("__all__ = ['f', 'g', 'h']\n\n"
                                   "def f():\n    return g()\n\n"
                                   "def g():\n    pass\n\n"
                                   "def h():\n    pass\n")
    (tmp_path / "b.py").write_text("import a\n__all__ = ['run']\nrun = a.f\n")
    readme = tmp_path / "README.md"
    readme.write_text("Call `run()`.\n")
    assert exports_without_a_caller(tmp_path, [readme]) == ["a.py: h"]


def foreign_private_reads(path):
    """``line N: expr._name`` for each underscore attribute taken of anything but self or cls.

    Dunder attributes (``type(x).__name__``) are public and not counted.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr.startswith("_")
             and not (node.attr.startswith("__") and node.attr.endswith("__"))
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_no_private_attribute_of_another_object(module):
    # a module reaches other objects, modules and structures through their
    # public surface; only a class's own methods read its underscore names
    assert foreign_private_reads(PACKAGE / module) == []


def test_check_flags_a_private_attribute_of_another_object(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n\nclass C:\n    def f(self, other):\n"
                    "        return self._a + other._b + type(other).__name__ + np._c\n\n"
                    "    @classmethod\n    def g(cls):\n        return cls._d\n")
    assert foreign_private_reads(path) == ["line 5: other._b", "line 5: np._c"]


#: the warning filters of the ``warnings`` module, with which a layer would
#: swallow what a lower layer reports; ``np.errstate``, which scopes a
#: floating-point condition the code then checks, is not one of them
WARNING_FILTERS = ("catch_warnings", "simplefilter", "filterwarnings")


def warning_filters(path):
    """``line N: source`` for each use or import of a ``warnings`` filter in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in WARNING_FILTERS
                 and isinstance(node.value, ast.Name) and node.value.id == "warnings")
             or (isinstance(node, ast.ImportFrom) and node.module == "warnings"
                 and any(alias.name in WARNING_FILTERS for alias in node.names))]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in found]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_filters_no_warning(module):
    # a kernel reports what went wrong in its result or by raising; no layer
    # silences the warnings of the layers below it
    assert warning_filters(PACKAGE / module) == []


def test_check_flags_a_warning_filter(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import warnings\nfrom warnings import simplefilter\nimport numpy as np\n\n"
                    "def f():\n    with warnings.catch_warnings():\n"
                    "        warnings.filterwarnings('ignore')\n        warnings.warn('kept')\n"
                    "        with np.errstate(over='ignore'):\n            return 1\n")
    assert warning_filters(path) == [
        "line 2: from warnings import simplefilter",
        "line 6: warnings.catch_warnings",
        "line 7: warnings.filterwarnings",
    ]
