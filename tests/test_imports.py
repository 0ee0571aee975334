"""Every name a package module imports is used in that module, and every
import sits at module level, not inside a function body; the package's
``__init__`` may import a name only to re-export it through ``__all__``.
Every public name a package module binds at its top level, in ``__all__``
or not, and every public method, property and classmethod of its classes,
is read somewhere besides the unit tests: by a package module (its own
included), the benchmark, the acceptance suite or the README's library
example.  No package module imports numpy: ``_numpy``
binds it lazily for all of them."""

import ast
import re
from pathlib import Path

import pytest

import multifix

PACKAGE = Path(multifix.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import x as y" binds y.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(multifix.__all__)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def function_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    # A set, as a nested function's imports are inside its parent's too.
    nested = {
        node
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in sorted(nested, key=lambda node: node.lineno)
        for alias in node.names
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert function_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os\nimport numpy as np\nfrom typing import Any, Optional\nx: Any = np.e\n")
    assert unused_imports(module) == ["module.py:1 os", "module.py:3 Optional"]


def test_an_import_in_a_function_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\n\ndef f():\n    import json\n\n    def g():\n"
        "        from typing import Any\n    return os, json\n"
    )
    assert function_imports(module) == ["module.py:4 json", "module.py:7 Any"]


def numpy_imports(path: Path) -> list[str]:
    """Each ``import numpy...`` and ``from numpy... import`` in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "numpy"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_bound_only_by_the_lazy_loader(path):
    # ``_numpy`` builds numpy through importlib; one plain import elsewhere
    # would load all of it in every command, continuous ones included.
    assert numpy_imports(path) == []


def test_a_numpy_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os, numpy.linalg\nfrom numpy import ndarray\nfrom . import numpy\n"
        "from ._numpy import np\nfrom numpy.random import default_rng\n"
    )
    assert numpy_imports(module) == ["module.py:1", "module.py:2", "module.py:5"]


def reads(path: Path) -> set[str]:
    """Every name and attribute a Python file loads, binding one being no
    read; of a Markdown file, what its ``python`` code blocks load."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.M | re.S))
    tree = ast.parse(text, filename=str(path))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unreferenced_exports(exports, readers: list[Path]) -> list[str]:
    """The exported names that no reader reads."""
    read = set().union(*map(reads, readers))
    return sorted(set(exports) - read)


def top_level_names(path: Path) -> list[str]:
    """The names a module binds at its top level: functions, classes and
    assignment targets."""
    names = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def public_members(path: Path) -> list[str]:
    """``Class.name`` for each public method, property and classmethod that
    the classes a module binds at its top level define."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def unreferenced_members(members, readers: list[Path]) -> list[str]:
    """The ``Class.name`` members whose name no reader reads."""
    read = set().union(*map(reads, readers))
    return sorted(m for m in members if m.split(".")[1] not in read)


def private_names(path: Path) -> list[str]:
    """The private names (``_x``, not dunders) a module binds at its top
    level."""
    return [n for n in top_level_names(path) if n.startswith("_") and not n.startswith("__")]


MODULES = sorted(PACKAGE.glob("*.py"))
PACKAGE_READS = set().union(*map(reads, MODULES))
READERS = [
    *(p for p in MODULES if p.name != "__init__.py"),
    *sorted((ROOT / "bench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "README.md",
]
# Every public name a package module binds at its top level, whether or not
# ``__all__`` re-exports it.
PUBLIC_NAMES = sorted(
    {name for path in MODULES for name in top_level_names(path) if not name.startswith("_")}
)


def test_every_export_is_read_beyond_the_unit_tests():
    assert unreferenced_exports(PUBLIC_NAMES, READERS) == []


def test_every_public_member_is_read_beyond_the_unit_tests():
    members = [member for path in MODULES for member in public_members(path)]
    assert unreferenced_members(members, READERS) == []


def test_an_unread_member_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "class Kept:\n    def used(self):\n        return self._inner()\n\n"
        "    def _inner(self):\n        return 1\n\n    def unread(self):\n        return 2\n\n"
        "    @property\n    def shown(self):\n        return 3\n\n"
        "    @classmethod\n    def build(cls):\n        return cls()\n\n"
        "    @staticmethod\n    def spare():\n        return 4\n\n"
        "def outer():\n    return Kept.build().used()\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("```python\nKept().shown\n```\n")
    members = public_members(module)
    assert members == ["Kept.used", "Kept.unread", "Kept.shown", "Kept.build", "Kept.spare"]
    assert unreferenced_members(members, [module, readme]) == ["Kept.spare", "Kept.unread"]


def test_an_unreferenced_export_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import lib\n\nUNREAD = 1\n\ndef helper():\n    return lib.used(), called()\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("```python\nshown()\n```\n\n```sh\nin_a_shell_block\n```\n")
    exports = ["used", "called", "shown", "helper", "UNREAD", "in_a_shell_block"]
    assert unreferenced_exports(exports, [module, readme]) == [
        "UNREAD", "helper", "in_a_shell_block"
    ]


@pytest.mark.parametrize(
    "name",
    [f"{path.name}:{name}" for path in MODULES for name in private_names(path)],
)
def test_every_private_name_is_read(name):
    assert name.split(":")[1] in PACKAGE_READS


def test_an_unread_private_name_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "_USED = 1\n_unused, (_x, _y) = 2, (3, 4)\n__all__ = []\n\n"
        "def _left_behind():\n    _local = 5\n\nclass _Kept:\n    y = _USED + _x\n\nprint(_Kept, _y)\n"
    )
    names = private_names(module)
    assert names == ["_USED", "_unused", "_x", "_y", "_left_behind", "_Kept"]
    assert [n for n in names if n not in reads(module)] == ["_unused", "_left_behind"]


def instance_builds(path: Path) -> list[str]:
    """Each call a module makes of ``.orient(...)`` or ``unravel_index(...)``,
    the steps that build an instance's oriented orders and index columns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "unravel_index"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in ("orient", "unravel_index")
        )
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "kernel.py"], ids=lambda p: p.name
)
def test_only_the_instance_builds_the_kernel_orders_and_image(path):
    # kernel.Instance builds its index columns, orders and image once per
    # instance and is the one finite coding of X^m; a second build
    # elsewhere would be a second coding.
    assert instance_builds(path) == []


def test_an_instance_build_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "c = np.unravel_index(k, shape)\no = lset.orient(O)\nimage = inst.image\n"
        "unravel_index(k, shape)\nk.orient\nnp.ravel_multi_index(c, shape)\n"
    )
    assert instance_builds(module) == ["module.py:1", "module.py:2", "module.py:4"]


def call_sites(path: Path, called: str) -> list[str]:
    """Each call a module makes of ``called``: a method call ``.name(...)``
    when it is spelled with a leading dot, else a plain ``name(...)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    name = called.lstrip(".")
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute) and node.func.attr == name
            if called.startswith(".")
            else isinstance(node.func, ast.Name) and node.func.id == name
        )
    ]


def test_one_call_site_walks_the_comparable_pairs():
    # conditions._pair_blocks feeds every exhaustive pair check; a second
    # walk would need its own slicing, image-order rule and witness.
    sites = [site for path in MODULES for site in call_sites(path, ".comparable_pairs")]
    assert len(sites) == 1, sites


@pytest.mark.parametrize("called", ["_first_failing_pair", "_pair_blocks"])
def test_one_checker_runs_every_condition_set(called):
    # ConditionSet.check runs all seven sets; a second caller of the pair
    # walk would be a second checker, with its own clause order.
    sites = [site for path in MODULES for site in call_sites(path, called)]
    assert len(sites) == 1, sites


def test_a_pair_walk_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("k.comparable_pairs(o, True)\nk.comparable_pairs\ncomparable_pairs(o)\n")
    assert call_sites(module, ".comparable_pairs") == ["module.py:1"]


def test_a_second_checker_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def check(inst):\n    return _first_failing_pair(_pair_blocks(inst), f)\n\n"
        "def check_again(inst):\n    return _first_failing_pair(_pair_blocks(inst), f)\n"
        "_first_failing_pair\nself._pair_blocks(inst)\n"
    )
    assert call_sites(module, "_first_failing_pair") == ["module.py:2", "module.py:5"]
    assert call_sites(module, "_pair_blocks") == ["module.py:2", "module.py:5"]
