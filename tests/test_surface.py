"""Package surface guards: what ``updyn`` depends on and what it exports.

The package does its numerics in numpy alone; scipy is a test dependency, kept
as an oracle.  Every public name has a caller: a name that only its own unit
tests read belongs in the tests or nowhere.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import pytest

import updyn

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "updyn").glob("*.py"))


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every import in ``path``, "updyn" for a relative one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("updyn" if node.level else node.module.split(".")[0])
    return found


def test_the_package_imports_only_stdlib_numpy_and_itself():
    for path in SOURCES:
        foreign = {name for name in imported_packages(path)
                   if name not in sys.stdlib_module_names and name not in ("numpy", "updyn")}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    name = lambda requirement: re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower()
    assert [name(r) for r in project["dependencies"]] == ["numpy"]
    assert "scipy" in {name(r) for r in project["optional-dependencies"]["test"]}


def used_names(path: Path) -> set[str]:
    """Names read in ``path``: bare names and attributes, not definitions or imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_has_a_caller():
    used = set().union(*(used_names(p) for p in SOURCES if p.name != "__init__.py"))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used |= {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    public = [name for name in updyn.__all__ if not inspect.ismodule(getattr(updyn, name))]
    assert [name for name in public if name not in used] == []


def bit_comparisons(path: Path) -> int:
    """Comparisons in ``path`` with a ``.view(np.uint64)`` on either side."""
    def uint64_view(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "view"
                and any(isinstance(arg, ast.Attribute) and arg.attr == "uint64"
                        for arg in node.args))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sum(any(uint64_view(n) for n in ast.walk(node))
               for node in ast.walk(tree) if isinstance(node, ast.Compare))


def test_lane_states_are_compared_bit_for_bit_only_in_lanes():
    # both integrators merge lanes through lanes.settle; no module keeps its own check
    assert {p.name: n for p in SOURCES if (n := bit_comparisons(p))} == {"lanes.py": 1}
