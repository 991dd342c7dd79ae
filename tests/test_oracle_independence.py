"""The oracles under tests/oracles stay independent of the code they check.

Three rules, each read off the import statements by an AST scan: no module
of the package imports the oracles, the RPA engine takes nothing from
xxzent but its error types, and every other oracle takes only public
xxzent names.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "xxzent"
ORACLES = TESTS / "oracles"


def _imports(source):
    """(module, names) of every import statement: a relative module keeps
    its leading dots, and ``import a.b`` has no names."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""),
                        tuple(alias.name for alias in node.names)))
    return out


def _package_violations(source):
    """Imports of the test code from a package module."""
    return [(m, names) for m, names in _imports(source)
            if {"tests", "oracles"} & {*m.split("."), *names}]


def _rpa_violations(source):
    """Imports that reach xxzent past its error types: any xxzent module
    but xxzent.errors, and any relative import (a sibling oracle may
    import xxzent)."""
    return [(m, names) for m, names in _imports(source)
            if m.startswith(".") or (m.split(".")[0] in ("xxzent", "oracles")
                                     and m != "xxzent.errors")]


def _private_violations(source):
    """Private xxzent names an oracle reaches: a module or imported name
    with a leading underscore, or an underscored attribute on a name that
    an xxzent import binds."""
    tree = ast.parse(source)
    bad = [(m, names) for m, names in _imports(source)
           if m.split(".")[0] == "xxzent"
           and any(part.startswith("_") for part in [*m.split("."), *names])]
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or "xxzent" for alias in node.names
                         if alias.name.split(".")[0] == "xxzent")
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "xxzent"):
            bound.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                bad.append((root.id, (node.attr,)))
    return bad


def test_package_imports_no_oracle():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "__init__.py" in modules
    for path in modules:
        assert _package_violations(path.read_text()) == [], path.name


def test_rpa_oracle_imports_only_the_error_types():
    imports = _imports((ORACLES / "rpa.py").read_text())
    assert ("xxzent.errors", ("BreakdownError", "ConvergenceError",
                              "DomainError", "PhaseError")) in imports
    assert _rpa_violations((ORACLES / "rpa.py").read_text()) == []


def test_other_oracles_import_only_public_names():
    others = set(ORACLES.glob("*.py")) - {ORACLES / "rpa.py"}
    assert {ORACLES / "closed_forms.py", ORACLES / "pair_sectors.py"} <= others
    for path in sorted(others):
        assert _private_violations(path.read_text()) == [], path.name


@pytest.mark.parametrize("check, source", [
    (_package_violations, "from tests.oracles import rpa"),
    (_package_violations, "import oracles.closed_forms"),
    (_package_violations, "from oracles import rpa"),
    (_rpa_violations, "from xxzent.exact import pair_state"),
    (_rpa_violations, "import xxzent"),
    (_rpa_violations, "from .closed_forms import spectrum_table"),
    (_private_violations, "from xxzent.exact import _ground_levels"),
    (_private_violations, "from xxzent.model import _level_energy_2 as e"),
    (_private_violations, "from xxzent import exact\nexact._one([])"),
    (_private_violations, "import xxzent.exact\nxxzent.exact._one([])"),
    (_private_violations, "import xxzent.cspa as c\nc._g(0.0)"),
])
def test_each_scan_flags_its_violation(check, source):
    assert check(source) != []
