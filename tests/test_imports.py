"""Every name a module imports is read somewhere in that module.

The scan parses each file of the package and of the test suite with
``ast``: an imported name counts as read when some ``Name`` node loads it
(an attribute chain ``np.linalg.eigh`` loads ``np``).  ``from __future__``
imports change how the file compiles and bind nothing to read, and the
package ``__init__.py`` imports names to re-export them, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for p in [*(ROOT / "src" / "degswap").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in dict.fromkeys(imported) if name not in read]


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads as parse\n"
              "def f(x: np.ndarray):\n"
              "    dumps = 1\n"
              "    return parse(x)\n")
    assert unused_imports(source) == ["os", "dumps"]


def test_scan_covers_package_and_tests():
    names = {(p.parent.name, p.name) for p in SCANNED}
    assert {("degswap", "mixing.py"), ("degswap", "cli.py"),
            ("tests", "oracles.py"), ("tests", "test_imports.py")} <= names


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.relative_to(ROOT)} never reads the imported {', '.join(unused)}"
