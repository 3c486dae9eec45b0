"""Every name a module imports is read somewhere in that module, and the
package's public surface is the one pinned here.

The scan parses each file of the package and of the test suite with
``ast``: an imported name counts as read when some ``Name`` node loads it
(an attribute chain ``np.linalg.eigh`` loads ``np``).  ``from __future__``
imports change how the file compiles and bind nothing to read, and the
package ``__init__.py`` imports names to re-export them, so both are exempt.

The surface: ``degswap.__all__``'s names other than its submodules, and
every package attribute that the benchmark's tracer wraps, so that
retiring a name the benchmark reads fails here and not only in the
benchmark's own smoke run.
"""

import ast
import functools
import importlib
import inspect
import types
from pathlib import Path

import pytest

import degswap

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


# every name degswap exports besides its submodules
PUBLIC = [
    "AlternatingCycle", "BipartiteDegreeSequence", "BipartiteGraph", "CircuitDecomposition",
    "DegSwapError", "EdgePartition", "Exceeds", "FMatrix", "FriendlyPath", "NotGraphical",
    "OKKOSpec", "Pairing", "StateSpace", "SteinhausSet", "Swap", "TransitionMatrix",
    "Unreachable", "all_pairings", "allowed_swaps", "apply_swap", "build_kernel",
    "canonical_path", "congestion", "count_realizations", "decompose", "enumerate_pairings_count", "enumerate_states", "f_matrix",
    "find_friendly_path", "greedy_realize", "hat_matrix", "is_graphical", "ok_ko_step",
    "path_along_cycle", "path_distribution", "random_pairing", "ryser_sequence", "sample",
    "spectral_gap", "swap_distance", "switch_distance", "symmetric_difference",
    "total_variation_time", "tv_mixing_time",
]


def test_public_names_are_pinned():
    names = sorted(name for name in degswap.__all__
                   if not isinstance(getattr(degswap, name), types.ModuleType))
    assert names == PUBLIC


def traced_names(source: str) -> set:
    """The package attributes that ``install`` in ``source`` (the tracer's
    text) wraps, as (module, dotted attribute) pairs: each ``(module,
    "name", hooks)`` entry of its list, each ``module.name`` it reads, and
    each ``alias.name`` read off an alias bound to ``module.name``, all
    under the modules it imports as ``import degswap.x as y``."""
    install = next(node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {a.asname: a.name for node in ast.walk(install) if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("degswap.")}
    bound, out = {}, set()
    for node in ast.walk(install):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, attr = node.elts[:2]
            if (isinstance(mod, ast.Name) and mod.id in modules
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                out.add((modules[mod.id], attr.value))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                out.add((modules[node.value.id], node.attr))
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id in modules):
            for target in node.targets:
                bound[target.id] = (modules[node.value.value.id], node.value.attr)
    for node in ast.walk(install):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            mod, attr = bound[node.value.id]
            out.add((mod, f"{attr}.{node.attr}"))
    return out


def test_every_name_the_tracer_wraps_resolves():
    names = traced_names((ROOT / "perfbench" / "tracer.py").read_text())
    # the scan finds the list, the generator and the graph class's methods
    assert {("degswap.chain", "sample"), ("degswap.mixing", "tv_mixing_time"),
            ("degswap.pairings", "all_pairings"), ("degswap.core", "BipartiteGraph.__init__"),
            ("degswap.core", "BipartiteGraph.to_text")} <= names
    assert len(names) > 20
    # ryser_sequence's hook reads its first argument's edge count, and
    # sample's reads its steps as the second argument or by keyword
    names.add(("degswap.core", "BipartiteGraph.num_edges"))
    assert list(inspect.signature(degswap.chain.sample).parameters) == ["ds", "steps", "seed"]
    for module, attr in sorted(names):
        assert functools.reduce(getattr, attr.split("."), importlib.import_module(module)), (
            module, attr)
