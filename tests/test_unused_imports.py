"""Every name a test, package or benchmark module imports is used in that file.

An import that nothing references reads as coverage that is not there in
a test, and as a dependency that is not there in the package.  The check
parses each `tests/*.py`, `src/mcflab/*.py` and `benchmark/*.py` with
`ast`: a name bound by `import` or `from ... import` (its alias if it has
one, else the first part of a dotted module) must occur as a `Name`
somewhere in the same file, or be listed in the module's `__all__`, as the
package's re-exports are.  An import kept for its side effect says so with
`# noqa: F401` on the line that binds the name.  `__future__` imports and
`*` imports bind nothing to check.
"""

import ast
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
TESTS = sorted(HERE.glob("*.py"))
SOURCES = sorted((HERE.parent / "src" / "mcflab").glob("*.py"))
BENCHMARK = sorted((HERE.parent / "benchmark").glob("*.py"))
NOQA_F401 = re.compile(r"#\s*noqa:[^#]*\bF401\b")


def exported(tree: ast.Module) -> set:
    """The string entries of a module-level `__all__` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path: Path) -> list:
    """[(line, name)] of the imported names that no `Name` node references,
    `__all__` does not list and no `# noqa: F401` on their line exempts."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not NOQA_F401.search(lines[alias.lineno - 1]):
                    name = alias.asname or alias.name.partition(".")[0]
                    bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    return [(line, name) for line, name in bound if name not in used]


def test_every_test_import_is_used():
    unused = {
        path.name: found for path in TESTS if (found := unused_imports(path))
    }
    assert not unused, f"imported but never used: {unused}"


def test_every_package_import_is_used():
    unused = {
        path.name: found for path in SOURCES if (found := unused_imports(path))
    }
    assert not unused, f"imported but never used: {unused}"


def test_every_benchmark_import_is_used():
    unused = {
        path.name: found for path in BENCHMARK if (found := unused_imports(path))
    }
    assert not unused, f"imported but never used: {unused}"


def test_the_scan_sees_the_tests():
    # guards the guard: an empty scan would pass the check above vacuously
    assert Path(__file__) in TESTS and len(TESTS) > 5


def test_the_scan_sees_the_package():
    assert {"__init__.py", "cli.py", "identities.py"} <= {p.name for p in SOURCES}


def test_the_scan_sees_the_benchmark():
    assert {"run.py", "tracing.py", "workloads.py"} <= {p.name for p in BENCHMARK}


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "test_sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "import pytest\n"
        "from json import dumps as to_text, loads\n"
        "from conftest import measured_radius\n"
        "def test_x(tmp_path):\n"
        "    'pytest measured_radius'  # a string is not a use\n"
        "    return np.zeros(1), loads, os.sep\n"
    )
    assert unused_imports(module) == [
        (5, "pytest"), (6, "to_text"), (7, "measured_radius")
    ]


def test_the_scan_counts_all_as_a_use(tmp_path):
    module = tmp_path / "package.py"
    module.write_text(
        "from .grid import GridSpec, partial\n"
        "from .flow import run_flow\n"
        "__all__ = ['GridSpec', 'run_flow']\n"
    )
    assert unused_imports(module) == [(1, "partial")]


def test_the_scan_honours_an_explicit_f401_exemption(tmp_path):
    module = tmp_path / "bench.py"
    module.write_text(
        "import os  # noqa: F401  (side effect)\n"
        "import sys  # noqa: E402, F401\n"
        "import json  # noqa: E402\n"
        "import re  # noqa\n"
        "from math import (\n"
        "    pi,  # noqa: F401\n"
        "    tau,\n"
        ")\n"
    )
    assert unused_imports(module) == [(3, "json"), (4, "re"), (5, "tau")]
