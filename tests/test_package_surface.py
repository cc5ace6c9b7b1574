"""The package is what the verbs call: every public name in `src/mcflab` has
a caller in `src/mcflab` or in `benchmark/`.

Public names are top-level functions and classes and the methods of
top-level classes whose names do not start with an underscore.  A caller
is any `Name`, `Attribute` or import-alias reference in a package module
or a `benchmark/*.py` script; an `__init__.py`'s re-exports, strings,
docstrings and the test files do not count, except the function names of
the `TRACED` table in `benchmark/tracing.py`, which the tracer looks up
with `getattr` and fails to install without.  The check is by name only: a method whose name
another object shares (or a function named like an unrelated attribute)
counts as used, so it can miss a dead name but never flags a live one.  A helper that only
tests need belongs in `tests/conftest.py`.
"""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

from mcflab import differences, identities, shapes
from mcflab.grid import GridSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "mcflab").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "benchmark").glob("*.py"))
TRACER = ROOT / "benchmark" / "tracing.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def public_names(paths=PACKAGE):
    """{name: "module.qualname"} of the public top-level defs and methods."""
    found = {}
    for path in paths:
        for node in _parse(path).body:
            if not _is_def(node) or node.name.startswith("_"):
                continue
            found.setdefault(node.name, f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if _is_def(sub) and not sub.name.startswith("_"):
                        found.setdefault(sub.name, f"{path.stem}.{node.name}.{sub.name}")
    return found


def referenced_names(paths=CALLERS):
    used = set()
    for path in paths:
        if path.name == "__init__.py":  # re-exports: an alias there calls nothing
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def traced_names(path=TRACER):
    """The function names in the string keys of the tracer's TRACED table,
    {module: {"qualname": extra}}."""
    for node in _parse(path).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return {
                key.value.rpartition(".")[2]
                for table in node.value.values
                for key in table.keys
            }
    raise AssertionError(f"no TRACED table in {path}")


def test_every_public_name_has_a_caller_outside_tests():
    used = referenced_names() | traced_names()
    uncalled = sorted(q for name, q in public_names().items() if name not in used)
    assert not uncalled, f"public names that only tests reach: {uncalled}"


def test_every_traced_name_resolves_in_the_package():
    """The tracer looks each key of its TRACED table up with getattr on the
    package, and fails to install without it: each one resolves here, as
    the tracer would find it, without installing the tracer."""
    spec = importlib.util.spec_from_file_location("tracing", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    resolved, missing = [], []
    for mod_name, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"mcflab.{mod_name}")
        for qual in funcs:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            found = callable(getattr(owner, attr, None))
            (resolved if found else missing).append(f"{mod_name}.{qual}")
    assert not missing, f"traced names the package lacks: {missing}"
    assert {"differences.check_dd", "differences.DifferencePack.norm_sq_Y"} <= set(resolved)


def test_the_names_the_tracer_alone_keeps_alive():
    # no verb collects a run or builds a lone pack, and no stencil call
    # takes the second derivatives alone; the tracer wraps these by name,
    # so they stay until the tracer goes.  Any other name the TRACED table
    # alone would keep alive is flagged here.
    used = referenced_names()
    tracer_only = sorted(
        q for name, q in public_names().items()
        if name not in used and name in traced_names()
    )
    assert tracer_only == [
        "flow.run_fixed_dt",
        "flow.run_flow",
        "geometry.compute_geometry",
        "grid.second_partial",
    ]


def test_the_scan_sees_the_package():
    # guards the guard: an empty scan would pass the checks above vacuously
    names = public_names()
    assert {"paired_pass", "identity_suite", "main"} <= names.keys()
    assert names["norm_sq_Y"] == "differences.DifferencePack.norm_sq_Y"
    assert {"paired_pass", "identity_suite", "main"} <= referenced_names()


def test_the_scan_flags_a_helper_only_tests_call(tmp_path):
    module = tmp_path / "shapes.py"
    module.write_text(
        "def circle(): pass\n"
        "def oracle(): pass\n"
        "def _private(): pass\n"
        "class Immersion:\n"
        "    def centroid(self): pass\n"
        "    def with_positions(self): pass\n"
    )
    caller = tmp_path / "cli.py"
    caller.write_text(
        "from shapes import circle as make\n"
        "import shapes\n"
        "shapes.Immersion().with_positions()\n"
        "'oracle'  # a string is not a caller\n"
    )
    names = public_names([module])
    assert "_private" not in names
    assert names["centroid"] == "shapes.Immersion.centroid"
    used = referenced_names([module, caller])
    uncalled = sorted(q for name, q in names.items() if name not in used)
    assert uncalled == ["shapes.Immersion.centroid", "shapes.oracle"]


def test_a_re_export_alone_is_flagged(tmp_path):
    module = tmp_path / "shapes.py"
    module.write_text("def circle(): pass\ndef oracle(): pass\n")
    init = tmp_path / "__init__.py"
    init.write_text(
        "from .shapes import circle, oracle\n"
        "__all__ = ['circle', 'oracle']\n"
    )
    caller = tmp_path / "cli.py"
    caller.write_text("from shapes import circle\ncircle()\n")
    names = public_names([module])
    used = referenced_names([module, init, caller])
    uncalled = sorted(q for name, q in names.items() if name not in used)
    assert uncalled == ["shapes.oracle"]


# the module attributes `benchmark/tracing.py` rebinds inside the two passes
REBOUND = {
    identities: ("check_dX", "check_dg", "check_dGamma", "check_dh",
                 "check_simons", "gauss_cross_check"),
    differences: ("build_difference", "check_dd", "check_dw", "heat_operator_Y",
                  "time_derivative_Z_sq"),
}


def test_a_rebound_name_sees_every_call(monkeypatch):
    """The tracer rebinds a traced function's module attribute, so its spans
    cover only the calls that look the name up there.  A patch of each
    attribute sees every call that `identity_suite` and `paired_pass` make
    of the function: as many as a profile hook counts on its code."""
    through, made, codes = Counter(), Counter(), {}
    for module, names in REBOUND.items():
        for name in names:
            fn = getattr(module, name)
            codes[fn.__code__] = name

            def patched(*args, _fn=fn, _name=name):
                through[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, patched)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            made[codes[frame.f_code]] += 1

    grid = GridSpec(1, 16)
    a, b = shapes.circle(grid, 1.0), shapes.ellipse(grid, 1.2, 0.9)
    sys.setprofile(profile)
    try:
        identities.identity_suite(a, 1e-5)
        # 9 states, centres 2 .. 6, rows at 4 .. 6
        differences.paired_pass(a, b, 8e-4, 4e-4, 1e-4, 1)
    finally:
        sys.setprofile(None)
    assert made == through
    assert through == {
        **dict.fromkeys(REBOUND[identities], 1),
        "build_difference": 9,
        "check_dd": 5,
        "check_dw": 5,
        "heat_operator_Y": 3,
        "time_derivative_Z_sq": 3,
    }
