"""Structural guards: patterns that must not occur in the package.

Each guard is a `grep` pattern, kept verbatim as grep reads it, with the
files it searches and the reason it holds.  The test runs every pattern
with `re`, line by line as grep does, and asserts that no line matches.
A pattern written for grep's basic syntax (`extended` False) has its
metacharacters that are literal there escaped first.  A self-test feeds
each pattern one line it must catch, so a broken pattern cannot pass
silently, and CI runs this file instead of one grep step per guard.

Run it alone with `python -m pytest tests/test_structure.py`.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


class Guard(NamedTuple):
    reason: str
    pattern: str  # as grep reads it
    files: list  # globs under the repository root
    caught: str  # a line the pattern must catch
    extended: bool = True  # grep -E, or grep's basic syntax

    def regex(self) -> re.Pattern:
        if self.extended:
            return re.compile(self.pattern)
        # in grep's basic syntax these stand for themselves
        return re.compile(re.sub(r"([()|+?{}])", r"\\\1", self.pattern))

    def paths(self) -> list:
        return sorted({p for glob in self.files for p in ROOT.glob(glob)})


# the package's modules but the CLI, which alone sets process-wide state
NOT_CLI = [
    f"src/mcflab/{p.name}"
    for p in (ROOT / "src" / "mcflab").glob("*.py")
    if p.name != "cli.py"
]

GUARDS = [
    Guard(
        "No einsum in the package",
        "einsum(",
        ["src/mcflab/**/*.py"],
        'out = np.einsum("...ij,...ij->...", a, b)',
        extended=False,
    ),
    Guard(
        "RK4 stage sums are built in place",
        r"X \+ [^#]*\bk[1-4]\b|\bk[1-4] \+ 2 \* k[1-4]",
        ["src/mcflab/flow.py"],
        "    X2 = X + 0.5 * dt * k1",
    ),
    Guard(
        "No stepping loop in the CLI",
        "step_rk4|_rk4_positions|kernel_layout|geometry_kernel",
        ["src/mcflab/cli.py"],
        "    k = geometry_kernel(grid, X)",
    ),
    Guard(
        "No verb collects a trajectory",
        "run_flow|run_fixed_dt|FlowTrajectory",
        ["src/mcflab/cli.py"],
        "    traj = run_fixed_dt(initial, dt, 4)",
    ),
    Guard(
        "Windows evaluate no kernel",
        "stacked_kernel|geometry_kernel",
        ["src/mcflab/identities.py", "src/mcflab/differences.py"],
        "        kern = stacked_kernel(states)",
    ),
    Guard(
        "Windows hold five items",
        r"def sweep|_dropped|\.sweep\(",
        ["src/mcflab/**/*.py"],
        "    def sweep(self, k):",
    ),
    Guard(
        "No pair pack keeps the second flow's geometry",
        r"\.geomB\b",
        ["src/mcflab/*.py"],
        "    g = p.geomB",
    ),
    Guard(
        "The paired pass keeps no books",
        "release_geometry|rates?=None",
        ["src/mcflab/*.py"],
        "def check(window, c, rates=None):",
    ),
    Guard(
        "Only geometry reads a kernel's component lists",
        r"\.(dX|ginv|gamma|h)\b",
        [f"src/mcflab/{m}.py" for m in ("identities", "differences", "flow", "cli")],
        "    for d in kern.dX:",
    ),
    Guard(
        "Checkpoints are written per slab",
        r'node_multi_indices|""\.join\(',
        ["src/mcflab/grid.py"],
        '    text = "".join(rows)',
    ),
    Guard(
        "One config reading route in the CLI",
        r"_value\(|_check_keys\(",
        ["src/mcflab/cli.py"],
        '    dt = _value(config, "dt")',
    ),
    Guard(
        "The CLI runs no check and takes no ignored key",
        r"FoldingWindow|curvature_gauss|check_(dX|dg|dGamma|dh|simons)\b"
        r"|gauss_cross_check\(|\*\*_\b",
        ["src/mcflab/cli.py"],
        "def run(config, **_):",
    ),
    Guard(
        "The CLI builds no paired window",
        "PairedWindow|fitted_centers|verify_inequalities|_require_paired_window"
        "|errstate",
        ["src/mcflab/cli.py"],
        "    with np.errstate(over='ignore'):",
    ),
    Guard(
        "One window class: the identity suite folds in a plain loop",
        "SampleWindow|FoldingWindow|FieldRates|evolution_residual",
        ["src/mcflab/*.py"],
        "class FoldingWindow(SampleWindow):",
    ),
    Guard(
        "The paired pass is a plain loop",
        r"PairedWindow|class \w*Window\b|def time_derivative\(",
        ["src/mcflab/*.py"],
        "class PairedWindow:",
    ),
    Guard(
        "The identity suite takes no time difference",
        "five_point",
        ["src/mcflab/identities.py"],
        "            acc = five_point_fold(k, acc, f, dt)",
    ),
    Guard(
        "The curve kernel makes one halo copy",
        r"partial\(grid, det",
        ["src/mcflab/geometry.py"],
        "        gamma = partial(grid, det, 0)  # c_000 = d_0 g_00",
    ),
    Guard(
        "Only grid holds stencil weights",
        r"\b(8|16|30)\.0\b|12 \* h",
        [
            f"src/mcflab/{m}.py"
            for m in ("geometry", "identities", "differences", "flow", "shapes")
        ],
        "            d = np.multiply(pad[3:-1], 8.0)",
    ),
    Guard(
        "Only grid makes periodic halo copies",
        r"np\.concatenate\(|derivative_order",
        [
            f"src/mcflab/{m}.py"
            for m in ("geometry", "identities", "differences", "flow", "shapes")
        ],
        "        pad = np.concatenate((X[tail], X, X[head]))",
    ),
    Guard(
        "One loop sums products of components",
        r"np\.multiply\(M\[a,",
        ["src/mcflab/*.py"],
        "        np.multiply(M[a, 0], field_arr[lead + (0,)], out=o)",
    ),
    Guard(
        "Only the CLI sets the allocator of the process",
        r"\bmallopt\b|\bctypes\b",
        NOT_CLI,
        "    ctypes.CDLL(None).mallopt(-3, 32 * 2**20)",
    ),
    Guard(
        "Only the CLI formats report text",
        "def serialize|csv_row|CSV_HEADER|LIMITATION_STATEMENT",
        [
            f"src/mcflab/{m}.py"
            for m in ("identities", "differences", "flow", "geometry", "grid", "shapes")
        ],
        "    def serialize(self) -> str:",
    ),
    Guard(
        "Only the CLI sets numpy's ufunc buffer",
        r"\bsetbufsize\b",
        NOT_CLI,
        "    np.setbufsize(1024)",
    ),
]


IDS = [g.reason for g in GUARDS]


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_no_line_matches(guard):
    paths = guard.paths()
    assert paths, f"{guard.files} name no file"
    regex = guard.regex()
    found = [
        f"{path.relative_to(ROOT)}:{n}: {line}"
        for path in paths
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]
    assert not found, "\n".join(found)


@pytest.mark.parametrize("guard", GUARDS, ids=IDS)
def test_pattern_catches_its_line(guard):
    assert guard.regex().search(guard.caught)


def test_basic_syntax_is_literal():
    (einsum,) = [g for g in GUARDS if not g.extended]
    assert not einsum.regex().search("einsum")
    assert einsum.regex().search("np.einsum(")


def test_ci_runs_the_guards_from_here():
    """The guards live in this table alone: CI greps for none itself."""
    workflow = WORKFLOW.read_text()
    assert "grep" not in workflow
    assert "tests/test_structure.py" in workflow
