"""Configuration-driven experiment runner.

Verbs: simulate, identities, diff-system, symmetry, convergence; each takes
--config <json> and --out <dir>.  A verb reads its config, runs one layer's
pass (the identity suite, the paired pass or a flow stream) and writes the
reports; its own checks are verdicts (exit 1) on the pass's numbers: the
identity thresholds, monotone volume, the symmetry tolerance, the refinement
order, and the paired pass's flagged nodes and envelope.  Configs are read
through one table per verb, SCHEMA, and are strict: unknown keys, keys of
another geometry kind or permutation type, and keys the verb would ignore
(a `seed` without a `perturbation`, a `cfl_safety` or `dt_max` beside a
`fixed_dt`) are errors, not warnings; each runner takes exactly its
table's keys.  Given the same config, report bodies are byte-identical;
wall-clock timestamps appear only in the manifest.

The report files: this module is the one writer of their bytes, and their
layouts stand here beside REPORT_FORMAT; the library layers return numbers
only.  One cell rule serves every table, every `key = value` line of the
inequality report's head and every manifest entry: text is written as it
is, and a number by repr (`_cell`).  `_table` writes all seven tables: each
`residual_<identity>.csv`, `difference_identities.csv`, `trajectory.csv`,
`symmetry_defect.csv`, `gronwall_envelope.csv`, `convergence.csv` and the
energy table of `inequality_report.txt`.  A numeric cell must be a Python
float or int, as numpy 2 writes repr(np.float64(0.5)) as
`np.float64(0.5)`: an array's entries go in through `.tolist()`.  The
summaries are prose for the reader.  A change to any report byte raises
REPORT_FORMAT.

The allocator: once per process, before its first verb runs,
`run_experiment` fixes glibc's mmap threshold at 32 MiB and its trim
threshold at 64 MiB, the values glibc's own dynamic rule ends in on a
64-bit host.  That rule starts at 128 KiB and rises only when a large
block is freed, so in a fresh interpreter each grid array above 128 KiB
is mapped, faulted in and unmapped again until then; with the fixed values
a `convergence` run at N = 32, 64, 128 takes about a quarter of the minor
page faults.  No number changes.  This module is the one place that sets
the allocator: the library layers leave it to their caller.

The ufunc buffer: `run_experiment` runs each verb with numpy's ufunc buffer
at UFUNC_BUFSIZE = 1024 elements and puts the caller's value back when the
verb returns or raises.  numpy's ufunc iterator copies an operand through
its buffer (8192 elements by default) whenever the operand's contiguous run
is shorter than the buffer, and the lab's hot operands have such runs: the
m=2 stencil tap windows, and the components of a covariant field at m=2,
N=32 (N^2 = 1024 nodes).  With a buffer no longer than those runs the same
operations run in the same order on the operands themselves, so no number
changes.  (The axis-1 tap windows of the m=2 stencils, runs of N times the
batch, still go through it.)  As with the allocator, this module is the one
place that sets the buffer.

Exit codes: 0 success, 1 assertion failure, 2 invalid config (a grid too
large to allocate among them) or violated precondition, 3 numerical
blow-up.

"""

from __future__ import annotations

import ctypes
import datetime
import functools
import json
import os
import sys

import numpy as np

from . import shapes
from .differences import forward_gronwall, paired_pass
from .flow import MAX_STEPS, BlowUpError, StepPolicy, adaptive_stream, fixed_dt_stream
from .geometry import induced_volume, stacked_kernel
from .grid import (
    GridSpec,
    Immersion,
    SymmetryAction,
    apply_symmetry,
    read_immersion,
    reflection_permutation,
    shift_permutation,
    write_immersion,
)
from .identities import ANCHORS, identity_suite

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# Residuals below this are reported as exact discrete identities and are
# excluded from order fitting.
EXACT_FLOOR = 1e-8

# glibc's mallopt parameters and the values its dynamic mmap threshold rule
# ends in on a 64-bit host: the threshold at its ceiling (so every grid array
# of N <= 256 comes from the heap) and the trim threshold at twice that.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

# numpy's ufunc buffer, in elements, while a verb runs: no longer than the
# contiguous runs of the hot operands, so the iterator does not copy them
UFUNC_BUFSIZE = 1024

# The version of the report files' layout and numbers, written in every
# manifest.  Format 2: the identity suite takes its evolution rates exactly
# (`geometry.kernel_rate`), not by a five-point time difference.
REPORT_FORMAT = 2

# The layouts of the report files.  The statement is written in the
# manifest, the inequality report and the diff-system summary.
LIMITATION_STATEMENT = (
    "note: backwards-in-time mean curvature flow integration is ill-posed "
    "and is not attempted; uniqueness is exercised only through the "
    "forward-in-time difference-tensor inequality measurements."
)
# a ResidualReport's columns; orders are fitted by the convergence verb, so
# order_estimate stays empty
RESIDUAL_HEADER = ("identity", "N", "dt", "t", "sup_residual", "l2_residual",
                   "order_estimate")
# the keys of an InequalityReport row
ENERGY_HEADER = ("t", "E_Y", "E_gradY", "E_Z", "sup_lhs1", "sup_lhs2")


class ConfigError(ValueError):
    pass


def _not_bool(value):
    """value itself, unless it is a JSON true or false: float(True) is 1.0."""
    if isinstance(value, bool):
        raise ValueError("must be a number, not a boolean")
    return value


def _real(value) -> float:
    """float(value) of a JSON number, an int or a float; JSON's NaN and
    Infinity, booleans and strings such as "1.0" are errors."""
    if not isinstance(_not_bool(value), (int, float)):
        raise ValueError("must be a number")
    x = float(value)
    if not np.isfinite(x):
        raise ValueError("must be finite")
    return x


def _integer(value) -> int:
    """int(value) of an integral number; 16.9, "16" or true is an error."""
    x = int(_not_bool(value))
    if x != value:
        raise ValueError("must be an integer")
    return x


def _integers(values) -> list:
    """_integer of each entry of a list, or of a single number."""
    return [_integer(v) for v in (values if isinstance(values, list) else [values])]


def _floats(values) -> list:
    return [_real(v) for v in values]


def _bounded(kind, holds, message):
    """kind restricted to the values for which holds is true."""

    def convert(value):
        x = kind(value)
        if not holds(x):
            raise ValueError(message)
        return x

    return convert


def _positive(kind):
    """kind restricted to positive values: time steps and strides."""
    return _bounded(kind, lambda x: x > 0, "must be positive")


_pair = _bounded(_floats, lambda v: len(v) == 2, "need 2 entries")  # centre, radii
# tolerances; not (0).__le__, whose NotImplemented for a float reads as true
_non_negative = _bounded(_real, lambda x: x >= 0, "must not be negative")
_resolution = _bounded(_integer, lambda n: n >= 8, "must be at least 8")  # as GridSpec

# Each table maps a key to (kind, default): kind converts the JSON value, or is
# the table of a section.  An absent key reads as its default, converted, unless
# that is REQUIRED (an error), OPTIONAL (None, for the runner to derive from
# other values) or None (None, as is a null: a nullable key).  The keys are the
# parameter names of the runners and of what they build.  A section whose key
# `by` picks one of its {kind: (maker, table)} is the pair (by, kinds); it reads
# as the maker with the kind's values bound.
REQUIRED = object()
OPTIONAL = object()


def _checkpoint(grid: GridSpec, path: str) -> Immersion:
    """The immersion of a `checkpoint` geometry: a missing file, or a
    checkpoint on a grid other than the config's `grid`, is a ConfigError
    (a malformed file is read_immersion's CheckpointError); both exit 2."""
    if not os.path.isfile(path):
        raise ConfigError(f"invalid 'path' of a checkpoint: {path!r} does not exist")
    imm = read_immersion(path, grid.derivative_order)
    if imm.grid != grid:
        raise ConfigError(
            f"geometry checkpoint {path!r} is on a grid with "
            f"m={imm.grid.m}, N={imm.grid.resolution}; the config grid has "
            f"m={grid.m}, N={grid.resolution}"
        )
    return imm


# makers look shapes up when called, so the benchmark tracer's rebinding reaches them
GEOMETRY = ("kind", {
    "circle": (lambda grid, **k: shapes.circle(grid, **k),
               {"radius": (_real, 1.0), "center": (_pair, (0, 0))}),
    "ellipse": (lambda grid, **k: shapes.ellipse(grid, **k),
                {"a": (_real, 1.5), "b": (_real, 1.0)}),
    "product_torus": (lambda grid, radii: shapes.product_torus(grid, *radii),
                      {"radii": (_pair, (1.0, 1.0))}),
    "perturbed_torus": (lambda grid, **k: shapes.perturbed_torus(grid, **k),
                        {"r1": (_real, 1.0), "r2": (_real, 1.0),
                         "amplitude": (_real, 0.1)}),
    "checkpoint": (_checkpoint, {"path": (os.fspath, REQUIRED)}),
})

# the grid of a convergence run: its resolutions are a top-level key
CONVERGENCE_GRID = {
    "m": (_bounded(_integer, (1, 2).__contains__, "must be 1 or 2"), 1),
    "derivative_order": (_bounded(_integer, (2, 4).__contains__, "must be 2 or 4"), 2),
}


def _read(cfg, table, context: str):
    """{key: value} of every key of table, from cfg or its default.  A
    section that is not an object, an unknown or missing key and a value
    that its kind rejects are ConfigErrors naming the key and section."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"section {context!r} must be an object, got {cfg!r}")
    if isinstance(table, tuple):  # (by, kinds)
        by, kinds = table
        cfg = dict(cfg)
        kind = cfg.pop(by, None)
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(
                f"invalid {by!r} in {context}: {kind!r}; allowed: {sorted(kinds)}"
            )
        make, keys = kinds[kind]
        return functools.partial(make, **_read(cfg, keys, context))
    unknown = cfg.keys() - table.keys()
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {context}; allowed: {sorted(table)}"
        )
    out = {}
    for key, (kind, default) in table.items():
        value = cfg.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {context}")
        if value is OPTIONAL or value is None and default is None:
            out[key] = None
        elif isinstance(kind, (dict, tuple)):  # a section, named by its path
            out[key] = _read(value, kind, f"{context}.{key}".removeprefix("config."))
        else:
            try:
                out[key] = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"invalid {key!r} in {context}: {value!r} ({exc})"
                ) from exc
    return out


def _build_symmetry(grid, ambient, matrix, translation, permutation):
    b = np.zeros(ambient) if translation is None else np.asarray(translation)
    try:
        return SymmetryAction(matrix, b, permutation(grid))
    except ValueError as exc:  # a shift or axis off the grid, or a bad (matrix, b)
        keys = ", ".join(map(repr, ["matrix", "translation", *permutation.keywords]))
        raise ConfigError(f"invalid symmetry ({keys}): {exc}") from exc


def _write(out_dir: str, name: str, body: str):
    # into the directory that run_experiment made
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(body)


def _cell(value) -> str:
    """The cell rule: text as it is, a number (a Python float or int) by repr."""
    return value if isinstance(value, str) else repr(value)


def _text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _table(header, rows) -> str:
    """The body of a table: the header, then one line per row, cells by _cell."""
    return _text(",".join(map(_cell, row)) for row in [header, *rows])


def _entries(entries: dict) -> list:
    """The `key = value` lines of entries, values by _cell."""
    return [f"{key} = {_cell(value)}" for key, value in entries.items()]


def _manifest(out_dir: str, entries: dict):
    lines = [f"generated = {datetime.datetime.now().isoformat()}",
             *_entries({"report_format": REPORT_FORMAT, **entries}),
             LIMITATION_STATEMENT]
    _write(out_dir, "manifest.txt", _text(lines))


def _residual_cells(rep) -> tuple:
    """A ResidualReport's cells under RESIDUAL_HEADER."""
    return (rep.identity, rep.resolution, rep.dt, rep.t_center, rep.sup_residual,
            rep.l2_residual, "")


def _inequality_report(report) -> str:
    """inequality_report.txt of an InequalityReport: its numbers as
    `key = value` lines, the limitation statement and the energy table."""
    head = _entries({
        "N": report.resolution, "dt": report.dt, "delta": report.delta,
        "T": report.T, "K": report.K, "K_tilde": report.K_tilde,
        "C1": report.C1, "C2": report.C2, "flagged_nodes": report.flagged_nodes,
    })
    rows = [[r[key] for key in ENERGY_HEADER] for r in report.rows]
    return (_text(["inequality report", *head, LIMITATION_STATEMENT, ""])
            + _table(ENERGY_HEADER, rows))


# The suite's identities, each with its default threshold coeff * h^2 + 1e-7:
# empirical O(h^2) envelopes from the shipped refinement studies, with a floor
# for identities that are exact discretely.
THRESHOLD_COEFFS = {
    "evolve_position_gradient": 1.0,
    "evolve_metric": 20.0,
    "evolve_connection": 30.0,
    "evolve_second_form": 80.0,
    "second_form_commutation": 40.0,
    "gauss_cross_check": 40.0,
}


def run_identities(out_dir, grid, geometry, dt, thresholds) -> int:
    grid = GridSpec(**grid)
    initial = geometry(grid)
    h2 = grid.spacing**2
    dt = min(1e-4, h2 / 10.0) if dt is None else dt
    thresholds = {
        name: coeff * h2 + 1e-7 if thresholds[name] is None else thresholds[name]
        for name, coeff in THRESHOLD_COEFFS.items()
    }
    reports = identity_suite(initial, dt)
    header = (*RESIDUAL_HEADER, "threshold", "status", "anchor")
    failures = []
    for rep in reports:
        thr = thresholds[rep.identity]
        status = "pass" if rep.sup_residual <= thr else "fail"
        if status == "fail":
            failures.append(rep.identity)
        row = (*_residual_cells(rep), thr, status, ANCHORS[rep.identity])
        _write(out_dir, f"residual_{rep.identity}.csv", _table(header, [row]))
    _manifest(
        out_dir,
        {
            "experiment": "identities",
            "N": grid.resolution,
            "dt": dt,
            "failures": ",".join(failures) or "none",
        },
    )
    summary = [f"identity suite on N={grid.resolution}"]
    for rep in reports:
        summary.append(
            f"  {rep.identity}: sup={rep.sup_residual:.3e} l2={rep.l2_residual:.3e}"
        )
    summary.append(f"result: {'FAIL ' + str(failures) if failures else 'PASS'}")
    _write(out_dir, "summary.txt", "\n".join(summary) + "\n")
    if failures:
        print(f"identity assertion failed: {failures}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def run_simulate(out_dir, grid, geometry, T, policy, sample_times) -> int:
    """The adaptive flow to T, with a checkpoint and a volume row per
    sample time (by default the initial and final states; an empty list
    exits 2).  Each state's volume comes from the kernel handed over with
    it, which is dropped before the checkpoint is written, so memory does
    not grow with the samples.  After a blow-up (exit 3) the checkpoints of
    the states reached stay on disk, with no trajectory.csv or summary."""
    policy = {key: value for key, value in policy.items() if value is not None}
    for key in ("cfl_safety", "dt_max"):
        if key in policy and "fixed_dt" in policy:
            raise ConfigError(f"invalid {key!r} in policy: 'fixed_dt' overrides it")
    grid = GridSpec(**grid)
    initial = geometry(grid)
    stream = adaptive_stream(initial, T, StepPolicy(**policy), sample_times)
    rows, vol, steps = [], [], 0  # each stored state's trajectory.csv row, volume
    for state, kern, dts in stream:
        vol.append(induced_volume(kern.det, grid))
        del kern  # neither beside the checkpoint writer nor through the next steps
        steps += len(dts)
        name = f"checkpoint_{len(rows):04d}.txt"
        with open(os.path.join(out_dir, name), "w") as fh:
            write_immersion(state, fh)
        rows.append((state.time, name, vol[-1]))
    _write(out_dir, "trajectory.csv", _table(("t", "file", "volume"), rows))
    _manifest(
        out_dir,
        {"experiment": "simulate", "N": grid.resolution, "T": T,
         "steps": steps, "states": len(rows)},
    )
    monotone = all(b <= a + 1e-10 for a, b in zip(vol, vol[1:]))
    _write(
        out_dir,
        "summary.txt",
        f"simulate: {steps} steps to T={T}\n"
        f"volume monotone: {monotone}\n",
    )
    return EXIT_OK if monotone else EXIT_ASSERTION


def run_symmetry(
    out_dir, grid, geometry, symmetry, steps, record_every, tolerance, dt
) -> int:
    """The defect of the symmetry action along a fixed-step flow of at most
    MAX_STEPS steps.  The action must fix the initial immersion to 1e-13
    (else exit 2).  The defect times are the stream's exact stamps
    t0 + k dt from the start time t0 (a checkpoint's time), not sums."""
    grid = GridSpec(**grid)
    initial = geometry(grid)
    action = _build_symmetry(grid, initial.ambient_dim, **symmetry)
    if steps > MAX_STEPS:
        raise ConfigError(
            f"invalid 'steps' in config: {steps!r} is more than {MAX_STEPS}"
        )
    # one kernel call gives the default dt and the first step's velocity;
    # degeneracy of the initial immersion is bad input, later a blow-up
    kern = stacked_kernel([initial])
    if dt is None:
        dt = StepPolicy().step_size(kern.metric, grid.spacing)

    def defect(imm):
        mapped = apply_symmetry(imm, action)
        return float(np.abs(mapped.positions - imm.positions).max())

    d0 = defect(initial)
    if d0 > 1e-13:
        raise ConfigError(
            f"initial symmetry defect {d0:.3e} exceeds 1e-13: "
            "the action is not a symmetry of the initial immersion"
        )
    rows, k = [], 0  # no enumerate: its reused result tuple keeps the last kernel
    for (state,), kern in fixed_dt_stream([initial], dt, steps, kern=kern):
        del kern  # the initial one too: no kernel lives through the next step
        if k % record_every == 0 or k == steps:
            rows.append((state.time, defect(state)))
        k += 1
    worst = max(d for _, d in rows)
    _write(out_dir, "symmetry_defect.csv", _table(("t", "defect"), rows))
    _manifest(
        out_dir,
        {"experiment": "symmetry", "N": grid.resolution, "steps": steps,
         "dt": dt, "max_defect": worst, "tolerance": tolerance},
    )
    ok = worst <= tolerance
    _write(
        out_dir,
        "summary.txt",
        f"symmetry persistence over {steps} steps: max defect {worst:.3e} "
        f"(tolerance {tolerance:.1e}) -> {'PASS' if ok else 'FAIL'}\n",
    )
    if not ok:
        print(f"symmetry defect {worst:.3e} exceeds {tolerance:.1e}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def run_diff_system(
    out_dir, grid, geometry, geometry_b, perturbation, seed, T, delta, dt, store_every
) -> int:
    """`differences.paired_pass` on [delta, T] of the flows from geometry
    and from geometry_b or its perturbation (seed 0 if absent), which
    checks its plan before it integrates (else exit 2).  The verdict: no
    flagged node, finite C1 and C2, and the Gronwall envelope holds (else
    exit 1)."""
    if seed is not None and perturbation is None:
        raise ConfigError("invalid 'seed' in config: only a 'perturbation' reads it")
    grid = GridSpec(**grid)
    initA = geometry(grid)
    initB = initA if geometry_b is None else geometry_b(grid)
    if perturbation is not None:  # then geometry_b is None
        initB = shapes.low_mode_perturbation(initA, seed=seed or 0, **perturbation)
    dt = grid.spacing**2 / 20.0 if dt is None else dt
    store_every = max(1, round(T / dt / 60)) if store_every is None else store_every
    report = paired_pass(initA, initB, T, delta, dt, store_every)
    t, F, G, dFdt, envelope, c_star = forward_gronwall(report)
    _write(out_dir, "inequality_report.txt", _inequality_report(report))
    rows = [(*_residual_cells(rep), ANCHORS[rep.identity])
            for rep in (report.dd, report.dw)]
    _write(out_dir, "difference_identities.csv",
           _table((*RESIDUAL_HEADER, "anchor"), rows))
    columns = (t, F, G, dFdt, envelope, np.full_like(t, c_star))
    header = ("t", "F", "G", "dFdt", "envelope", "c_star")
    _write(out_dir, "gronwall_envelope.csv",
           _table(header, zip(*(c.tolist() for c in columns))))
    _manifest(
        out_dir,
        {"experiment": "diff-system", "N": grid.resolution, "dt": dt,
         "T": T, "delta": delta, "C1": report.C1, "C2": report.C2},
    )
    ok = report.flagged_nodes == 0 and np.isfinite(report.C1) and np.isfinite(
        report.C2
    )
    envelope_ok = bool(np.all(F <= envelope * (1 + 1e-9) + 1e-300))
    _write(
        out_dir,
        "summary.txt",
        f"diff-system on [{delta}, {T}]: C1={report.C1:.6g} C2={report.C2:.6g}\n"
        f"K={report.K:.6g} K_tilde={report.K_tilde:.6g}\n"
        f"flagged nodes: {report.flagged_nodes}\n"
        f"envelope holds: {envelope_ok}\n"
        f"{LIMITATION_STATEMENT}\n",
    )
    return EXIT_OK if ok and envelope_ok else EXIT_ASSERTION


def run_convergence(out_dir, grid, geometry, resolutions, dt, min_order) -> int:
    """The identity suite at each resolution, each double the last (else
    exit 2), and each identity's refinement order."""
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ConfigError(f"invalid 'resolutions' in config: {b} is not 2 * {a}")
    dt = (2 * np.pi / resolutions[-1]) ** 2 / 10.0 if dt is None else dt
    results = {}
    for N in resolutions:
        initial = geometry(GridSpec(resolution=N, **grid))
        for rep in identity_suite(initial, dt):
            results.setdefault(rep.identity, []).append(rep.sup_residual)
    rows, failures = [], []
    for identity, residuals in results.items():
        res = np.array(residuals)
        if np.all(res < EXACT_FLOOR):
            flag = "exact"
            order = ""
        else:
            # Richardson estimate from the two finest grids; coarser grids
            # are often preasymptotic
            slope = float(np.log2(res[-2] / max(res[-1], 1e-300)))
            order = format(slope, ".4g")
            flag = "ok" if slope >= min_order else "below-order"
            if slope < min_order:
                failures.append(identity)
        res_str = ";".join(format(r, ".6e") for r in residuals)
        rows.append((identity, res_str, order, flag))
    table = _table(("identity", "residuals", "order", "flag"), rows)
    _write(out_dir, "convergence.csv", table)
    _manifest(
        out_dir,
        {"experiment": "convergence",
         "resolutions": ",".join(map(str, resolutions)),
         "dt": dt, "failures": ",".join(failures) or "none"},
    )
    result = "FAIL" if failures else "PASS"
    _write(out_dir, "summary.txt", table + f"result: {result}\n")
    if failures:
        print(f"order below {min_order}: {failures}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# every verb's keys besides its kind
COMMON = {
    "grid": ({**CONVERGENCE_GRID, "resolution": (_resolution, REQUIRED)}, {}),
    "geometry": (GEOMETRY, REQUIRED),
}

SCHEMA = ("kind", {
    "simulate": (run_simulate, {
        **COMMON,
        "T": (_real, REQUIRED),
        "policy": ({
            "cfl_safety": (_positive(_real), OPTIONAL),
            "dt_max": (_positive(_real), OPTIONAL),
            "fixed_dt": (_positive(_real), None),
        }, {}),
        "sample_times": (_bounded(_floats, len, "stores no state"), None),
    }),
    "identities": (run_identities, {
        **COMMON,
        "dt": (_positive(_real), OPTIONAL),
        "thresholds": (
            {name: (_non_negative, OPTIONAL) for name in THRESHOLD_COEFFS}, {}
        ),
    }),
    "diff-system": (run_diff_system, {
        **COMMON,
        "seed": (_bounded(_integer, (0).__le__, "must not be negative"), OPTIONAL),
        "geometry_b": (GEOMETRY, OPTIONAL),
        "perturbation": ({
            "amplitude": (_real, 1e-3),
            "max_mode": (_positive(_integer), 3),
        }, OPTIONAL),
        "T": (_real, REQUIRED),
        "delta": (_real, REQUIRED),
        "dt": (_positive(_real), OPTIONAL),
        "store_every": (_positive(_integer), OPTIONAL),
    }),
    "symmetry": (run_symmetry, {
        **COMMON,
        "symmetry": ({
            "matrix": (lambda rows: np.array([_floats(r) for r in rows]), REQUIRED),
            "translation": (_floats, OPTIONAL),
            "permutation": (("type", {
                "shift": (shift_permutation, {"offsets": (_integers, REQUIRED)}),
                "reflection": (reflection_permutation, {"axes": (_integers, [0])}),
            }), {}),
        }, {}),
        "steps": (_positive(_integer), 2000),
        "record_every": (_positive(_integer), 10),
        "tolerance": (_non_negative, 1e-10),
        "dt": (_positive(_real), None),
    }),
    "convergence": (run_convergence, {
        **COMMON,
        "grid": (CONVERGENCE_GRID, {}),
        "resolutions": (_bounded(
            lambda v: [_resolution(n) for n in v], lambda v: len(v) >= 3,
            "need at least 3, each double the last",
        ), REQUIRED),
        "dt": (_positive(_real), OPTIONAL),
        "min_order": (_real, 1.9),
    }),
})


@functools.cache
def _fix_heap_policy() -> None:
    """Put glibc's allocator, once per process, where its dynamic threshold
    rule ends: mmap threshold MMAP_THRESHOLD, then trim threshold
    TRIM_THRESHOLD.  The trim call is made only if glibc took the first,
    since a trim setting alone also freezes the mmap threshold at its
    128 KiB start.  Where the C library cannot be opened or has no mallopt
    (not glibc), nothing is set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def run_experiment(config: dict, out_dir: str) -> int:
    """Read config through SCHEMA and run its verb into out_dir.  A bad
    config, or an out_dir that cannot be made a directory (such as an
    existing file), is a ConfigError naming the key or the path.

    Before the first verb of the process runs, the allocator's mmap and trim
    thresholds are fixed (`_fix_heap_policy`), so a verb's grid arrays come
    from the heap and stay faulted in from its first call on, not only after
    glibc's dynamic thresholds have risen.  The verb runs with numpy's ufunc
    buffer at UFUNC_BUFSIZE elements, and the caller's buffer size is back
    when it returns or raises; see the module docstring.  A MemoryError
    while the verb runs, as from a config grid too large to allocate, is a
    ConfigError naming the grid's m and N (exit 2)."""
    # before the read, as either source of the second flow may be malformed
    if {"geometry_b", "perturbation"} <= config.keys():
        raise ConfigError(
            "'geometry_b' and 'perturbation' both give the second flow; keep one"
        )
    run = _read(config, SCHEMA, "config")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    _fix_heap_policy()
    old = np.setbufsize(UFUNC_BUFSIZE)
    try:
        return run(out_dir)
    except MemoryError as exc:  # a grid too large for this host
        kw = run.keywords
        N = kw["grid"].get("resolution", kw.get("resolutions"))
        msg = f"grid m={kw['grid']['m']}, N={N} cannot be allocated: {exc}"
        raise ConfigError(msg) from exc
    finally:
        np.setbufsize(old)


def _anchor_table() -> str:
    width = max(len(k) for k in ANCHORS)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in ANCHORS.items())


def main(argv=None) -> int:
    import argparse  # here, not at the top: a library caller does not load it

    parser = argparse.ArgumentParser(
        prog="mcflab", description="mean curvature flow numerical laboratory"
    )
    parser.add_argument(
        "--list-anchors",
        action="store_true",
        help="print the identity-to-formula table and exit",
    )
    sub = parser.add_subparsers(dest="verb")
    for verb in SCHEMA[1]:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.list_anchors:
        print(_anchor_table())
        return EXIT_OK
    if args.verb is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if not isinstance(config, dict):
            raise ConfigError(f"not a JSON object: {config!r}")
        if config.setdefault("kind", args.verb) != args.verb:
            raise ConfigError(
                f"invalid 'kind' in config: {config['kind']!r} is not {args.verb!r}"
            )
        return run_experiment(config, args.out)
    except ValueError as exc:  # ConfigError, ProtocolError, PolicyError, ...
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
