"""Configuration-driven experiment runner.

Verbs: simulate, identities, diff-system, symmetry, convergence; each takes
--config <json> and --out <dir>.  Configs are strict: unknown keys are
errors, not warnings.  Given the same config and seed, report bodies are
byte-identical; wall-clock timestamps appear only in the manifest.

Exit codes: 0 success, 1 assertion failure, 2 invalid config or violated
precondition, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from operator import attrgetter

import numpy as np

from . import shapes
from .differences import (
    LIMITATION_STATEMENT,
    PairedWindow,
    forward_gronwall,
    verify_inequalities,
)
from .flow import (
    MAX_STEPS,
    BlowUpError,
    StepPolicy,
    run_fixed_dt,
    run_flow,
    run_paired_fixed_dt,
    step_rk4,
)
from .geometry import compute_geometry, curvature_gauss, geometry_kernel
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
from .identities import (
    ANCHORS,
    ResidualReport,
    TrajectoryWindow,
    check_dg,
    check_dGamma,
    check_dh,
    check_dX,
    check_simons,
    gauss_cross_check,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# Residuals below this are reported as exact discrete identities and are
# excluded from order fitting.
EXACT_FLOOR = 1e-8


class ConfigError(ValueError):
    pass


def _not_bool(value):
    """value itself, unless it is a JSON true or false: float(True) is 1.0."""
    if isinstance(value, bool):
        raise ValueError("must be a number, not a boolean")
    return value


def _real(value) -> float:
    """float(value) of a real number; JSON's NaN and Infinity and booleans
    are errors."""
    x = float(_not_bool(value))
    if not np.isfinite(x):
        raise ValueError("must be finite")
    return x


def _value(cfg: dict, key: str, default=None, kind=_real, context="config"):
    """kind(cfg[key]), or kind(default) when the key is absent; no default
    means the key is required.  A missing key or a value that kind rejects
    is a ConfigError that names the key."""
    if key not in cfg and default is None:
        raise ConfigError(f"missing required key {key!r} in {context}")
    raw = cfg.get(key, default)
    try:
        return kind(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key!r} in {context}: {raw!r} ({exc})") from exc


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


def _pair(values) -> list:
    """_floats of exactly two entries: a centre or a pair of radii."""
    out = _floats(values)
    if len(out) != 2:
        raise ValueError(f"need 2 entries, got {len(out)}")
    return out


def _positive(kind):
    """kind restricted to positive values: time steps and strides."""

    def convert(value):
        x = kind(value)
        if not x > 0:
            raise ValueError("must be positive")
        return x

    return convert


# The top-level keys that every verb's config may hold.
COMMON_KEYS = {"kind", "seed", "grid", "geometry"}


def _check_keys(d: dict, allowed, context: str):
    if not isinstance(d, dict):
        raise ConfigError(f"section {context!r} must be an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {context}; "
            f"allowed: {sorted(allowed)}"
        )


def _build_grid(cfg: dict) -> GridSpec:
    _check_keys(cfg, {"m", "resolution", "derivative_order"}, "grid")
    m = _value(cfg, "m", 1, _integer, "grid")
    N = _value(cfg, "resolution", kind=_integer, context="grid")
    order = _value(cfg, "derivative_order", 2, _integer, "grid")
    try:
        return GridSpec(m, N, order)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _build_geometry(cfg: dict, grid: GridSpec) -> Immersion:
    _check_keys(
        cfg,
        {"kind", "radius", "center", "a", "b", "radii", "r1", "r2", "amplitude",
         "path"},
        "geometry",
    )
    kind = cfg.get("kind")

    def num(key, default, kind=_real):
        return _value(cfg, key, default, kind, "geometry")

    if kind == "circle":
        return shapes.circle(grid, num("radius", 1.0), num("center", (0, 0), _pair))
    if kind == "ellipse":
        return shapes.ellipse(grid, num("a", 1.5), num("b", 1.0))
    if kind == "product_torus":
        return shapes.product_torus(grid, *num("radii", (1.0, 1.0), _pair))
    if kind == "perturbed_torus":
        return shapes.perturbed_torus(
            grid,
            num("r1", 1.0),
            num("r2", 1.0),
            num("amplitude", 0.1),
        )
    if kind == "checkpoint":
        path = num("path", "", os.fspath)
        if not os.path.isfile(path):
            raise ConfigError(f"geometry checkpoint {path!r} does not exist")
        imm = read_immersion(path, grid.derivative_order)
        if imm.grid != grid:
            raise ConfigError(
                f"geometry checkpoint {path!r} is on a grid with "
                f"m={imm.grid.m}, N={imm.grid.resolution}; the config grid has "
                f"m={grid.m}, N={grid.resolution}"
            )
        return imm
    raise ConfigError(f"unknown geometry kind {kind!r}")


def _build_symmetry(cfg: dict, grid: GridSpec, ambient: int) -> SymmetryAction:
    _check_keys(cfg, {"matrix", "translation", "permutation"}, "symmetry")
    Q = _value(
        cfg, "matrix", kind=lambda v: np.array([_floats(row) for row in v]),
        context="symmetry",
    )
    b = np.asarray(_value(cfg, "translation", [0.0] * ambient, _floats, "symmetry"))
    perm_cfg = cfg.get("permutation", {})
    context = "symmetry.permutation"
    _check_keys(perm_cfg, {"type", "offsets", "axes"}, context)
    ptype = perm_cfg.get("type")
    if ptype == "shift":
        key, default, permutation = "offsets", None, shift_permutation
    elif ptype == "reflection":
        key, default, permutation = "axes", [0], reflection_permutation
    else:
        raise ConfigError(f"unknown permutation type {ptype!r}")
    # a wrong-length shift or an out-of-range axis names its key, too
    perm = _value(
        perm_cfg, key, default, lambda v: permutation(grid, _integers(v)), context
    )
    try:
        return SymmetryAction(Q, b, perm)
    except ValueError as exc:
        raise ConfigError(f"symmetry: {exc}") from exc


def _write(out_dir: str, name: str, body: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(body)


def _manifest(out_dir: str, entries: dict):
    lines = [f"generated = {datetime.datetime.now().isoformat()}"]
    for k, v in entries.items():
        lines.append(f"{k} = {v}")
    lines.append(LIMITATION_STATEMENT)
    _write(out_dir, "manifest.txt", "\n".join(lines) + "\n")


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


def _identity_suite(initial: Immersion, dt: float):
    """The six residual checks on a short fixed-step trajectory, each at its
    worst center of one sweep."""
    window = TrajectoryWindow(run_fixed_dt(initial, dt, 4))
    found = {name: [] for name in THRESHOLD_COEFFS}
    for c in window.sweep():
        # the single-instant checks free their curvature before the evolution
        # checks build the stencil's other packs: one evolution check's peak
        geom = window.geometry(c)
        curv = curvature_gauss(geom)
        reports = [check_simons(geom, curv), gauss_cross_check(geom, curv)]
        del curv
        reports += [f(window, c) for f in (check_dX, check_dg, check_dGamma, check_dh)]
        for rep in reports:
            found[rep.identity].append(rep)
    return [max(reps, key=attrgetter("sup_residual")) for reps in found.values()]


def run_identities(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, COMMON_KEYS | {"dt", "thresholds"}, "config")
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    dt = _value(cfg, "dt", min(1e-4, grid.spacing**2 / 10.0), _positive(_real))
    thr_cfg = cfg.get("thresholds", {})
    _check_keys(thr_cfg, THRESHOLD_COEFFS, "thresholds")
    h2 = grid.spacing**2
    thresholds = {
        name: _value(thr_cfg, name, coeff * h2 + 1e-7, context="thresholds")
        for name, coeff in THRESHOLD_COEFFS.items()
    }
    reports = _identity_suite(initial, dt)
    failures = []
    for rep in reports:
        thr = thresholds[rep.identity]
        status = "pass" if rep.sup_residual <= thr else "fail"
        if status == "fail":
            failures.append(rep.identity)
        body = rep.CSV_HEADER + ",threshold,status,anchor\n"
        body += f"{rep.csv_row()},{thr!r},{status},{rep.anchor}\n"
        _write(out_dir, f"residual_{rep.identity}.csv", body)
    _manifest(
        out_dir,
        {
            "experiment": "identities",
            "N": grid.resolution,
            "dt": repr(dt),
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


def run_simulate(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, COMMON_KEYS | {"T", "policy", "sample_times"}, "config")
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    T = _value(cfg, "T")
    pol_cfg = cfg.get("policy", {})
    _check_keys(pol_cfg, {"cfl_safety", "dt_max", "fixed_dt"}, "policy")
    fixed_dt = pol_cfg.get("fixed_dt")
    policy = StepPolicy(
        _value(pol_cfg, "cfl_safety", 0.1, context="policy"),
        _value(pol_cfg, "dt_max", 1e-2, context="policy"),
        fixed_dt if fixed_dt is None else _value(pol_cfg, "fixed_dt", context="policy"),
    )
    # absent or null: the initial and final states
    sample_times = cfg.get("sample_times")
    if sample_times is not None:
        sample_times = _value(cfg, "sample_times", kind=_floats)
        if not sample_times:
            raise ConfigError("invalid 'sample_times' in config: [] stores no state")
    traj = run_flow(initial, T, policy, sample_times)
    files = []
    for k, state in enumerate(traj.states):
        name = f"checkpoint_{k:04d}.txt"
        with open(os.path.join(out_dir, name), "w") as fh:
            write_immersion(state, fh)
        files.append((state.time, name))
    vol = [compute_geometry(s).volume() for s in traj.states]
    body = "t,file,volume\n" + "\n".join(
        f"{t!r},{name},{v!r}" for (t, name), v in zip(files, vol)
    ) + "\n"
    _write(out_dir, "trajectory.csv", body)
    _manifest(
        out_dir,
        {"experiment": "simulate", "N": grid.resolution, "T": repr(T),
         "steps": len(traj.dt_history), "states": len(traj.states)},
    )
    monotone = all(b <= a + 1e-10 for a, b in zip(vol, vol[1:]))
    _write(
        out_dir,
        "summary.txt",
        f"simulate: {len(traj.dt_history)} steps to T={T}\n"
        f"volume monotone: {monotone}\n",
    )
    return EXIT_OK if monotone else EXIT_ASSERTION


def run_symmetry(cfg: dict, out_dir: str) -> int:
    _check_keys(
        cfg,
        COMMON_KEYS | {"symmetry", "steps", "dt", "tolerance", "record_every"},
        "config",
    )
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    action = _build_symmetry(cfg.get("symmetry", {}), grid, initial.ambient_dim)
    steps = _value(cfg, "steps", 2000, _positive(_integer))
    if steps > MAX_STEPS:
        raise ConfigError(
            f"invalid 'steps' in config: {steps!r} is more than {MAX_STEPS}"
        )
    record_every = _value(cfg, "record_every", 10, _positive(_integer))
    tol = _value(cfg, "tolerance", 1e-10)
    dt = None if cfg.get("dt") is None else _value(cfg, "dt", kind=_positive(_real))
    # one kernel call gives the default dt and the first step's velocity;
    # degeneracy of the initial immersion is bad input, later a blow-up
    kern = geometry_kernel(grid, initial.positions)
    if dt is None:
        dt = StepPolicy().step_size(kern.metric, grid.spacing)
    k1 = kern.mean_curv  # the first stage of the first step
    del kern  # no other kernel field is needed

    def defect(imm):
        mapped = apply_symmetry(imm, action)
        return float(np.abs(mapped.positions - imm.positions).max())

    d0 = defect(initial)
    if d0 > 1e-13:
        raise ConfigError(
            f"initial symmetry defect {d0:.3e} exceeds 1e-13: "
            "the action is not a symmetry of the initial immersion"
        )
    current = initial
    rows = [(0.0, d0)]
    worst = d0
    for k in range(steps):
        current = step_rk4(current, dt, k1)
        k1 = None
        if (k + 1) % record_every == 0 or k == steps - 1:
            d = defect(current)
            worst = max(worst, d)
            rows.append((current.time, d))
    body = "t,defect\n" + "\n".join(f"{t!r},{d!r}" for t, d in rows) + "\n"
    _write(out_dir, "symmetry_defect.csv", body)
    _manifest(
        out_dir,
        {"experiment": "symmetry", "N": grid.resolution, "steps": steps,
         "dt": repr(dt), "max_defect": repr(worst), "tolerance": repr(tol)},
    )
    ok = worst <= tol
    _write(
        out_dir,
        "summary.txt",
        f"symmetry persistence over {steps} steps: max defect {worst:.3e} "
        f"(tolerance {tol:.1e}) -> {'PASS' if ok else 'FAIL'}\n",
    )
    if not ok:
        print(f"symmetry defect {worst:.3e} exceeds {tol:.1e}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _require_paired_window(n_steps: int, store_every: int, dt: float, delta: float):
    """Before the pair is integrated: its stored states must fill one
    five-point stencil, and at least two centers, the rows of the Gronwall
    fit, must lie delta or more past the first state."""
    states = n_steps // store_every + 1
    if states < 5:
        raise ConfigError(
            f"invalid 'store_every' or 'T' in config: they store {states} "
            "state(s); the paired checks need at least 5"
        )
    # the stored times since the first state, as the fixed-step run stamps them
    rows = sum(
        1 for c in range(2, states - 2) if c * store_every * dt >= delta - 1e-12
    )
    if rows < 2:
        raise ConfigError(
            f"invalid 'delta' in config: {delta!r} leaves {rows} center(s) of "
            f"the {states} stored states at or past delta; need at least 2"
        )


def run_diff_system(cfg: dict, out_dir: str) -> int:
    _check_keys(
        cfg,
        COMMON_KEYS
        | {"geometry_b", "perturbation", "T", "delta", "dt", "store_every"},
        "config",
    )
    grid = _build_grid(cfg.get("grid", {}))
    initA = _build_geometry(cfg.get("geometry", {}), grid)
    if {"geometry_b", "perturbation"} <= cfg.keys():
        raise ConfigError(
            "'geometry_b' and 'perturbation' both give the second flow; keep one"
        )
    if "geometry_b" in cfg:
        initB = _build_geometry(cfg["geometry_b"], grid)
    elif "perturbation" in cfg:
        pert = cfg["perturbation"]
        _check_keys(pert, {"amplitude", "max_mode"}, "perturbation")
        initB = shapes.low_mode_perturbation(
            initA,
            _value(pert, "amplitude", 1e-3, context="perturbation"),
            _value(cfg, "seed", 0, _integer),
            _value(pert, "max_mode", 3, _integer, "perturbation"),
        )
    else:
        initB = initA
    T = _value(cfg, "T")
    delta = _value(cfg, "delta")
    if not 0.0 < delta < T:
        raise ConfigError(f"delta={delta} must lie strictly inside (0, T={T})")
    dt = _value(cfg, "dt", grid.spacing**2 / 20.0, _positive(_real))
    every = max(1, round(T / dt / 60))
    store_every = _value(cfg, "store_every", every, _positive(_integer))
    n_steps = int(round(T / dt))
    if n_steps > MAX_STEPS:
        raise ConfigError(
            f"invalid 'T' in config: {T!r} at dt={dt!r} takes {T / dt:.3g} "
            f"steps, more than {MAX_STEPS}"
        )
    n_steps -= n_steps % store_every
    _require_paired_window(n_steps, store_every, dt, delta)
    trajA, trajB = run_paired_fixed_dt(initA, initB, dt, n_steps, store_every)
    report = verify_inequalities(PairedWindow(trajA, trajB), delta)
    env = forward_gronwall(report)
    _write(out_dir, "inequality_report.txt", report.serialize())
    body = ResidualReport.CSV_HEADER + ",anchor\n"
    for rep in (report.dd, report.dw):
        body += f"{rep.csv_row()},{rep.anchor}\n"
    _write(out_dir, "difference_identities.csv", body)
    env_body = "t,F,G,dFdt,envelope,c_star\n" + "\n".join(
        f"{r['t']!r},{r['F']!r},{r['G']!r},{r['dFdt']!r},{r['envelope']!r},"
        f"{r['c_star']!r}"
        for r in env
    ) + "\n"
    _write(out_dir, "gronwall_envelope.csv", env_body)
    _manifest(
        out_dir,
        {"experiment": "diff-system", "N": grid.resolution, "dt": repr(dt),
         "T": repr(T), "delta": repr(delta), "C1": repr(report.C1),
         "C2": repr(report.C2)},
    )
    ok = report.flagged_nodes == 0 and np.isfinite(report.C1) and np.isfinite(
        report.C2
    )
    envelope_ok = all(r["F"] <= r["envelope"] * (1 + 1e-9) + 1e-300 for r in env)
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


def run_convergence(cfg: dict, out_dir: str) -> int:
    _check_keys(cfg, COMMON_KEYS | {"resolutions", "dt", "min_order"}, "config")
    resolutions = _value(cfg, "resolutions", [], _integers)
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions, each double the last")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ConfigError(f"resolutions must double: {a} -> {b}")
    base_grid_cfg = dict(cfg.get("grid", {}))
    min_order = _value(cfg, "min_order", 1.9)
    dt = _value(cfg, "dt", (2 * np.pi / resolutions[-1]) ** 2 / 10.0, _positive(_real))
    results = {}
    for N in resolutions:
        grid_cfg = dict(base_grid_cfg)
        grid_cfg["resolution"] = N
        grid = _build_grid(grid_cfg)
        initial = _build_geometry(cfg.get("geometry", {}), grid)
        for rep in _identity_suite(initial, dt):
            results.setdefault(rep.identity, []).append(rep.sup_residual)
    lines = ["identity,residuals,order,flag"]
    failures = []
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
        lines.append(f"{identity},{res_str},{order},{flag}")
    _write(out_dir, "convergence.csv", "\n".join(lines) + "\n")
    _manifest(
        out_dir,
        {"experiment": "convergence",
         "resolutions": ",".join(map(str, resolutions)),
         "dt": repr(dt), "failures": ",".join(failures) or "none"},
    )
    _write(
        out_dir,
        "summary.txt",
        "\n".join(lines) + f"\nresult: {'FAIL' if failures else 'PASS'}\n",
    )
    if failures:
        print(f"order below {min_order}: {failures}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


RUNNERS = {
    "simulate": run_simulate,
    "identities": run_identities,
    "diff-system": run_diff_system,
    "symmetry": run_symmetry,
    "convergence": run_convergence,
}


def run_experiment(config: dict, out_dir: str) -> int:
    kind = config.get("kind")
    if kind not in RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return RUNNERS[kind](config, out_dir)


def _anchor_table() -> str:
    width = max(len(k) for k in ANCHORS)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in ANCHORS.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcflab", description="mean curvature flow numerical laboratory"
    )
    parser.add_argument(
        "--list-anchors",
        action="store_true",
        help="print the identity-to-formula table and exit",
    )
    sub = parser.add_subparsers(dest="verb")
    for verb in RUNNERS:
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
                f"config kind {config['kind']!r} does not match verb {args.verb!r}"
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
