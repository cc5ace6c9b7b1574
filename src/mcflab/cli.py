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

import numpy as np

from . import shapes
from .differences import (
    LIMITATION_STATEMENT,
    PairedWindow,
    check_dd,
    check_dw,
    forward_gronwall,
    verify_inequalities,
)
from .flow import (
    BlowUpError,
    FlowTrajectory,
    StepPolicy,
    mcf_velocity,
    run_fixed_dt,
    run_flow,
    run_paired_fixed_dt,
    step_rk4,
)
from .geometry import compute_geometry
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
    ProtocolError,
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


def _check_keys(d: dict, allowed, context: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {context}; "
            f"allowed: {sorted(allowed)}"
        )


def _build_grid(cfg: dict) -> GridSpec:
    _check_keys(cfg, {"m", "resolution", "derivative_order"}, "grid")
    try:
        return GridSpec(
            int(cfg.get("m", 1)),
            int(cfg["resolution"]),
            int(cfg.get("derivative_order", 2)),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _build_geometry(cfg: dict, grid: GridSpec) -> Immersion:
    _check_keys(
        cfg,
        {"kind", "radius", "center", "a", "b", "radii", "r1", "r2", "amplitude",
         "path"},
        "geometry",
    )
    kind = cfg.get("kind")
    if kind == "circle":
        return shapes.circle(
            grid, float(cfg.get("radius", 1.0)), tuple(cfg.get("center", (0, 0)))
        )
    if kind == "ellipse":
        return shapes.ellipse(grid, float(cfg.get("a", 1.5)), float(cfg.get("b", 1.0)))
    if kind == "product_torus":
        radii = cfg.get("radii", (1.0, 1.0))
        return shapes.product_torus(grid, float(radii[0]), float(radii[1]))
    if kind == "perturbed_torus":
        return shapes.perturbed_torus(
            grid,
            float(cfg.get("r1", 1.0)),
            float(cfg.get("r2", 1.0)),
            float(cfg.get("amplitude", 0.1)),
        )
    if kind == "checkpoint":
        path = cfg.get("path", "")
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
    Q = np.asarray(cfg["matrix"], dtype=float)
    b = np.asarray(cfg.get("translation", [0.0] * ambient), dtype=float)
    perm_cfg = cfg.get("permutation", {})
    _check_keys(perm_cfg, {"type", "offsets", "axes"}, "symmetry.permutation")
    ptype = perm_cfg.get("type")
    if ptype == "shift":
        perm = shift_permutation(grid, np.asarray(perm_cfg["offsets"], dtype=int))
    elif ptype == "reflection":
        perm = reflection_permutation(grid, perm_cfg.get("axes", [0]))
    else:
        raise ConfigError(f"unknown permutation type {ptype!r}")
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


IDENTITY_CHECKS = ("evolve_position_gradient", "evolve_metric",
                   "evolve_connection", "evolve_second_form",
                   "second_form_commutation", "gauss_cross_check")


def _identity_suite(initial: Immersion, dt: float):
    """Run all six residual checks on a short fixed-step trajectory."""
    traj = run_fixed_dt(initial, dt, 4)
    center = traj.states[2]
    geom = compute_geometry(center)
    return [
        check_dX(traj),
        check_dg(traj),
        check_dGamma(traj),
        check_dh(traj),
        check_simons(geom),
        gauss_cross_check(geom),
    ]


def _default_threshold(identity: str, grid: GridSpec) -> float:
    # Empirical O(h^2) envelopes from the shipped refinement studies,
    # with a floor for identities that are exact discretely.
    h2 = grid.spacing**2
    coeff = {
        "evolve_position_gradient": 1.0,
        "evolve_metric": 20.0,
        "evolve_connection": 30.0,
        "evolve_second_form": 80.0,
        "second_form_commutation": 40.0,
        "gauss_cross_check": 40.0,
    }[identity]
    return coeff * h2 + 1e-7


def run_identities(cfg: dict, out_dir: str) -> int:
    _check_keys(
        cfg, {"kind", "seed", "grid", "geometry", "dt", "thresholds"}, "config"
    )
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    dt = float(cfg.get("dt", min(1e-4, grid.spacing**2 / 10.0)))
    thresholds = cfg.get("thresholds", {})
    _check_keys(thresholds, IDENTITY_CHECKS, "thresholds")
    reports = _identity_suite(initial, dt)
    failures = []
    for rep in reports:
        thr = float(
            thresholds.get(rep.identity, _default_threshold(rep.identity, grid))
        )
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
    _check_keys(
        cfg,
        {"kind", "seed", "grid", "geometry", "T", "policy", "sample_times"},
        "config",
    )
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    T = float(cfg["T"])
    pol_cfg = cfg.get("policy", {})
    _check_keys(pol_cfg, {"cfl_safety", "dt_max", "fixed_dt"}, "policy")
    policy = StepPolicy(
        float(pol_cfg.get("cfl_safety", 0.1)),
        float(pol_cfg.get("dt_max", 1e-2)),
        pol_cfg.get("fixed_dt"),
    )
    sample_times = cfg.get("sample_times")
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
        {"kind", "seed", "grid", "geometry", "symmetry", "steps", "dt",
         "tolerance", "record_every"},
        "config",
    )
    grid = _build_grid(cfg.get("grid", {}))
    initial = _build_geometry(cfg.get("geometry", {}), grid)
    action = _build_symmetry(cfg.get("symmetry", {}), grid, initial.ambient_dim)
    steps = int(cfg.get("steps", 2000))
    record_every = int(cfg.get("record_every", 10))
    tol = float(cfg.get("tolerance", 1e-10))
    dt = cfg.get("dt")
    if dt is None:
        dt = StepPolicy().step_size(compute_geometry(initial).metric, grid.spacing)
    dt = float(dt)

    def defect(imm):
        mapped = apply_symmetry(imm, action)
        return float(np.abs(mapped.positions - imm.positions).max())

    d0 = defect(initial)
    if d0 > 1e-13:
        print(
            f"initial symmetry defect {d0:.3e} exceeds 1e-13: "
            "the action is not a symmetry of the initial immersion",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    current = initial
    rows = [(0.0, d0)]
    worst = d0
    for k in range(steps):
        # degeneracy of the initial immersion is bad input, later a blow-up
        current = step_rk4(current, dt, mcf_velocity(current) if k == 0 else None)
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


def run_diff_system(cfg: dict, out_dir: str) -> int:
    _check_keys(
        cfg,
        {"kind", "seed", "grid", "geometry", "geometry_b", "perturbation",
         "T", "delta", "dt", "store_every"},
        "config",
    )
    grid = _build_grid(cfg.get("grid", {}))
    initA = _build_geometry(cfg.get("geometry", {}), grid)
    if "geometry_b" in cfg:
        initB = _build_geometry(cfg["geometry_b"], grid)
    elif "perturbation" in cfg:
        pert = cfg["perturbation"]
        _check_keys(pert, {"amplitude", "max_mode"}, "perturbation")
        initB = shapes.low_mode_perturbation(
            initA,
            float(pert.get("amplitude", 1e-3)),
            int(cfg.get("seed", 0)),
            int(pert.get("max_mode", 3)),
        )
    else:
        initB = initA
    T = float(cfg["T"])
    delta = float(cfg["delta"])
    if not 0.0 < delta < T:
        raise ConfigError(f"delta={delta} must lie strictly inside (0, T={T})")
    dt = float(cfg.get("dt", grid.spacing**2 / 20.0))
    store_every = int(cfg.get("store_every", max(1, round(T / dt / 60))))
    n_steps = int(round(T / dt))
    n_steps -= n_steps % store_every
    trajA, trajB = run_paired_fixed_dt(initA, initB, dt, n_steps, store_every)
    window = PairedWindow(trajA, trajB)
    report = verify_inequalities(window, delta)
    rep_dd = check_dd(window)
    rep_dw = check_dw(window)
    env = forward_gronwall(window, delta, report)
    _write(out_dir, "inequality_report.txt", report.serialize())
    body = rep_dd.CSV_HEADER + ",anchor\n"
    body += f"{rep_dd.csv_row()},{rep_dd.anchor}\n"
    body += f"{rep_dw.csv_row()},{rep_dw.anchor}\n"
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
    _check_keys(
        cfg,
        {"kind", "seed", "grid", "geometry", "resolutions", "dt", "min_order"},
        "config",
    )
    resolutions = [int(r) for r in cfg.get("resolutions", [])]
    if len(resolutions) < 3:
        raise ConfigError("need at least 3 resolutions, each double the last")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise ConfigError(f"resolutions must double: {a} -> {b}")
    base_grid_cfg = dict(cfg.get("grid", {}))
    min_order = float(cfg.get("min_order", 1.9))
    dt = float(cfg.get("dt", (2 * np.pi / resolutions[-1]) ** 2 / 10.0))
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
    os.makedirs(out_dir, exist_ok=True)
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
    if config.get("kind", args.verb) != args.verb:
        print(
            f"config kind {config.get('kind')!r} does not match verb {args.verb!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    config.setdefault("kind", args.verb)
    try:
        return run_experiment(config, args.out)
    except (ConfigError, ProtocolError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
