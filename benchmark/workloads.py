"""The four benchmark workloads: generated configs, input set-up and output checks.

Each workload is one CLI verb on a fixed config.  The config is generated
here from the workload seed; the program receives only that config and,
for `torus-flow`, the seed checkpoint written during set-up.  Only
`torus-pair` depends on the seed (it picks the low-mode perturbation); the
other three workloads are analytic and read the seed nowhere.

Output checks read the report files with plain numpy/text parsing, never
with mcflab itself, and compare the key numbers with the reference values
recorded in `reference.json` to a rounding-level tolerance.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Key numbers may drift at rounding level only (ROADMAP aim 1).
# The inequality constants C1, C2 come from 5-point time differences divided
# by dt, which amplifies rounding differences, hence a relative tolerance
# rather than bit equality; the absolute floor covers identities that are
# exact discretely and whose residuals are pure rounding noise.
RTOL = 2e-6
ATOL = 1e-9

ORACLE_TOL = 1e-3
MIN_ORDER = 1.9
# Perturbation seeds with recorded reference values for `torus-pair`.
PAIR_VARIANTS = 8

# The adaptive step shrinks with the radius sqrt(1 - 2t); at T = 0.125 a call
# takes a few seconds, so every run holds several calls.
TORUS_T = 0.125
TORUS_CHECKPOINTS = 9
SEED_CHECKPOINT = "seed_checkpoint.txt"


def torus_flow_config(seed: int) -> dict:
    return {
        "kind": "simulate",
        "grid": {"m": 2, "resolution": 64, "derivative_order": 4},
        "geometry": {"kind": "checkpoint", "path": SEED_CHECKPOINT},
        "T": TORUS_T,
        "policy": {"cfl_safety": 0.1},
        "sample_times": [
            TORUS_T * k / (TORUS_CHECKPOINTS - 1) for k in range(TORUS_CHECKPOINTS)
        ],
    }


def circle_pair_config(seed: int) -> dict:
    return {
        "kind": "diff-system",
        "grid": {"m": 1, "resolution": 256},
        "geometry": {"kind": "circle", "radius": 1.0},
        "geometry_b": {"kind": "ellipse", "a": 1.5, "b": 1.0},
        "T": 0.3,
        "delta": 0.03,
        "dt": 1e-4,
        "store_every": 50,
    }


def torus_pair_config(seed: int) -> dict:
    return {
        "kind": "diff-system",
        "seed": seed % PAIR_VARIANTS,
        "grid": {"m": 2, "resolution": 32},
        "geometry": {"kind": "product_torus", "radii": [1.0, 1.0]},
        "perturbation": {"amplitude": 1e-3, "max_mode": 3},
        "T": 0.04,
        "delta": 0.01,
        "store_every": 1,
    }


def torus_convergence_config(seed: int) -> dict:
    return {
        "kind": "convergence",
        "grid": {"m": 2},
        "geometry": {"kind": "perturbed_torus", "r1": 1.0, "r2": 0.5, "amplitude": 0.1},
        "resolutions": [32, 64, 128],
    }


def prepare_torus_checkpoint(config: dict) -> None:
    """Write the seed checkpoint with the program's own writer (set-up work)."""
    from mcflab import shapes
    from mcflab.grid import GridSpec, write_immersion

    g = config["grid"]
    grid = GridSpec(g["m"], g["resolution"], g["derivative_order"])
    write_immersion(shapes.product_torus(grid, 1.0, 1.0), config["geometry"]["path"])


# --- output parsing -----------------------------------------------------------


def _key_values(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            if " = " in line:
                k, v = line.split(" = ", 1)
                out[k.strip()] = v.strip()
    return out


def _csv_rows(path: str) -> list:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]


def _load_checkpoint(path: str, m: int) -> np.ndarray:
    """Coordinates of a columnar checkpoint (index columns dropped)."""
    return np.loadtxt(path, skiprows=1, ndmin=2)[:, m:]


def torus_oracle_err(path: str, T: float) -> float:
    """max_i |r_i - sqrt(1 - 2T)| for the two circle factors in R^4."""
    pos = _load_checkpoint(path, 2)
    exact = math.sqrt(1.0 - 2.0 * T)
    r1 = float(np.linalg.norm(pos[:, 0:2], axis=-1).mean())
    r2 = float(np.linalg.norm(pos[:, 2:4], axis=-1).mean())
    return max(abs(r1 - exact), abs(r2 - exact))


def check_torus_flow(out: str) -> tuple:
    """Returns (problems, key numbers, extra end-to-end values)."""
    problems = []
    rows = _csv_rows(os.path.join(out, "trajectory.csv"))
    volumes = [float(r["volume"]) for r in rows]
    if len(rows) != TORUS_CHECKPOINTS:
        problems.append(f"{len(rows)} checkpoints, expected {TORUS_CHECKPOINTS}")
    if not all(b <= a + 1e-10 for a, b in zip(volumes, volumes[1:])):
        problems.append("volume is not monotone")
    final = os.path.join(out, rows[-1]["file"])
    err = torus_oracle_err(final, float(rows[-1]["t"]))
    if not err < ORACLE_TOL:
        problems.append(f"oracle_err {err:.3e} is not below {ORACLE_TOL:g}")
    with open(os.path.join(out, "summary.txt")) as fh:
        steps = int(fh.readline().split()[1])
    keys = {"steps": steps, "oracle_err": err}
    keys.update({f"volume_{k}": v for k, v in enumerate(volumes)})
    return problems, keys, {"oracle_err": err}


def check_diff_system(out: str) -> tuple:
    problems = []
    rep = _key_values(os.path.join(out, "inequality_report.txt"))
    C1, C2 = float(rep["C1"]), float(rep["C2"])
    flagged = int(rep["flagged_nodes"])
    if flagged != 0:
        problems.append(f"{flagged} flagged nodes")
    if not (math.isfinite(C1) and math.isfinite(C2)):
        problems.append(f"C1={C1} C2={C2} not finite")
    env = _csv_rows(os.path.join(out, "gronwall_envelope.csv"))
    if not env or not all(
        float(r["F"]) <= float(r["envelope"]) * (1 + 1e-9) + 1e-300 for r in env
    ):
        problems.append("energy envelope does not hold")
    keys = {k: float(rep[k]) for k in ("C1", "C2", "K", "K_tilde")}
    if env:
        keys["F_final"] = float(env[-1]["F"])
        keys["c_star"] = float(env[-1]["c_star"])
    return problems, keys, {}


def check_convergence(out: str) -> tuple:
    problems = []
    keys = {}
    for r in _csv_rows(os.path.join(out, "convergence.csv")):
        res = [float(x) for x in r["residuals"].split(";")]
        keys.update({f"{r['identity']}_{k}": v for k, v in enumerate(res)})
        if r["flag"] == "exact":
            continue
        order = math.log2(res[-2] / res[-1])
        if not order >= MIN_ORDER:
            problems.append(f"{r['identity']} order {order:.3f} below {MIN_ORDER}")
    return problems, keys, {}


def report_digest(out: str) -> str:
    """sha256 over every report body except the timestamped manifest."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        if name == "manifest.txt":
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def compare_keys(keys: dict, ref: dict) -> list:
    problems = []
    if set(keys) != set(ref):
        problems.append(f"key numbers {sorted(set(keys) ^ set(ref))} differ in presence")
    for k in sorted(set(keys) & set(ref)):
        a, b = keys[k], ref[k]
        if not abs(a - b) <= RTOL * abs(b) + ATOL:
            problems.append(f"{k} = {a!r}, reference {b!r}")
    return problems


def check_problems(workload, out: str, ref) -> tuple:
    """Checks one call's outputs against the workload rules and the reference.

    Returns (problems, key numbers, extra values); an empty problem list
    means the call passed.  Byte identity with the reference goes only into
    `digest_match`, never into the problems.
    """
    try:
        problems, keys, extra = workload.check(out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"], {}, {}
    digest = report_digest(out)
    extra = dict(
        extra,
        digest=digest,
        digest_match=ref is not None and digest == ref["digest"],
        report_bytes=sum(
            os.path.getsize(os.path.join(out, n)) for n in os.listdir(out)
        ),
    )
    if ref is None:
        problems.append("no reference values recorded for this input")
    else:
        problems += compare_keys(keys, ref["keys"])
    return problems, keys, extra


@dataclass(frozen=True)
class Workload:
    """One workload; its reason is in BENCHMARK.json and README.md."""

    name: str
    make_config: Callable[[int], dict]
    check: Callable[[str], tuple]  # out dir -> (problems, key numbers, extras)
    prepare: Callable[[dict], None] | None = None  # input files, run in set-up

    def variant(self, seed: int) -> str:
        """Reference key: the seed-dependent input, or the one analytic input."""
        cfg = self.make_config(seed)
        return str(cfg["seed"]) if "seed" in cfg else "analytic"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-flow", torus_flow_config, check_torus_flow,
                 prepare_torus_checkpoint),
        Workload("circle-pair", circle_pair_config, check_diff_system),
        Workload("torus-pair", torus_pair_config, check_diff_system),
        Workload("torus-convergence", torus_convergence_config, check_convergence),
    )
}
