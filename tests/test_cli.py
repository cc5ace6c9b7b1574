"""End-to-end tests of the experiment runner: exit codes, report files,
determinism of report bodies, and strict config validation."""

import copy
import ctypes
import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcflab import cli, differences, flow, geometry, identities, shapes
from mcflab.cli import (
    EXIT_ASSERTION,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    LIMITATION_STATEMENT,
    main,
)
from mcflab.flow import step_rk4
from mcflab.geometry import divergence, tensor_norm_sq
from mcflab.grid import (
    GridSpec,
    SymmetryAction,
    apply_symmetry,
    read_immersion,
    reflection_permutation,
    write_immersion,
)
from mcflab.identities import ANCHORS

from conftest import (
    UNALLOCATABLE_HEADERS,
    paired_center,
    run_paired_fixed_dt,
    traced_peak,
)


ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = [
    importlib.import_module(f"mcflab.{p.stem}")
    for p in sorted((ROOT / "src" / "mcflab").glob("*.py"))
    if not p.stem.startswith("__")
]


def run_cli(tmp_path, verb, config, subdir="out"):
    cfg_path = tmp_path / f"{verb}_config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / subdir
    code = main([verb, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, out_dir


def verdict_line(capsys) -> str:
    """The one line that an exit-1 run prints on stderr, its failed verdict."""
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, repr(err)
    return err


IDENTITIES_CONFIG = {
    "grid": {"m": 1, "resolution": 64},
    "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
    "dt": 1e-5,
}

DIFF_CONFIG = {
    "grid": {"m": 1, "resolution": 48},
    "geometry": {"kind": "circle", "radius": 1.0},
    "geometry_b": {"kind": "circle", "radius": 1.2},
    "T": 2e-3,
    "delta": 5e-4,
    "dt": 1e-4,
    "store_every": 1,
}

SIMULATE_CONFIG = {
    "grid": {"m": 1, "resolution": 32},
    "geometry": {"kind": "circle", "radius": 1.0},
    "T": 0.01,
    "policy": {"fixed_dt": 1e-3},
}

REFLECTION = {"type": "reflection", "axes": [0]}


def torus_flow_config(tmp_path):
    """The benchmark's `torus-flow` simulate config: an m=2, N=64, order 4
    product torus read from a seed checkpoint, 9 samples to T=0.125."""
    ckpt = tmp_path / "seed_checkpoint.txt"
    write_immersion(shapes.product_torus(GridSpec(2, 64, 4), 1.0, 1.0), str(ckpt))
    T = 0.125
    return {
        "grid": {"m": 2, "resolution": 64, "derivative_order": 4},
        "geometry": {"kind": "checkpoint", "path": str(ckpt)},
        "T": T,
        "policy": {"cfl_safety": 0.1},
        "sample_times": [T * k / 8 for k in range(9)],
    }

SYMMETRY_CONFIG = {
    "grid": {"m": 1, "resolution": 32},
    "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
    "symmetry": {"matrix": [[1, 0], [0, -1]], "permutation": REFLECTION},
    "steps": 20,
    "dt": 1e-4,
}

CONVERGENCE_CONFIG = {
    "grid": {"m": 1},
    "geometry": {"kind": "circle"},
    "resolutions": [16, 32, 64],
    "dt": 1e-5,
}

# the perturbed torus of the benchmark's convergence workload, one
# resolution coarser, at the default dt
TORUS_CONVERGENCE_CONFIG = {
    "grid": {"m": 2},
    "geometry": {"kind": "perturbed_torus", "r1": 1.0, "r2": 0.5, "amplitude": 0.1},
    "resolutions": [16, 32, 64],
}


def changed(base, drop=(), **values):
    cfg = {k: v for k, v in base.items() if k not in drop}
    cfg.update(values)
    return cfg


# neither `geometry_b` nor `perturbation`: both flows start from one immersion
IDENTICAL_DIFF_CONFIG = changed(
    DIFF_CONFIG, ["geometry_b"], grid={"m": 1, "resolution": 32},
    T=0.01, delta=0.002, dt=1e-4, store_every=5,
)


# verb, config, the key the error message must name
BAD_CONFIGS = {
    "diff-system-without-T": ("diff-system", changed(DIFF_CONFIG, ["T"]), "'T'"),
    "diff-system-T-null": ("diff-system", changed(DIFF_CONFIG, T=None), "'T'"),
    "diff-system-without-delta": (
        "diff-system", changed(DIFF_CONFIG, ["delta"]), "'delta'"
    ),
    "simulate-without-T": ("simulate", changed(SIMULATE_CONFIG, ["T"]), "'T'"),
    "symmetry-without-matrix": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"permutation": REFLECTION}),
        "'matrix'",
    ),
    "identities-dt-negative": (
        "identities", changed(IDENTITIES_CONFIG, dt=-1e-5), "'dt'"
    ),
    "identities-dt-nan": (
        "identities", changed(IDENTITIES_CONFIG, dt=float("nan")), "'dt'"
    ),
    "convergence-dt-negative": (
        "convergence", changed(CONVERGENCE_CONFIG, dt=-1e-5), "'dt'"
    ),
    "diff-system-dt-zero": ("diff-system", changed(DIFF_CONFIG, dt=0.0), "'dt'"),
    "diff-system-store-every-zero": (
        "diff-system", changed(DIFF_CONFIG, store_every=0), "'store_every'"
    ),
    "symmetry-dt-negative": ("symmetry", changed(SYMMETRY_CONFIG, dt=-1e-4), "'dt'"),
    "symmetry-steps-negative": (
        "symmetry", changed(SYMMETRY_CONFIG, steps=-5), "'steps'"
    ),
    "symmetry-record-every-zero": (
        "symmetry", changed(SYMMETRY_CONFIG, record_every=0), "'record_every'"
    ),
    "simulate-fixed-dt-text": (
        "simulate", changed(SIMULATE_CONFIG, policy={"fixed_dt": "fast"}), "'fixed_dt'"
    ),
    "simulate-sample-times-empty": (
        "simulate", changed(SIMULATE_CONFIG, sample_times=[]), "'sample_times'"
    ),
    "simulate-sample-time-null": (
        "simulate",
        changed(SIMULATE_CONFIG, sample_times=[0.0, None]),
        "'sample_times'",
    ),
    "simulate-sample-time-text": (
        "simulate",
        changed(SIMULATE_CONFIG, sample_times=[0.0, "soon"]),
        "'sample_times'",
    ),
    "simulate-sample-times-numeric-text": (
        "simulate",
        changed(SIMULATE_CONFIG, sample_times=["0", "1e-3"]),
        "'sample_times'",
    ),
    "simulate-sample-time-nan": (
        "simulate",
        changed(SIMULATE_CONFIG, sample_times=[0.0, float("nan")]),
        "'sample_times'",
    ),
    "simulate-sample-times-number": (
        "simulate", changed(SIMULATE_CONFIG, sample_times=0.01), "'sample_times'"
    ),
    # values that the flow, not the schema, rejects
    "simulate-T-before-t0": ("simulate", changed(SIMULATE_CONFIG, T=-1), "'T'"),
    # keys that nothing would read
    "diff-system-seed-beside-geometry-b": (
        "diff-system", changed(DIFF_CONFIG, seed=1), "'seed'"
    ),
    "diff-system-seed-without-second-flow": (
        "diff-system", changed(DIFF_CONFIG, ["geometry_b"], seed=1), "'seed'"
    ),
    "simulate-cfl-safety-beside-fixed-dt": (
        "simulate",
        changed(SIMULATE_CONFIG, policy={"fixed_dt": 1e-4, "cfl_safety": 0.5}),
        "'cfl_safety'",
    ),
    "simulate-dt-max-beside-fixed-dt": (
        "simulate",
        changed(SIMULATE_CONFIG, policy={"fixed_dt": 1e-4, "dt_max": 1e-3}),
        "'dt_max'",
    ),
    "simulate-cfl-safety-above-one": (
        "simulate", changed(SIMULATE_CONFIG, policy={"cfl_safety": 2.0}), "'cfl_safety'"
    ),
    "simulate-sample-time-past-T": (
        "simulate", changed(SIMULATE_CONFIG, sample_times=[0.0, 0.02]), "'sample_times'"
    ),
    "convergence-resolution-null": (
        "convergence",
        changed(CONVERGENCE_CONFIG, resolutions=[16, None, 64]),
        "'resolutions'",
    ),
    "geometry-radii-null": (
        "identities",
        changed(
            IDENTITIES_CONFIG,
            grid={"m": 2, "resolution": 8},
            geometry={"kind": "product_torus", "radii": [None, 1.0]},
        ),
        "'radii'",
    ),
    "geometry-center-null": (
        "identities",
        changed(IDENTITIES_CONFIG, geometry={"kind": "circle", "center": None}),
        "'center'",
    ),
    # fixed-length lists hold exactly two entries, neither fewer nor more
    "geometry-center-short": (
        "identities",
        changed(IDENTITIES_CONFIG, geometry={"kind": "circle", "center": [0.5]}),
        "'center'",
    ),
    "geometry-center-long": (
        "identities",
        changed(IDENTITIES_CONFIG,
                geometry={"kind": "circle", "center": [0.5, 0.1, 9]}),
        "'center'",
    ),
    "geometry-radii-short": (
        "identities",
        changed(
            IDENTITIES_CONFIG,
            grid={"m": 2, "resolution": 8},
            geometry={"kind": "product_torus", "radii": [1.0]},
        ),
        "'radii'",
    ),
    "geometry-radii-long": (
        "identities",
        changed(
            IDENTITIES_CONFIG,
            grid={"m": 2, "resolution": 8},
            geometry={"kind": "product_torus", "radii": [1.0, 0.5, 0.2]},
        ),
        "'radii'",
    ),
    "symmetry-offsets-wrong-length": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, 1]],
                                           "permutation": {"type": "shift",
                                                           "offsets": [1, 2]}}),
        "'offsets'",
    ),
    "symmetry-axes-out-of-range": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": [5]}}),
        "'axes'",
    ),
    "symmetry-axes-negative": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": [-1]}}),
        "'axes'",
    ),
    # two sources of the second flow; the unused one would go unchecked
    "diff-system-geometry-b-and-perturbation": (
        "diff-system",
        changed(DIFF_CONFIG, perturbation={"amplitudee": 5, "bogus": 1}),
        "'geometry_b' and 'perturbation'",
    ),
    "diff-system-geometry-b-and-valid-perturbation": (
        "diff-system",
        changed(DIFF_CONFIG, perturbation={"amplitude": 1e-3, "max_mode": 2}),
        "'geometry_b' and 'perturbation'",
    ),
    # a section that is not an object
    "grid-not-an-object": ("identities", changed(IDENTITIES_CONFIG, grid=5), "'grid'"),
    "geometry-null": (
        "identities", changed(IDENTITIES_CONFIG, geometry=None), "'geometry'"
    ),
    "policy-not-an-object": (
        "simulate", changed(SIMULATE_CONFIG, policy=7), "'policy'"
    ),
    "permutation-not-an-object": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": "reflection"}),
        "'symmetry.permutation'",
    ),
    "symmetry-shift-without-offsets": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, 1]],
                                           "permutation": {"type": "shift"}}),
        "'offsets'",
    ),
    "symmetry-translation-object": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry=dict(SYMMETRY_CONFIG["symmetry"],
                                               translation={"x": 1.0})),
        "'translation'",
    ),
    "geometry-path-not-text": (
        "identities",
        changed(IDENTITIES_CONFIG, geometry={"kind": "checkpoint", "path": [1]}),
        "'path'",
    ),
    # JSON true and false are not the numbers 1 and 0
    "geometry-radius-true": (
        "simulate",
        changed(SIMULATE_CONFIG, geometry={"kind": "circle", "radius": True}),
        "'radius'",
    ),
    "simulate-T-true": ("simulate", changed(SIMULATE_CONFIG, T=True), "'T'"),
    "symmetry-dt-true": ("symmetry", changed(SYMMETRY_CONFIG, dt=True), "'dt'"),
    "symmetry-steps-true": (
        "symmetry", changed(SYMMETRY_CONFIG, steps=True, record_every=True), "'steps'"
    ),
    "symmetry-matrix-true": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[True, 0], [0, -1]],
                                           "permutation": REFLECTION}),
        "'matrix'",
    ),
    "symmetry-axes-false": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": False}}),
        "'axes'",
    ),
    "symmetry-axes-list-false": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": [False]}}),
        "'axes'",
    ),
    # integer keys reject non-integral numbers instead of truncating them
    "grid-resolution-fractional": (
        "identities",
        changed(IDENTITIES_CONFIG, grid={"m": 1, "resolution": 16.9}),
        "'resolution'",
    ),
    "grid-resolution-infinite": (
        "identities",
        changed(IDENTITIES_CONFIG, grid={"m": 1, "resolution": float("inf")}),
        "'resolution'",
    ),
    "grid-m-fractional": (
        "identities",
        changed(IDENTITIES_CONFIG, grid={"m": 1.5, "resolution": 64}),
        "'m'",
    ),
    "grid-derivative-order-fractional": (
        "identities",
        changed(IDENTITIES_CONFIG,
                grid={"m": 1, "resolution": 64, "derivative_order": 2.5}),
        "'derivative_order'",
    ),
    "symmetry-steps-fractional": (
        "symmetry", changed(SYMMETRY_CONFIG, steps=20.5), "'steps'"
    ),
    "symmetry-record-every-fractional": (
        "symmetry", changed(SYMMETRY_CONFIG, record_every=2.5), "'record_every'"
    ),
    "symmetry-offsets-fractional": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, 1]],
                                           "permutation": {"type": "shift",
                                                           "offsets": [1.5]}}),
        "'offsets'",
    ),
    "symmetry-axes-fractional": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": [0.5]}}),
        "'axes'",
    ),
    "diff-system-store-every-fractional": (
        "diff-system", changed(DIFF_CONFIG, store_every=1.5), "'store_every'"
    ),
    "diff-system-seed-fractional": (
        "diff-system",
        changed(DIFF_CONFIG, ["geometry_b"], perturbation={}, seed=1.5),
        "'seed'",
    ),
    "diff-system-max-mode-fractional": (
        "diff-system",
        changed(DIFF_CONFIG, ["geometry_b"], perturbation={"max_mode": 2.5}),
        "'max_mode'",
    ),
    "convergence-resolution-fractional": (
        "convergence",
        changed(CONVERGENCE_CONFIG, resolutions=[16, 32.5, 64]),
        "'resolutions'",
    ),
    # JSON's NaN and Infinity are not numbers a config may hold
    "simulate-T-nan": ("simulate", changed(SIMULATE_CONFIG, T=float("nan")), "'T'"),
    "diff-system-T-infinite": (
        "diff-system", changed(DIFF_CONFIG, T=float("inf")), "'T'"
    ),
    # finite, but more fixed steps than a run may take
    "diff-system-T-huge": ("diff-system", changed(DIFF_CONFIG, T=1e300), "'T'"),
    "simulate-fixed-dt-nan": (
        "simulate",
        changed(SIMULATE_CONFIG, policy={"fixed_dt": float("nan")}),
        "'fixed_dt'",
    ),
    "simulate-dt-max-nan": (
        "simulate",
        changed(SIMULATE_CONFIG, policy={"dt_max": float("nan")}),
        "'dt_max'",
    ),
    "convergence-min-order-nan": (
        "convergence", changed(CONVERGENCE_CONFIG, min_order=float("nan")), "'min_order'"
    ),
    "symmetry-tolerance-nan": (
        "symmetry", changed(SYMMETRY_CONFIG, tolerance=float("nan")), "'tolerance'"
    ),
    "identities-threshold-nan": (
        "identities",
        changed(IDENTITIES_CONFIG, thresholds={"evolve_metric": float("nan")}),
        "'evolve_metric'",
    ),
    "geometry-radius-infinite": (
        "identities",
        changed(IDENTITIES_CONFIG,
                geometry={"kind": "circle", "radius": float("inf")}),
        "'radius'",
    ),
    # resolutions are checked before the default dt divides by the finest
    "convergence-resolutions-zero": (
        "convergence", changed(CONVERGENCE_CONFIG, resolutions=[0, 0, 0]),
        "'resolutions'",
    ),
    "convergence-resolutions-negative": (
        "convergence", changed(CONVERGENCE_CONFIG, resolutions=[-16, -32, -64]),
        "'resolutions'",
    ),
    # a key of another geometry kind or permutation type is unknown
    "geometry-circle-with-r1": (
        "identities",
        changed(IDENTITIES_CONFIG, geometry={"kind": "circle", "r1": 5.0}),
        "'r1'",
    ),
    "geometry-ellipse-with-path": (
        "identities",
        changed(IDENTITIES_CONFIG, geometry={"kind": "ellipse", "path": "x"}),
        "'path'",
    ),
    "symmetry-reflection-with-offsets": (
        "symmetry",
        changed(SYMMETRY_CONFIG, symmetry={"matrix": [[1, 0], [0, -1]],
                                           "permutation": {"type": "reflection",
                                                           "axes": [0],
                                                           "offsets": [1]}}),
        "'offsets'",
    ),
    # a convergence run takes its resolutions from 'resolutions' only
    "convergence-grid-resolution": (
        "convergence",
        changed(CONVERGENCE_CONFIG, grid={"m": 1, "resolution": 32}),
        "'resolution'",
    ),
    # max_mode 0 adds no mode, so the second flow would be the first
    "diff-system-max-mode-zero": (
        "diff-system",
        changed(DIFF_CONFIG, ["geometry_b"], perturbation={"max_mode": 0}),
        "'max_mode'",
    ),
    "diff-system-seed-negative": (
        "diff-system",
        changed(DIFF_CONFIG, ["geometry_b"], perturbation={}, seed=-1),
        "'seed'",
    ),
    "identities-seed-fractional": (
        "identities", changed(IDENTITIES_CONFIG, seed=3.5), "'seed'"
    ),
}


class TestIdentitiesVerb:
    def test_runs_green_and_writes_reports(self, tmp_path):
        code, out = run_cli(tmp_path, "identities", IDENTITIES_CONFIG)
        assert code == EXIT_OK
        csvs = sorted(p.name for p in out.glob("residual_*.csv"))
        assert len(csvs) == 6
        body = (out / "residual_evolve_metric.csv").read_text()
        assert ",pass," in body
        assert ANCHORS["evolve_metric"] in body
        assert "PASS" in (out / "summary.txt").read_text()

    def test_tight_threshold_fails_with_assertion_code(self, tmp_path):
        cfg = dict(IDENTITIES_CONFIG)
        cfg["thresholds"] = {"evolve_metric": 1e-14}
        code, out = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_ASSERTION
        assert ",fail," in (out / "residual_evolve_metric.csv").read_text()

    def test_suite_evaluates_the_geometry_of_each_state_once(self, monkeypatch):
        """One pack, the centre's, from the kernel evaluation that its
        fixed-step stream already made there, and no other state's."""
        times, kernels = [], []
        packs = geometry.geometry_packs
        kernel = geometry.geometry_kernel

        def packing(states, kern):
            times.extend(s.time for s in states)
            return packs(states, kern)

        def counting(grid, X):
            kernels.append(grid.resolution)
            return kernel(grid, X)

        def not_called(imm):
            raise AssertionError("compute_geometry evaluated a state again")

        monkeypatch.setattr(identities, "geometry_packs", packing)
        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", counting)
        assert not hasattr(cli, "compute_geometry")  # the CLI evaluates nothing
        monkeypatch.setattr(geometry, "compute_geometry", not_called)
        initial = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        reports = identities.identity_suite(initial, 1e-5)
        assert len(reports) == 6
        assert times == [2e-5]  # the centre's
        assert len(kernels) == 9  # 4 per step, 1 for the final state

    def test_suite_evaluates_the_centre_curvature_once(self, monkeypatch):
        calls = []

        def counting(curvature):
            def wrapper(geom):
                calls.append(geom.immersion.time)
                return curvature(geom)

            return wrapper

        monkeypatch.setattr(
            identities, "curvature_gauss", counting(identities.curvature_gauss)
        )
        initial = shapes.ellipse(GridSpec(1, 32), 1.5, 1.0)
        reports = identities.identity_suite(initial, 1e-5)
        assert len(reports) == 6
        assert calls == [2e-5]

    def test_suite_keeps_one_pack_beside_the_curvature(self, monkeypatch):
        """The evolution checks run first, on the centre's pack and its
        rates; no other pack is built, and the rates are gone before the
        centre's curvature is built, so it is never alive beside more than
        the centre's own pack."""
        built, rates, alive = [], [], []
        packs, rate = geometry.geometry_packs, geometry.kernel_rate

        def recording(states, kern):
            new = packs(states, kern)
            built.extend(weakref.ref(p) for p in new)
            return new

        def rating(geom):
            new = rate(geom)
            rates.extend(weakref.ref(a) for a in new)
            return new

        def curvature(geom):
            refs = built + rates
            alive.append(sum(ref() is not None for ref in refs))
            return geometry.curvature_gauss(geom)

        monkeypatch.setattr(identities, "geometry_packs", recording)
        monkeypatch.setattr(identities, "kernel_rate", rating)
        monkeypatch.setattr(identities, "curvature_gauss", curvature)
        for N in (16, 32):
            built.clear()
            rates.clear()
            alive.clear()
            identities.identity_suite(shapes.ellipse(GridSpec(1, N), 1.5, 1.0), 1e-5)
            assert alive == [1]
            assert len(built) == 1

    # the suite's initial immersion and dt, and the (sup, l2) of its six
    # reports as float.hex in THRESHOLD_COEFFS order: the four evolution
    # rows with the exact rates of `geometry.kernel_rate`, the last two as
    # recorded while the suite built all five packs of its window, since
    # they read the same centre pack
    SUITE_PINS = {
        "m2-N32": (
            lambda: shapes.perturbed_torus(GridSpec(2, 32), 1.0, 0.5, 0.1),
            1e-4,
            [
                ("0x0.0p+0", "0x0.0p+0"),
                ("0x1.e2add937b711cp-4", "0x1.818139d7f5d61p-2"),
                ("0x1.a00ab7569e423p-6", "0x1.24347f40fb995p-4"),
                ("0x1.30f88e813ae77p-3", "0x1.a6d18aedff88ep-2"),
                ("0x1.13bc2852517c8p-4", "0x1.6bbd11ec386d3p-3"),
                ("0x1.91bfaed2c04e0p-10", "0x1.ad520d79248edp-8"),
            ],
        ),
        "m1-order4": (
            lambda: shapes.ellipse(GridSpec(1, 64, 4), 1.5, 1.0),
            1e-5,
            [
                ("0x0.0p+0", "0x0.0p+0"),
                ("0x1.2cd0cef896706p-7", "0x1.c8e7b5c23510ap-8"),
                ("0x1.85cc3dc8bc279p-6", "0x1.6887b39b291c2p-6"),
                ("0x1.31eb5c1879482p-4", "0x1.4e4a51c960c65p-4"),
                ("0x1.709001fbcda37p-5", "0x1.700299dfdea4cp-5"),
                ("0x0.0p+0", "0x0.0p+0"),
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(SUITE_PINS))
    def test_suite_reports_are_pinned_to_the_bit(self, case):
        make, dt, pins = self.SUITE_PINS[case]
        reports = identities.identity_suite(make(), dt)
        assert [r.identity for r in reports] == list(cli.THRESHOLD_COEFFS)
        assert [(r.sup_residual.hex(), r.l2_residual.hex()) for r in reports] == pins

    @staticmethod
    def suite_peak(N):
        """The suite's tracemalloc peak on the `torus-convergence` torus at N."""
        initial = shapes.perturbed_torus(GridSpec(2, N), 1.0, 0.5, 0.1)
        dt = (2 * np.pi / N) ** 2 / 10.0
        reports, peak = traced_peak(identities.identity_suite, initial, dt)
        assert len(reports) == 6
        return peak

    def test_suite_peak_memory_at_N128(self):
        """The `torus-convergence` config's finest resolution: the suite
        never holds a neighbour's pack (39.65 MiB with five packs alive),
        builds the commutation terms one ambient component at a time
        (21.14 MiB with the whole family at once) and forms each evolution
        residual in its rate's memory, so its tracemalloc peak, 16.63 MiB,
        stays within 17.5 MiB."""
        peak = self.suite_peak(128)
        assert peak <= 17.5 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_suite_peak_memory_at_N64(self):
        """As at N=128: 4.17 MiB, within 4.4 MiB (5.29 MiB with the whole
        family of commutation terms at once)."""
        peak = self.suite_peak(64)
        assert peak <= 4.4 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_report_bodies_are_deterministic(self, tmp_path):
        _, out1 = run_cli(tmp_path, "identities", IDENTITIES_CONFIG, "out1")
        _, out2 = run_cli(tmp_path, "identities", IDENTITIES_CONFIG, "out2")
        for name in [p.name for p in out1.iterdir() if p.name != "manifest.txt"]:
            assert (out1 / name).read_text() == (out2 / name).read_text()


class TestSimulateVerb:
    def test_writes_checkpoints_and_trajectory(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 1.0},
            "T": 0.05,
            "policy": {"cfl_safety": 0.3},
            "sample_times": [0.0, 0.025, 0.05],
        }
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_OK
        assert len(list(out.glob("checkpoint_*.txt"))) == 3
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,file,volume"
        assert len(lines) == 4

    def test_growing_volume_exits_1(self, tmp_path, monkeypatch, capsys):
        volumes = itertools.count(1.0)  # 1.0, 2.0, ...: each state's larger
        monkeypatch.setattr(cli, "induced_volume", lambda det, grid: next(volumes))
        code, out = run_cli(tmp_path, "simulate", SIMULATE_CONFIG)
        assert code == EXIT_ASSERTION
        assert "volume monotone: False\n" in (out / "summary.txt").read_text()
        assert verdict_line(capsys).startswith("volume not monotone")

    @pytest.mark.parametrize("samples", ["absent", None])
    def test_no_sample_times_store_initial_and_final_states(self, tmp_path, samples):
        config = dict(SIMULATE_CONFIG)
        if samples != "absent":
            config["sample_times"] = samples
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_OK
        times = [
            float(line.split(",")[0])
            for line in (out / "trajectory.csv").read_text().splitlines()[1:]
        ]
        assert times == [0.0, pytest.approx(SIMULATE_CONFIG["T"])]

    def test_checkpoint_roundtrips_as_initial_data(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 1.0},
            "T": 0.01,
            "policy": {"fixed_dt": 1e-3},
        }
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_OK
        ckpt = sorted(out.glob("checkpoint_*.txt"))[-1]
        code2, _ = run_cli(
            tmp_path,
            "identities",
            {
                "grid": {"m": 1, "resolution": 32},
                "geometry": {"kind": "checkpoint", "path": str(ckpt)},
                "dt": 1e-5,
            },
            "out_resume",
        )
        assert code2 == EXIT_OK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_exit_code(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 0.1},
            "T": 0.5,
            "policy": {"fixed_dt": 1e-3},
        }
        code, _ = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_BLOWUP

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degeneration_mid_run_is_a_blow_up(self, tmp_path, capsys):
        # the adaptive flow reaches a degenerate metric before any NaN
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 0.1},
            "T": 0.5,
        }
        code, _ = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_BLOWUP
        assert "numerical blow-up" in capsys.readouterr().err

    def test_non_finite_checkpoint_names_its_node(self, tmp_path, capsys):
        ckpt = tmp_path / "circle.txt"
        write_immersion(shapes.circle(GridSpec(1, 8), 1.0), str(ckpt))
        rows = ckpt.read_text().splitlines(keepends=True)
        assert rows[6].startswith("5 ")
        rows[6] = "5 nan 0\n"
        ckpt.write_text("".join(rows))
        config = changed(
            SIMULATE_CONFIG,
            grid={"m": 1, "resolution": 8},
            geometry={"kind": "checkpoint", "path": str(ckpt)},
        )
        code, _ = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "invalid configuration: non-finite position at node (5,)\n"

    def test_non_finite_checkpoint_time_is_a_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "circle.txt"
        write_immersion(shapes.circle(GridSpec(1, 16), 1.0), str(ckpt))
        rows = ckpt.read_text().splitlines(keepends=True)
        assert rows[0] == "1 1 16 0.0\n"
        ckpt.write_text("".join(["1 1 16 nan\n"] + rows[1:]))
        config = changed(
            SIMULATE_CONFIG,
            grid={"m": 1, "resolution": 16},
            geometry={"kind": "checkpoint", "path": str(ckpt)},
        )
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "checkpoint header '1 1 16 nan'" in err
        assert "time must be finite" in err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("case", sorted(UNALLOCATABLE_HEADERS) + ["not-utf8"])
    def test_unreadable_checkpoint_header_is_a_config_error(
        self, tmp_path, capsys, request, case
    ):
        """A grid too large to allocate, or bytes that are not UTF-8, exit 2
        with an error that names the checkpoint header."""
        if case == "out-of-memory":
            request.getfixturevalue("refused_allocation")
        ckpt = tmp_path / "checkpoint.txt"
        if case == "not-utf8":
            ckpt.write_bytes(np.random.default_rng(1).bytes(3000))
        else:
            ckpt.write_text(UNALLOCATABLE_HEADERS[case])
        config = changed(
            SIMULATE_CONFIG,
            grid={"m": 2, "resolution": 16},
            geometry={"kind": "checkpoint", "path": str(ckpt)},
        )
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: checkpoint header ")
        assert not (out / "trajectory.csv").exists()

    def test_stalled_adaptive_flow_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # dt ~ 1.5e-18 is below half an ulp of the checkpoint's t = 1
        calls = []

        def bounded_step(*args):
            calls.append(None)
            if len(calls) > 3000:
                raise AssertionError("simulate kept stepping without advancing t")
            return step(*args)

        step = flow.step_rk4
        monkeypatch.setattr(flow, "step_rk4", bounded_step)
        ckpt = tmp_path / "circle.txt"
        circle = shapes.circle(GridSpec(1, 16), 1.0)
        write_immersion(circle.with_positions(circle.positions, time=1.0), str(ckpt))
        config = {
            "grid": {"m": 1, "resolution": 16},
            "geometry": {"kind": "checkpoint", "path": str(ckpt)},
            "T": 1.001,
            "policy": {"cfl_safety": 1e-17},
        }
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        assert "does not advance t=1.0" in capsys.readouterr().err
        assert not calls and not (out / "summary.txt").exists()

    def test_peak_memory_does_not_grow_with_the_samples(self, tmp_path):
        """Each state is written as the flow reaches it: 201 samples of an
        m=2, N=32 torus peak within 0.5 MiB of 2 samples (6.93 against 0.67
        MiB when the run was stored before anything was written)."""
        peaks = []
        for n in (2, 201):
            config = {
                "grid": {"m": 2, "resolution": 32},
                "geometry": {"kind": "product_torus"},
                "T": 0.01,
                "policy": {"fixed_dt": 5e-5},
                "sample_times": np.linspace(0.0, 0.01, n).tolist(),
            }
            (code, _), peak = traced_peak(
                run_cli, tmp_path, "simulate", config, f"out{n}"
            )
            assert code == EXIT_OK
            peaks.append(peak)
        assert peaks[1] - peaks[0] <= 2**19, [f"{p / 2**20:.2f} MiB" for p in peaks]

    def test_no_kernel_is_alive_beside_a_checkpoint(self, tmp_path, monkeypatch):
        """At each checkpoint write of the `torus-flow` config, the memory
        traced above the start of the run is below the 1.19 MiB of one
        kernel evaluation: the loop state, its stored copy, its velocity
        and the initial state (0.54 MiB); with a kernel alive 1.61 MiB."""
        config = torus_flow_config(tmp_path)
        write, above = cli.write_immersion, []

        def recording(imm, fh):
            above.append(tracemalloc.get_traced_memory()[0] - base)
            write(imm, fh)

        monkeypatch.setattr(cli, "write_immersion", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code, _ = run_cli(tmp_path, "simulate", config)
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and len(above) == 9
        assert max(above) < 1.19 * 2**20, [f"{a / 2**20:.2f} MiB" for a in above]

    # at T = 0 no step is taken: the one state is evaluated for its volume
    @pytest.mark.parametrize("T", [0.5, 0.0])
    def test_degenerate_initial_immersion_is_a_config_error(
        self, tmp_path, capsys, T
    ):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 0.0},
            "T": T,
        }
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        assert "degenerate immersion" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


class TestSymmetryVerb:
    def test_no_kernel_lives_through_the_next_step(self, tmp_path):
        """An m=2, N=64 torus under the identity action, each of 20 steps
        recorded: each kernel goes once its state is measured, so the peak
        stays within 3 MiB (3.53 MiB with each kernel alive through the
        next step, 2.46 MiB without)."""
        config = {
            "grid": {"m": 2, "resolution": 64},
            "geometry": {"kind": "product_torus"},
            "symmetry": {"matrix": np.eye(4).tolist(),
                         "permutation": {"type": "shift", "offsets": [0, 0]}},
            "steps": 20,
            "record_every": 1,
        }
        (code, out), peak = traced_peak(run_cli, tmp_path, "symmetry", config)
        assert code == EXIT_OK
        assert len((out / "symmetry_defect.csv").read_text().splitlines()) == 22
        assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_reflection_persists(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "symmetry": {
                "matrix": [[1, 0], [0, -1]],
                "permutation": {"type": "reflection", "axes": [0]},
            },
            "steps": 50,
            "dt": 1e-4,
            "tolerance": 1e-10,
        }
        code, out = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_OK
        lines = (out / "symmetry_defect.csv").read_text().splitlines()
        assert lines[0] == "t,defect"
        assert len(lines) > 2

    def test_broken_symmetry_is_a_precondition_error(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "symmetry": {
                # a quarter turn is not a symmetry of this ellipse
                "matrix": [[0, -1], [1, 0]],
                "permutation": {"type": "shift", "offsets": [8]},
            },
            "steps": 10,
            "dt": 1e-4,
        }
        code, _ = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_CONFIG

    def test_broken_symmetry_exits_through_the_config_error_path(
        self, tmp_path, capsys
    ):
        quarter_turn = {"matrix": [[0, -1], [1, 0]],
                        "permutation": {"type": "shift", "offsets": [8]}}
        code, out = run_cli(
            tmp_path, "symmetry", changed(SYMMETRY_CONFIG, symmetry=quarter_turn)
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: initial symmetry defect")
        assert not (out / "summary.txt").exists()


    def test_m2_loop_state_is_kept_in_kernel_layout(self, tmp_path, monkeypatch):
        """The loop state is converted once, so no kernel call copies it;
        the defect series is the one of the C-order loop, to the byte, and
        the times are the stream's exact multiples of dt."""
        config = {
            "grid": {"m": 2, "resolution": 16},
            "geometry": {"kind": "product_torus", "radii": [1.0, 0.7]},
            "symmetry": {
                "matrix": np.diag([1.0, -1.0, 1.0, 1.0]).tolist(),
                "permutation": REFLECTION,
            },
            "steps": 12,
            "record_every": 5,
            "dt": 1e-3,
        }
        inputs = []
        kernel = geometry.geometry_kernel

        def recording(grid, X):
            inputs.append(X)
            return kernel(grid, X)

        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", recording)
        code, out = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_OK
        assert len(inputs) == 4 * 12 + 1  # and one for the final state
        assert all(np.moveaxis(X, -1, 0).flags.c_contiguous for X in inputs)

        monkeypatch.undo()
        imm = shapes.product_torus(GridSpec(2, 16), 1.0, 0.7)
        action = SymmetryAction(
            np.diag([1.0, -1.0, 1.0, 1.0]),
            np.zeros(4),
            reflection_permutation(imm.grid, [0]),
        )

        def defect(x):
            moved = apply_symmetry(x, action).positions
            return float(np.abs(moved - x.positions).max())

        rows = [(0.0, defect(imm))]
        for k in range(1, 13):
            imm = step_rk4(imm, 1e-3)  # the state stays in C order
            if k % 5 == 0 or k == 12:
                rows.append((float(0.0 + k * 1e-3), defect(imm)))
        body = "t,defect\n" + "\n".join(f"{t!r},{d!r}" for t, d in rows) + "\n"
        assert (out / "symmetry_defect.csv").read_text() == body

    def test_default_dt_run_evaluates_the_kernel_four_times_per_step(
        self, tmp_path, monkeypatch
    ):
        kernel_calls, geometry_calls = [], []

        def counting(calls, fn):
            def wrapper(*args):
                calls.append(None)
                return fn(*args)

            return wrapper

        kernel = counting(kernel_calls, geometry.geometry_kernel)
        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", kernel)
        assert not hasattr(cli, "compute_geometry")  # the CLI evaluates nothing
        monkeypatch.setattr(
            geometry,
            "compute_geometry",
            counting(geometry_calls, geometry.compute_geometry),
        )
        code, _ = run_cli(tmp_path, "symmetry", changed(SYMMETRY_CONFIG, ["dt"]))
        assert code == EXIT_OK
        assert len(kernel_calls) == 4 * SYMMETRY_CONFIG["steps"] + 1
        assert not geometry_calls

    def test_degeneracy_is_reported_before_the_symmetry_defect(
        self, tmp_path, capsys
    ):
        # every node at (1, 0): degenerate, and a quarter turn moves it
        config = changed(
            SYMMETRY_CONFIG,
            geometry={"kind": "circle", "radius": 0.0, "center": [1.0, 0.0]},
            symmetry={"matrix": [[0, -1], [1, 0]],
                      "permutation": {"type": "shift", "offsets": [8]}},
        )
        code, out = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "invalid configuration: degenerate immersion"
        )
        assert not (out / "summary.txt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_exits_3(self, tmp_path, capsys):
        # a small circle shrinks to a point within a few steps of dt 1e-3
        config = changed(
            SYMMETRY_CONFIG, geometry={"kind": "circle", "radius": 0.1}, dt=1e-3
        )
        code, out = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_BLOWUP
        err = capsys.readouterr().err
        assert err == "numerical blow-up: flow blew up at t=0.006 at node (1,)\n"
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("above", [False, True])
    def test_steps_are_bounded(self, tmp_path, capsys, monkeypatch, above):
        class Stepped(Exception):
            pass

        def stream(*args, **kwargs):
            raise Stepped

        monkeypatch.setattr(cli, "fixed_dt_stream", stream)
        config = changed(SYMMETRY_CONFIG, steps=flow.MAX_STEPS + above)
        if not above:
            with pytest.raises(Stepped):
                run_cli(tmp_path, "symmetry", config)
            return
        code, out = run_cli(tmp_path, "symmetry", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: invalid 'steps'")
        assert not (out / "summary.txt").exists()


class TestDiffSystemVerb:
    def test_writes_all_reports(self, tmp_path):
        code, out = run_cli(tmp_path, "diff-system", DIFF_CONFIG)
        assert code == EXIT_OK
        report = (out / "inequality_report.txt").read_text()
        assert LIMITATION_STATEMENT in report
        assert "C1 = " in report
        diff_csv = (out / "difference_identities.csv").read_text()
        assert "difference_metric" in diff_csv
        assert "difference_position_gradient" in diff_csv
        env = (out / "gronwall_envelope.csv").read_text().splitlines()
        assert env[0] == "t,F,G,dFdt,envelope,c_star"
        assert LIMITATION_STATEMENT in (out / "summary.txt").read_text()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_identical_flows_have_zero_differences(self, tmp_path):
        """With neither `geometry_b` nor `perturbation` both flows start
        from the same immersion, so F = 0 on every row: every difference,
        constant and envelope is 0."""
        code, out = run_cli(tmp_path, "diff-system", IDENTICAL_DIFF_CONFIG)
        assert code == EXIT_OK
        report = (out / "inequality_report.txt").read_text().splitlines()
        assert {"C1 = 0.0", "C2 = 0.0", "flagged_nodes = 0"} <= set(report)
        (K,) = [line for line in report if line.startswith("K = ")]
        assert f"K_tilde = {K[4:]}" in report
        env = (out / "gronwall_envelope.csv").read_text().splitlines()
        assert env[0] == "t,F,G,dFdt,envelope,c_star"
        assert len(env) == 16  # the header and t = 0.002, 0.0025, ..., 0.009
        for row in env[1:]:
            assert row.split(",")[1:] == ["0.0"] * 5

    @pytest.mark.parametrize(
        "values, line, verdict",
        [
            ({"flagged_nodes": 1}, "flagged nodes: 1", "1 flagged node(s)"),
            ({"C1": float("nan")}, "C1=nan", "C1=nan"),
            ({"C2": float("inf")}, "C2=inf", "C2=inf"),
        ],
        ids=["flagged-node", "C1-nan", "C2-inf"],
    )
    def test_failed_pass_verdict_exits_1(
        self, tmp_path, monkeypatch, capsys, values, line, verdict
    ):
        """A flagged node or a non-finite constant fails the run, though the
        envelope holds; stderr names that verdict alone."""
        pass_ = cli.paired_pass
        monkeypatch.setattr(
            cli, "paired_pass", lambda *a: dataclasses.replace(pass_(*a), **values)
        )
        code, out = run_cli(tmp_path, "diff-system", DIFF_CONFIG)
        assert code == EXIT_ASSERTION
        summary = (out / "summary.txt").read_text()
        assert line in summary
        assert "envelope holds: True\n" in summary
        assert verdict_line(capsys) == f"paired pass failed: {verdict}\n"

    def test_failed_envelope_exits_1(self, tmp_path, monkeypatch, capsys):
        gronwall = cli.forward_gronwall

        def halved(report):  # every envelope value below its F
            t, F, G, dFdt, _, c_star = gronwall(report)
            return t, F, G, dFdt, F / 2, c_star

        monkeypatch.setattr(cli, "forward_gronwall", halved)
        code, out = run_cli(tmp_path, "diff-system", DIFF_CONFIG)
        assert code == EXIT_ASSERTION
        summary = (out / "summary.txt").read_text()
        assert "envelope holds: False\n" in summary
        assert "flagged nodes: 0\n" in summary
        assert verdict_line(capsys) == "paired pass failed: envelope does not hold\n"

    def test_perturbation_branch_is_seeded(self, tmp_path):
        config = {
            "grid": {"m": 1, "resolution": 48},
            "geometry": {"kind": "circle", "radius": 1.0},
            "perturbation": {"amplitude": 1e-3},
            "seed": 11,
            "T": 2e-3,
            "delta": 5e-4,
            "dt": 1e-4,
            "store_every": 1,
        }
        _, out1 = run_cli(tmp_path, "diff-system", config, "p1")
        _, out2 = run_cli(tmp_path, "diff-system", config, "p2")
        assert (out1 / "inequality_report.txt").read_text() == (
            out2 / "inequality_report.txt"
        ).read_text()

    def test_torus_pair_is_clean_and_deterministic(self, tmp_path):
        config = {
            "grid": {"m": 2, "resolution": 16},
            "geometry": {"kind": "product_torus"},
            "perturbation": {"amplitude": 1e-3},
            "seed": 3,
            "T": 0.04,
            "delta": 0.01,
            "store_every": 1,
        }
        code1, out1 = run_cli(tmp_path, "diff-system", config, "t1")
        code2, out2 = run_cli(tmp_path, "diff-system", config, "t2")
        assert code1 == code2 == EXIT_OK
        report = (out1 / "inequality_report.txt").read_text()
        assert "flagged_nodes = 0" in report.splitlines()
        for name in ("inequality_report.txt", "gronwall_envelope.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "make_b, message",
        [
            (
                lambda a: a.with_positions(np.pad(a.positions, ((0, 0), (0, 1)))),
                "paired flows differ in ambient dimension: 2 vs 3",
            ),
            (
                lambda a: a.with_positions(a.positions, time=0.5),
                "paired flows differ in time: 0.0 vs 0.5",
            ),
        ],
        ids=["ambient", "start-time"],
    )
    def test_mismatched_checkpoint_b_is_a_config_error(
        self, tmp_path, capsys, make_b, message
    ):
        ckpt = tmp_path / "b.txt"
        write_immersion(make_b(shapes.circle(GridSpec(1, 48), 1.0)), str(ckpt))
        cfg = dict(DIFF_CONFIG, geometry_b={"kind": "checkpoint", "path": str(ckpt)})
        code, _ = run_cli(tmp_path, "diff-system", cfg)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blow_up_of_b_exits_3(self, tmp_path, capsys):
        cfg = dict(
            DIFF_CONFIG, geometry_b={"kind": "circle", "radius": 0.05}, dt=1e-3,
            T=0.02, delta=5e-3,
        )
        code, _ = run_cli(tmp_path, "diff-system", cfg)
        assert code == EXIT_BLOWUP
        assert "numerical blow-up" in capsys.readouterr().err

    def test_delta_outside_window_rejected(self, tmp_path):
        cfg = dict(DIFF_CONFIG)
        cfg["delta"] = 1.0
        code, _ = run_cli(tmp_path, "diff-system", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "values, keys",
        [
            # T / dt = 10 steps, none of them stored: one state
            ({"store_every": 20}, ("'store_every'", "'T'")),
            # stored every 5 of 8 steps: two states
            ({"T": 8e-4, "store_every": 5}, ("'store_every'", "'T'")),
            # 4 steps: five states, one centre, so never two past delta
            ({"T": 4e-4, "delta": 1e-4}, ("'store_every'", "'T'")),
            # centers at 2e-4 .. 1.8e-3: only the last is at or past delta
            ({"delta": 1.75e-3}, ("'delta'",)),
            # 20 of 25 steps are stored, so delta 2.2e-3 lies past every center
            ({"T": 2.5e-3, "store_every": 5, "delta": 2.2e-3}, ("'delta'",)),
        ],
        ids=["no-step-stored", "two-states", "five-states",
             "one-center-past-delta", "delta-past-the-stored-states"],
    )
    def test_short_window_fails_before_integrating(
        self, tmp_path, capsys, monkeypatch, values, keys
    ):
        def not_read(*args, **kwargs):  # the stream is built, never read
            raise AssertionError("the pair was integrated")
            yield

        monkeypatch.setattr(flow, "_fixed_dt_loop", not_read)
        code, out = run_cli(tmp_path, "diff-system", changed(DIFF_CONFIG, **values))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        assert all(key in err for key in keys), err
        assert not (out / "summary.txt").exists()

    def test_too_many_steps_fail_before_any_kernel_call(
        self, tmp_path, capsys, monkeypatch
    ):
        def not_called(*args, **kwargs):
            raise AssertionError("a kernel was evaluated")

        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", not_called)
        config = changed(DIFF_CONFIG, T=(flow.MAX_STEPS + 1) * DIFF_CONFIG["dt"])
        code, out = run_cli(tmp_path, "diff-system", config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: invalid 'T'"), err
        assert not (out / "summary.txt").exists()

    def test_builds_each_difference_pack_once(self, tmp_path, monkeypatch):
        times = []

        def counting(stateA, stateB, kern):
            times.append(stateA.time)
            given.append(kern is not None)
            return build_difference(stateA, stateB, kern)

        given = []
        build_difference = differences.build_difference
        monkeypatch.setattr(differences, "build_difference", counting)
        code, _ = run_cli(tmp_path, "diff-system", DIFF_CONFIG)
        assert code == EXIT_OK
        assert times == sorted(set(times)) and len(times) == 21  # T / dt + 1
        # every pack from the kernel the stream hands over with its state,
        # the final one's too (TestKernelBudget counts that no state is
        # evaluated twice)
        assert given == [True] * 21


# circles of N=8 whose last stored state, and no earlier one, is degenerate
TINY_CIRCLE = {"kind": "circle", "radius": 0.003049246231155779}  # after 4 steps
DEGENERATE_FINAL_STATE = {
    "identities": (
        {"grid": {"m": 1, "resolution": 8},
         "geometry": {"kind": "circle", "radius": 0.002147},  # after 2 steps
         "dt": 1e-6},
        "flow blew up at t=2e-06 at node (0,)",
    ),
    "simulate": (
        {"grid": {"m": 1, "resolution": 8}, "geometry": TINY_CIRCLE, "T": 4e-6,
         "policy": {"fixed_dt": 1e-6}},
        "flow blew up at t=4e-06 at node (7,)",
    ),
    "symmetry": (
        {"grid": {"m": 1, "resolution": 8}, "geometry": TINY_CIRCLE,
         "symmetry": {"matrix": [[1, 0], [0, -1]], "permutation": REFLECTION},
         "steps": 4, "record_every": 1, "dt": 1e-6},
        "flow blew up at t=4e-06 at node (1,)",
    ),
    "diff-system": (
        {"grid": {"m": 1, "resolution": 8},
         "geometry": {"kind": "circle", "radius": 0.0015265},  # after 5 steps
         "T": 5e-6, "delta": 1e-6, "dt": 1e-6, "store_every": 1},
        "flow blew up at t=5e-06 at node (2,)",
    ),
}


class TestDegenerateFinalState:
    """A flow whose last stored state is degenerate has blown up: the final
    state is evaluated under the flow's rule, not as input data."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("verb", sorted(DEGENERATE_FINAL_STATE))
    def test_exits_3(self, tmp_path, capsys, verb):
        config, message = DEGENERATE_FINAL_STATE[verb]
        code, out = run_cli(tmp_path, verb, config)
        assert code == EXIT_BLOWUP
        assert capsys.readouterr().err == f"numerical blow-up: {message}\n"
        assert not (out / "summary.txt").exists()
        if verb != "simulate":
            assert not list(out.glob("checkpoint_*"))
            return
        # the states stored before the blow-up are on disk: the initial one
        assert [p.name for p in out.glob("checkpoint_*")] == ["checkpoint_0000.txt"]
        initial = tmp_path / "initial.txt"
        radius = TINY_CIRCLE["radius"]
        write_immersion(shapes.circle(GridSpec(1, 8), radius), str(initial))
        assert (out / "checkpoint_0000.txt").read_bytes() == initial.read_bytes()
        assert not (out / "trajectory.csv").exists()


class TestKernelBudget:
    """geometry_kernel calls of the benchmark's four workload configs: every
    stored state of a fixed-step run reaches its check with the kernel
    evaluation that its step already made, and the final state, which
    starts no step, costs one call."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        kernel = geometry.geometry_kernel

        def counting(grid, X):
            calls.append(None)
            return kernel(grid, X)

        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", counting)
        return calls

    def test_torus_flow(self, tmp_path, kernel_calls):
        # 153 adaptive steps at 4 calls each and 1 for the final state; each
        # of the other 8 checkpoints' volumes comes from the call that starts
        # the step from it
        config = torus_flow_config(tmp_path)
        kernel_calls.clear()  # the checkpoint writer evaluates nothing
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_OK
        assert "simulate: 153 steps" in (out / "summary.txt").read_text()
        assert len(kernel_calls) == 4 * 153 + 1 == 613

    def test_circle_pair(self, tmp_path, kernel_calls):
        # T / dt = 3000 steps at 4 calls each, and 1 for the final state
        config = {
            "grid": {"m": 1, "resolution": 256},
            "geometry": {"kind": "circle", "radius": 1.0},
            "geometry_b": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "T": 0.3,
            "delta": 0.03,
            "dt": 1e-4,
            "store_every": 50,
        }
        code, _ = run_cli(tmp_path, "diff-system", config)
        assert code == EXIT_OK
        assert len(kernel_calls) == 4 * 3000 + 1 == 12_001

    def test_torus_pair(self, tmp_path, kernel_calls):
        # the default dt h^2 / 20 gives round(20.75) = 21 steps, all stored
        config = {
            "seed": 1,
            "grid": {"m": 2, "resolution": 32},
            "geometry": {"kind": "product_torus", "radii": [1.0, 1.0]},
            "perturbation": {"amplitude": 1e-3, "max_mode": 3},
            "T": 0.04,
            "delta": 0.01,
            "store_every": 1,
        }
        code, _ = run_cli(tmp_path, "diff-system", config)
        assert code == EXIT_OK
        assert len(kernel_calls) == 4 * 21 + 1 == 85

    def test_torus_convergence(self, tmp_path, kernel_calls):
        # per resolution, 2 steps at 4 calls each and 1 for the final state,
        # the centre, whose rates take no kernel call
        config = {
            "grid": {"m": 2},
            "geometry": {"kind": "perturbed_torus", "r1": 1.0, "r2": 0.5,
                         "amplitude": 0.1},
            "resolutions": [32, 64, 128],
        }
        code, _ = run_cli(tmp_path, "convergence", config)
        assert code == EXIT_OK
        assert len(kernel_calls) == 3 * (2 * 4 + 1) == 27


class TestLateStart:
    """A checkpoint stamped t = 1000 gives the numbers of the same state
    stamped 0: the windows divide by the run's sample step, which the
    stamped times miss at rounding level that late."""

    @staticmethod
    def from_checkpoint(tmp_path, verb, config, t0):
        ckpt = tmp_path / f"ellipse_{t0}.txt"
        imm = shapes.ellipse(GridSpec(1, 64), 1.5, 1.0)
        write_immersion(imm.with_positions(imm.positions, time=t0), str(ckpt))
        config = dict(
            config,
            grid={"m": 1, "resolution": 64},
            geometry={"kind": "checkpoint", "path": str(ckpt)},
        )
        return run_cli(tmp_path, verb, config, f"{verb}_{t0}")

    def test_identities(self, tmp_path):
        columns = {}
        for t0 in (0.0, 1000.0):
            code, out = self.from_checkpoint(tmp_path, "identities", {}, t0)
            assert code == EXIT_OK
            rows = [
                (out / f"residual_{name}.csv").read_text().splitlines()[1]
                for name in cli.THRESHOLD_COEFFS
            ]
            # sup_residual and l2_residual
            columns[t0] = [row.split(",")[4:6] for row in rows]
        assert columns[1000.0] == columns[0.0]

    def test_diff_system(self, tmp_path):
        config = {
            "perturbation": {"amplitude": 1e-3},
            "T": 2e-3,
            "delta": 5e-4,
            "dt": 1e-4,
            "store_every": 2,
        }
        reports = {}
        for t0 in (0.0, 1000.0):
            code, out = self.from_checkpoint(tmp_path, "diff-system", config, t0)
            assert code == EXIT_OK
            lines = (out / "inequality_report.txt").read_text().splitlines()
            reports[t0] = dict(line.split(" = ") for line in lines if " = " in line)
        assert reports[1000.0]["dt"] == reports[0.0]["dt"] == "0.0002"
        for key in ("C1", "C2"):
            assert reports[1000.0][key] == reports[0.0][key]

    def test_symmetry(self, tmp_path):
        """The rows are stamped with the stream's times t0 + k * dt, the
        first with t0 itself."""
        config = changed(SYMMETRY_CONFIG, steps=25, record_every=10)
        defects = {}
        for t0 in (0.0, 0.2, 1000.0):
            code, out = self.from_checkpoint(tmp_path, "symmetry", config, t0)
            assert code == EXIT_OK
            lines = (out / "symmetry_defect.csv").read_text().splitlines()[1:]
            rows = [line.split(",") for line in lines]
            times = [float(t0 + k * 1e-4) for k in (0, 10, 20, 25)]
            assert rows[0][0] == repr(t0)
            assert [t for t, _ in rows] == [repr(t) for t in times]
            defects[t0] = [d for _, d in rows]
        assert defects[0.2] == defects[1000.0] == defects[0.0]


class TestParabolicScaling:
    """X -> lam X, t -> lam^2 t maps mean curvature flow to itself, and the
    semi-discrete scheme too: its stencils act in parameter space, and RK4
    and the step rule cfl_safety * min g_ii * h^2 are homogeneous.  For lam
    a power of 2 floating point keeps this bit for bit.  So `simulate`,
    `symmetry` and `diff-system`, run through `cli.run_experiment` on a
    config with positions and translations times lam and every time times
    lam^2, take as many steps and write the unscaled run's numbers times the
    power of lam that each one's weight predicts.  The configs are dyadic:
    1e-4 is not 4 * 2.5e-5 in binary.

    Three absolute constants do not scale, so the verdicts they give depend
    on the unit of length: `volume monotone` forgives a rise of 1e-10, the
    symmetry `tolerance` bounds a defect that scales as lam, and the
    `symmetry` default dt is capped at StepPolicy's dt_max of 1e-2 (these
    runs give their dt).  Nor do `diff-system`'s C1 and C2, which weigh
    summands of different dimension in one core."""

    LAMS = (0.5, 2.0, 4.0)

    @staticmethod
    def shape(m, lam):
        if m == 1:
            return {"kind": "circle", "radius": lam, "center": [0.0, lam / 2]}
        return {"kind": "product_torus", "radii": [lam, lam / 2]}

    @classmethod
    def simulate(cls, tmp_path, m, lam):
        """(trajectory rows, checkpoints, steps) of the adaptive flow, whose
        step rule, not dt_max, sets every step but those landing on a
        sample time."""
        T = lam**2 * 2.0**-4
        config = {
            "kind": "simulate",
            "grid": {"m": m, "resolution": 32 if m == 1 else 16},
            "geometry": cls.shape(m, lam),
            "T": T,
            "policy": {"dt_max": lam**2 / 4},
            "sample_times": [0.0, T / 4, T / 2, T],
        }
        out = tmp_path / f"simulate_{m}_{lam}"
        assert cli.run_experiment(config, str(out)) == EXIT_OK
        rows = [r.split(",") for r in (out / "trajectory.csv").read_text().split()[1:]]
        checkpoints = [
            ((out / name).read_text().split("\n", 1)[0], read_immersion(out / name))
            for _, name, _ in rows
        ]
        manifest = (out / "manifest.txt").read_text()
        steps = int(re.search(r"^steps = (\d+)$", manifest, re.M).group(1))
        return [(float(t), float(v)) for t, _, v in rows], checkpoints, steps

    @pytest.mark.parametrize("m", [1, 2])
    def test_simulate(self, tmp_path, m):
        rows, checkpoints, steps = self.simulate(tmp_path, m, 1.0)
        assert len(rows) == 4 and steps > 10
        for lam in self.LAMS:
            rows2, checkpoints2, steps2 = self.simulate(tmp_path, m, lam)
            assert steps2 == steps, lam
            assert rows2 == [(lam**2 * t, lam**m * v) for t, v in rows], lam
            for (head, imm), (head2, imm2) in zip(checkpoints, checkpoints2):
                *grid, t = head.split()
                assert head2.split() == [*grid, repr(lam**2 * float(t))]
                assert np.array_equal(imm2.positions, lam * imm.positions), lam
                assert imm2.time == lam**2 * imm.time

    @classmethod
    def symmetry(cls, tmp_path, m, lam):
        """The (t, defect) rows of a reflection that fixes the initial
        immersion, off its centre at m = 1, where the translation moves."""
        if m == 1:
            matrix, translation = [[1, 0], [0, -1]], [0.0, lam]
        else:
            matrix, translation = np.diag([1.0, -1.0, 1.0, 1.0]).tolist(), [0.0] * 4
        config = {
            "kind": "symmetry",
            "grid": {"m": m, "resolution": 32 if m == 1 else 16},
            "geometry": cls.shape(m, lam),
            "symmetry": {"matrix": matrix, "translation": translation,
                         "permutation": REFLECTION},
            "steps": 40,
            "record_every": 10,
            "dt": lam**2 * 2.0**-10,
        }
        out = tmp_path / f"symmetry_{m}_{lam}"
        assert cli.run_experiment(config, str(out)) == EXIT_OK
        lines = (out / "symmetry_defect.csv").read_text().split()[1:]
        return [tuple(map(float, line.split(","))) for line in lines]

    @pytest.mark.parametrize("m", [1, 2])
    def test_symmetry(self, tmp_path, m):
        rows = self.symmetry(tmp_path, m, 1.0)
        assert len(rows) == 5 and max(d for _, d in rows) > 0.0
        for lam in self.LAMS:
            assert self.symmetry(tmp_path, m, lam) == [
                (lam**2 * t, lam * d) for t, d in rows
            ], lam


    # the power of lam that each summand's squared g-norm falls by; a
    # covariant derivative adds 2 and a time derivative 4
    SUMMAND_FALL = {"U": 2, "V": 4, "w": 0, "d": 0, "N": 2, "W": 4}

    @classmethod
    def diff_system(cls, tmp_path, m, lam, monkeypatch=None):
        """The inequality report and the envelope lines of `diff-system`,
        and the pass's arguments when monkeypatch is given; C1 and C2 are
        dropped from the report, as they weigh summands of different
        dimension in one core and so depend on the unit of length."""
        if m == 1:
            dt, n_steps, store_every = 2.0**-13, 40, 4
            geometry = {
                "geometry": cls.shape(m, lam),
                "geometry_b": {"kind": "ellipse", "a": 1.2 * lam, "b": 0.9 * lam},
            }
        else:
            dt, n_steps, store_every = 2.0**-11, 24, 2
            geometry = {
                "geometry": cls.shape(m, lam),
                "perturbation": {"amplitude": 1e-2 * lam},
                "seed": 1,
            }
        config = {
            "kind": "diff-system",
            "grid": {"m": m, "resolution": 64 if m == 1 else 16},
            **geometry,
            "T": lam**2 * n_steps * dt,
            "delta": lam**2 * 8 * dt,
            "dt": lam**2 * dt,
            "store_every": store_every,
        }
        args = []
        if monkeypatch is not None:
            pass_ = cli.paired_pass

            def recording(*a):
                args.extend(a)
                return pass_(*a)

            monkeypatch.setattr(cli, "paired_pass", recording)
        out = tmp_path / f"diff_{m}_{lam}"
        assert cli.run_experiment(config, str(out)) == EXIT_OK
        report = [
            line for line in (out / "inequality_report.txt").read_text().splitlines()
            if not line.startswith(("C1 = ", "C2 = "))
        ]
        envelope = (out / "gronwall_envelope.csv").read_text().splitlines()
        return report, envelope, args

    @classmethod
    def summands(cls, initA, initB, T, delta, dt, store_every):
        """Per fitted center of the pass: its time, the cell weights, and
        each summand's pointwise term of |Y|^2 and |Z|^2 ("norm"), of
        |grad Y|^2 ("grad"), of |(d/dt - Lap) Y|^2 ("heat") and of
        |d/dt Z|^2 ("rate"), in the order the pass adds them."""
        n_steps = int(round(T / dt))
        trajs = run_paired_fixed_dt(
            initA, initB, dt, n_steps - n_steps % store_every, store_every
        )
        fitted = differences.fitted_centers(
            len(trajs[0].states), store_every * dt, delta
        )
        centers = []
        for c in fitted:
            p, rate_of = paired_center(*trajs, c)
            g = p.geomA
            grad = p.grad_Y()
            terms = {"norm": {}, "grad": {}, "heat": {}, "rate": {}}
            for f, spec in differences.Y_SUMMANDS + differences.Z_SUMMANDS:
                rate = rate_of(f)
                terms["norm"][f] = tensor_norm_sq(getattr(p, f), g, spec)
                terms["rate"][f] = tensor_norm_sq(rate, g, spec)
                if (f, spec) in differences.Y_SUMMANDS:
                    terms["grad"][f] = tensor_norm_sq(grad[f], g, "l" + spec)
                    lap = divergence(grad[f], g, "l" + spec)
                    terms["heat"][f] = tensor_norm_sq(rate - lap, g, spec)
            centers.append((g.immersion.time, g.cell_weight, terms))
        return centers

    @classmethod
    def predicted(cls, centers, m, lam):
        """The report's rows at lam from the summands at 1, each scaled by
        its power of lam and summed in the pass's order."""
        Y = [f for f, _ in differences.Y_SUMMANDS]
        Z = [f for f, _ in differences.Z_SUMMANDS]

        def total(terms, names, extra):
            scaled = (lam ** -(cls.SUMMAND_FALL[f] + extra) * terms[f] for f in names)
            return functools.reduce(np.add, scaled)

        rows = []
        for t, weight, terms in centers:
            weight = lam**m * weight
            rows.append({
                "t": lam**2 * t,
                "E_Y": float(np.sum(total(terms["norm"], Y, 0) * weight)),
                "E_gradY": float(np.sum(total(terms["grad"], Y, 2) * weight)),
                "E_Z": float(np.sum(total(terms["norm"], Z, 0) * weight)),
                "sup_lhs1": float(total(terms["heat"], Y, 4).max()),
                "sup_lhs2": float(total(terms["rate"], Z, 4).max()),
            })
        return rows

    @pytest.mark.parametrize("m", [1, 2])
    def test_diff_system(self, tmp_path, m, monkeypatch):
        """K and K~ scale as 1 / lam, T and every row's t as lam^2, and each
        row's energies and sups are the sums of the summands at lam = 1,
        each times its power of lam; the envelope is that of those rows."""
        report, envelope, args = self.diff_system(tmp_path, m, 1.0, monkeypatch)
        centers = self.summands(*args)
        assert len(centers) == 7
        values = dict(line.split(" = ") for line in report if " = " in line)
        for lam in (1.0,) + self.LAMS:
            report2, envelope2, _ = self.diff_system(tmp_path, m, lam)
            rows = self.predicted(centers, m, lam)
            want = dict(values)
            for key, power in (("T", 2), ("K", -1), ("K_tilde", -1)):
                want[key] = repr(lam**power * float(values[key]))
            want["dt"] = repr(lam**2 * float(values["dt"]))
            want["delta"] = repr(lam**2 * float(values["delta"]))
            got = dict(line.split(" = ") for line in report2 if " = " in line)
            assert got == want, lam
            header = report2.index("t,E_Y,E_gradY,E_Z,sup_lhs1,sup_lhs2")
            assert report2[header + 1 :] == [
                ",".join(repr(r[k]) for k in ("t", "E_Y", "E_gradY", "E_Z",
                                              "sup_lhs1", "sup_lhs2"))
                for r in rows
            ], lam
            *columns, c_star = differences.forward_gronwall(
                types.SimpleNamespace(rows=rows)
            )
            assert envelope2[1:] == [
                ",".join(repr(x) for x in (*row, c_star))
                for row in zip(*(c.tolist() for c in columns))
            ], lam
            assert envelope2[0] == envelope[0]


class TestConvergenceVerb:
    def test_orders_reported(self, tmp_path):
        config = {
            "grid": {"m": 1},
            "geometry": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "resolutions": [64, 128, 256],
            "dt": 1e-5,
        }
        code, out = run_cli(tmp_path, "convergence", config)
        assert code == EXIT_OK
        body = (out / "convergence.csv").read_text()
        assert "evolve_position_gradient" in body
        assert ",exact" in body  # semi-discrete-exact identities are flagged
        assert ",ok" in body

    def test_too_few_resolutions_rejected(self, tmp_path):
        config = {
            "geometry": {"kind": "circle"},
            "resolutions": [64, 128],
        }
        code, _ = run_cli(tmp_path, "convergence", config)
        assert code == EXIT_CONFIG

    def test_suite_evaluates_three_geometries_per_resolution(
        self, tmp_path, monkeypatch
    ):
        """One pack and 9 kernel calls per resolution: 4 per step of the
        two-step stream, whose stored states keep their step's first stage,
        and 1 for the final state, the centre."""
        packed, kernels = [], []
        packs = geometry.geometry_packs
        kernel = geometry.geometry_kernel

        def packing(states, kern):
            packed.append(states[0].grid.resolution)
            return packs(states, kern)

        def counting(grid, X):
            kernels.append(grid.resolution)
            return kernel(grid, X)

        monkeypatch.setattr(identities, "geometry_packs", packing)
        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", counting)
        code, _ = run_cli(tmp_path, "convergence", CONVERGENCE_CONFIG)
        assert code == EXIT_OK
        assert packed == [16, 32, 64]
        assert kernels == [16] * 9 + [32] * 9 + [64] * 9

    def test_perturbed_torus_at_16_32_64_passes(self, tmp_path):
        """The suite's rates are exact, so `d/dt X^a_i = grad_i H^a`, which
        holds in the semi-discrete system, reads 0.0 at every resolution and
        is flagged exact; the other identities keep order 2."""
        code, out = run_cli(tmp_path, "convergence", TORUS_CONVERGENCE_CONFIG)
        assert code == EXIT_OK
        rows = {
            line.split(",")[0]: line.split(",")[1:]
            for line in (out / "convergence.csv").read_text().splitlines()[1:]
        }
        assert rows.pop("evolve_position_gradient") == [
            "0.000000e+00;0.000000e+00;0.000000e+00", "", "exact"
        ]
        assert len(rows) == 5
        for identity, (_, order, flag) in rows.items():
            assert flag == "ok" and float(order) >= 1.9, identity

    def test_a_broken_right_hand_side_still_fails(self, tmp_path, monkeypatch, capsys):
        """metric_rhs scaled by 1 + h^2, h the coarsest spacing: an error
        that does not refine away fails the order gate.  (Scaled at each
        grid's own spacing the error is O(h^2), which no refinement order
        can tell from the truncation error.)"""
        metric_rhs = identities.metric_rhs
        h = 2 * np.pi / TORUS_CONVERGENCE_CONFIG["resolutions"][0]
        monkeypatch.setattr(
            identities, "metric_rhs", lambda geom: (1 + h**2) * metric_rhs(geom)
        )
        code, out = run_cli(tmp_path, "convergence", TORUS_CONVERGENCE_CONFIG)
        assert code == EXIT_ASSERTION
        body = (out / "convergence.csv").read_text()
        assert ",exact\n" in body  # evolve_position_gradient is untouched
        (row,) = [line for line in body.splitlines() if line.startswith("evolve_metric,")]
        assert row.endswith(",below-order")
        assert verdict_line(capsys).startswith("order below 1.9: [")

    def test_non_doubling_resolutions_rejected(self, tmp_path):
        config = {
            "geometry": {"kind": "circle"},
            "resolutions": [64, 96, 128],
        }
        code, _ = run_cli(tmp_path, "convergence", config)
        assert code == EXIT_CONFIG


class TestConfigValidation:
    def test_unknown_key_is_an_error(self, tmp_path):
        cfg = dict(IDENTITIES_CONFIG)
        cfg["tolernce"] = 1e-6
        code, _ = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG

    def test_kind_verb_mismatch(self, tmp_path):
        cfg = dict(IDENTITIES_CONFIG)
        cfg["kind"] = "simulate"
        code, _ = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["identities", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["identities", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_value_is_a_config_error_naming_its_key(self, tmp_path, capsys, case):
        verb, cfg, key = BAD_CONFIGS[case]
        code, out = run_cli(tmp_path, verb, cfg)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:") and key in err
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("verb, values, key", [
        ("symmetry", {"tolerance": -1.0}, "'tolerance'"),
        ("identities", {"thresholds": {"gauss_cross_check": -1e-300}},
         "'gauss_cross_check'"),
    ])
    def test_negative_bound_exits_2_before_any_step(
        self, tmp_path, capsys, monkeypatch, verb, values, key
    ):
        """A negative bound fails every pass, so it is a config error, not
        a verdict: no kernel is evaluated."""
        calls = []
        for module in (geometry, flow):
            monkeypatch.setattr(module, "geometry_kernel", lambda *a: calls.append(a))
        code, out = run_cli(tmp_path, verb, changed(BASE_CONFIGS[verb], **values))
        assert code == EXIT_CONFIG and not calls
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        assert key in err and "must not be negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("verb, key, value", [
        ("symmetry", "tolerance", 0.0),
        ("identities", "thresholds", {"evolve_metric": 0.0}),
    ])
    def test_a_zero_bound_is_a_verdict(self, tmp_path, capsys, verb, key, value):
        """0 is a valid bound: the pass runs, and its rounding-level
        defect or residual fails it."""
        code, out = run_cli(tmp_path, verb, changed(BASE_CONFIGS[verb], **{key: value}))
        assert code == EXIT_ASSERTION
        assert "FAIL" in (out / "summary.txt").read_text()
        assert verdict_line(capsys).startswith(
            {"symmetry": "symmetry defect", "identities": "identity assertion failed"}[verb]
        )

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "identities", [IDENTITIES_CONFIG])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("invalid configuration:")
        assert not out.exists()

    def test_out_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(IDENTITIES_CONFIG))
        code = main(["identities", "--config", str(cfg_path), "--out", str(afile)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(afile) in err
        assert afile.read_text() == "kept\n"

    def test_unknown_geometry_kind(self, tmp_path):
        cfg = dict(IDENTITIES_CONFIG)
        cfg["geometry"] = {"kind": "klein_bottle"}
        code, _ = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "grid", [{"m": 1, "resolution": 32}, {"m": 2, "resolution": 16}]
    )
    def test_checkpoint_grid_must_match_config(self, tmp_path, capsys, grid):
        ckpt = tmp_path / "torus.txt"
        write_immersion(shapes.product_torus(GridSpec(2, 8), 1.0, 0.5), str(ckpt))
        cfg = dict(IDENTITIES_CONFIG)
        cfg["grid"] = grid
        cfg["geometry"] = {"kind": "checkpoint", "path": str(ckpt)}
        code, _ = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG
        assert "m=2, N=8" in capsys.readouterr().err

    def test_truncated_checkpoint_is_a_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "torus.txt"
        write_immersion(shapes.product_torus(GridSpec(2, 8), 1.0, 0.5), str(ckpt))
        ckpt.write_text("".join(ckpt.read_text().splitlines(keepends=True)[:-3]))
        cfg = dict(IDENTITIES_CONFIG)
        cfg["grid"] = {"m": 2, "resolution": 8}
        cfg["geometry"] = {"kind": "checkpoint", "path": str(ckpt)}
        code, _ = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG
        assert "61 rows, expected 64" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, config, named", [
        ("identities",
         {"grid": {"m": 2, "resolution": 10**6}, "geometry": {"kind": "product_torus"}},
         "grid m=2, N=1000000"),
        ("symmetry", changed(SYMMETRY_CONFIG, grid={"m": 1, "resolution": 10**11}),
         "grid m=1, N=100000000000"),
        ("convergence",
         changed(TORUS_CONVERGENCE_CONFIG, resolutions=[2**20, 2**21, 2**22]),
         "grid m=2, N=[1048576, 2097152, 4194304]"),
    ])
    def test_grid_too_large_to_allocate_is_a_config_error(
        self, tmp_path, capsys, refused_allocation, verb, config, named
    ):
        """A config grid that cannot be allocated exits 2 with one line that
        names its m and N, not a traceback.  The fixture's refusal (its
        message, not numpy's) stops the allocation: at m=2 in np.meshgrid,
        at m=1 in np.arange."""
        code, out = run_cli(tmp_path, verb, config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {named} cannot be allocated: ")
        assert "Unable to allocate an array with shape" in err
        assert len(err.splitlines()) == 1
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("kind, m", [
        ("circle", 2), ("ellipse", 2), ("product_torus", 1), ("perturbed_torus", 1),
    ])
    def test_shape_on_the_wrong_dimension_is_a_config_error(
        self, tmp_path, capsys, kind, m
    ):
        cfg = changed(
            IDENTITIES_CONFIG, grid={"m": m, "resolution": 16}, geometry={"kind": kind}
        )
        code, out = run_cli(tmp_path, "identities", cfg)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        assert f"requires m={3 - m}" in err
        assert not (out / "summary.txt").exists()


BASE_CONFIGS = {
    "simulate": SIMULATE_CONFIG,
    "identities": IDENTITIES_CONFIG,
    "diff-system": DIFF_CONFIG,
    "symmetry": SYMMETRY_CONFIG,
    "convergence": CONVERGENCE_CONFIG,
}


def schema_keys():
    """(verb, path, kind, default) of each key of cli.SCHEMA, a table shared
    by several verbs or sections under the first only.  A path runs from the
    top level through the sections; its step (by, kind) picks a kind of a
    (by, kinds) section, and the path that ends in `by` is that key itself,
    of kind str."""
    found, seen = [], set()

    def walk(verb, path, table):
        for key, entry in table.items():
            if id(entry) in seen:
                continue
            seen.add(id(entry))
            kind, default = entry
            found.append((verb, path + (key,), kind, default))
            if isinstance(kind, dict):
                walk(verb, path + (key,), kind)
            elif isinstance(kind, tuple) and id(kind) not in seen:
                seen.add(id(kind))
                by, kinds = kind
                found.append((verb, path + (key, by), str, cli.REQUIRED))
                for name, (_, sub) in kinds.items():
                    walk(verb, path + (key, (by, name)), sub)

    by, verbs = cli.SCHEMA
    found.append(("simulate", (by,), str, cli.REQUIRED))
    for verb, (_, table) in verbs.items():
        walk(verb, (), table)
    return found


SCHEMA_KEYS = schema_keys()

# bad for every key: booleans, NaN, infinities, a string, a numeric string,
# and an object where the key is not a section
ANY_KEY_BAD = [True, False, float("nan"), float("inf"), -float("inf"), "x", "1.0"]
# a wrong length or an out-of-range value, for the keys that have them
KEY_BAD = {
    "kind": ["klein_bottle"],
    "type": ["rotation"],
    "path": ["no/such/checkpoint.txt"],
    "m": [0, 3],
    "resolution": [0, 4, -8],
    "derivative_order": [3, 6],
    "seed": [-1],
    "center": [[0.5], [0.5, 0.1, 9]],
    "radii": [[1.0], [1.0, 0.5, 0.2]],
    "cfl_safety": [0.0, -0.1],
    "dt_max": [0.0],
    "fixed_dt": [0.0],
    "sample_times": [[]],
    "dt": [0.0, -1e-5],
    "delta": [0.0, -1.0, 1.0],
    "store_every": [0],
    "max_mode": [0, -2],
    "matrix": [[], [[1, 0]], [[1, 0], [0]]],
    "translation": [[0.0], [0.0, 0.0, 0.0]],
    "offsets": [[], [1, 2]],
    "axes": [[5], [-1]],
    "steps": [0, flow.MAX_STEPS + 1],
    "record_every": [0],
    "tolerance": [-1.0],
    **{name: [-1e-300] for name in cli.THRESHOLD_COEFFS},
    "resolutions": [[], [16, 32], [0, 0, 0], [-16, -32, -64], [16, 33, 64]],
}


def with_value(verb, path, value):
    """The verb's base config with the key at path set to value."""
    cfg = copy.deepcopy(BASE_CONFIGS[verb])
    if path[0] == "perturbation":
        del cfg["geometry_b"]  # the two sources of the second flow exclude
    *sections, key = path
    node = cfg
    for step in sections:
        if isinstance(step, tuple):  # pick a kind: its keys alone
            node.clear()
            node.update([step])
        else:
            node = node.setdefault(step, {})
    node[key] = value
    return cfg


class TestSchema:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("schema")

    @pytest.mark.parametrize(
        "verb, path, kind, default", SCHEMA_KEYS,
        ids=[f"{v}:{'.'.join(s if isinstance(s, str) else s[1] for s in p)}"
             for v, p, _, _ in SCHEMA_KEYS],
    )
    @settings(derandomize=True, deadline=None, max_examples=30, database=None)
    @given(data=st.data())
    def test_every_key_rejects_bad_values(
        self, workdir, verb, path, kind, default, data
    ):
        """A bad value at any key of the schema is a ValueError, which `main`
        turns into exit 2, naming the key or the section where it is one.
        The verb runs in-process: `main` would add an argument parser per
        example and nothing that BAD_CONFIGS does not check."""
        key = path[-1]
        bad = ANY_KEY_BAD + KEY_BAD.get(key, [])
        bad += [None] * (default is not None)
        bad += [{"x": 1}] * (not isinstance(kind, (dict, tuple)))
        value = data.draw(st.sampled_from(bad), label="value")
        config = {"kind": verb, **with_value(verb, path, value)}
        out = tempfile.mkdtemp(dir=workdir)
        with pytest.raises(ValueError) as raised:
            cli.run_experiment(config, out)
        section = ".".join(s for s in path if isinstance(s, str))
        assert repr(key) in str(raised.value) or repr(section) in str(raised.value)
        assert not os.listdir(out)

    @pytest.mark.parametrize(
        "verb, path",
        [(verb, ()) for verb in BASE_CONFIGS]
        + [(v, p) for v, p, k, _ in SCHEMA_KEYS if isinstance(k, (dict, tuple))],
    )
    def test_every_section_rejects_an_unknown_key(self, tmp_path, capsys, verb, path):
        code, _ = run_cli(tmp_path, verb, with_value(verb, path + ("bogus",), 1))
        assert code == EXIT_CONFIG
        assert "unknown key(s) ['bogus']" in capsys.readouterr().err

    def test_every_verb_has_a_base_config(self):
        assert cli.SCHEMA[1].keys() == BASE_CONFIGS.keys()

    @pytest.mark.parametrize("verb", sorted(BASE_CONFIGS))
    def test_each_runner_takes_exactly_its_table_keys(self, verb):
        """No runner takes a key it would ignore: a config key is a runner
        parameter, and every parameter but out_dir a config key."""
        run, table = cli.SCHEMA[1][verb]
        assert set(inspect.signature(run).parameters) == {"out_dir", *table}

    @pytest.mark.parametrize(
        "verb", ["simulate", "identities", "symmetry", "convergence"]
    )
    def test_seed_is_a_key_of_diff_system_alone(self, tmp_path, capsys, verb):
        code, _ = run_cli(tmp_path, verb, {**BASE_CONFIGS[verb], "seed": 0})
        assert code == EXIT_CONFIG
        assert "'seed'" in capsys.readouterr().err

    def test_out_of_range_values_name_schema_keys(self):
        keys = {p[-1] for _, p, _, _ in SCHEMA_KEYS}
        assert KEY_BAD.keys() <= keys

    def test_readme_lists_the_integer_keys(self):
        """The README's integer keys are the schema's: the keys that take an
        integral value and reject the same value plus a half."""

        def integral(kind):
            for value, nudged in ((2, 2.5), (8, 8.5), ([16, 32, 64], [16.5, 32, 64])):
                try:
                    kind(value)
                except (TypeError, ValueError):
                    continue
                try:
                    kind(nudged)
                except (TypeError, ValueError):
                    return True
            return False

        schema = {
            path[-1]
            for _, path, kind, _ in SCHEMA_KEYS
            if not isinstance(kind, (dict, tuple)) and integral(kind)
        }
        readme = README.read_text()
        listed = re.search(r"integer keys \(([^)]*)\)", " ".join(readme.split()))
        assert listed, "README names no integer keys"
        assert set(re.findall(r"`(\w+)`", listed.group(1))) == schema


# backticked README tokens that name no package object, config key or report
# file: the CLI's options
README_ALLOWED = {"--config", "--out", "--list-anchors"}


def readme_tokens() -> set:
    """The inline code spans of README.md, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    return set(re.findall(r"`([^`\n]+)`", text))


def package_object(token: str) -> bool:
    """Whether token names a package object: a dotted path from `mcflab`,
    or a name (or name.attribute) in one of the package's modules."""
    parts = token.split(".")
    if parts[0] == "mcflab":
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _has_path(obj, parts[cut:])
        return False
    return any(_has_path(module, parts) for module in MODULES)


def _has_path(obj, names) -> bool:
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


# the files each verb writes into --out on its base config: a new or renamed
# report file changes the report digests, so it fails here first
REPORT_FILES = {
    "simulate": ["checkpoint_0000.txt", "checkpoint_0001.txt", "manifest.txt",
                 "summary.txt", "trajectory.csv"],
    "identities": ["manifest.txt", "residual_evolve_connection.csv",
                   "residual_evolve_metric.csv",
                   "residual_evolve_position_gradient.csv",
                   "residual_evolve_second_form.csv",
                   "residual_gauss_cross_check.csv",
                   "residual_second_form_commutation.csv", "summary.txt"],
    "diff-system": ["difference_identities.csv", "gronwall_envelope.csv",
                    "inequality_report.txt", "manifest.txt", "summary.txt"],
    "symmetry": ["manifest.txt", "summary.txt", "symmetry_defect.csv"],
    "convergence": ["convergence.csv", "manifest.txt", "summary.txt"],
}


# modes beside the base configs: verb, config, exit code, the files written
MODE_FILES = {
    "simulate-samples-adaptive": (
        "simulate",
        changed(SIMULATE_CONFIG, policy={}, sample_times=[0.0, 0.004, 0.01]),
        EXIT_OK,
        ["checkpoint_0000.txt", "checkpoint_0001.txt", "checkpoint_0002.txt",
         "manifest.txt", "summary.txt", "trajectory.csv"],
    ),
    "symmetry-adaptive": (
        "symmetry", changed(SYMMETRY_CONFIG, ["dt"]), EXIT_OK, REPORT_FILES["symmetry"]
    ),
    "convergence-below-order": (
        "convergence",
        changed(CONVERGENCE_CONFIG, min_order=10.0),
        EXIT_ASSERTION,
        REPORT_FILES["convergence"],
    ),
}


class TestReportFiles:
    def assert_files(self, out, files):
        """out holds exactly files, and its manifest names the report format."""
        assert sorted(os.listdir(out)) == files
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[1] == f"report_format = {cli.REPORT_FORMAT}" == "report_format = 2"

    @pytest.mark.parametrize("verb", sorted(BASE_CONFIGS))
    def test_base_config_writes_exactly_its_files(self, tmp_path, verb):
        code, out = run_cli(tmp_path, verb, BASE_CONFIGS[verb])
        assert code == EXIT_OK
        self.assert_files(out, REPORT_FILES[verb])

    @pytest.mark.parametrize("mode", sorted(MODE_FILES))
    def test_mode_writes_exactly_its_files(self, tmp_path, mode):
        verb, config, exit_code, files = MODE_FILES[mode]
        code, out = run_cli(tmp_path, verb, config)
        assert code == exit_code
        self.assert_files(out, files)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate_blow_up_leaves_only_the_checkpoints_reached(self, tmp_path):
        # a circle of radius 0.1 shrinks to a point near t = 0.005
        config = changed(
            SIMULATE_CONFIG, geometry={"kind": "circle", "radius": 0.1}, T=0.5,
            sample_times=[0.0, 0.002, 0.5],
        )
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_BLOWUP
        assert sorted(os.listdir(out)) == ["checkpoint_0000.txt", "checkpoint_0001.txt"]


class TestVerdictPath:
    """A runner returns its manifest entries, its summary and its failed
    verdict; `run_experiment` alone writes the manifest and the summary,
    prints a failed verdict on stderr and picks the exit code."""

    @pytest.mark.parametrize("verb", sorted(BASE_CONFIGS))
    def test_exit_0_prints_nothing_on_stderr(self, tmp_path, capsys, verb):
        code, _ = run_cli(tmp_path, verb, BASE_CONFIGS[verb])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("verb", sorted(cli.SCHEMA[1]))
    def test_no_runner_writes_the_manifest_or_summary_or_exits(self, verb):
        runner, _ = cli.SCHEMA[1][verb]
        source = inspect.getsource(runner)
        found = re.findall(r'\b_manifest\(|"summary\.txt"|\bprint\(|\bEXIT_\w+', source)
        assert not found, f"{runner.__name__}: {found}"


def report_digests(out) -> dict:
    """{file name: sha256} of every file in out; the manifest is hashed
    without its `generated` line, the one line that differs between runs."""
    digests = {}
    for path in sorted(out.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "manifest.txt":
            lines = [line for line in lines if not line.startswith(b"generated = ")]
        digests[path.name] = hashlib.sha256(b"".join(lines)).hexdigest()
    return digests


class TestReportBytePins:
    """Every byte of each verb's reports, pinned by sha256: the base
    configs, the identical-flow `diff-system` run and an `identities` run
    that fails `evolve_metric` (exit 1).  A change of REPORT_FORMAT records
    these again together with it."""

    CASES = {
        **{verb: (verb, config, EXIT_OK) for verb, config in BASE_CONFIGS.items()},
        "diff-system-identical": ("diff-system", IDENTICAL_DIFF_CONFIG, EXIT_OK),
        "identities-fails": (
            "identities",
            changed(IDENTITIES_CONFIG, thresholds={"evolve_metric": 0.0}),
            EXIT_ASSERTION,
        ),
    }

    PINS = {
        "convergence": {
            "convergence.csv":
                "60f2478c4803e141410d122e1179ac3487efd34761c2bfcc1e48fbe3ba57b120",
            "manifest.txt":
                "4a9af0d59ee6d2ea9cf3c109ad5d4369d30f47e77b828e0b5cd7917c5436c3cb",
            "summary.txt":
                "0242fcf720422c0ec4bedbc82c1c8a1e83bf8dcd4d282cdb66d7f0d641ff3cc9",
        },
        "diff-system": {
            "difference_identities.csv":
                "05382f5e73c3ccc7163c176057b876aa5b000f92fb07c358308269bbaf2f1f81",
            "gronwall_envelope.csv":
                "41bd4adc5aa629b37394f8b5b16943de17b837144b98a6bc7ea39dda0e56a85c",
            "inequality_report.txt":
                "b1b585e1488f71b35f5cb3cb773f15d125704b07943c98a1292818255009eac1",
            "manifest.txt":
                "cfbad4e425ab60e2efe830a075b7fa07b0cd753aed051e6952fa0b037aca3f5c",
            "summary.txt":
                "146b9d5278f2454f62f11a917a1bd658cf7532ef5d5b0170d772fba835e67355",
        },
        "diff-system-identical": {
            "difference_identities.csv":
                "a3ac0a66e1202666a4b91e9a87cd2fb180ea2c1f9dd27d345d5be06b5ea28c11",
            "gronwall_envelope.csv":
                "28951799bb0366afa0ad775fe40debe970a1ee553316e7f5d54386e6bcf0f875",
            "inequality_report.txt":
                "bc6880efcbb312892c031118cc14fcba83c25035551c485ec0ea5aa78b4c2a67",
            "manifest.txt":
                "436dff7ebb667fd5c08875bf782c4ce18754cf9e9d63c49d1abf8679c9639c65",
            "summary.txt":
                "dac8e008f67298b6ee71cf6d13ab90e77c68d41fd05e1372bc3e0fe30afc79be",
        },
        "identities": {
            "manifest.txt":
                "91486b2d5ba27a939b2a43bdb4da603009d5278cccb5052d6a882112b9aa8a00",
            "residual_evolve_connection.csv":
                "d03416fd2d85dcfa1be5a728a5ce2aa8767b7fec3086775dc915c07ddbdc1455",
            "residual_evolve_metric.csv":
                "c46d8da1f097975fd2fd3656ec3ebbbcecbb944335221db0959e9914d91d8df5",
            "residual_evolve_position_gradient.csv":
                "8d1d7dbca422a0db1fec8b8c76c66b6ecb41a725c1648e80d4616e4a2804187d",
            "residual_evolve_second_form.csv":
                "c8bf862514f7c5b9f4f27b430f01d42118cfc57fdad38a09e9377e50c84366c6",
            "residual_gauss_cross_check.csv":
                "7d665b787877fcdd8f2075cc6416f3754ae12b5b6e39a5099e42567da6929ea0",
            "residual_second_form_commutation.csv":
                "408f2e2b5df11d4dd43c392a97005f6d44a139cf2d9cd2f1c30a3a20f28430ae",
            "summary.txt":
                "3b77a346f55b4f482d8523983ba100ea52ccd5fc6f8e0a5cfb53e2c964e46f4e",
        },
        "identities-fails": {
            "manifest.txt":
                "d6464050ebfd8df6bbb49b856a9a6bf11da2282efc611845b4beecbc92c7322a",
            "residual_evolve_connection.csv":
                "d03416fd2d85dcfa1be5a728a5ce2aa8767b7fec3086775dc915c07ddbdc1455",
            "residual_evolve_metric.csv":
                "6361c1cea292901cedf60ad4e80d94525d77be52dce1f9d23208d930f79bea50",
            "residual_evolve_position_gradient.csv":
                "8d1d7dbca422a0db1fec8b8c76c66b6ecb41a725c1648e80d4616e4a2804187d",
            "residual_evolve_second_form.csv":
                "c8bf862514f7c5b9f4f27b430f01d42118cfc57fdad38a09e9377e50c84366c6",
            "residual_gauss_cross_check.csv":
                "7d665b787877fcdd8f2075cc6416f3754ae12b5b6e39a5099e42567da6929ea0",
            "residual_second_form_commutation.csv":
                "408f2e2b5df11d4dd43c392a97005f6d44a139cf2d9cd2f1c30a3a20f28430ae",
            "summary.txt":
                "d53ad87b9b74ba92079783b3e52161c15c14e9fdf3d24e2b1e27acf191eff2ec",
        },
        "simulate": {
            "checkpoint_0000.txt":
                "082ebf4d4b0de52d44bb14dde5ef0b17c7f5fba38856b142602ed4f9b824e9c9",
            "checkpoint_0001.txt":
                "af8354ee45e1394c6edada247c94629d2c9cb24b7414f914867baa66a0339acb",
            "manifest.txt":
                "aebfcf3a6ffaa0e5640a0ec41b8dac18d8def541fe4ea8b883879018f82a58be",
            "summary.txt":
                "ba39fa4bedbc71121cb712e6a4e92357d840b69eb344add8b90922e04a303b27",
            "trajectory.csv":
                "08ccd7bf23fcc769616f58ab5c8b8cce99a6bd916566bcd6580ad6321e81561e",
        },
        "symmetry": {
            "manifest.txt":
                "28f32d7fd8cc544773d2193dea73ba74fb80408bb5443961629a0f07434093bc",
            "summary.txt":
                "68637f82ca6ce0471d10e4e6f4e077f7fdd2bff9d81280b25dd3f223d969e91c",
            "symmetry_defect.csv":
                "0929c01a928656c91d9cbf5fce37141dede1c5c57f7cbff676e307fa7a64f0c2",
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_bytes_are_pinned(self, tmp_path, case):
        verb, config, exit_code = self.CASES[case]
        assert cli.REPORT_FORMAT == 2
        assert run_in_process(tmp_path, verb, config) == exit_code
        assert report_digests(tmp_path) == self.PINS[case]


class TestReadme:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The names of the files that the verbs write on their base
        configs."""
        names = set()
        for verb, config in BASE_CONFIGS.items():
            out = tmp_path_factory.mktemp(verb)
            cli.run_experiment({"kind": verb, **copy.deepcopy(config)}, str(out))
            names.update(p.name for p in out.iterdir())
        return names

    def test_backticked_names_exist(self, written):
        """Each inline code span of the README names a package object, a
        config key, a file some verb writes, or one of README_ALLOWED; so a
        name renamed or removed in the package fails here."""
        keys = {step[-1] if isinstance(step, tuple) else step
                for _, path, _, _ in SCHEMA_KEYS for step in path}
        keys |= cli.SCHEMA[1].keys()
        unknown = sorted(
            t for t in readme_tokens()
            if t not in README_ALLOWED | keys | written and not package_object(t)
        )
        assert not unknown, f"README names that resolve to nothing: {unknown}"

    def test_the_scan_resolves_what_it_should(self, written):
        # guards the guard: the categories are not empty, each allowed token
        # is still used, and a renamed name does not resolve
        tokens = readme_tokens()
        assert README_ALLOWED <= tokens
        assert {"mcflab.identities", "identity_suite", "SCHEMA"} <= tokens
        assert "manifest.txt" in written & tokens
        assert package_object("mcflab.cli.SCHEMA")
        assert package_object("DifferencePack.grad_Y")
        assert not package_object("identities_suite")
        assert not package_object("mcflab.nowhere")


class TestTopLevel:
    def test_list_anchors(self, capsys):
        assert main(["--list-anchors"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(ANCHORS)
        for key in ANCHORS:
            assert any(line.startswith(key) for line in lines)

    def test_runs_as_a_module_from_a_checkout(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "mcflab", "--list-anchors"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == cli._anchor_table() + "\n"

    def test_no_verb_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "simulate" in capsys.readouterr().out


def run_in_process(out, verb, config):
    """The exit code of `run_experiment` on a copy of the verb's config."""
    return cli.run_experiment({"kind": verb, **copy.deepcopy(config)}, str(out))


class FakeLibc:
    """A C library whose mallopt records its calls and returns `accepts`;
    like a ctypes function, mallopt takes `argtypes` and `restype`."""

    def __init__(self, accepts=1):
        self.calls, self.accepts = [], accepts

        def mallopt(param, value):
            self.calls.append((param, value))
            return self.accepts

        self.mallopt = mallopt


class TestHeapPolicy:
    """`run_experiment` fixes glibc's mmap and trim thresholds once per
    process, after the config is read; ctypes.CDLL is faked here."""

    @pytest.fixture(autouse=True)
    def fresh_process(self):
        cli._fix_heap_policy.cache_clear()
        yield
        cli._fix_heap_policy.cache_clear()

    @pytest.fixture
    def libc(self, monkeypatch):
        lib, opened = FakeLibc(), []

        def cdll(name):
            opened.append(name)
            return lib

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        lib.opened = opened
        return lib

    def run(self, tmp_path, verb, config):
        return run_in_process(tmp_path / verb, verb, config)

    def test_mmap_threshold_then_trim_threshold(self, tmp_path, libc):
        assert self.run(tmp_path, "simulate", SIMULATE_CONFIG) == EXIT_OK
        assert libc.opened == [None]
        assert libc.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert libc.mallopt.restype is ctypes.c_int

    def test_once_per_process_however_many_verbs_run(self, tmp_path, libc):
        assert self.run(tmp_path, "simulate", SIMULATE_CONFIG) == EXIT_OK
        assert self.run(tmp_path, "identities", IDENTITIES_CONFIG) == EXIT_OK
        assert self.run(tmp_path, "symmetry", SYMMETRY_CONFIG) == EXIT_OK
        assert libc.opened == [None]
        assert libc.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]

    def test_no_trim_call_when_the_mmap_call_is_refused(self, tmp_path, libc):
        libc.accepts = 0
        assert self.run(tmp_path, "simulate", SIMULATE_CONFIG) == EXIT_OK
        assert libc.calls == [(-3, 32 * 2**20)]

    def test_a_bad_config_sets_nothing(self, tmp_path, libc):
        with pytest.raises(cli.ConfigError, match="'T'"):
            self.run(tmp_path, "simulate", changed(SIMULATE_CONFIG, T="1"))
        assert libc.calls == []

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_library_no_call_and_no_error(self, tmp_path, monkeypatch, error):
        def cdll(name):
            raise error("no C library")

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert self.run(tmp_path, "simulate", SIMULATE_CONFIG) == EXIT_OK

    def test_no_mallopt_no_call_and_no_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert self.run(tmp_path, "simulate", SIMULATE_CONFIG) == EXIT_OK


class TestUfuncBufferPolicy:
    """`run_experiment` runs the verb with numpy's ufunc buffer at
    cli.UFUNC_BUFSIZE elements, and the caller's buffer size is back however
    the verb ends."""

    CALLER = 4096

    @pytest.fixture(autouse=True)
    def caller_buffer(self):
        old = np.setbufsize(self.CALLER)
        yield
        np.setbufsize(old)

    def spy(self, monkeypatch, name):
        """The buffer sizes that cli.<name>, the verb's layer call, sees."""
        seen, layer = [], getattr(cli, name)

        def call(*args, **kwargs):
            seen.append(np.getbufsize())
            return layer(*args, **kwargs)

        monkeypatch.setattr(cli, name, call)
        return seen

    def run(self, tmp_path, verb, config):
        return run_in_process(tmp_path / verb, verb, config)

    @pytest.mark.parametrize("verb, layer", [
        ("simulate", "adaptive_stream"),
        ("identities", "identity_suite"),
        ("diff-system", "paired_pass"),
        ("symmetry", "fixed_dt_stream"),
        ("convergence", "identity_suite"),
    ])
    def test_exit_0(self, tmp_path, monkeypatch, verb, layer):
        seen = self.spy(monkeypatch, layer)
        assert self.run(tmp_path, verb, BASE_CONFIGS[verb]) == EXIT_OK
        assert seen and set(seen) == {cli.UFUNC_BUFSIZE} != {self.CALLER}
        assert np.getbufsize() == self.CALLER

    def test_exit_1(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, "identity_suite")
        config = changed(CONVERGENCE_CONFIG, min_order=10.0)
        assert self.run(tmp_path, "convergence", config) == EXIT_ASSERTION
        assert seen == [cli.UFUNC_BUFSIZE] * 3
        assert np.getbufsize() == self.CALLER

    def test_blow_up(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, "adaptive_stream")
        # a circle of radius 0.1 shrinks to a point near t = 0.005 (exit 3)
        config = changed(
            SIMULATE_CONFIG, geometry={"kind": "circle", "radius": 0.1}, T=0.5,
            sample_times=[0.0, 0.5],
        )
        with pytest.raises(flow.BlowUpError):
            self.run(tmp_path, "simulate", config)
        assert seen == [cli.UFUNC_BUFSIZE]
        assert np.getbufsize() == self.CALLER

    def test_config_error_before_the_verb(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, "adaptive_stream")
        with pytest.raises(cli.ConfigError, match="'T'"):
            self.run(tmp_path, "simulate", changed(SIMULATE_CONFIG, T="1"))
        assert seen == []
        assert np.getbufsize() == self.CALLER

    def test_config_error_inside_the_verb(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch, "identity_suite")
        config = changed(CONVERGENCE_CONFIG, resolutions=[16, 32, 48])
        with pytest.raises(cli.ConfigError, match="'resolutions'"):
            self.run(tmp_path, "convergence", config)
        assert seen == []
        assert np.getbufsize() == self.CALLER


PERTURBED_TORUS = {"kind": "perturbed_torus", "r1": 1.0, "r2": 0.5, "amplitude": 0.1}

# a small config of every verb: m = 1 and 2, orders 2 and 4, and one pair
BUFFER_CONFIGS = {
    "simulate-m2-order4": ("simulate", {
        "grid": {"m": 2, "resolution": 16, "derivative_order": 4},
        "geometry": PERTURBED_TORUS,
        "T": 2e-3,
        "sample_times": [0.0, 1e-3, 2e-3],
    }),
    "identities-m2": ("identities", {
        "grid": {"m": 2, "resolution": 32}, "geometry": PERTURBED_TORUS, "dt": 1e-4,
    }),
    "identities-m1-order4": ("identities", changed(
        IDENTITIES_CONFIG, grid={"m": 1, "resolution": 64, "derivative_order": 4},
    )),
    "diff-system-m2-pair": ("diff-system", {
        "grid": {"m": 2, "resolution": 32},
        "geometry": PERTURBED_TORUS,
        "perturbation": {"amplitude": 1e-3},
        "seed": 1,
        "T": 2e-3,
        "delta": 5e-4,
        "dt": 1e-4,
        "store_every": 2,
    }),
    "symmetry-m1": ("symmetry", SYMMETRY_CONFIG),
    "convergence-m2": ("convergence", {
        "grid": {"m": 2}, "geometry": PERTURBED_TORUS, "resolutions": [16, 32, 64],
        "dt": 1e-5, "min_order": 0.0,
    }),
}


class TestReportBytesAcrossBuffers:
    """numpy's ufunc buffer changes no report byte: each verb's reports are
    the same at numpy's default buffer and at 16 elements, where nearly
    every operand runs unbuffered.  The manifest's timestamp differs."""

    def reports(self, tmp_path, monkeypatch, bufsize, verb, config):
        monkeypatch.setattr(cli, "UFUNC_BUFSIZE", bufsize)
        seen, write = [], cli._write

        def spy(*args):  # each report file is written inside the verb
            seen.append(np.getbufsize())
            write(*args)

        monkeypatch.setattr(cli, "_write", spy)
        out = tmp_path / str(bufsize)
        code = run_in_process(out, verb, config)
        assert set(seen) == {bufsize}
        return code, {
            p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"
        }

    @pytest.mark.parametrize("case", sorted(BUFFER_CONFIGS))
    def test_same_bytes_at_8192_and_16(self, tmp_path, monkeypatch, case):
        verb, config = BUFFER_CONFIGS[case]
        code, default = self.reports(tmp_path, monkeypatch, 8192, verb, config)
        assert code == EXIT_OK
        assert self.reports(tmp_path, monkeypatch, 16, verb, config) == (code, default)
