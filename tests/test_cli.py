"""End-to-end tests of the experiment runner: exit codes, report files,
determinism of report bodies, and strict config validation."""

import json
import os

import numpy as np
import pytest

from mcflab import shapes
from mcflab.cli import (
    EXIT_ASSERTION,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)
from mcflab.differences import LIMITATION_STATEMENT
from mcflab.grid import GridSpec, write_immersion
from mcflab.identities import ANCHORS


def run_cli(tmp_path, verb, config, subdir="out"):
    cfg_path = tmp_path / f"{verb}_config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / subdir
    code = main([verb, "--config", str(cfg_path), "--out", str(out_dir)])
    return code, out_dir


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

    def test_degenerate_initial_immersion_is_a_config_error(self, tmp_path, capsys):
        config = {
            "grid": {"m": 1, "resolution": 32},
            "geometry": {"kind": "circle", "radius": 0.0},
            "T": 0.5,
        }
        code, _ = run_cli(tmp_path, "simulate", config)
        assert code == EXIT_CONFIG
        assert "degenerate immersion" in capsys.readouterr().err


class TestSymmetryVerb:
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
                "paired flows differ in start time: 0.0 vs 0.5",
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


class TestTopLevel:
    def test_list_anchors(self, capsys):
        assert main(["--list-anchors"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(ANCHORS)
        for key in ANCHORS:
            assert any(line.startswith(key) for line in lines)

    def test_no_verb_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "simulate" in capsys.readouterr().out
