"""Spans around calls into mcflab's public functions, recorded from outside.

`install()` wraps each traced function and rebinds the wrapper in every
loaded `mcflab` module namespace that holds the original by name (`flow`,
`identities`, `differences` and `cli` each import `compute_geometry`
themselves), so calls made inside the package are recorded too.  Spans
stay in memory as (name, parent, start, end, extra) and are written out
once the traced call has returned; `layer_metrics()` turns them into the
per-layer metrics, with self time = duration minus the direct children.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

ROOT = "cli.run_experiment"


def _geometry_bytes(args, kwargs, result):
    return sum(
        getattr(result, f).nbytes
        for f in ("first_derivs", "metric", "inverse_metric", "det_metric",
                  "christoffels", "second_form", "mean_curv")
    )


def _position(target):
    return 0 if isinstance(target, (str, bytes)) else target.tell()


def _end_position(target):
    return os.path.getsize(target) if isinstance(target, (str, bytes)) else target.tell()


# module -> function -> extra(args, kwargs, result) recorded after the span
# ends, or the index of the path/stream argument whose bytes are counted
TRACED = {
    "grid": {
        "partial": None,
        "second_partial": None,
        "write_immersion": 1,  # bytes moved through the path/stream argument
        "read_immersion": 0,
    },
    "geometry": {
        "compute_geometry": _geometry_bytes,
        "covariant_derivative": None,
        "contract_with_metric": None,
        "tensor_norm_sq": None,
        "laplacian": None,
        "curvature_intrinsic": None,
        "curvature_gauss": None,
    },
    "shapes": {
        "circle": None,
        "ellipse": None,
        "product_torus": None,
        "perturbed_torus": None,
        "low_mode_perturbation": None,
    },
    "flow": {
        "step_rk4": lambda args, kwargs, result: args[1],  # dt
        "run_flow": None,
        "run_fixed_dt": lambda args, kwargs, result: len(result.states),
    },
    "identities": {
        "check_dX": None,
        "check_dg": None,
        "check_dGamma": None,
        "check_dh": None,
        "check_simons": None,
        "gauss_cross_check": None,
    },
    "differences": {
        "build_difference": None,
        "verify_inequalities": None,
        "heat_operator_Y": None,
        "time_derivative_Z_sq": None,
        "check_dd": None,
        "check_dw": None,
        "forward_gronwall": None,
        "DifferencePack.norm_sq_Y": None,
        "DifferencePack.norm_sq_Z": None,
        "DifferencePack.norm_sq_grad_Y": None,
    },
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, parent span, start, end, extra]
        self.stack = [-1]

    def _wrap(self, fn, name, extra):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        stream = extra if isinstance(extra, int) else None

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name_id, stack[-1], 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            before = 0 if stream is None else _position(args[stream])
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if stream is not None:
                span[4] = _end_position(args[stream]) - before
            elif extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function and rebind it wherever mcflab holds it."""
        import mcflab.cli  # noqa: F401  (loads every mcflab module)

        pkg = [m for k, m in sys.modules.items() if k == "mcflab" or k.startswith("mcflab.")]
        for mod_name, funcs in TRACED.items():
            mod = sys.modules[f"mcflab.{mod_name}"]
            for qual, extra in funcs.items():
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                orig = getattr(owner, attr)
                wrapper = self._wrap(orig, f"{mod_name}.{qual}", extra)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for m in pkg:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapper)

    def run(self, fn, *args):
        """Call fn under the root span and return its result."""
        return self._wrap(fn, ROOT, None)(*args)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def self_times(spans) -> list:
    """Span duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def _ancestor_names(spans, names, sid):
    out = set()
    p = spans[sid][1]
    while p >= 0:
        out.add(names[spans[p][0]])
        p = spans[p][1]
    return out


FLOW_RUNS = {"flow.run_flow", "flow.run_fixed_dt"}
CHECKS = {f"identities.{f}" for f in TRACED["identities"]}
NORMS = {f"differences.DifferencePack.{n}" for n in ("norm_sq_Y", "norm_sq_Z", "norm_sq_grad_Y")}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics from one traced call; values only, units in METRICS."""
    names, spans = trace["names"], trace["spans"]
    own = self_times(spans)
    by_name = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(names[s[0]], []).append(sid)

    def ids(name):
        return by_name.get(name, [])

    def calls(name):
        return len(ids(name))

    def self_s(name):
        return sum(own[i] for i in ids(name))

    def total_s(name):
        return sum(spans[i][3] - spans[i][2] for i in ids(name))

    def extras(name):
        return [spans[i][4] for i in ids(name)]

    out = {}
    root = ids(ROOT)[0]
    out["trace.wall_s"] = spans[root][3] - spans[root][2]
    out["cli.self_s"] = own[root]
    for layer in ("grid", "geometry", "shapes", "flow", "identities", "differences"):
        out[f"{layer}.self_s"] = sum(
            own[i] for i, s in enumerate(spans) if names[s[0]].startswith(layer + ".")
        )
    for f in ("compute_geometry", "covariant_derivative", "contract_with_metric",
              "tensor_norm_sq"):
        out[f"geometry.{f}.calls"] = calls(f"geometry.{f}")
        out[f"geometry.{f}.self_s"] = self_s(f"geometry.{f}")
    for f in ("laplacian", "curvature_intrinsic", "curvature_gauss"):
        out[f"geometry.{f}.self_s"] = self_s(f"geometry.{f}")
    out["geometry.compute_geometry.out_bytes"] = sum(extras("geometry.compute_geometry"))
    for f in ("partial", "second_partial"):
        out[f"grid.{f}.calls"] = calls(f"grid.{f}")
        out[f"grid.{f}.self_s"] = self_s(f"grid.{f}")
    for f in ("write_immersion", "read_immersion"):
        out[f"grid.{f}.calls"] = calls(f"grid.{f}")
        out[f"grid.{f}.self_s"] = self_s(f"grid.{f}")
        out[f"grid.{f}.bytes"] = sum(extras(f"grid.{f}"))

    steps = ids("flow.step_rk4")
    dts = extras("flow.step_rk4")
    out["flow.steps"] = len(steps)
    out["flow.step_rk4.self_s"] = self_s("flow.step_rk4")
    out["flow.s_per_step"] = total_s("flow.step_rk4") / len(steps) if steps else 0.0
    out["flow.dt_min"] = min(dts) if dts else 0.0
    out["flow.dt_max"] = max(dts) if dts else 0.0
    out["flow.run_flow.s"] = total_s("flow.run_flow")
    out["flow.run_fixed_dt.s"] = total_s("flow.run_fixed_dt")
    geom = ids("geometry.compute_geometry")
    geom_anc = [_ancestor_names(spans, names, i) for i in geom]
    in_flow = sum(1 for a in geom_anc if a & FLOW_RUNS)
    flow_steps = sum(1 for i in steps if _ancestor_names(spans, names, i) & FLOW_RUNS)
    out["flow.geom_evals_per_step"] = in_flow / flow_steps if flow_steps else 0.0

    for f in TRACED["identities"]:
        out[f"identities.{f}.s"] = total_s(f"identities.{f}")
    # geometry evaluations of the identity suites (outside the fixed-step runs
    # that produce their states) per stored state of those runs
    if any(ids(c) for c in CHECKS):
        suite = sum(
            1 for a in geom_anc if not a & FLOW_RUNS and not any(
                n.startswith("differences.") for n in a)
        )
        states = sum(extras("flow.run_fixed_dt"))
        out["identities.geom_evals_per_state"] = suite / states if states else 0.0
    else:
        out["identities.geom_evals_per_state"] = 0.0

    out["differences.build_difference.calls"] = calls("differences.build_difference")
    out["differences.build_difference.s"] = total_s("differences.build_difference")
    out["differences.verify_inequalities.self_s"] = self_s("differences.verify_inequalities")
    for f in ("heat_operator_Y", "time_derivative_Z_sq", "check_dd", "check_dw",
              "forward_gronwall"):
        out[f"differences.{f}.s"] = total_s(f"differences.{f}")
    centers = calls("differences.heat_operator_Y")
    norms = sum(calls(n) for n in NORMS)
    out["differences.norm_evals_per_center"] = (
        norms / len(NORMS) / centers if centers else 0.0
    )
    return out
