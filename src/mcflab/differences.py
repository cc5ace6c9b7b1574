"""Difference tensors between two flows and the coupled inequality checks.

Given two flows on the same parameter grid, the packs collect the
differences of metrics, connections, position gradients, and second forms,
together with the direct sums

    Y = (+)_a U^a (+) (+)_a V^a,     (Y_SUMMANDS)
    Z = (+)_a w^a (+) d (+) N (+) W.  (Z_SUMMANDS)

All norms, covariant derivatives, and Laplacians use the first flow's
metric and connection.  `PairedWindow` is the `identities.SampleWindow` of a
pair; `check_dd` and `check_dw` are `identities.evolution_check` runs whose
right-hand sides are differences of the single-flow ones.  Backwards-in-time
integration is never attempted; the uniqueness mechanism is exercised only
through these forward-in-time inequality measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

import numpy as np

from .flow import FlowTrajectory, ProtocolError, require_pair
from .geometry import (
    GeometryPack,
    compute_geometry,
    covariant_derivative,
    divergence,
    tensor_norm_sq,
    tensor_norm_sup,
)
from .identities import (
    ResidualReport,
    SampleWindow,
    evolution_check,
    grad_H,
    metric_rhs,
)

# Squared-norm floor below which a node is excluded from the C fit.
EPS_CORE = 1e-24

LIMITATION_STATEMENT = (
    "note: backwards-in-time mean curvature flow integration is ill-posed "
    "and is not attempted; uniqueness is exercised only through the "
    "forward-in-time difference-tensor inequality measurements."
)

# The summands of Y and Z: a DifferencePack field and its index spec.
# Every sum over them adds its terms in this order.
Y_SUMMANDS = (("U", "ll"), ("V", "lll"))
Z_SUMMANDS = (("w", "l"), ("d", "ll"), ("N", "ull"), ("W", "lull"))


def _sum_over(summands, term) -> np.ndarray:
    """Sum of term(field name, index spec) over the summands in list order."""
    return reduce(np.add, (term(f, s) for f, s in summands))


@dataclass(frozen=True)
class DifferencePack:
    """All difference tensors of two states at one shared time."""

    geomA: GeometryPack
    geomB: GeometryPack
    d: np.ndarray  # grid + (m, m)           g - gt
    N: np.ndarray  # grid + (m, m, m)        Gamma - Gammat, [k, i, j]
    W: np.ndarray  # grid + (m, m, m, m)     grad N (g-connection), [l, k, i, j]
    w: np.ndarray  # grid + (A, m)           grad X - gradt Xt
    U: np.ndarray  # grid + (A, m, m)        h - ht
    V: np.ndarray  # grid + (A, m, m, m)     grad h - gradt ht

    def _norm_sq(self, f: str, spec: str) -> np.ndarray:
        return tensor_norm_sq(getattr(self, f), self.geomA, spec)

    def norm_sq_Y(self) -> np.ndarray:
        return _sum_over(Y_SUMMANDS, self._norm_sq)

    def norm_sq_Z(self) -> np.ndarray:
        return _sum_over(Z_SUMMANDS, self._norm_sq)

    def grad_Y(self) -> dict:
        """grad U and grad V by field name, in the first flow's connection."""
        g = self.geomA
        return {f: covariant_derivative(getattr(self, f), g, s) for f, s in Y_SUMMANDS}

    def norm_sq_grad_Y(self, grad_Y: dict) -> np.ndarray:
        """|grad Y|^2 from the pack's grad_Y()."""
        return _sum_over(
            Y_SUMMANDS, lambda f, s: tensor_norm_sq(grad_Y[f], self.geomA, "l" + s)
        )


def build_difference(stateA, stateB) -> DifferencePack:
    """Difference tensors of two states that form a pair (`require_pair`)."""
    require_pair(stateA, stateB)
    geomA = compute_geometry(stateA)
    geomB = compute_geometry(stateB)
    d = geomA.metric - geomB.metric
    N = geomA.christoffels - geomB.christoffels
    W = covariant_derivative(N, geomA, "ull")
    w = geomA.first_derivs - geomB.first_derivs
    U = geomA.second_form - geomB.second_form
    V = covariant_derivative(geomA.second_form, geomA, "ll") - covariant_derivative(
        geomB.second_form, geomB, "ll"
    )
    return DifferencePack(geomA, geomB, d, N, W, w, U, V)


class PairedWindow(SampleWindow):
    """Two trajectories on one uniform sample grid; item k is the
    DifferencePack of state k, measured in the first flow's geometry."""

    def __init__(self, trajA: FlowTrajectory, trajB: FlowTrajectory):
        if len(trajA.states) != len(trajB.states):
            raise ProtocolError("paired trajectories have different lengths")
        super().__init__(trajA)
        for a, b in zip(trajA.states, trajB.states):
            require_pair(a, b)
        self.trajB = trajB

    def _build(self, k: int) -> DifferencePack:
        return build_difference(self.traj.states[k], self.trajB.states[k])

    def geometry(self, k: int) -> GeometryPack:
        return self.item(k).geomA

    @property
    def times(self):
        return self.traj.times


def check_dd(window: PairedWindow) -> ResidualReport:
    """Exactly displayed evolution of the metric difference d = g - gt."""
    return evolution_check(
        window,
        "difference_metric",
        lambda p: p.d,
        lambda p: metric_rhs(p.geomA) - metric_rhs(p.geomB),
        "ll",
    )


def check_dw(window: PairedWindow) -> ResidualReport:
    """Evolution of the position-gradient difference w^a."""
    return evolution_check(
        window,
        "difference_position_gradient",
        lambda p: p.w,
        lambda p: grad_H(p.geomA) - grad_H(p.geomB),
        "l",
    )


def heat_operator_Y(window: PairedWindow, center: int, grad_Y: dict) -> np.ndarray:
    """Pointwise |(d/dt - Lap_g) Y|^2 at one sample time, with grad_Y the
    grad_Y() of the centre's pack; Lap_g is the divergence of the gradient."""
    g = window.geometry(center)

    def term(f, s):
        dt_f = window.time_derivative(center, attrgetter(f))
        return tensor_norm_sq(dt_f - divergence(grad_Y[f], g, "l" + s), g, s)

    return _sum_over(Y_SUMMANDS, term)


def time_derivative_Z_sq(window: PairedWindow, center: int) -> np.ndarray:
    """Pointwise |d/dt Z|^2 at one sample time."""
    g = window.geometry(center)

    def term(f, s):
        return tensor_norm_sq(window.time_derivative(center, attrgetter(f)), g, s)

    return _sum_over(Z_SUMMANDS, term)


@dataclass
class InequalityReport:
    """Fitted constants and energy table for the coupled inequalities."""

    delta: float
    T: float
    K: float  # sup |h|_g of the first flow over the window
    K_tilde: float  # sup |ht|_gt of the second flow
    C1: float
    C2: float
    resolution: int
    dt: float
    flagged_nodes: int
    rows: list  # per-time dicts: t, E_Y, E_gradY, E_Z, sup LHS1, sup LHS2

    def serialize(self) -> str:
        lines = [
            "inequality report",
            f"N = {self.resolution}",
            f"dt = {self.dt!r}",
            f"delta = {self.delta!r}",
            f"T = {self.T!r}",
            f"K = {self.K!r}",
            f"K_tilde = {self.K_tilde!r}",
            f"C1 = {self.C1!r}",
            f"C2 = {self.C2!r}",
            f"flagged_nodes = {self.flagged_nodes}",
            LIMITATION_STATEMENT,
            "",
            "t,E_Y,E_gradY,E_Z,sup_lhs1,sup_lhs2",
        ]
        for r in self.rows:
            lines.append(
                f"{r['t']!r},{r['E_Y']!r},{r['E_gradY']!r},{r['E_Z']!r},"
                f"{r['sup_lhs1']!r},{r['sup_lhs2']!r}"
            )
        return "\n".join(lines) + "\n"


def verify_inequalities(window: PairedWindow, delta: float) -> InequalityReport:
    """Fit the smallest constants compatible with the coupled inequalities.

    C1 bounds |(d/dt - Lap) Y|^2 and C2 bounds |d/dt Z|^2, both against
    |Y|^2 + |grad Y|^2 + |Z|^2, over all nodes and sample times in
    [delta, T] where the core exceeds EPS_CORE.
    """
    times = window.times
    T = float(times[-1])
    if not 0.0 < delta < T:
        raise ValueError(f"delta must lie in (0, {T}), got {delta}")
    C1 = 0.0
    C2 = 0.0
    flagged = 0
    rows = []
    K = 0.0
    Kt = 0.0
    for k in range(len(window)):
        p = window.item(k)
        K = max(K, tensor_norm_sup(p.geomA.second_form, p.geomA, "ll"))
        Kt = max(Kt, tensor_norm_sup(p.geomB.second_form, p.geomB, "ll"))
    for c in window.centers:
        t = float(times[c])
        if t < delta - 1e-12:
            continue
        p = window.item(c)
        grad_Y = p.grad_Y()
        lhs1 = heat_operator_Y(window, c, grad_Y)
        lhs2 = time_derivative_Z_sq(window, c)
        nY, ngY, nZ = p.norm_sq_Y(), p.norm_sq_grad_Y(grad_Y), p.norm_sq_Z()
        del grad_Y
        core = nY + ngY + nZ
        ok = core > EPS_CORE
        if np.any(ok):
            C1 = max(C1, float((lhs1[ok] / core[ok]).max()))
            C2 = max(C2, float((lhs2[ok] / core[ok]).max()))
        flagged += int(np.sum(~ok & ((lhs1 > EPS_CORE) | (lhs2 > EPS_CORE))))
        weight = p.geomA.cell_weight
        rows.append(
            {
                "t": t,
                "E_Y": float(np.sum(nY * weight)),
                "E_gradY": float(np.sum(ngY * weight)),
                "E_Z": float(np.sum(nZ * weight)),
                "sup_lhs1": float(lhs1.max()),
                "sup_lhs2": float(lhs2.max()),
            }
        )
    geom0 = window.geometry(0)
    return InequalityReport(
        delta=delta,
        T=T,
        K=K,
        K_tilde=Kt,
        C1=C1,
        C2=C2,
        resolution=geom0.grid.resolution,
        dt=window.dt,
        flagged_nodes=flagged,
        rows=rows,
    )


def forward_gronwall(report: InequalityReport):
    """Exponential-envelope table for F = E_Y + E_Z on [report.delta, T].

    Checks dF/dt <= C* G with G = E_Y + E_gradY + E_Z, C* fitted as the
    smallest constant over the energy rows of `report` (its sample times
    past delta), and emits the induced envelope F(t0) * exp(lam (t - t0))
    from the first row's time t0, with lam = C* sup(G/F).
    """
    rows = report.rows
    if len(rows) < 2:
        raise ProtocolError("need at least two sample times past delta")
    t = np.array([r["t"] for r in rows])
    F = np.array([r["E_Y"] + r["E_Z"] for r in rows])
    G = np.array([r["E_Y"] + r["E_gradY"] + r["E_Z"] for r in rows])
    dFdt = np.gradient(F, t)
    if np.all(F <= 0):
        c_star = 0.0
        lam = 0.0
    else:
        pos = G > 0
        c_star = float(np.max(dFdt[pos] / G[pos])) if np.any(pos) else 0.0
        c_star = max(c_star, 0.0)
        posF = F > 0
        lam = c_star * float(np.max(G[posF] / F[posF])) if np.any(posF) else 0.0
    envelope = F[0] * np.exp(lam * (t - t[0]))
    out = []
    for k in range(len(rows)):
        out.append(
            {
                "t": float(t[k]),
                "F": float(F[k]),
                "G": float(G[k]),
                "dFdt": float(dFdt[k]),
                "envelope": float(envelope[k]),
                "c_star": c_star,
            }
        )
    return out
