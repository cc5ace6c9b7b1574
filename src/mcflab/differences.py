"""Difference tensors between two flows and the coupled inequality checks.

Given two flows on the same parameter grid, the packs collect the
differences of metrics, connections, position gradients, and second forms,
together with the direct sums

    Y = (+)_a U^a (+) (+)_a V^a,
    Z = (+)_a w^a (+) d (+) N (+) W.

All norms, covariant derivatives, and Laplacians use the first flow's
metric and connection.  Backwards-in-time integration is never attempted;
the uniqueness mechanism is exercised only through these forward-in-time
inequality measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FlowTrajectory
from .geometry import (
    GeometryPack,
    compute_geometry,
    covariant_derivative,
    laplacian,
    tensor_norm_sq,
)
from .identities import ProtocolError, ResidualReport, time_derivative_5pt

# Squared-norm floor below which a node is excluded from the C fit.
EPS_CORE = 1e-24

LIMITATION_STATEMENT = (
    "note: backwards-in-time mean curvature flow integration is ill-posed "
    "and is not attempted; uniqueness is exercised only through the "
    "forward-in-time difference-tensor inequality measurements."
)


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

    @property
    def time(self) -> float:
        return self.geomA.immersion.time

    def norm_sq_Y(self) -> np.ndarray:
        g = self.geomA
        return tensor_norm_sq(self.U, g, "ll") + tensor_norm_sq(self.V, g, "lll")

    def norm_sq_Z(self) -> np.ndarray:
        g = self.geomA
        return (
            tensor_norm_sq(self.w, g, "l")
            + tensor_norm_sq(self.d, g, "ll")
            + tensor_norm_sq(self.N, g, "ull")
            + tensor_norm_sq(self.W, g, "lull")
        )

    def norm_sq_grad_Y(self) -> np.ndarray:
        g = self.geomA
        gradU = covariant_derivative(self.U, g, "ll")
        gradV = covariant_derivative(self.V, g, "lll")
        return tensor_norm_sq(gradU, g, "lll") + tensor_norm_sq(gradV, g, "llll")


def build_difference(stateA, stateB) -> DifferencePack:
    """Difference tensors of two immersions on the same grid and time."""
    if stateA.grid != stateB.grid:
        raise ProtocolError("states live on different grids")
    if abs(stateA.time - stateB.time) > 1e-12:
        raise ProtocolError(
            f"time stamps differ: {stateA.time} vs {stateB.time}"
        )
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


class PairedWindow:
    """Two trajectories sharing a uniform sample grid, with cached packs."""

    def __init__(self, trajA: FlowTrajectory, trajB: FlowTrajectory):
        if len(trajA.states) != len(trajB.states):
            raise ProtocolError("paired trajectories have different lengths")
        if len(trajA.states) < 5:
            raise ProtocolError("need at least 5 shared sample times")
        dtA = trajA.sample_dt()
        dtB = trajB.sample_dt()
        if abs(dtA - dtB) > 1e-12 * dtA:
            raise ProtocolError("paired trajectories use different sample steps")
        for a, b in zip(trajA.states, trajB.states):
            if abs(a.time - b.time) > 1e-10:
                raise ProtocolError("sample times of the two flows disagree")
        self.trajA = trajA
        self.trajB = trajB
        self.dt = dtA
        self._packs = [None] * len(trajA.states)

    def __len__(self):
        return len(self.trajA.states)

    def pack(self, k: int) -> DifferencePack:
        if self._packs[k] is None:
            self._packs[k] = build_difference(
                self.trajA.states[k], self.trajB.states[k]
            )
        return self._packs[k]

    @property
    def centers(self):
        return range(2, len(self) - 2)

    @property
    def times(self):
        return self.trajA.times


def _pack_report(identity, window, center, resid, index_spec) -> ResidualReport:
    geom = window.pack(center).geomA
    sq = tensor_norm_sq(resid, geom, index_spec)
    weight = geom.sqrt_det * geom.grid.spacing**geom.grid.m
    return ResidualReport(
        identity=identity,
        resolution=geom.grid.resolution,
        dt=window.dt,
        t_center=window.pack(center).time,
        sup_residual=float(np.sqrt(max(sq.max(), 0.0))),
        l2_residual=float(np.sqrt(np.sum(sq * weight))),
    )


def check_dd(window: PairedWindow) -> ResidualReport:
    """Exactly displayed evolution of the metric difference d = g - gt."""
    reports = []
    for c in window.centers:
        fields = [window.pack(k).d for k in range(c - 2, c + 3)]
        lhs = time_derivative_5pt(fields, window.dt)
        p = window.pack(c)
        rhs = -2.0 * (
            np.einsum("...a,...aij->...ij", p.geomA.mean_curv, p.geomA.second_form)
            - np.einsum("...a,...aij->...ij", p.geomB.mean_curv, p.geomB.second_form)
        )
        reports.append(_pack_report("difference_metric", window, c, lhs - rhs, "ll"))
    return max(reports, key=lambda r: r.sup_residual)


def check_dw(window: PairedWindow) -> ResidualReport:
    """Evolution of the position-gradient difference w^a."""
    reports = []
    for c in window.centers:
        fields = [window.pack(k).w for k in range(c - 2, c + 3)]
        lhs = time_derivative_5pt(fields, window.dt)
        p = window.pack(c)
        rhs = covariant_derivative(
            p.geomA.mean_curv, p.geomA, ""
        ) - covariant_derivative(p.geomB.mean_curv, p.geomB, "")
        reports.append(
            _pack_report("difference_position_gradient", window, c, lhs - rhs, "l")
        )
    return max(reports, key=lambda r: r.sup_residual)


def check_N_integral(window: PairedWindow):
    """Integral bound |N(t) - N(T)|_g <= quadrature of |d/ds N|_g over [t, T].

    The bound is a consequence of the fundamental theorem of calculus plus
    the triangle inequality, so the returned per-time slack should be
    nonnegative up to time-discretization error.
    """
    n = len(window)
    norm_dN = np.empty((n,) + window.pack(0).geomA.grid.shape)
    N_fields = [window.pack(k).N for k in range(n)]
    times = window.times
    dt = window.dt
    for k in range(n):
        lo = max(0, min(k - 2, n - 5))
        stencil = N_fields[lo : lo + 5]
        # derivative at offset k-lo of the 5-point stencil
        dN = _five_point_derivative_at(stencil, k - lo, dt)
        geom = window.pack(k).geomA
        norm_dN[k] = np.sqrt(tensor_norm_sq(dN, geom, "ull"))
    rows = []
    N_final = N_fields[-1]
    for k in range(n):
        geom = window.pack(k).geomA
        lhs = np.sqrt(tensor_norm_sq(N_fields[k] - N_final, geom, "ull"))
        rhs = np.trapezoid(norm_dN[k:], dx=dt, axis=0) if k < n - 1 else 0.0 * lhs
        rows.append(
            {
                "t": float(times[k]),
                "lhs_sup": float(lhs.max()),
                "rhs_sup": float(np.max(rhs)),
                "min_slack": float(np.min(rhs - lhs)),
            }
        )
    return rows


def _five_point_derivative_at(fields, j, dt):
    """d/dt at offset j in {0..4} of five equispaced fields, 4th order."""
    coeffs = {
        0: (-25.0, 48.0, -36.0, 16.0, -3.0),
        1: (-3.0, -10.0, 18.0, -6.0, 1.0),
        2: (1.0, -8.0, 0.0, 8.0, -1.0),
        3: (-1.0, 6.0, -18.0, 10.0, 3.0),
        4: (3.0, -16.0, 36.0, -48.0, 25.0),
    }[j]
    acc = coeffs[0] * fields[0]
    for c, f in zip(coeffs[1:], fields[1:]):
        acc = acc + c * f
    return acc / (12.0 * dt)


def heat_operator_Y(window: PairedWindow, center: int) -> np.ndarray:
    """Pointwise |(d/dt - Lap_g) Y|^2 at one sample time."""
    packs = [window.pack(k) for k in range(center - 2, center + 3)]
    p = packs[2]
    g = p.geomA
    dtU = time_derivative_5pt([q.U for q in packs], window.dt)
    dtV = time_derivative_5pt([q.V for q in packs], window.dt)
    resU = dtU - laplacian(p.U, g, "ll")
    resV = dtV - laplacian(p.V, g, "lll")
    return tensor_norm_sq(resU, g, "ll") + tensor_norm_sq(resV, g, "lll")


def time_derivative_Z_sq(window: PairedWindow, center: int) -> np.ndarray:
    """Pointwise |d/dt Z|^2 at one sample time."""
    packs = [window.pack(k) for k in range(center - 2, center + 3)]
    g = packs[2].geomA
    dt = window.dt
    out = tensor_norm_sq(time_derivative_5pt([q.w for q in packs], dt), g, "l")
    out += tensor_norm_sq(time_derivative_5pt([q.d for q in packs], dt), g, "ll")
    out += tensor_norm_sq(time_derivative_5pt([q.N for q in packs], dt), g, "ull")
    out += tensor_norm_sq(time_derivative_5pt([q.W for q in packs], dt), g, "lull")
    return out


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


def verify_inequalities(
    window: PairedWindow, delta: float, eps_core: float = EPS_CORE
) -> InequalityReport:
    """Fit the smallest constants compatible with the coupled inequalities.

    C1 bounds |(d/dt - Lap) Y|^2 and C2 bounds |d/dt Z|^2, both against
    |Y|^2 + |grad Y|^2 + |Z|^2, over all nodes and sample times in
    [delta, T] where the core exceeds eps_core.
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
        p = window.pack(k)
        K = max(K, float(np.sqrt(tensor_norm_sq(p.geomA.second_form, p.geomA, "ll").max())))
        Kt = max(
            Kt, float(np.sqrt(tensor_norm_sq(p.geomB.second_form, p.geomB, "ll").max()))
        )
    for c in window.centers:
        t = float(times[c])
        if t < delta - 1e-12 or t > T + 1e-12:
            continue
        p = window.pack(c)
        lhs1 = heat_operator_Y(window, c)
        lhs2 = time_derivative_Z_sq(window, c)
        nY, ngY, nZ = p.norm_sq_Y(), p.norm_sq_grad_Y(), p.norm_sq_Z()
        core = nY + ngY + nZ
        ok = core > eps_core
        if np.any(ok):
            C1 = max(C1, float((lhs1[ok] / core[ok]).max()))
            C2 = max(C2, float((lhs2[ok] / core[ok]).max()))
        flagged += int(np.sum(~ok & ((lhs1 > eps_core) | (lhs2 > eps_core))))
        g = p.geomA
        weight = g.sqrt_det * g.grid.spacing**g.grid.m
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
    geom0 = window.pack(0).geomA
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


def forward_gronwall(window: PairedWindow, delta: float, report=None):
    """Exponential-envelope table for F = E_Y + E_Z on [delta, T].

    Checks dF/dt <= C* G with G = E_Y + E_gradY + E_Z, C* fitted as the
    smallest constant over the window, and emits the induced envelope
    F(delta) * exp(lam (t - delta)) with lam = C* sup(G/F).
    """
    if report is None:
        report = verify_inequalities(window, delta)
    rows = [r for r in report.rows if r["t"] >= delta - 1e-12]
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
