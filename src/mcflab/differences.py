"""Difference tensors between two flows and the coupled inequality checks.

Given two flows on the same parameter grid, the packs collect the
differences of metrics, connections, position gradients, and second forms,
together with the direct sums

    Y = (+)_a U^a (+) (+)_a V^a,     (Y_SUMMANDS)
    Z = (+)_a w^a (+) d (+) N (+) W.  (Z_SUMMANDS)

All norms, covariant derivatives, and Laplacians use the first flow's
metric and connection.  `PairedWindow` is the `identities.SampleWindow` of a
pair; the `diff-system` verb feeds it from the pair's fixed-step stream
(`PairedWindow.fixed_dt`), so both packs of a state come from the one
batched kernel evaluation that the pair's step already made there, and no
trajectory is stored.  The window builds each `DifferencePack` once; as
it builds a state, it folds the state into K and K~ and releases the
first-flow pack of the state three back, which no later center reads.  So
it holds the six difference fields of the five latest states, at most three
first-flow packs and never a second-flow pack: `build_difference` takes
from it what the checks read and drops it.  Nothing the window keeps grows
with the run.  `verify_inequalities` is one forward pass over the centers:
at each it takes `check_dd` and `check_dw`, the
`identities.evolution_residual` of the displayed difference evolutions,
whose right-hand sides are differences of the single-flow ones, and keeps
the worst center of each; at the `fitted_centers`, chosen by center index,
which the CLI also counts before it integrates, it adds a row.  Every
check takes the time derivatives it reads from the window afresh.
Backwards-in-time integration is never attempted; the uniqueness mechanism
is exercised only through these forward-in-time inequality measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import attrgetter

import numpy as np

from .flow import ProtocolError, require_pair
from .geometry import (
    GeometryPack,
    covariant_derivative,
    divergence,
    geometry_packs,
    tensor_norm_sq,
    tensor_norm_sup,
)
from .identities import (
    ResidualReport,
    SampleWindow,
    evolution_residual,
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
    """All difference tensors of two states at one shared time, and what the
    checks read of the second flow: the right-hand sides of the displayed
    difference evolutions and sup |ht|_gt.  The second flow's pack itself is
    not kept."""

    geomA: GeometryPack | None  # None once a PairedWindow has released it
    d: np.ndarray  # grid + (m, m)           g - gt
    N: np.ndarray  # grid + (m, m, m)        Gamma - Gammat, [k, i, j]
    W: np.ndarray  # grid + (m, m, m, m)     grad N (g-connection), [l, k, i, j]
    w: np.ndarray  # grid + (A, m)           grad X - gradt Xt
    U: np.ndarray  # grid + (A, m, m)        h - ht
    V: np.ndarray  # grid + (A, m, m, m)     grad h - gradt ht
    d_rhs: np.ndarray  # grid + (m, m)       metric_rhs(A) - metric_rhs(B)
    w_rhs: np.ndarray  # grid + (A, m)       grad_H(A) - grad_H(B)
    sup_h: float  # sup |h|_g
    sup_h_tilde: float  # sup |ht|_gt

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


def build_difference(stateA, stateB, kern=None) -> DifferencePack:
    """Difference tensors of two states that form a pair (`require_pair`);
    kern is their batched kernel evaluation, as a paired stream yields it,
    or None for one call here (`geometry_packs`).  The second flow's pack
    is read here and dropped on return."""
    require_pair(stateA, stateB)
    geomA, geomB = geometry_packs([stateA, stateB], kern)
    d = geomA.metric - geomB.metric
    N = geomA.christoffels - geomB.christoffels
    W = covariant_derivative(N, geomA, "ull")
    w = geomA.first_derivs - geomB.first_derivs
    U = geomA.second_form - geomB.second_form
    V = covariant_derivative(geomA.second_form, geomA, "ll")
    np.subtract(V, covariant_derivative(geomB.second_form, geomB, "ll"), out=V)
    return DifferencePack(
        geomA, d, N, W, w, U, V,
        d_rhs=metric_rhs(geomA) - metric_rhs(geomB),
        w_rhs=grad_H(geomA) - grad_H(geomB),
        sup_h=tensor_norm_sup(geomA.second_form, geomA, "ll"),
        sup_h_tilde=tensor_norm_sup(geomB.second_form, geomB, "ll"),
    )


class PairedWindow(SampleWindow):
    """Two flows on one uniform sample grid; item k is the DifferencePack of
    state k, built from the one batched kernel evaluation of both states and
    measured in the first flow's geometry.

    As it builds state j, the window releases the first-flow pack of state
    j - 3, which no center from j - 2 on reads, and keeps that item's
    differences; so it holds at most three first-flow packs, and
    `geometry(k)` of a released state raises.  K and K_tilde are
    sup |h|_g and sup |ht|_gt over every state read."""

    K = K_tilde = 0.0

    def _make(self, states: list, kern) -> DifferencePack:
        j = self._read
        if j >= 3:  # index the item: a local would keep its pack through the build
            self._held[j - 3] = replace(self._held[j - 3], geomA=None)
        p = build_difference(*states, kern)
        self.K = max(self.K, p.sup_h)
        self.K_tilde = max(self.K_tilde, p.sup_h_tilde)
        return p

    def geometry(self, k: int) -> GeometryPack:
        geom = self.item(k).geomA
        if geom is None:
            raise IndexError(f"state {k}'s first-flow geometry has been released")
        return geom


def fitted_centers(n_states: int, store_every: int, dt: float, delta: float):
    """The centers of n_states fixed-step samples whose time since the first
    state, c * store_every * dt, is delta or more (to 1e-12): the rows of
    `verify_inequalities`, a range, since that time grows with c.  The index
    fixes the time, so a late start, whose stamped differences miss the step
    at rounding level, keeps every row."""
    end = n_states - 2
    first = next(
        (c for c in range(2, end) if c * store_every * dt >= delta - 1e-12), end
    )
    return range(first, end)


def check_dd(window: PairedWindow, center: int) -> ResidualReport:
    """Exactly displayed evolution of the metric difference d = g - gt at one
    center."""
    return evolution_residual(
        window, center, "difference_metric", "d", attrgetter("d_rhs"), "ll"
    )


def check_dw(window: PairedWindow, center: int) -> ResidualReport:
    """Evolution of the position-gradient difference w^a at one center."""
    return evolution_residual(
        window, center, "difference_position_gradient", "w", attrgetter("w_rhs"), "l"
    )


def heat_operator_Y(window: PairedWindow, center: int, grad_Y: dict) -> np.ndarray:
    """Pointwise |(d/dt - Lap_g) Y|^2 at one sample time, with grad_Y the
    grad_Y() of the centre's pack; Lap_g is the divergence of the gradient."""
    g = window.geometry(center)

    def term(f, s):
        lap = divergence(grad_Y[f], g, "l" + s)
        return tensor_norm_sq(window.time_derivative(center, f) - lap, g, s)

    return _sum_over(Y_SUMMANDS, term)


def time_derivative_Z_sq(window: PairedWindow, center: int) -> np.ndarray:
    """Pointwise |d/dt Z|^2 at one sample time."""
    g = window.geometry(center)
    return _sum_over(
        Z_SUMMANDS, lambda f, s: tensor_norm_sq(window.time_derivative(center, f), g, s)
    )


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
    dd: ResidualReport  # worst center of check_dd, over every center
    dw: ResidualReport  # worst center of check_dw

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


def _fitted_row(window: PairedWindow, c: int):
    """The energy row of the center c, and its C1, C2 and flagged count."""
    lhs2 = time_derivative_Z_sq(window, c)
    p = window.item(c)
    grad_Y = p.grad_Y()
    lhs1 = heat_operator_Y(window, c, grad_Y)
    nY, ngY, nZ = p.norm_sq_Y(), p.norm_sq_grad_Y(grad_Y), p.norm_sq_Z()
    del grad_Y
    core = nY + ngY + nZ
    ok = core > EPS_CORE
    c1 = c2 = 0.0
    if np.any(ok):
        c1 = float((lhs1[ok] / core[ok]).max())
        c2 = float((lhs2[ok] / core[ok]).max())
    flagged = int(np.sum(~ok & ((lhs1 > EPS_CORE) | (lhs2 > EPS_CORE))))
    weight = p.geomA.cell_weight
    row = {
        "t": float(p.geomA.immersion.time),
        "E_Y": float(np.sum(nY * weight)),
        "E_gradY": float(np.sum(ngY * weight)),
        "E_Z": float(np.sum(nZ * weight)),
        "sup_lhs1": float(lhs1.max()),
        "sup_lhs2": float(lhs2.max()),
    }
    return row, c1, c2, flagged


def verify_inequalities(window: PairedWindow, delta: float) -> InequalityReport:
    """Fit the smallest constants compatible with the coupled inequalities,
    and measure the difference evolutions, in one forward pass.

    C1 bounds |(d/dt - Lap) Y|^2 and C2 bounds |d/dt Z|^2, both against
    |Y|^2 + |grad Y|^2 + |Z|^2, over all nodes where the core exceeds
    EPS_CORE and the `fitted_centers` of the window, those at least delta
    past the first state in the index form c * store_every * step.  Each
    row's t and the report's T are the stamps of the states; delta must lie
    in (0, (n_states - 1) * store_every * step).  K and K~ are the
    window's, over every state; `check_dd` and `check_dw` take every
    center, of which the report keeps the worst.  The pass leaves the
    window holding its last five states, and the first-flow packs of the
    last three, so a window serves one call.
    """
    span = (len(window) - 1) * window.store_every * window.step
    if not 0.0 < delta < span:
        raise ValueError(
            f"delta must lie in (0, {span}), the time from the first to the "
            f"last state, got {delta}"
        )
    fitted = fitted_centers(len(window), window.store_every, window.step, delta)
    C1 = 0.0
    C2 = 0.0
    flagged = 0
    rows = []
    worst = [None, None]  # of check_dd and check_dw: the earliest, as max
    for c in window.centers:
        for i, check in enumerate((check_dd, check_dw)):
            r = check(window, c)
            if worst[i] is None or r.sup_residual > worst[i].sup_residual:
                worst[i] = r
        if c in fitted:
            row, c1, c2, n_flagged = _fitted_row(window, c)
            rows.append(row)
            C1, C2, flagged = max(C1, c1), max(C2, c2), flagged + n_flagged
    last = window.geometry(len(window) - 1)
    return InequalityReport(
        delta=delta,
        T=float(last.immersion.time),
        K=window.K,
        K_tilde=window.K_tilde,
        C1=C1,
        C2=C2,
        resolution=last.grid.resolution,
        dt=window.dt,
        flagged_nodes=flagged,
        rows=rows,
        dd=worst[0],
        dw=worst[1],
    )


def forward_gronwall(report: InequalityReport):
    """Exponential-envelope table for F = E_Y + E_Z over the report's rows.

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
