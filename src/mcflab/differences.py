"""Difference tensors between two flows and the coupled inequality checks.

Given two flows on the same parameter grid, the packs collect the
differences of metrics, connections, position gradients, and second forms,
together with the direct sums

    Y = (+)_a U^a (+) (+)_a V^a,     (Y_SUMMANDS)
    Z = (+)_a w^a (+) d (+) N (+) W.  (Z_SUMMANDS)

All norms, covariant derivatives, and Laplacians use the first flow's
metric and connection.  `paired_pass` owns the paired pass, as
`identities.identity_suite` owns the single-flow one: it plans and bounds
the steps and runs `verify_inequalities`, a plain forward loop over the
pair's lazy fixed-step stream in the shape of `identity_suite`.  So both
packs of a state come from the one batched kernel evaluation that the
pair's step already made there, and no trajectory is stored.  Before its
first read the loop checks the plan once, in `fitted_centers`, the one
plan rule (six stored states, and delta), so a bad plan takes no step.
The loop holds the five latest `DifferencePack`s and at most three
first-flow packs, never a second-flow one: `build_difference` takes from
it what the checks read and drops it.  At each center the paired checks
take the center's pack and rate(name), the five-point d/dt of the held
packs, as the single-flow checks take a pack and a rate: `check_dd` and
`check_dw` are the `identities.residual_report` of the displayed
difference evolutions, whose right-hand sides are differences of the
single-flow ones.
Backwards-in-time integration is never attempted; the uniqueness mechanism
is exercised only through these forward-in-time inequality measurements.

The layer returns numbers only: the pass's `InequalityReport` and the
columns of `forward_gronwall`'s envelope.  The CLI lays them out as report
files and writes the statement of this limitation in them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .flow import MAX_STEPS, ProtocolError, fixed_dt_stream, require_pair
from .geometry import (
    GeometryPack,
    covariant_derivative,
    divergence,
    geometry_packs,
    tensor_norm_sq,
    tensor_norm_sup,
)
from .identities import ResidualReport, grad_H, metric_rhs, residual_report

# Squared-norm floor below which a node is excluded from the C fit.
EPS_CORE = 1e-24

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

    geomA: GeometryPack | None  # None once the paired pass has released it
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


def five_point_derivative(fields, dt: float) -> np.ndarray:
    """4th-order central d/dt at the middle of five equispaced fields,
    ((f0 - 8 f1) + 8 f3) - f4 over 12 dt, in one fresh array; the middle
    field does not enter."""
    f0, f1, _, f3, f4 = fields
    out = np.subtract(f0, 8 * f1)
    out += 8 * f3
    out -= f4
    out /= 12.0 * dt
    return out


def fitted_centers(n_states: int, dt: float, delta: float):
    """The plan rule of the paired pass: the centers c of n_states samples
    at sample step dt with c * dt at least delta (to 1e-12), the rows of
    `verify_inequalities`.  The index fixes the time, so a late start keeps
    every row.  The Gronwall fit differences two rows: fewer than 6 states
    is a ProtocolError naming 'store_every' and 'T', and a delta that is
    not positive or leaves fewer than two centers is one naming 'delta'."""
    if n_states < 6:
        raise ProtocolError(
            f"invalid 'store_every' or 'T': they store {n_states} state(s); "
            "the paired checks need at least 6"
        )
    end = n_states - 2
    first = next((c for c in range(2, end) if c * dt >= delta - 1e-12), end)
    if not delta > 0 or end - first < 2:
        raise ProtocolError(
            f"invalid 'delta': {delta!r}; delta must lie in (0, "
            f"{(n_states - 4) * dt!r}] to leave two centers of "
            f"{n_states} stored states at or past it"
        )
    return range(first, end)


def check_dd(p: DifferencePack, rate, dt: float) -> ResidualReport:
    """Exactly displayed evolution of the metric difference d = g - gt at the
    center pack p, with rate(name) the d/dt of p's field name there and dt
    the run's sample step."""
    return residual_report("difference_metric", p.geomA, rate("d") - p.d_rhs, "ll", dt)


def check_dw(p: DifferencePack, rate, dt: float) -> ResidualReport:
    """Evolution of the position-gradient difference w^a, taken as
    `check_dd` takes it."""
    return residual_report(
        "difference_position_gradient", p.geomA, rate("w") - p.w_rhs, "l", dt
    )


def heat_operator_Y(p: DifferencePack, rate, grad_Y: dict) -> np.ndarray:
    """Pointwise |(d/dt - Lap_g) Y|^2 at the center pack p, with rate as
    `check_dd` takes it and grad_Y p's grad_Y(); Lap_g is the divergence of
    the gradient."""
    g = p.geomA

    def term(f, s):
        lap = divergence(grad_Y[f], g, "l" + s)
        return tensor_norm_sq(rate(f) - lap, g, s)

    return _sum_over(Y_SUMMANDS, term)


def time_derivative_Z_sq(p: DifferencePack, rate) -> np.ndarray:
    """Pointwise |d/dt Z|^2 at the center pack p, with rate as `check_dd`
    takes it."""
    return _sum_over(Z_SUMMANDS, lambda f, s: tensor_norm_sq(rate(f), p.geomA, s))


@dataclass
class InequalityReport:
    """Fitted constants and energy rows of the coupled inequalities: numbers
    only, which the CLI lays out as inequality_report.txt."""

    delta: float
    T: float
    K: float  # sup |h|_g of the first flow over every state
    K_tilde: float  # sup |ht|_gt of the second flow
    C1: float
    C2: float
    resolution: int
    dt: float
    flagged_nodes: int
    rows: list  # per-time dicts: t, E_Y, E_gradY, E_Z, sup LHS1, sup LHS2
    dd: ResidualReport  # worst center of check_dd, over every center
    dw: ResidualReport  # worst center of check_dw


def _fitted_row(p: DifferencePack, rate):
    """The energy row of the center pack p, and its C1, C2 and flagged count,
    with rate as `check_dd` takes it."""
    lhs2 = time_derivative_Z_sq(p, rate)
    grad_Y = p.grad_Y()
    lhs1 = heat_operator_Y(p, rate, grad_Y)
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


def verify_inequalities(
    stream, n_states: int, dt: float, delta: float
) -> InequalityReport:
    """Fit the smallest constants compatible with the coupled inequalities,
    and measure the difference evolutions, in one forward pass over a
    paired stream.

    The stream yields (states, kern) for each of its n_states stored
    states, at sample step dt: the pair's states, stamped with their times,
    and the batched kernel evaluation at them (`flow.fixed_dt_stream`).
    Before its first read the pass checks its plan in its one call of
    `fitted_centers`, which gives the fitted centers.  Once it holds five
    `DifferencePack`s, one center's stencil, the pass measures their
    center, where rate(name) is the five-point d/dt of the held packs'
    field name, taken afresh at each call.  Before it asks the stream for
    state j, it drops the pack of state j - 5 and releases the first-flow
    pack of state j - 3, which no center from j - 2 on reads, keeping that
    state's differences: so the steps to state j run beside four packs and
    two first-flow packs, and its build beside at most three.

    C1 bounds |(d/dt - Lap) Y|^2 and C2 bounds |d/dt Z|^2, both against
    |Y|^2 + |grad Y|^2 + |Z|^2, over all nodes where the core exceeds
    EPS_CORE and the fitted centers.  Each row's t and the report's T are
    the stamps of the states; every d/dt divides by dt.  K and K~ are the
    sups of |h|_g and |ht|_gt over every state; `check_dd` and `check_dw`
    take every center, of which the report keeps the worst.
    """
    fitted = fitted_centers(n_states, dt, delta)
    K = K_tilde = C1 = C2 = 0.0
    flagged = 0
    rows = []
    worst = [None, None]  # of check_dd and check_dw: the earliest, as max
    packs = []  # the DifferencePacks of the five latest states

    def rate(name):
        return five_point_derivative([getattr(q, name) for q in packs], dt)

    j = 0  # no enumerate: its reused result tuple keeps the last kernel
    for states, kern in stream:
        packs.append(build_difference(*states, kern))
        del states, kern  # neither lives through the next step
        K = max(K, packs[-1].sup_h)
        K_tilde = max(K_tilde, packs[-1].sup_h_tilde)
        if j >= 4:
            # looked up here, so that a rebound module attribute sees it
            for i, check in enumerate((check_dd, check_dw)):
                r = check(packs[2], rate, dt)
                if worst[i] is None or r.sup_residual > worst[i].sup_residual:
                    worst[i] = r
            if j - 2 in fitted:
                row, c1, c2, n_flagged = _fitted_row(packs[2], rate)
                rows.append(row)
                C1, C2, flagged = max(C1, c1), max(C2, c2), flagged + n_flagged
            del packs[0]  # state j - 4, which no later center reads
        if j >= 2:  # index the pack: a local would keep its geometry through the steps
            packs[-3] = replace(packs[-3], geomA=None)  # state j - 2's
        j += 1
    last = packs[-1].geomA
    return InequalityReport(
        delta=delta,
        T=float(last.immersion.time),
        K=K,
        K_tilde=K_tilde,
        C1=C1,
        C2=C2,
        resolution=last.grid.resolution,
        dt=dt,
        flagged_nodes=flagged,
        rows=rows,
        dd=worst[0],
        dw=worst[1],
    )


def paired_pass(
    initA, initB, T: float, delta: float, dt: float, store_every: int
) -> InequalityReport:
    """`verify_inequalities` on the fixed-step pair from initA and initB at
    step dt, storing every store_every-th state: round(T / dt) steps, from
    0 to MAX_STEPS (else a ProtocolError naming 'T'), trimmed to a multiple
    of store_every.  The stream is lazy and the pass checks its plan
    (`fitted_centers`) before its first read, so a bad plan raises before
    the pair takes a step."""
    n_steps = int(round(T / dt))
    if not 0 <= n_steps <= MAX_STEPS:
        raise ProtocolError(
            f"invalid 'T': {T!r} at dt={dt!r} takes {T / dt:.3g} steps, "
            f"not in [0, {MAX_STEPS}]"
        )
    n_steps -= n_steps % store_every
    stream = fixed_dt_stream([initA, initB], dt, n_steps, store_every)
    # the pair is integrated as the pass reads its states, so a flow that
    # blows up has its last finite states measured before BlowUpError;
    # numpy's overflow warnings there only announce that, as in the flow
    with np.errstate(over="ignore", invalid="ignore"):
        return verify_inequalities(
            stream, n_steps // store_every + 1, store_every * dt, delta
        )


def forward_gronwall(report: InequalityReport) -> tuple:
    """The exponential envelope of F = E_Y + E_Z over the report's rows:
    the columns t, F, G, dFdt and envelope, one entry per row, and C*.

    Checks dF/dt <= C* G with G = E_Y + E_gradY + E_Z, C* fitted as the
    smallest non-negative constant over the energy rows of `report` (its
    sample times past delta), and gives the induced envelope
    F(t0) * exp(lam (t - t0)) from the first row's time t0, with
    lam = C* sup(G/F) over the rows where F > 0.  Where F vanishes on every
    row, Y does, so do grad Y and G, and C*, lam and the envelope are 0.
    """
    rows = report.rows
    t = np.array([r["t"] for r in rows])
    F = np.array([r["E_Y"] + r["E_Z"] for r in rows])
    G = np.array([r["E_Y"] + r["E_gradY"] + r["E_Z"] for r in rows])
    dFdt = np.gradient(F, t)
    pos = G > 0
    c_star = float(np.max(dFdt[pos] / G[pos])) if np.any(pos) else 0.0
    c_star = max(c_star, 0.0)
    posF = F > 0
    lam = c_star * float(np.max(G[posF] / F[posF])) if np.any(posF) else 0.0
    envelope = F[0] * np.exp(lam * (t - t[0]))
    return t, F, G, dFdt, envelope, c_star
