"""Residual checks for the evolution equations and curvature identities.

Each evolution check compares a 4th-order central time difference of a
stored field along a uniformly sampled trajectory against the algebraic
right-hand side evaluated from the geometry at the center time.  Residual
tensors are measured pointwise in the evolving induced metric g(t); per
ambient-coordinate families contribute in Frobenius over the ambient label.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .flow import FlowTrajectory, ProtocolError
from .geometry import (
    GeometryPack,
    compute_geometry,
    covariant_derivative,
    curvature_gauss,
    laplacian,
    tensor_norm_sq,
)
from .grid import DegenerateImmersionError


ANCHORS = {
    "evolve_position_gradient": "d/dt X^a_i = grad_i H^a",
    "evolve_metric": "d/dt g_ij = -2 sum_a H^a h^a_ij",
    "evolve_connection": (
        "d/dt Gamma^k_ij = -g^kl [grad_i(sum_a H^a h^a_jl) "
        "+ grad_j(sum_a H^a h^a_il) - grad_l(sum_a H^a h^a_ij)]"
    ),
    "evolve_second_form": (
        "d/dt h^a_ij = grad_i grad_j H^a - (d/dt Gamma^k_ij) X^a_k"
    ),
    "second_form_commutation": (
        "grad_i grad_j H^a = Lap h^a_ij - g^pq (grad_i R_jp + grad_j R_ip "
        "- grad_p R_ij) X^a_q + 2 g^kp g^lq R_ikjl h^a_pq "
        "- g^pq R_ip h^a_jq - g^pq R_jp h^a_iq"
    ),
    "gauss_cross_check": (
        "R_ijkl = sum_a (h^a_ik h^a_jl - h^a_il h^a_jk)  vs  intrinsic R"
    ),
    "trace_identity": "sum_a |grad X^a|^2_g = g^ij g_ij = m",
    "difference_metric": (
        "d/dt d_ij = -2 sum_a (g^kl h^a_kl h^a_ij - gt^kl ht^a_kl ht^a_ij)"
    ),
    "difference_position_gradient": (
        "d/dt w^a_i = grad_i H^a - gradt_i Ht^a"
    ),
    "connection_integral_bound": (
        "|N(t) - N(T)|_g <= integral_t^T |d/ds N| ds"
    ),
    "heat_inequality_Y": (
        "|(d/dt - Lap) Y|^2 <= C (|Y|^2 + |grad Y|^2 + |Z|^2)"
    ),
    "ode_inequality_Z": "|d/dt Z|^2 <= C (|Y|^2 + |grad Y|^2 + |Z|^2)",
}


@dataclass
class ResidualReport:
    identity: str
    resolution: int
    dt: float
    t_center: float
    sup_residual: float
    l2_residual: float
    order_estimate: float | None = None
    anchor: str = ""

    def __post_init__(self):
        if not self.anchor:
            self.anchor = ANCHORS.get(self.identity, "")

    CSV_HEADER = "identity,N,dt,t,sup_residual,l2_residual,order_estimate"

    def csv_row(self) -> str:
        order = "" if self.order_estimate is None else format(
            self.order_estimate, ".6g"
        )
        return (
            f"{self.identity},{self.resolution},{self.dt!r},{self.t_center!r},"
            f"{self.sup_residual!r},{self.l2_residual!r},{order}"
        )


class TrajectoryWindow:
    """Uniformly sampled trajectory with lazily cached geometry."""

    def __init__(self, traj: FlowTrajectory):
        if len(traj.states) < 5:
            raise ProtocolError("need at least 5 uniformly spaced states")
        self.traj = traj
        self.dt = traj.sample_dt()
        self._geoms = [None] * len(traj.states)

    def geometry(self, k: int) -> GeometryPack:
        if self._geoms[k] is None:
            self._geoms[k] = compute_geometry(self.traj.states[k])
        return self._geoms[k]

    @property
    def centers(self):
        return range(2, len(self.traj.states) - 2)


def time_derivative_5pt(fields, dt: float) -> np.ndarray:
    """4th-order central difference at the middle of five equispaced fields."""
    f0, f1, _, f3, f4 = fields
    return (f0 - 8.0 * f1 + 8.0 * f3 - f4) / (12.0 * dt)


def _report(identity, window, center, resid, index_spec) -> ResidualReport:
    geom = window.geometry(center)
    sq = tensor_norm_sq(resid, geom, index_spec)
    weight = geom.sqrt_det * geom.grid.spacing**geom.grid.m
    l2 = float(np.sqrt(np.sum(sq * weight)))
    return ResidualReport(
        identity=identity,
        resolution=geom.grid.resolution,
        dt=window.dt,
        t_center=window.traj.states[center].time,
        sup_residual=float(np.sqrt(max(sq.max(), 0.0))),
        l2_residual=l2,
    )


def _worst(reports) -> ResidualReport:
    return max(reports, key=lambda r: r.sup_residual)


def _evolution_check(traj, identity, field_of, rhs_of, index_spec):
    window = TrajectoryWindow(traj)
    reports = []
    for c in window.centers:
        fields = [field_of(window.geometry(k)) for k in range(c - 2, c + 3)]
        lhs = time_derivative_5pt(fields, window.dt)
        resid = lhs - rhs_of(window.geometry(c))
        reports.append(_report(identity, window, c, resid, index_spec))
    return _worst(reports)


def check_dX(traj: FlowTrajectory) -> ResidualReport:
    """d/dt of the position gradient against the gradient of H."""
    return _evolution_check(
        traj,
        "evolve_position_gradient",
        lambda geom: geom.first_derivs,
        lambda geom: covariant_derivative(geom.mean_curv, geom, ""),
        "l",
    )


def _metric_rhs(geom: GeometryPack) -> np.ndarray:
    return -2.0 * np.einsum("...a,...aij->...ij", geom.mean_curv, geom.second_form)


def check_dg(traj: FlowTrajectory) -> ResidualReport:
    return _evolution_check(
        traj, "evolve_metric", lambda geom: geom.metric, _metric_rhs, "ll"
    )


def _connection_rhs(geom: GeometryPack) -> np.ndarray:
    S = np.einsum("...a,...aij->...ij", geom.mean_curv, geom.second_form)
    DS = covariant_derivative(S, geom, "ll")  # [d, i, j] = grad_d S_ij
    sym = (
        np.einsum("...ijl->...lij", DS)
        + np.einsum("...jil->...lij", DS)
        - np.einsum("...lij->...lij", DS)
    )
    return -np.einsum("...kl,...lij->...kij", geom.inverse_metric, sym)


def check_dGamma(traj: FlowTrajectory) -> ResidualReport:
    return _evolution_check(
        traj,
        "evolve_connection",
        lambda geom: geom.christoffels,
        _connection_rhs,
        "ull",
    )


def grad_grad_H(geom: GeometryPack) -> np.ndarray:
    """Second covariant derivative of the mean curvature components [a,i,j]."""
    gradH = covariant_derivative(geom.mean_curv, geom, "")
    return covariant_derivative(gradH, geom, "l")


def _second_form_rhs(geom: GeometryPack) -> np.ndarray:
    dtGamma = _connection_rhs(geom)
    return grad_grad_H(geom) - np.einsum(
        "...kij,...ak->...aij", dtGamma, geom.first_derivs
    )


def check_dh(traj: FlowTrajectory) -> ResidualReport:
    """Evolution of the second form; the connection rate enters analytically."""
    return _evolution_check(
        traj,
        "evolve_second_form",
        lambda geom: geom.second_form,
        _second_form_rhs,
        "ll",
    )


def simons_residual_field(geom: GeometryPack) -> np.ndarray:
    """Pointwise residual tensor [a,i,j] of the commutation identity."""
    ginv = geom.inverse_metric
    h = geom.second_form
    curv = curvature_gauss(geom)
    lap_h = laplacian(h, geom, "ll")
    DR = covariant_derivative(curv.ricci, geom, "ll")  # [p, i, j] = grad_p R_ij
    # DR[..., d, a, b] = grad_d R_ab; build B_ijp = grad_i R_jp + grad_j R_ip
    # - grad_p R_ij by axis renaming
    B = (
        np.einsum("...ijp->...ijp", DR)
        + np.einsum("...jip->...ijp", DR)
        - np.einsum("...pij->...ijp", DR)
    )
    term_grad_ricci = -np.einsum(
        "...pq,...ijp,...aq->...aij", ginv, B, geom.first_derivs
    )
    term_riemann = 2.0 * np.einsum(
        "...kp,...lq,...ikjl,...apq->...aij", ginv, ginv, curv.riemann, h
    )
    term_ricci = -np.einsum(
        "...pq,...ip,...ajq->...aij", ginv, curv.ricci, h
    ) - np.einsum("...pq,...jp,...aiq->...aij", ginv, curv.ricci, h)
    rhs = lap_h + term_grad_ricci + term_riemann + term_ricci
    return grad_grad_H(geom) - rhs


def check_simons(imm_or_geom) -> ResidualReport:
    """Commutation identity at a single instant; no time derivative involved."""
    geom = (
        imm_or_geom
        if isinstance(imm_or_geom, GeometryPack)
        else compute_geometry(imm_or_geom)
    )
    resid = simons_residual_field(geom)
    sq = tensor_norm_sq(resid, geom, "ll")
    weight = geom.sqrt_det * geom.grid.spacing**geom.grid.m
    return ResidualReport(
        identity="second_form_commutation",
        resolution=geom.grid.resolution,
        dt=0.0,
        t_center=geom.immersion.time,
        sup_residual=float(np.sqrt(sq.max())),
        l2_residual=float(np.sqrt(np.sum(sq * weight))),
    )


def measure_bernstein(traj: FlowTrajectory, k_max: int = 2):
    """Monitoring table of sup-node |grad^k h|_g per stored time, k <= k_max."""
    rows = []
    for state in traj.states:
        geom = compute_geometry(state)
        field_arr = geom.second_form
        spec = "ll"
        for k in range(k_max + 1):
            sq = tensor_norm_sq(field_arr, geom, spec)
            rows.append(
                {"t": state.time, "k": k, "sup": float(np.sqrt(sq.max()))}
            )
            if k < k_max:
                field_arr = covariant_derivative(field_arr, geom, spec)
                spec = "l" + spec
    return rows


def measure_equivalence(gA: np.ndarray, gB: np.ndarray) -> float:
    """Smallest gamma >= 1 with gamma^-1 gA <= gB <= gamma gA at every node."""
    if gA.shape != gB.shape:
        raise ProtocolError("metric fields must share a shape")
    m = gA.shape[-1]
    if m == 1:
        a = gA[..., 0, 0]
        b = gB[..., 0, 0]
        _require_spd_1d(a)
        _require_spd_1d(b)
        lam_min = lam_max = b / a
    else:
        _require_spd_2d(gA)
        _require_spd_2d(gB)
        # eigenvalues of the SPD pencil gB v = lambda gA v via gA^-1 gB
        det_a = gA[..., 0, 0] * gA[..., 1, 1] - gA[..., 0, 1] ** 2
        det_b = gB[..., 0, 0] * gB[..., 1, 1] - gB[..., 0, 1] ** 2
        # trace of gA^-1 gB
        tr = (
            gA[..., 1, 1] * gB[..., 0, 0]
            - 2.0 * gA[..., 0, 1] * gB[..., 0, 1]
            + gA[..., 0, 0] * gB[..., 1, 1]
        ) / det_a
        det = det_b / det_a
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam_max = 0.5 * (tr + disc)
        lam_min = 0.5 * (tr - disc)
    gamma = max(float(lam_max.max()), float((1.0 / lam_min).max()))
    return max(gamma, 1.0)


def _require_spd_1d(a):
    if np.any(a <= 0):
        raise DegenerateImmersionError(
            np.unravel_index(int(np.argmin(a)), a.shape), float(a.min())
        )


def _require_spd_2d(g):
    """Raise at the first node (C order) where det(g) <= 0 or g_00 <= 0,
    naming the quantity that failed there."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    bad = (det <= 0) | (g[..., 0, 0] <= 0)
    if np.any(bad):
        node = np.unravel_index(int(np.argmax(bad)), bad.shape)
        if det[node] <= 0:
            raise DegenerateImmersionError(node, float(det[node]))
        raise DegenerateImmersionError(node, float(g[node][0, 0]), "g_00")


def gauss_cross_check(geom: GeometryPack) -> ResidualReport:
    """Sup difference of the two independent curvature computations."""
    from .geometry import curvature_intrinsic

    cg = curvature_gauss(geom)
    ci = curvature_intrinsic(geom)
    diff = cg.riemann - ci.riemann
    sup = float(np.abs(diff).max())
    weight = geom.sqrt_det * geom.grid.spacing**geom.grid.m
    l2 = float(np.sqrt(np.sum((diff**2).sum(axis=tuple(range(-4, 0))) * weight)))
    return ResidualReport(
        identity="gauss_cross_check",
        resolution=geom.grid.resolution,
        dt=0.0,
        t_center=geom.immersion.time,
        sup_residual=sup,
        l2_residual=l2,
    )
