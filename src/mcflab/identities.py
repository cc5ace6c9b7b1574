"""Residual checks for the evolution equations and curvature identities.

Every evolution check measures, at one center state, the time derivative
of a field against the algebraic right-hand side.  A single-flow check,
`check_dX`, `check_dg`, `check_dGamma` or `check_dh`, takes the center's
pack, the field's rate there and the run's sample step; and
`differences.check_dd` and `check_dw` a pair's alike.  The semi-discrete
flow dX/dt = H is an ODE, so each single-flow rate is exact: the
directional derivative of the kernel along H (`geometry.kernel_rate`).
`identity_suite` owns the single-flow suite: it reads the fixed-step run
(`flow.fixed_dt_stream`) to its center, which the stream hands over with
its exact stamp and the kernel evaluation at it, builds that one pack and
takes its rates, so no state's geometry is evaluated twice and no
trajectory is stored; `geometry.geometry_packs` and `geometry.field_block`
alone know the kernel's and the pack's layout.  One builder,
`residual_report`, measures every residual tensor pointwise in the
evolving induced metric g(t); per ambient-coordinate families contribute
in Frobenius over the ambient label.  A `ResidualReport` holds a check's
numbers only: the CLI lays them out as report rows, and takes each
identity's formula from ANCHORS.

The right-hand sides and the commutation residual are component arithmetic
in index order, as in the geometry layer: each contraction loops over its
summed indices in index order (`sum_of_products`) and broadcasts over the
free ones.  They run on `components_first` arrays, where every component is
one contiguous grid array; for pack fields and covariant-layer results that
conversion copies nothing.  A right-hand side with an ambient axis is built
one ambient component at a time into one preallocated output, as
`geometry.laplacian` is, so no family-wide temporary is alive.  A check
consumes its rate: it writes the residual into the rate's memory, so the
right-hand side is freed before `residual_report` raises the residual's
indices, and no caller reads a rate after handing it over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import fixed_dt_stream
from .geometry import (
    CurvaturePack,
    GeometryPack,
    components_first,
    components_last,
    covariant_derivative,
    curvature_gauss,
    curvature_intrinsic,
    geometry_packs,
    kernel_rate,
    laplacian,
    sum_of_products,
    tensor_norm_sq,
)
from .grid import Immersion


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
    "difference_metric": (
        "d/dt d_ij = -2 sum_a (g^kl h^a_kl h^a_ij - gt^kl ht^a_kl ht^a_ij)"
    ),
    "difference_position_gradient": (
        "d/dt w^a_i = grad_i H^a - gradt_i Ht^a"
    ),
    "heat_inequality_Y": (
        "|(d/dt - Lap) Y|^2 <= C (|Y|^2 + |grad Y|^2 + |Z|^2)"
    ),
    "ode_inequality_Z": "|d/dt Z|^2 <= C (|Y|^2 + |grad Y|^2 + |Z|^2)",
}


@dataclass
class ResidualReport:
    """The numbers of one residual check."""

    identity: str
    resolution: int
    dt: float
    t_center: float
    sup_residual: float
    l2_residual: float


def _report(identity, geom, sq, sup, dt) -> ResidualReport:
    """The report of identity at geom with the sup given and the volume-
    weighted L2 of the pointwise squared residual sq: the one builder."""
    l2 = float(np.sqrt(np.sum(sq * geom.cell_weight)))
    return ResidualReport(
        identity, geom.grid.resolution, dt, geom.immersion.time, sup, l2
    )


def residual_report(identity, geom, resid, index_spec, dt=0.0) -> ResidualReport:
    """Sup and volume-weighted L2 of the g-norm of a residual tensor field."""
    sq = tensor_norm_sq(resid, geom, index_spec)
    return _report(identity, geom, sq, float(np.sqrt(max(sq.max(), 0.0))), dt)


def grad_H(geom: GeometryPack) -> np.ndarray:
    """Covariant gradient of the mean curvature components [a, i]."""
    return covariant_derivative(geom.mean_curv, geom, "")


def check_dX(geom: GeometryPack, rate: np.ndarray, dt: float) -> ResidualReport:
    """d/dt of the position gradient, rate, against the gradient of H.  The
    check consumes its rate: the residual is written into it, as in every
    evolution check."""
    resid = np.subtract(rate, grad_H(geom), out=rate)
    return residual_report("evolve_position_gradient", geom, resid, "l", dt)


def _H_dot_h(geom: GeometryPack) -> np.ndarray:
    """sum_a H^a h^a_ij, summed over a in index order components first (H^a
    a grid array, h^a an (m, m) block of them); the grid-first view."""
    H = components_first(geom.mean_curv, 1)
    h = components_first(geom.second_form, 3)
    return components_last(sum_of_products(zip(H, h)), 2)


def metric_rhs(geom: GeometryPack) -> np.ndarray:
    return -2.0 * _H_dot_h(geom)


def check_dg(geom: GeometryPack, rate: np.ndarray, dt: float) -> ResidualReport:
    resid = np.subtract(rate, metric_rhs(geom), out=rate)
    return residual_report("evolve_metric", geom, resid, "ll", dt)


def _index_combination(D: np.ndarray) -> np.ndarray:
    """B_ijp = D_ijp + D_jip - D_pij of a components-first D [d, i, j]."""
    B = D + np.swapaxes(D, 0, 1)
    B -= np.moveaxis(D, 0, 2)
    return B


def _connection_rate(geom: GeometryPack) -> np.ndarray:
    """d/dt Gamma^k_ij = -g^kl B_ijl, components first, where B is the
    _index_combination of grad_d S_ij and S_ij = sum_a H^a h^a_ij."""
    ginv = components_first(geom.inverse_metric, 2)
    DS = covariant_derivative(_H_dot_h(geom), geom, "ll")
    B = _index_combination(components_first(DS, 3))
    out = sum_of_products(
        (ginv[:, l, None, None], B[None, :, :, l]) for l in range(geom.grid.m)
    )
    return np.negative(out, out=out)


def _connection_rhs(geom: GeometryPack) -> np.ndarray:
    return components_last(_connection_rate(geom), 3)


def check_dGamma(geom: GeometryPack, rate: np.ndarray, dt: float) -> ResidualReport:
    resid = np.subtract(rate, _connection_rhs(geom), out=rate)
    return residual_report("evolve_connection", geom, resid, "ull", dt)


def grad_grad_H(geom: GeometryPack) -> np.ndarray:
    """Second covariant derivative of the mean curvature components [a,i,j]."""
    return covariant_derivative(grad_H(geom), geom, "l")


def _second_form_rhs(geom: GeometryPack) -> np.ndarray:
    """grad_i grad_j H^a - (d/dt Gamma^k_ij) X^a_k, the correction
    subtracted one ambient component a at a time."""
    # grad grad H first, so its temporaries are gone before the contraction's
    out = grad_grad_H(geom)
    dtGamma = _connection_rate(geom)
    X = components_first(geom.first_derivs, 2)
    for o, Xa in zip(components_first(out, 3), X):  # out's own memory
        o -= sum_of_products((dtGamma[k], Xa[k]) for k in range(geom.grid.m))
    return out


def check_dh(geom: GeometryPack, rate: np.ndarray, dt: float) -> ResidualReport:
    """Evolution of the second form; the connection rate enters analytically."""
    resid = np.subtract(rate, _second_form_rhs(geom), out=rate)
    return residual_report("evolve_second_form", geom, resid, "ll", dt)


def _commutation_curvature_terms(
    geom: GeometryPack, curv: CurvaturePack
) -> np.ndarray:
    """[a, i, j] = 2 g^kp g^lq R_ikjl h^a_pq - g^pq B_ijp X^a_q
    - g^pq R_ip h^a_jq - g^pq R_jp h^a_iq, B_ijp = grad_i R_jp + grad_j R_ip
    - grad_p R_ij, with the Gauss curvature curv of geom.

    The inverse metrics are applied before the contractions: X, h and the
    Ricci tensor are raised once (g^pq X^a_q, g^kp g^lq h^a_pq, g^pq R_ip),
    so each term is one sum over an index or an index pair.  B and the
    raised Ricci tensor are built once; then each ambient component a is
    raised and its four terms written into one components-first output, as
    `geometry.laplacian` does.  Every operation is elementwise per
    component, so the bits are those of the whole family at once.
    """
    M = range(geom.grid.m)
    ginv = components_first(geom.inverse_metric, 2)
    h = components_first(geom.second_form, 3)
    X = components_first(geom.first_derivs, 2)
    riem = components_first(curv.riemann, 4)
    ric = components_first(curv.ricci, 2)
    B = _index_combination(
        components_first(covariant_derivative(curv.ricci, geom, "ll"), 3)
    )
    ricu = sum_of_products((ginv[:, p], ric[:, None, p]) for p in M)  # [i, q]
    out = np.empty(h.shape)
    for o, Xa, ha in zip(out, X, h):
        Xu = sum_of_products((ginv[:, q], Xa[q]) for q in M)  # [p]
        hu = sum_of_products((ginv[:, p, None], ha[None, p]) for p in M)
        hu = sum_of_products((ginv[:, q], hu[:, None, q]) for q in M)  # [k, l]
        o[...] = sum_of_products((riem[:, k, :, l], hu[k, l]) for k in M for l in M)
        o *= 2.0
        o -= sum_of_products((B[:, :, p], Xu[p]) for p in M)
        o -= sum_of_products((ricu[:, q, None], ha[None, :, q]) for q in M)
        o -= sum_of_products((ricu[None, :, q], ha[:, None, q]) for q in M)
    return components_last(out, 3)


def simons_residual_field(geom: GeometryPack, curv: CurvaturePack) -> np.ndarray:
    """Pointwise residual tensor [a,i,j] of the commutation identity, with
    curv = curvature_gauss(geom).

    The Laplacian runs first, so that no temporary of the curvature terms
    is alive during its own peak.
    """
    rhs = laplacian(geom.second_form, geom, "ll")
    rhs += _commutation_curvature_terms(geom, curv)
    out = grad_grad_H(geom)
    out -= rhs
    return out


def check_simons(geom: GeometryPack, curv: CurvaturePack) -> ResidualReport:
    """Commutation identity at one instant, with curv = curvature_gauss(geom)."""
    return residual_report(
        "second_form_commutation", geom, simons_residual_field(geom, curv), "ll"
    )


def gauss_cross_check(geom: GeometryPack, curv: CurvaturePack) -> ResidualReport:
    """Sup difference of curv = curvature_gauss(geom) and curvature_intrinsic."""
    diff = curv.riemann - curvature_intrinsic(geom)
    sup = float(np.abs(diff).max())  # of the components, not a g-norm
    sq = (diff**2).sum(axis=tuple(range(-4, 0)))
    return _report("gauss_cross_check", geom, sq, sup, 0.0)


def identity_suite(initial: Immersion, dt: float) -> list:
    """The six residual checks at the center of a three-state fixed-step
    stream from initial at step dt, state 2, in the order check_dX,
    check_dg, check_dGamma, check_dh, check_simons, gauss_cross_check.

    The center gets its pack, from the kernel evaluation that the stream
    hands over with it; states 0 and 1 are dropped as they arrive.  The
    evolution checks run first, on the center's pack and its exact rates
    (`geometry.kernel_rate`); each check consumes its rate, writing its
    residual there, and no rate is read after its check.  Then the rates
    go, so the center's curvature is never alive beside them."""
    # The center stays at t0 + 2 dt, where the five-point suite had it: at t0
    # the evolution sups of the benchmark's torus move by 0.6-1 %, past the
    # tolerance of its recorded reference, so that move waits for a re-record.
    k = 0  # no enumerate: its reused result tuple keeps the last kernel
    for states, kern in fixed_dt_stream([initial], dt, 2):
        if k == 2:
            (geom,) = geometry_packs(states, kern)
        del states, kern  # neither lives through the next step
        k += 1
    rates = kernel_rate(geom)
    # looked up at the call, so that a rebound module attribute sees it
    checks = (check_dX, check_dg, check_dGamma, check_dh)
    reports = [check(geom, rate, dt) for check, rate in zip(checks, rates)]
    del rates
    curv = curvature_gauss(geom)
    return reports + [check_simons(geom, curv), gauss_cross_check(geom, curv)]
