"""Residual checks for the evolution equations and curvature identities.

Every evolution check, of one flow (`TrajectoryWindow`) or of the difference
of two (`differences.PairedWindow`), takes a window and a center state and
measures there the 4th-order central time difference of a field, with the
fixed-step run's `sample_step`, against the algebraic right-hand side
(`evolution_residual`).  The two states at either end enter the differences
but are never checked themselves.  A window reads its states from a stream,
`SampleWindow.fixed_dt` from the fixed-step run itself, which hands over
every stored state with its exact stamp and the kernel evaluation at it:
the one its step already made, or for the final state one call of its
own.  So a window keeps no times and evaluates no geometry kernel, no
state's geometry is evaluated twice and no trajectory is stored.  The paired
checks run in one forward `SampleWindow.sweep` over the centers, which
drops each item once no later stencil reads it, so at most five items are
alive however long the run; the identity suite's window has one center.
One builder, `residual_report`, measures every residual tensor pointwise in
the evolving induced metric g(t); per ambient-coordinate families
contribute in Frobenius over the ambient label.

The right-hand sides and the commutation residual are component arithmetic
in index order, as in the geometry layer: each contraction loops over its
summed indices in index order (`sum_of_products`) and broadcasts over the
free ones.  They run on `components_first` arrays, where every component is
one contiguous grid array; for pack fields and covariant-layer results that
conversion copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import ProtocolError, fixed_dt_stream
from .geometry import (
    CurvaturePack,
    GeometryPack,
    components_first,
    components_last,
    covariant_derivative,
    curvature_intrinsic,
    geometry_packs,
    laplacian,
    sum_of_products,
    tensor_norm_sq,
)


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
    identity: str
    resolution: int
    dt: float
    t_center: float
    sup_residual: float
    l2_residual: float

    @property
    def anchor(self) -> str:
        return ANCHORS.get(self.identity, "")

    # orders are fitted by the convergence verb: order_estimate stays empty
    CSV_HEADER = "identity,N,dt,t,sup_residual,l2_residual,order_estimate"

    def csv_row(self) -> str:
        return (
            f"{self.identity},{self.resolution},{self.dt!r},{self.t_center!r},"
            f"{self.sup_residual!r},{self.l2_residual!r},"
        )


class SampleWindow:
    """At least five uniformly spaced states, taken in order from a stream as
    the checks reach them, with one item each; subclasses say how an item is
    made from a stream entry (`_make`) and which geometry measures it
    (`geometry`).

    A stream yields (states, kern) per stored state: the states, stamped
    with their times, and the batched kernel evaluation at them
    (`flow.fixed_dt_stream`), from which the window builds the item
    through `geometry.geometry_packs`.  n_states is the number of states
    the stream yields, and `dt` the run's sample step, store_every * step.
    `fixed_dt` builds the window on the stream of a fixed-step run.  Items
    stay cached until a `sweep` drops them.  A dropped item is never
    rebuilt: reading it, or an index outside the states, raises IndexError.
    Once the last state is read, the window lets go of the stream.
    """

    def __init__(self, stream, n_states: int, step: float, store_every: int = 1):
        if n_states < 5:
            raise ProtocolError("need at least 5 uniformly spaced states")
        self._stream = stream
        self._n_states = n_states
        self.step = step
        self.store_every = store_every
        self.dt = store_every * step
        self._items = []  # the items read from the stream, None once dropped
        self._dropped = 0  # a sweep has dropped items 0 .. _dropped - 1

    @classmethod
    def fixed_dt(cls, initials: list, dt: float, n_steps: int, store_every: int = 1):
        """The window on `flow.fixed_dt_stream` of the initial immersions."""
        stream = fixed_dt_stream(initials, dt, n_steps, store_every)
        return cls(stream, n_steps // store_every + 1, dt, store_every)

    def __len__(self):
        return self._n_states

    def item(self, k: int):
        if not 0 <= k < len(self):
            raise IndexError(f"state {k} is outside 0 .. {len(self) - 1}")
        if k < self._dropped:
            raise IndexError(
                f"state {k} is behind the sweep, which dropped states "
                f"0 .. {self._dropped - 1}"
            )
        while len(self._items) <= k:
            self._items.append(self._make(*next(self._stream)))
            if len(self._items) == len(self):
                self._stream = None
        return self._items[k]

    @property
    def centers(self):
        return range(2, len(self) - 2)

    def sweep(self):
        """The centers in order, for one forward pass: after center c, item
        c - 2 is dropped, since no later center's stencil reads it."""
        for c in self.centers:
            yield c
            self._items[c - 2] = None
            self._dropped = c - 1

    def time_derivative(self, c: int, field_of) -> np.ndarray:
        """4th-order central d/dt of field_of(item) at the center state c."""
        if c not in self.centers:
            raise IndexError(f"state {c} is not a center of {self.centers}")
        return five_point_derivative(
            [field_of(self.item(j)) for j in range(c - 2, c + 3)], self.dt
        )


class TrajectoryWindow(SampleWindow):
    """One flow; item k is the GeometryPack of state k."""

    def _make(self, states: list, kern) -> GeometryPack:
        (geom,) = geometry_packs(states, kern)
        return geom

    def geometry(self, k: int) -> GeometryPack:
        return self.item(k)


def five_point_derivative(fields, dt: float) -> np.ndarray:
    """4th-order central d/dt at the middle of five equispaced fields."""
    f0, f1, _, f3, f4 = fields
    return (f0 - 8 * f1 + 8 * f3 - f4) / (12.0 * dt)


def residual_report(identity, geom, resid, index_spec, dt=0.0) -> ResidualReport:
    """Sup and volume-weighted L2 of the g-norm of a residual tensor field."""
    sq = tensor_norm_sq(resid, geom, index_spec)
    return ResidualReport(
        identity=identity,
        resolution=geom.grid.resolution,
        dt=dt,
        t_center=geom.immersion.time,
        sup_residual=float(np.sqrt(max(sq.max(), 0.0))),
        l2_residual=float(np.sqrt(np.sum(sq * geom.cell_weight))),
    )


def evolution_residual(
    window, c, identity, field_of, rhs_of, index_spec
) -> ResidualReport:
    """d/dt field_of(item) - rhs_of(item) at the center c of a SampleWindow.

    The right-hand side comes first: on a stream, the first check's
    temporaries then come and go before the stencil's last two states are
    read, which lowered the convergence verb's peak RSS by 1-2 MB.
    """
    rhs = rhs_of(window.item(c))
    resid = window.time_derivative(c, field_of) - rhs
    return residual_report(identity, window.geometry(c), resid, index_spec, window.dt)


def grad_H(geom: GeometryPack) -> np.ndarray:
    """Covariant gradient of the mean curvature components [a, i]."""
    return covariant_derivative(geom.mean_curv, geom, "")


def check_dX(window: TrajectoryWindow, center: int) -> ResidualReport:
    """d/dt of the position gradient against the gradient of H."""
    return evolution_residual(
        window,
        center,
        "evolve_position_gradient",
        lambda geom: geom.first_derivs,
        grad_H,
        "l",
    )


def _H_dot_h(geom: GeometryPack) -> np.ndarray:
    """sum_a H^a h^a_ij, summed over a in index order components first (H^a
    a grid array, h^a an (m, m) block of them); the grid-first view."""
    H = components_first(geom.mean_curv, 1)
    h = components_first(geom.second_form, 3)
    return components_last(sum_of_products(zip(H, h)), 2)


def metric_rhs(geom: GeometryPack) -> np.ndarray:
    return -2.0 * _H_dot_h(geom)


def check_dg(window: TrajectoryWindow, center: int) -> ResidualReport:
    return evolution_residual(
        window, center, "evolve_metric", lambda geom: geom.metric, metric_rhs, "ll"
    )


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


def check_dGamma(window: TrajectoryWindow, center: int) -> ResidualReport:
    return evolution_residual(
        window,
        center,
        "evolve_connection",
        lambda geom: geom.christoffels,
        _connection_rhs,
        "ull",
    )


def grad_grad_H(geom: GeometryPack) -> np.ndarray:
    """Second covariant derivative of the mean curvature components [a,i,j]."""
    return covariant_derivative(grad_H(geom), geom, "l")


def _second_form_rhs(geom: GeometryPack) -> np.ndarray:
    # grad grad H first, so its temporaries are gone before the contraction's
    out = grad_grad_H(geom)
    dtGamma = _connection_rate(geom)
    X = components_first(geom.first_derivs, 2)
    corr = sum_of_products(
        (dtGamma[None, k], X[:, k, None, None]) for k in range(geom.grid.m)
    )  # [a, i, j] = (d/dt Gamma^k_ij) X^a_k
    out -= components_last(corr, 3)
    return out


def check_dh(window: TrajectoryWindow, center: int) -> ResidualReport:
    """Evolution of the second form; the connection rate enters analytically."""
    return evolution_residual(
        window,
        center,
        "evolve_second_form",
        lambda geom: geom.second_form,
        _second_form_rhs,
        "ll",
    )


def _commutation_curvature_terms(
    geom: GeometryPack, curv: CurvaturePack
) -> np.ndarray:
    """[a, i, j] = 2 g^kp g^lq R_ikjl h^a_pq - g^pq B_ijp X^a_q
    - g^pq R_ip h^a_jq - g^pq R_jp h^a_iq, B_ijp = grad_i R_jp + grad_j R_ip
    - grad_p R_ij, with the Gauss curvature curv of geom.

    The inverse metrics are applied before the contractions: X, h and the
    Ricci tensor are raised once (g^pq X^a_q, g^kp g^lq h^a_pq, g^pq R_ip),
    so each term is one sum over an index or an index pair.
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
    Xu = sum_of_products((ginv[:, q], X[:, None, q]) for q in M)  # [a, p]
    hu = sum_of_products((ginv[:, p, None], h[:, None, p]) for p in M)
    hu = sum_of_products((ginv[:, q], hu[:, :, None, q]) for q in M)  # [a, k, l]
    ricu = sum_of_products((ginv[:, p], ric[:, None, p]) for p in M)  # [i, q]
    out = sum_of_products(
        (riem[None, :, k, :, l], hu[:, k, l, None, None]) for k in M for l in M
    )
    out *= 2.0
    out -= sum_of_products((B[None, :, :, p], Xu[:, p, None, None]) for p in M)
    out -= sum_of_products((ricu[None, :, q, None], h[:, None, :, q]) for q in M)
    out -= sum_of_products((ricu[None, None, :, q], h[:, :, None, q]) for q in M)
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
    sup = float(np.abs(diff).max())
    sq = (diff**2).sum(axis=tuple(range(-4, 0)))
    l2 = float(np.sqrt(np.sum(sq * geom.cell_weight)))
    return ResidualReport(
        identity="gauss_cross_check",
        resolution=geom.grid.resolution,
        dt=0.0,
        t_center=geom.immersion.time,
        sup_residual=sup,
        l2_residual=l2,
    )
