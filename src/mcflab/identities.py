"""Residual checks for the evolution equations and curvature identities.

Every evolution check, of one flow or of the difference of two
(`differences.PairedWindow`), takes a window and a center state and
measures there the 4th-order central time difference of a field, with the
fixed-step run's `sample_step`, against the algebraic right-hand side
(`evolution_residual`).  The two states at either end enter the differences
but are never checked themselves.  A window reads its states from a stream,
`SampleWindow.fixed_dt` from the fixed-step run itself, which hands over
every stored state with its exact stamp and the kernel evaluation at it:
the one its step already made, or for the final state one call of its
own.  So a window keeps no times and evaluates no geometry kernel, no
state's geometry is evaluated twice and no trajectory is stored.  A window
holds its five latest items, one center's stencil, so the paired checks
run in one forward pass with at most five items alive however long the
run.  The identity suite, `identity_suite`, runs the six single-flow
checks on a `FoldingWindow`, which has one center: it builds the center's
pack alone and folds every other state's differenced fields into their
time derivatives as the state arrives (`five_point_fold`, the one
arithmetic of every time difference here), so no neighbour's pack is
built; `geometry.pack_components` and `geometry.field_block` alone know
the kernel's and the pack's layout.  One builder, `residual_report`,
measures every residual tensor pointwise in the evolving induced metric
g(t); per ambient-coordinate families contribute in Frobenius over the
ambient label.

The right-hand sides and the commutation residual are component arithmetic
in index order, as in the geometry layer: each contraction loops over its
summed indices in index order (`sum_of_products`) and broadcasts over the
free ones.  They run on `components_first` arrays, where every component is
one contiguous grid array; for pack fields and covariant-layer results that
conversion copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flow import ProtocolError, fixed_dt_stream
from .geometry import (
    CurvaturePack,
    GeometryPack,
    components_first,
    components_last,
    covariant_derivative,
    curvature_gauss,
    curvature_intrinsic,
    field_block,
    geometry_packs,
    laplacian,
    pack_components,
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
    `fixed_dt` builds the window on the stream of a fixed-step run.
    `item(k)` reads the stream up to state k.  The window holds the five
    latest items, one center's stencil: it drops item j - 5 before it
    builds item j.  Reading a state no longer held, or outside the states,
    raises an IndexError that names the states held, so a window serves one
    forward pass over its centers.  Once the last state is read, the window
    lets go of the stream.
    """

    def __init__(self, stream, n_states: int, step: float, store_every: int = 1):
        if n_states < 5:
            raise ProtocolError("need at least 5 uniformly spaced states")
        self._stream = stream
        self._n_states = n_states
        self.step = step
        self.store_every = store_every
        self.dt = store_every * step
        self._held = {}  # state index -> item, of the five latest states read
        self._read = 0  # the number of states read from the stream

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
        while self._read <= k:
            self._held.pop(self._read - 5, None)
            self._held[self._read] = self._make(*next(self._stream))
            self._read += 1
            if self._read == len(self):
                self._stream = None
        if k not in self._held:
            raise IndexError(
                f"state {k} is no longer held: the window holds states "
                f"{self._read - 5} .. {self._read - 1}"
            )
        return self._held[k]

    @property
    def centers(self):
        return range(2, len(self) - 2)

    def time_derivative(self, c: int, name: str) -> np.ndarray:
        """4th-order central d/dt of the items' field called name at the
        center state c, taken afresh at each call."""
        if c not in self.centers:
            raise IndexError(f"state {c} is not a center of {self.centers}")
        return five_point_derivative(
            [getattr(self.item(j), name) for j in range(c - 2, c + 3)], self.dt
        )


class FieldRates(NamedTuple):
    """d/dt of the four pack fields that the evolution checks difference, at
    the center of a `FoldingWindow`; each is the components_last view of a
    components-first array, as the pack's field is."""

    first_derivs: np.ndarray  # grid + (A, m)
    metric: np.ndarray  # grid + (m, m)
    christoffels: np.ndarray  # grid + (m, m, m)
    second_form: np.ndarray  # grid + (A, m, m)


class FoldingWindow(SampleWindow):
    """The five states around the one center of one flow: the identity
    suite's window.  Item 2, the center, is its GeometryPack.  Every other
    state, numbered by the count of states read, is folded as it arrives
    (`_fold`) from its kernel's `pack_components` into one `field_block`;
    no pack of it is built, and the kernel is dropped, so its item is None.
    `time_derivative(2, name)` reads the last states and is the FieldRates'
    field called name, with the bits of `five_point_derivative` of the five
    packs' fields.
    """

    def __init__(self, stream, n_states: int, step: float, store_every: int = 1):
        if n_states != 5:
            raise ProtocolError(f"a folding window has 5 states, not {n_states}")
        super().__init__(stream, n_states, step, store_every)
        self._rates = self._block = None  # FieldRates, their field_block
        self._acc = []  # each component's five_point_fold, in FieldRates order

    def _make(self, states: list, kern) -> GeometryPack | None:
        k = self._read
        if k == 2:
            (geom,) = geometry_packs(states, kern)
            return geom
        self._fold(k, kern)
        return None

    def _fold(self, k: int, kern):
        """Fold state k in from its kernel evaluation kern, a batch of one,
        one `pack_components` grid array at a time into its row of the
        FieldRates' block.  State 0's components are held as they are until
        state 1 writes f0 - 8 f1 into the rows."""
        fields = pack_components(kern, 0, FieldRates._fields)
        parts = [c for _, _, components in fields for c in components]
        if self._rates is None:
            leads = [lead for _, lead, _ in fields]
            self._block, views = field_block(parts[0].shape, leads)
            self._rates = FieldRates(*views)
        self._acc = [
            five_point_fold(k, acc, f, self.dt, out)
            for acc, f, out in zip(self._acc or [None] * len(parts), parts, self._block)
        ]

    def geometry(self, k: int) -> GeometryPack:
        return self.item(k)

    def time_derivative(self, c: int, name: str) -> np.ndarray:
        if c not in self.centers:
            raise IndexError(f"state {c} is not a center of {self.centers}")
        self.item(len(self) - 1)
        return getattr(self._rates, name)


def five_point_fold(k: int, acc, f, dt: float, out=None):
    """acc once the field f of state k of five equispaced states is folded
    in, in the order k = 0 .. 4: f0 itself after state 0, f0 - 8 f1 (into
    out, or a fresh array) after state 1, and from there on in place, so
    that after state 4 acc is the 4th-order central d/dt at state 2,
    ((f0 - 8 f1) + 8 f3) - f4 over 12 dt.  State 2 does not enter."""
    if k == 0:
        return f
    if k == 1:
        return np.subtract(acc, 8 * f, out=out)
    if k == 3:
        acc += 8 * f
    elif k == 4:
        acc -= f
        acc /= 12.0 * dt
    return acc


def five_point_derivative(fields, dt: float) -> np.ndarray:
    """4th-order central d/dt at the middle of five equispaced fields: their
    `five_point_fold`, one fresh array."""
    acc = None
    for k, f in enumerate(fields):
        acc = five_point_fold(k, acc, f, dt)
    return acc


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
    window, c, identity, field, rhs_of, index_spec
) -> ResidualReport:
    """d/dt of the items' field called field, minus rhs_of(item), at the
    center c of a SampleWindow.  The center's geometry is read first, so a
    center whose geometry is gone raises before its stencil is read."""
    geom = window.geometry(c)
    rhs = rhs_of(window.item(c))
    resid = window.time_derivative(c, field) - rhs
    return residual_report(identity, geom, resid, index_spec, window.dt)


def grad_H(geom: GeometryPack) -> np.ndarray:
    """Covariant gradient of the mean curvature components [a, i]."""
    return covariant_derivative(geom.mean_curv, geom, "")


def check_dX(window: SampleWindow, center: int) -> ResidualReport:
    """d/dt of the position gradient against the gradient of H."""
    return evolution_residual(
        window, center, "evolve_position_gradient", "first_derivs", grad_H, "l"
    )


def _H_dot_h(geom: GeometryPack) -> np.ndarray:
    """sum_a H^a h^a_ij, summed over a in index order components first (H^a
    a grid array, h^a an (m, m) block of them); the grid-first view."""
    H = components_first(geom.mean_curv, 1)
    h = components_first(geom.second_form, 3)
    return components_last(sum_of_products(zip(H, h)), 2)


def metric_rhs(geom: GeometryPack) -> np.ndarray:
    return -2.0 * _H_dot_h(geom)


def check_dg(window: SampleWindow, center: int) -> ResidualReport:
    return evolution_residual(
        window, center, "evolve_metric", "metric", metric_rhs, "ll"
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


def check_dGamma(window: SampleWindow, center: int) -> ResidualReport:
    return evolution_residual(
        window, center, "evolve_connection", "christoffels", _connection_rhs, "ull"
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


def check_dh(window: SampleWindow, center: int) -> ResidualReport:
    """Evolution of the second form; the connection rate enters analytically."""
    return evolution_residual(
        window, center, "evolve_second_form", "second_form", _second_form_rhs, "ll"
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


def identity_suite(initial: Immersion, dt: float) -> list:
    """The six residual checks at the one center of a five-state fixed-step
    stream from initial at step dt, in the order check_dX, check_dg,
    check_dGamma, check_dh, check_simons, gauss_cross_check.  The evolution
    checks run first, on the center's pack and the time derivatives that
    the window folds from the other four states as they arrive, with no
    pack of theirs; then the window and its derivatives go, so the center's
    curvature is never alive beside them."""
    window = FoldingWindow.fixed_dt([initial], dt, 4)
    (c,) = window.centers
    reports = [f(window, c) for f in (check_dX, check_dg, check_dGamma, check_dh)]
    geom = window.geometry(c)
    del window
    curv = curvature_gauss(geom)
    return reports + [check_simons(geom, curv), gauss_cross_check(geom, curv)]
