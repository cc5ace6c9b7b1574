"""Mean curvature flow integration: dX/dt = H with explicit RK4.

The explicit scheme keeps the update an exact function of the nodal
positions, so it commutes with grid-preserving discrete symmetries to
rounding error; that property is load-bearing for the symmetry-persistence
experiment and is covered by tests.

Velocities come straight from `geometry_kernel`, which returns H and the
metric without assembling a `GeometryPack`.  A step costs four kernel
evaluations: `adaptive_stream` evaluates the kernel once at the start of
each step, takes the adaptive dt from that metric and hands the same H to
`step_rk4` as its first stage.  The RK4 stage sum lives in
`_rk4_positions`, which works on bare position arrays.  Each step owns two
X-sized buffers, fresh per step, and builds its stage positions and the
weighted sum of its velocities in them in place, one operation at a time
in the order of the classical formula.  So the bits are those of the
expression form, kept in tests/conftest.py as the reference; a swapped
operand order keeps them, as IEEE + and * are commutative.  A step never
writes X, k1 or any kernel it hands over.  It runs no finiteness check of
its own on a stage: the kernel's det screen fails on any non-finite stage
and then names its first non-finite node, which `_flow_kernel` turns into
a BlowUpError at the step's start time.  The new positions are checked
once per step.

The loop state of the adaptive and of the fixed-step loop is kept in
`kernel_layout`: at m=2 the ambient axis is first in memory, so neither the
kernel nor an RK stage sum, which keeps its inputs' layout, copies it to
convert; at m=1 it stays grid first.  A stored state is a C-order copy that
shares no memory with the loop state; only the initial immersion of a
fixed-step trajectory is stored as given.

`fixed_dt_stream` is the one fixed-step loop.  It stacks the flows'
positions on a batch axis (grid + (B, A), B = 1 or a pair's 2) so that each
RK stage costs one kernel evaluation for all of them; the kernel works
elementwise per batch member, so each flow is bit-identical to a run of its
own.  Its hand-over rule: every stored state comes with its exact stamp
t0 + k * dt and with the kernel evaluation at it, so a consumer builds the
state's geometry without evaluating it again and reads its time from the
state.  A stored state that starts a step shares that evaluation with the
step; the final one starts none and costs one call of its own, under the
flow's rule, so a degenerate final state is a blow-up, not bad input.
Nothing is stored: the identity suite and the paired checks read the
stream as they go (`identities.SampleWindow`), and the `symmetry` verb
measures the defect of the states it records.  `run_fixed_dt` collects one
flow's states into a trajectory, which records the exact `sample_step`,
store_every * dt, which stamped times from t0 != 0 miss.

`adaptive_stream`, the adaptive loop, hands over the state at each sample
time under the same rule, with the step sizes taken since the last one; it
stays apart from the fixed-step loop, which shortens no step to land on a
sample time.  The `simulate` verb reads it; `run_flow` collects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import KernelResult, geometry_kernel, kernel_layout
from .grid import (
    DegenerateImmersionError,
    GridSpec,
    Immersion,
    NonFiniteImmersionError,
    first_nonfinite_node,
)


class BlowUpError(RuntimeError):
    """Non-finite positions or a degenerate metric appeared during the flow
    (typically near extinction)."""

    def __init__(self, time, node):
        self.time = time
        self.node = node
        super().__init__(f"flow blew up at t={time:.6g} at node {node}")


class PolicyError(ValueError):
    pass


class ProtocolError(ValueError):
    """Trajectories, or the initial data of paired flows, do not satisfy the
    sampling protocol of a check."""


def require_pair(a: Immersion, b: Immersion) -> None:
    """Raise ProtocolError unless two states of paired flows share grid,
    ambient dimension and time: equal times, as paired runs stamp them."""
    for what, x, y in (
        ("grid", a.grid, b.grid),
        ("ambient dimension", a.ambient_dim, b.ambient_dim),
        ("time", a.time, b.time),
    ):
        if x != y:
            raise ProtocolError(f"paired flows differ in {what}: {x!r} vs {y!r}")


@dataclass(frozen=True)
class StepPolicy:
    """Parabolic step-size control: dt = cfl_safety * l_min^2.

    l_min is the minimum induced grid edge length sqrt(g_ii) * h over nodes
    and axes.  fixed_dt overrides the adaptive rule.  Paired flows do not
    use a policy: `fixed_dt_stream` steps both at one fixed dt.
    """

    cfl_safety: float = 0.1
    dt_max: float = 1e-2
    fixed_dt: float | None = None

    def __post_init__(self):
        for name in ("cfl_safety", "dt_max", "fixed_dt"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise PolicyError(f"{name} must be finite, got {value!r}")
        if not 0 < self.cfl_safety <= 1:
            raise PolicyError(
                "invalid 'cfl_safety': cfl_safety must be in (0, 1], "
                f"got {self.cfl_safety}"
            )
        if self.dt_max <= 0:
            raise PolicyError("dt_max must be positive")
        if self.fixed_dt is not None and self.fixed_dt <= 0:
            raise PolicyError("fixed_dt must be positive")

    def step_size(self, metric: np.ndarray, spacing: float) -> float:
        """dt for the metric g (grid + (m, m)) on a grid of the given spacing."""
        if self.fixed_dt is not None:
            return self.fixed_dt
        gii_min = min(float(metric[..., i, i].min()) for i in range(metric.shape[-1]))
        l_min_sq = gii_min * spacing**2
        return min(self.cfl_safety * l_min_sq, self.dt_max)


@dataclass
class FlowTrajectory:
    """Time-ordered immersions plus the step sizes that produced them."""

    states: list = field(default_factory=list)
    dt_history: list = field(default_factory=list)
    sample_step: float | None = None  # store_every * dt of a fixed-step run


# Most steps one run may take: `adaptive_stream` stops beyond it, and the CLI
# rejects a diff-system T / dt or a symmetry `steps` above it.  The
# circle-pair benchmark takes 3000 in about a second; a million steps of an
# m=2, N=32 pair take about an hour, and far beyond that the list of step
# sizes alone exhausts memory.
MAX_STEPS = 10**6


# Near a singularity the kernel's products overflow before the finiteness
# and degeneracy checks raise BlowUpError; numpy's RuntimeWarnings would only
# announce that early.  Entered once per step, never per kernel call; the
# streams enter a fresh one per stored interval, never across a yield, which
# would quiet their consumer too.
_quiet_blow_up = np.errstate(over="ignore", invalid="ignore")


def _flow_kernel(grid: GridSpec, X: np.ndarray, time: float) -> KernelResult:
    """Kernel at positions the flow produced from its state at `time`:
    non-finite positions or a degenerate metric there are a blow-up of the
    flow, not bad input."""
    try:
        return geometry_kernel(grid, X)
    except (NonFiniteImmersionError, DegenerateImmersionError) as exc:
        raise BlowUpError(time, exc.node) from exc


def _rk4_positions(
    grid: GridSpec, X: np.ndarray, dt: float, k1: np.ndarray, time: float
) -> np.ndarray:
    """Positions one classical RK4 step after X (grid + batch + (A,)), the
    state at `time` whose velocity H is k1.

    The step owns two buffers, fresh per call, in the velocities' layout.
    `stage` holds each stage position in turn, (c dt) k + X for c = 1/2,
    1/2, 1.  `new` collects 2 k2 + k1, adds 2 k3 and then k4, is scaled by
    dt / 6, gets X added and is returned.  These are the operations of the
    expression form, in its order, with commuted operands; 2 k is formed as
    k + k, which is exact.  So the bits are the same.  X, k1 and the kernels
    handed to the caller are only read.

    Non-finite values or a degenerate metric at a stage raise BlowUpError at
    `time`, at the first non-finite node in C order or else at the smallest
    det g.  Both checks live in the kernel's det screen, which a non-finite
    stage always fails; non-finite new positions raise at time + dt.
    """
    stage = np.multiply(k1, 0.5 * dt)
    stage += X
    k2 = _flow_kernel(grid, stage, time).mean_curv
    new = np.add(k2, k2)
    new += k1
    np.multiply(k2, 0.5 * dt, out=stage)
    stage += X
    k3 = _flow_kernel(grid, stage, time).mean_curv
    np.multiply(k3, dt, out=stage)
    stage += X
    k4 = _flow_kernel(grid, stage, time).mean_curv
    np.add(k3, k3, out=stage)
    new += stage
    new += k4
    new *= dt / 6.0
    new += X
    if not np.logical_and.reduce(np.isfinite(new), axis=None):
        raise BlowUpError(time + dt, first_nonfinite_node(new, grid.m))
    return new


@_quiet_blow_up
def step_rk4(imm: Immersion, dt: float, k1: np.ndarray | None = None) -> Immersion:
    """One classical RK4 step of dX/dt = H; k1 is H at imm when already known.

    A degenerate metric at imm or at a stage raises BlowUpError: callers
    that start from input data pass that data's k1, the mean curvature of
    a `geometry_kernel` call, so that degenerate input stays a
    DegenerateImmersionError.
    """
    if k1 is None:
        k1 = _flow_kernel(imm.grid, imm.positions, imm.time).mean_curv
    new = _rk4_positions(imm.grid, imm.positions, dt, k1, imm.time)
    return imm.with_positions(new, time=imm.time + dt)


def adaptive_stream(
    initial: Immersion, T: float, policy: StepPolicy | None = None, sample_times=None
):
    """Generator of the states of a run to time T at exactly the sample
    times (by default t0 and T), landed on by shortened steps: the one
    adaptive loop, under the fixed-step stream's hand-over rule.  Each is
    yielded as (state, kern, dts): a C-order copy of the loop state, the
    kernel evaluation at it (the next step's first, or the final state's
    own call), and the step sizes taken since the last state.  States
    before the first step are input data; later ones are evaluated under
    the flow's rule.  Empty sample_times, a step that does not advance t
    (dt below half an ulp) or one past MAX_STEPS raise PolicyError.
    """
    policy = policy or StepPolicy()
    t0 = initial.time
    if T < t0:
        raise PolicyError(f"invalid 'T': target time {T} precedes initial time {t0}")
    if sample_times is None:
        sample_times = [t0, T]
    samples = sorted(set(float(s) for s in sample_times))
    if not samples:
        raise PolicyError("sample_times is empty: the run would store no state")
    if samples[0] < t0 - 1e-12 or samples[-1] > T + 1e-12:
        raise PolicyError("invalid 'sample_times': sample times must lie in [t0, T]")

    grid, steps, k1 = initial.grid, 0, None  # k1, dt: H and dt at current, once known

    def evaluate(state):
        if steps:
            return _flow_kernel(grid, state.positions, state.time)
        return geometry_kernel(grid, state.positions)  # input data

    current = initial.with_positions(kernel_layout(initial.positions, grid.m))
    for target in samples:
        dts = []
        with np.errstate(over="ignore", invalid="ignore"):
            while current.time < target - 1e-14:
                if k1 is None:
                    kern = evaluate(current)
                    k1, dt = kern.mean_curv, policy.step_size(kern.metric, grid.spacing)
                    del kern  # the other fields would stay alive through the step
                dt = min(dt, target - current.time)
                if current.time + dt == current.time:
                    raise PolicyError(
                        f"step dt={dt!r} does not advance t={current.time!r}"
                    )
                if steps == MAX_STEPS:
                    raise PolicyError(
                        f"more than {MAX_STEPS} steps: t={current.time!r}, dt={dt!r}"
                    )
                current = step_rk4(current, dt, k1)
                k1 = None
                dts.append(dt)
                steps += 1
            current = current.with_positions(current.positions, time=target)
            held = [evaluate(current)]  # handed over: this frame keeps k1, dt
        k1, dt = held[0].mean_curv, policy.step_size(held[0].metric, grid.spacing)
        yield current.with_positions(current.positions.copy()), held.pop(), dts


def run_flow(
    initial: Immersion, T: float, policy: StepPolicy | None = None, sample_times=None
) -> FlowTrajectory:
    """The states and step sizes of `adaptive_stream`, collected: the stored
    form that no verb keeps, which `benchmark/tracing.py` wraps by name."""
    traj = FlowTrajectory()
    for state, kern, dts in adaptive_stream(initial, T, policy, sample_times):
        del kern  # not kept alive through the next steps
        traj.states.append(state)
        traj.dt_history += dts
    return traj


def fixed_dt_stream(
    initials: list, dt: float, n_steps: int, store_every: int = 1, kern=None
):
    """Generator of the stored states of a fixed-step run, each with the
    kernel evaluation at it: the one fixed-step loop.

    The initial immersions (one flow, or a pair that passes `require_pair`)
    advance together, stacked on a batch axis, and every store_every-th
    state, the initial one included, is yielded as (states, kern): the list
    of the flows' states, stamped with the exact multiple t0 + k * dt of
    its step k, not a sum accumulated step by step, and the batched
    `KernelResult` at them (grid + (B,) batch).  A state that starts a step
    shares its kern with that step; the final state costs one call of its
    own.  A caller that has evaluated the initial states already passes
    that `geometry.stacked_kernel` result as kern, and the stream makes no
    call of its own there.  The arguments are checked before the generator
    is returned: a bad dt, n_steps, store_every or pair raises at once.
    """
    for other in initials[1:]:
        require_pair(initials[0], other)
    if not 0.0 < dt < np.inf:
        raise PolicyError(f"dt must be positive and finite, got {dt!r}")
    if n_steps < 0:
        raise PolicyError(f"n_steps must not be negative, got {n_steps!r}")
    if store_every < 1:
        raise PolicyError(f"store_every must be at least 1, got {store_every!r}")
    if n_steps % store_every:
        raise PolicyError("n_steps must be a multiple of store_every")
    # built here, so that a non-integral n_steps raises at once too
    stored = range(store_every, n_steps + 1, store_every)
    return _fixed_dt_loop(initials, dt, stored, kern)


def run_fixed_dt(
    initial: Immersion, dt: float, n_steps: int, store_every: int = 1
) -> FlowTrajectory:
    """Fixed-step run of one flow storing every store_every-th state (incl.
    the initial): the states of `fixed_dt_stream`, collected, so 4 kernel
    evaluations per step and one for the final state.

    No verb stores a fixed-step run; the checks read the stream.  This is
    the stored form that `benchmark/tracing.py` wraps by name.
    """
    traj = FlowTrajectory([], [dt] * n_steps, store_every * dt)
    for (state,), kern in fixed_dt_stream([initial], dt, n_steps, store_every):
        del kern  # not kept alive through the next steps
        traj.states.append(state)
    return traj


def _fixed_dt_loop(initials: list, dt: float, stored: range, kern):
    """The generator of `fixed_dt_stream`, stamping each stored state as it
    reaches it; stored holds the steps k of the stored states after the
    initial ones, every stored.step-th.

    The loop keeps only the velocity H of a kernel it yields: the rest is
    the consumer's to hold or drop.  Degeneracy of the initial immersions is
    bad input, later a blow-up: inside a stored interval it names the start
    time of its step, accumulated from the last stamp.  The initial states
    are yielded as given; every later state is a C-order copy of the loop
    state.
    """
    grid, B, t0 = initials[0].grid, len(initials), initials[0].time
    X = kernel_layout(np.stack([imm.positions for imm in initials], axis=-2), grid.m)
    with np.errstate(over="ignore", invalid="ignore"):
        held = [geometry_kernel(grid, X) if kern is None else kern]
    del kern  # held alone keeps it, so that it goes once handed over
    states = list(initials)
    for k in stored:
        t, k1 = states[0].time, held[0].mean_curv
        yield states, held.pop()  # handed over, so that this frame keeps k1 only
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(stored.step):
                if s:
                    k1 = _flow_kernel(grid, X, t).mean_curv
                X = _rk4_positions(grid, X, dt, k1, t)
                t += dt
            t = float(t0 + k * dt)
            states = [Immersion(grid, X[..., b, :].copy(), t) for b in range(B)]
            held.append(_flow_kernel(grid, X, t))
    yield states, held.pop()
