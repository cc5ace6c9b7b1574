"""Mean curvature flow integration: dX/dt = H with explicit RK4.

The explicit scheme keeps the update an exact function of the nodal
positions, so it commutes with grid-preserving discrete symmetries to
rounding error; that property is load-bearing for the symmetry-persistence
experiment and is covered by tests.

Velocities come straight from `geometry_kernel`, which returns H and the
metric without assembling a `GeometryPack`.  A step costs four kernel
evaluations: `run_flow` evaluates the kernel once at the start of each step,
takes the adaptive dt from that metric and hands the same H to `step_rk4`
as its first stage.  The RK4 stage sum lives in `_rk4_positions`, which
works on bare position arrays.  It runs no finiteness check of its own on
a stage: the kernel's det screen fails on any non-finite stage and then
names its first non-finite node, which `_flow_kernel` turns into a
BlowUpError at the step's start time.  The new positions are checked once
per step.

The loop state of `run_flow` and of the fixed-step loop is kept in
`kernel_layout`: at m=2 the ambient axis is first in memory, so neither the
kernel nor an RK stage sum, which keeps its inputs' layout, copies it to
convert; at m=1 it stays grid first.  A stored state is a C-order copy that
shares no memory with the loop state; only the initial immersion of a
fixed-step trajectory is stored as given.

`run_fixed_dt` and `run_paired_fixed_dt` share one fixed-step loop.  The
paired run stacks the two flows' positions on a batch axis (grid + (2, A))
so that each RK stage costs one kernel evaluation for both flows; the
kernel works elementwise per batch member, so each trajectory is
bit-identical to a single-flow run.  Its trajectories record the exact
`sample_step`, store_every * dt, which stamped times from t0 != 0 miss.
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
    use a policy: `run_paired_fixed_dt` steps both at one fixed dt.
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
            raise PolicyError(f"cfl_safety must be in (0, 1], got {self.cfl_safety}")
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

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])


# Most steps one run may take: `run_flow` stops beyond it, and the CLI
# rejects a diff-system T / dt or a symmetry `steps` above it.  The
# circle-pair benchmark takes 3000 in about a second; a million steps of an
# m=2, N=32 pair take about an hour, and far beyond that the list of step
# sizes alone exhausts memory.
MAX_STEPS = 10**6


# Near a singularity the kernel's products overflow before the finiteness
# and degeneracy checks raise BlowUpError; numpy's RuntimeWarnings would only
# announce that early.  Entered once per step or run, never per kernel call.
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

    Non-finite values or a degenerate metric at a stage raise BlowUpError at
    `time`, at the first non-finite node in C order or else at the smallest
    det g.  Both checks live in the kernel's det screen, which a non-finite
    stage always fails; non-finite new positions raise at time + dt.
    """
    k2 = _flow_kernel(grid, X + 0.5 * dt * k1, time).mean_curv
    k3 = _flow_kernel(grid, X + 0.5 * dt * k2, time).mean_curv
    k4 = _flow_kernel(grid, X + dt * k3, time).mean_curv
    new = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(new)):
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


@_quiet_blow_up
def run_flow(
    initial: Immersion,
    T: float,
    policy: StepPolicy | None = None,
    sample_times=None,
) -> FlowTrajectory:
    """Integrate to time T, storing states at exactly the sample times.

    Steps are shortened when needed to land on each sample time.  With no
    explicit sample_times the initial and final states are stored; an empty
    list of them raises PolicyError, as does a step that would not advance
    time (dt below half an ulp of t) or one past MAX_STEPS.  Each stored
    state is a C-order copy of the loop state.
    """
    policy = policy or StepPolicy()
    t0 = initial.time
    if T < t0:
        raise PolicyError(f"target time {T} precedes initial time {t0}")
    if sample_times is None:
        sample_times = [t0, T]
    samples = sorted(set(float(s) for s in sample_times))
    if not samples:
        raise PolicyError("sample_times is empty: the run would store no state")
    if samples[0] < t0 - 1e-12 or samples[-1] > T + 1e-12:
        raise PolicyError("sample times must lie in [t0, T]")

    traj = FlowTrajectory()
    current = initial.with_positions(kernel_layout(initial.positions, initial.grid.m))
    for target in samples:
        while current.time < target - 1e-14:
            if traj.dt_history:
                kern = _flow_kernel(current.grid, current.positions, current.time)
            else:  # the initial immersion: degeneracy is bad input
                kern = geometry_kernel(current.grid, current.positions)
            dt = min(
                policy.step_size(kern.metric, current.grid.spacing),
                target - current.time,
            )
            k1 = kern.mean_curv
            del kern  # the other fields would stay alive through the step
            if current.time + dt == current.time:
                raise PolicyError(
                    f"step dt={dt!r} does not advance t={current.time!r}"
                )
            if len(traj.dt_history) == MAX_STEPS:
                raise PolicyError(
                    f"more than {MAX_STEPS} steps: t={current.time!r}, dt={dt!r}"
                )
            current = step_rk4(current, dt, k1)
            traj.dt_history.append(dt)
        current = current.with_positions(current.positions, time=target)
        traj.states.append(current.with_positions(current.positions.copy()))
    return traj


def run_fixed_dt(
    initial: Immersion, dt: float, n_steps: int, store_every: int = 1
) -> FlowTrajectory:
    """Fixed-step run storing every store_every-th state (incl. the initial).

    This is the protocol for identity checks and paired-flow experiments,
    which require exactly uniform sampling.
    """
    (traj,) = _fixed_dt_trajectories([initial], dt, n_steps, store_every)
    return traj


def run_paired_fixed_dt(
    initA: Immersion, initB: Immersion, dt: float, n_steps: int, store_every: int = 1
) -> tuple:
    """`run_fixed_dt` of two flows at once: (trajectory A, trajectory B).

    Both flows advance in one loop with their positions on a batch axis, so
    every RK stage evaluates the kernel once for the pair.  The initial
    states must form a pair (`require_pair`).
    """
    require_pair(initA, initB)
    return _fixed_dt_trajectories([initA, initB], dt, n_steps, store_every)


@_quiet_blow_up
def _fixed_dt_trajectories(
    initials: list, dt: float, n_steps: int, store_every: int
) -> list:
    """One FlowTrajectory per initial immersion (same grid, ambient dimension
    and time), all integrated in one RK4 loop on a batch axis."""
    if not 0.0 < dt < np.inf:
        raise PolicyError(f"dt must be positive and finite, got {dt!r}")
    if store_every < 1:
        raise PolicyError(f"store_every must be at least 1, got {store_every!r}")
    if n_steps % store_every:
        raise PolicyError("n_steps must be a multiple of store_every")
    grid, t0 = initials[0].grid, initials[0].time
    trajs = [FlowTrajectory([x], [dt] * n_steps, store_every * dt) for x in initials]
    X = kernel_layout(np.stack([imm.positions for imm in initials], axis=-2), grid.m)
    t = t0
    for k in range(n_steps):
        # degeneracy of the initial immersions is bad input, later a blow-up
        k1 = (
            geometry_kernel(grid, X) if k == 0 else _flow_kernel(grid, X, t)
        ).mean_curv
        X = _rk4_positions(grid, X, dt, k1, t)
        t += dt
        if (k + 1) % store_every == 0:
            # stamp the exact multiple to keep the stored grid of times uniform
            t = t0 + (k + 1) * dt
            for b, traj in enumerate(trajs):
                traj.states.append(Immersion(grid, X[..., b, :].copy(), float(t)))
    return trajs
