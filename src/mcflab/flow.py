"""Mean curvature flow integration: dX/dt = H with explicit RK4.

The explicit scheme keeps the update an exact function of the nodal
positions, so it commutes with grid-preserving discrete symmetries to
rounding error; that property is load-bearing for the symmetry-persistence
experiment and is covered by tests.

Velocities come straight from `geometry_kernel`, which returns H and the
metric without assembling a `GeometryPack`.  A step costs four kernel
evaluations: `run_flow` evaluates the kernel once at the start of each step,
takes the adaptive dt from that metric and hands the same H to `step_rk4`
as its first stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import geometry_kernel
from .grid import GridSpec, Immersion


class BlowUpError(RuntimeError):
    """Non-finite positions appeared during a step (typically near extinction)."""

    def __init__(self, time, node=None):
        self.time = time
        self.node = node
        where = f" at node {node}" if node is not None else ""
        super().__init__(f"flow blew up at t={time:.6g}{where}")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class StepPolicy:
    """Parabolic step-size control: dt = cfl_safety * l_min^2.

    l_min is the minimum induced grid edge length sqrt(g_ii) * h over nodes
    and axes.  fixed_dt overrides the adaptive rule; paired-flow experiments
    must use it so both flows share identical sample times.
    """

    cfl_safety: float = 0.1
    dt_max: float = 1e-2
    fixed_dt: float | None = None

    def __post_init__(self):
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

    def append(self, imm: Immersion):
        if self.states and imm.time <= self.states[-1].time:
            raise PolicyError("trajectory times must be strictly increasing")
        self.states.append(imm)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def sample_dt(self) -> float:
        """Uniform spacing of the stored states; raises if nonuniform."""
        t = self.times
        if len(t) < 2:
            raise PolicyError("need at least two states")
        dts = np.diff(t)
        if np.any(np.abs(dts - dts[0]) > 1e-9 * max(abs(dts[0]), 1e-30)):
            raise PolicyError("stored states are not uniformly spaced")
        return float(dts[0])


def _blow_up(time, positions, m):
    node = np.argwhere(~np.isfinite(positions))[0][:m]
    return BlowUpError(time, tuple(int(i) for i in node))


def mcf_velocity(imm: Immersion) -> np.ndarray:
    """Mean curvature vector field H^a = g^ij h^a_ij at every node."""
    return geometry_kernel(imm.grid, imm.positions).mean_curv


def _velocity_of_positions(imm: Immersion, positions: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(positions)):
        raise _blow_up(imm.time, positions, imm.grid.m)
    return geometry_kernel(imm.grid, positions).mean_curv


def step_rk4(imm: Immersion, dt: float, k1: np.ndarray | None = None) -> Immersion:
    """One classical RK4 step of dX/dt = H; k1 is H at imm when already known."""
    X = imm.positions
    if k1 is None:
        k1 = _velocity_of_positions(imm, X)
    k2 = _velocity_of_positions(imm, X + 0.5 * dt * k1)
    k3 = _velocity_of_positions(imm, X + 0.5 * dt * k2)
    k4 = _velocity_of_positions(imm, X + dt * k3)
    new = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise _blow_up(imm.time + dt, new, imm.grid.m)
    return imm.with_positions(new, time=imm.time + dt)


def run_flow(
    initial: Immersion,
    T: float,
    policy: StepPolicy | None = None,
    sample_times=None,
) -> FlowTrajectory:
    """Integrate to time T, storing states at exactly the sample times.

    Steps are shortened when needed to land on each sample time.  With no
    explicit sample_times the initial and final states are stored.
    """
    policy = policy or StepPolicy()
    t0 = initial.time
    if T < t0:
        raise PolicyError(f"target time {T} precedes initial time {t0}")
    if sample_times is None:
        sample_times = [t0, T]
    samples = sorted(set(float(s) for s in sample_times))
    if samples and (samples[0] < t0 - 1e-12 or samples[-1] > T + 1e-12):
        raise PolicyError("sample times must lie in [t0, T]")

    traj = FlowTrajectory()
    current = initial
    for target in samples:
        if target < current.time - 1e-12:
            raise PolicyError(f"unreachable sample time {target}")
        while current.time < target - 1e-14:
            kern = geometry_kernel(current.grid, current.positions)
            dt = min(
                policy.step_size(kern.metric, current.grid.spacing),
                target - current.time,
            )
            current = step_rk4(current, dt, kern.mean_curv)
            traj.dt_history.append(dt)
        current = current.with_positions(current.positions, time=target)
        traj.states.append(current)
    if not traj.states:
        traj.states.append(current)
    return traj


def run_fixed_dt(
    initial: Immersion, dt: float, n_steps: int, store_every: int = 1
) -> FlowTrajectory:
    """Fixed-step run storing every store_every-th state (incl. the initial).

    This is the protocol for identity checks and paired-flow experiments,
    which require exactly uniform sampling.
    """
    if n_steps % store_every:
        raise PolicyError("n_steps must be a multiple of store_every")
    traj = FlowTrajectory()
    current = initial
    traj.states.append(current)
    for k in range(n_steps):
        current = step_rk4(current, dt)
        traj.dt_history.append(dt)
        if (k + 1) % store_every == 0:
            # stamp the exact multiple to keep the stored grid of times uniform
            current = current.with_positions(
                current.positions, time=initial.time + (k + 1) * dt
            )
            traj.states.append(current)
    return traj
