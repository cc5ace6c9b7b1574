"""Analytic initial data and exact-solution oracles.

The closed-form solutions (shrinking circle, shrinking product torus) serve
as ground truth for the integrator: each circle factor of radius r0 obeys
r(t) = sqrt(r0^2 - 2 t) under mean curvature flow.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, Immersion


def circle(grid: GridSpec, radius: float = 1.0, center=(0.0, 0.0)) -> Immersion:
    if grid.m != 1:
        raise ValueError("circle requires m=1")
    (theta,) = grid.coordinates()
    pos = np.stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)],
        axis=-1,
    )
    return Immersion(grid, pos)


def ellipse(grid: GridSpec, a: float = 1.5, b: float = 1.0) -> Immersion:
    if grid.m != 1:
        raise ValueError("ellipse requires m=1")
    (theta,) = grid.coordinates()
    pos = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1)
    return Immersion(grid, pos)


def product_torus(grid: GridSpec, r1: float = 1.0, r2: float = 1.0) -> Immersion:
    """S^1(r1) x S^1(r2) in R^4, one angle per grid axis."""
    if grid.m != 2:
        raise ValueError("product torus requires m=2")
    u, v = grid.coordinates()
    pos = np.stack(
        [r1 * np.cos(u), r1 * np.sin(u), r2 * np.cos(v), r2 * np.sin(v)], axis=-1
    )
    return Immersion(grid, pos)


def perturbed_torus(grid: GridSpec, r1=1.0, r2=1.0, amplitude=0.1) -> Immersion:
    """Product torus with the second radius modulated by cos(u)."""
    if grid.m != 2:
        raise ValueError("perturbed torus requires m=2")
    u, v = grid.coordinates()
    r2mod = r2 + amplitude * np.cos(u)
    pos = np.stack(
        [r1 * np.cos(u), r1 * np.sin(u), r2mod * np.cos(v), r2mod * np.sin(v)],
        axis=-1,
    )
    return Immersion(grid, pos)


def exact_oracle(kind: str, params: dict, t: float, grid: GridSpec) -> Immersion:
    """Analytic flow solution sampled on the grid at time t."""
    if kind == "shrinking_circle":
        r0 = float(params.get("radius", 1.0))
        r2 = r0**2 - 2.0 * t
        if r2 <= 0:
            raise ValueError(f"t={t} is past extinction time {0.5 * r0 ** 2}")
        imm = circle(grid, np.sqrt(r2), params.get("center", (0.0, 0.0)))
    elif kind == "product_torus":
        radii = params.get("radii", (1.0, 1.0))
        shrunk = []
        for r0 in radii:
            r2 = r0**2 - 2.0 * t
            if r2 <= 0:
                raise ValueError(
                    f"t={t} is past extinction time {0.5 * r0 ** 2} of one factor"
                )
            shrunk.append(np.sqrt(r2))
        imm = product_torus(grid, *shrunk)
    else:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return imm.with_positions(imm.positions, time=t)


def low_mode_perturbation(
    imm: Immersion, amplitude: float, seed: int, max_mode: int = 3
) -> Immersion:
    """Smooth trigonometric displacement with seeded random coefficients."""
    rng = np.random.default_rng(seed)
    grid = imm.grid
    coords = grid.coordinates()
    disp = np.zeros_like(imm.positions)
    for a in range(imm.ambient_dim):
        bump = np.zeros(grid.shape)
        for axis in range(grid.m):
            for k in range(1, max_mode + 1):
                ck, sk = rng.standard_normal(2)
                bump = bump + ck * np.cos(k * coords[axis]) + sk * np.sin(
                    k * coords[axis]
                )
        disp[..., a] = bump
    scale = max(np.abs(disp).max(), 1e-30)
    return imm.with_positions(imm.positions + amplitude * disp / scale)


def measured_radius(imm: Immersion) -> float:
    """Mean distance of the nodes from their centroid."""
    c = imm.centroid()
    d = np.linalg.norm(imm.positions - c, axis=-1)
    return float(d.mean())


def measured_torus_radii(imm: Immersion) -> tuple:
    """Mean factor radii of an R^4 product-torus-like immersion."""
    if imm.ambient_dim != 4:
        raise ValueError("torus radii need ambient dimension 4")
    p = imm.positions
    r1 = float(np.linalg.norm(p[..., 0:2], axis=-1).mean())
    r2 = float(np.linalg.norm(p[..., 2:4], axis=-1).mean())
    return r1, r2
