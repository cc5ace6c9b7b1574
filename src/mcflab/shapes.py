"""Analytic initial data and a seeded low-mode perturbation.

The circle and the product torus also have closed-form flows, the ground
truth the integrator is tested against: each circle factor of radius r0
obeys r(t) = sqrt(r0^2 - 2 t) under mean curvature flow.
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
