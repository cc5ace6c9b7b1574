"""Numerical laboratory for mean curvature flow in arbitrary codimension."""

from .grid import (
    GridSpec,
    Immersion,
    SymmetryAction,
    apply_symmetry,
    partial,
    second_partial,
)
from .geometry import GeometryPack, CurvaturePack, compute_geometry
from .flow import FlowTrajectory, StepPolicy, run_flow, step_rk4

__all__ = [
    "GridSpec",
    "Immersion",
    "SymmetryAction",
    "apply_symmetry",
    "partial",
    "second_partial",
    "GeometryPack",
    "CurvaturePack",
    "compute_geometry",
    "FlowTrajectory",
    "StepPolicy",
    "run_flow",
    "step_rk4",
]

__version__ = "0.1.0"
