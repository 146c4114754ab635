"""Dense optical flow for scalar image sequences on evolving graph surfaces.

The estimator minimizes a Horn-Schunck energy whose regularizer is the
covariant derivative induced by the surface metric, so flow smoothness is
measured along the surface rather than in the parameter plane.  Modules:

- ``grid``: field containers and finite-difference stencils
- ``geometry``: area element and Christoffel symbols of a graph surface
- ``model``: constraint residual, energy, exact discrete gradient
- ``solver``: 16-color block SOR and preconditioned conjugate gradients
- ``synth``: closed-form scenes with exact ground truth
- ``io``: float-map, flow-file, manifest, and color-coding formats
- ``cli``: the ``surfaceflow`` command
"""

from .geometry import SurfaceGeometry, build_geometry, flat_geometry
from .grid import GridSpec, ScalarField, VectorField
from .model import (
    FlowProblem,
    energy,
    energy_gradient,
    ofc_residual,
    problem_from_frames,
)
from .solver import SolverConfig, SolverReport, solve
from .synth import SyntheticScene, make_scene, render

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "SurfaceGeometry",
    "build_geometry",
    "flat_geometry",
    "FlowProblem",
    "problem_from_frames",
    "ofc_residual",
    "energy",
    "energy_gradient",
    "SolverConfig",
    "SolverReport",
    "solve",
    "SyntheticScene",
    "make_scene",
    "render",
]

__version__ = "0.1.0"
