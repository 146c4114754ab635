"""Public names of the package: every export resolves, the top level is
pinned, and validation-only helpers stay out of the package."""

import dataclasses
import importlib

import pytest

import surfaceflow

MODULES = ["cli", "geometry", "grid", "io", "model", "solver", "synth"]

# validation-only helpers; they live in tests/reference.py
TEST_ONLY = (
    "surface_frame",
    "SurfaceFrame",
    "christoffel_from_metric",
    "surface_gradient_coeffs",
    "embed_tangent",
    "unit_normal",
    "tangential_surface_velocity",
    "tangent_coords",
    "intrinsic_ofc_residual",
    "covariant_derivative",
    "CovariantDerivative",
    "check_natural_bc",
    "bca_residual",
    "_advance",
    "_bilinear",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"surfaceflow.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_pinned():
    assert surfaceflow.__all__ == [
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
    assert all(hasattr(surfaceflow, attr) for attr in surfaceflow.__all__)


@pytest.mark.parametrize("name", [""] + MODULES)
def test_validation_helpers_not_in_package(name):
    module = importlib.import_module(f"surfaceflow.{name}" if name else "surfaceflow")
    assert [attr for attr in TEST_ONLY if hasattr(module, attr)] == []


def test_geometry_holds_only_what_the_energy_reads():
    # the slopes, metric and inverse metric live in reference.surface_frame
    names = [f.name for f in dataclasses.fields(surfaceflow.SurfaceGeometry)]
    assert names == [
        "spec",
        "sqrt_detg",
        "gamma1_11",
        "gamma1_12",
        "gamma1_22",
        "gamma2_11",
        "gamma2_12",
        "gamma2_22",
        "zt",
    ]
    methods = vars(surfaceflow.SurfaceGeometry).items()
    assert [k for k, v in methods if callable(v) and not k.startswith("__")] == []


def test_solver_config_holds_only_what_a_caller_sets():
    # SOR's relaxation factor is the module constant solver.OMEGA
    names = [f.name for f in dataclasses.fields(surfaceflow.SolverConfig)]
    assert names == ["method", "tol", "max_iter"]
