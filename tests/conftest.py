"""Shared builders for randomized fields, geometries, and flow problems."""

import numpy as np
import pytest
from hypothesis import settings

from surfaceflow.grid import GridSpec, ScalarField, VectorField
from surfaceflow.geometry import build_geometry
from surfaceflow.model import FlowProblem, energy_gradient

# the same examples on every run, and no example database written to disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_field(spec: GridSpec, rng, scale: float = 1.0) -> ScalarField:
    return ScalarField(spec, scale * rng.standard_normal((spec.height, spec.width)))


def random_vector_field(spec: GridSpec, rng, scale: float = 1.0) -> VectorField:
    return VectorField(spec, random_field(spec, rng, scale), random_field(spec, rng, scale))


def smooth_field(spec: GridSpec, rng, scale: float = 1.0, waves: int = 3) -> ScalarField:
    """Random band-limited field: a few low-frequency sinusoids, so stencil
    derivatives are well resolved."""
    x1 = np.arange(spec.width) / max(spec.width - 1, 1)
    x2 = np.arange(spec.height) / max(spec.height - 1, 1)
    xx1, xx2 = np.meshgrid(x1, x2, indexing="xy")
    out = np.zeros_like(xx1)
    for _ in range(waves):
        k1, k2 = rng.uniform(-3.0, 3.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += rng.uniform(-1.0, 1.0) * np.sin(k1 * xx1 + k2 * xx2 + phase)
    return ScalarField(spec, scale * out)


def random_heights(spec: GridSpec, rng, amplitude: float = 0.3, evolving: bool = False):
    """A smooth height field and, when ``evolving``, the next frame's (else None)."""
    z = smooth_field(spec, rng, scale=amplitude)
    if not evolving:
        return z, None
    return z, ScalarField(spec, z.values + spec.dt * smooth_field(spec, rng, 0.2 * amplitude).values)


def random_geometry(spec: GridSpec, rng, amplitude: float = 0.3, evolving: bool = False):
    return build_geometry(*random_heights(spec, rng, amplitude, evolving))


def random_problem(spec: GridSpec, rng, alpha: float = 10.0, curved: bool = False) -> FlowProblem:
    geom = random_geometry(spec, rng, amplitude=0.3) if curved else build_geometry(
        ScalarField.zeros(spec)
    )
    return FlowProblem(
        geom=geom,
        fx1=random_field(spec, rng),
        fx2=random_field(spec, rng),
        ft=random_field(spec, rng),
        alpha=alpha,
    )


def affine_parts(prob: FlowProblem):
    """The energy gradient as grad E(w) = A w + b: returns b = grad E(0) and
    the map w -> A w = grad E(w) - b, both through the public gradient."""
    zero = VectorField.zeros(prob.spec)
    b = energy_gradient(prob, zero)

    def apply(w1, w2):
        g = energy_gradient(prob, VectorField.from_arrays(prob.spec, w1, w2))
        return g.u1.values - b.u1.values, g.u2.values - b.u2.values

    return b, apply


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
