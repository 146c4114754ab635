"""Covariant Horn-Schunck energy on a graph surface.

The flow field u = (u1, u2) lives in surface coordinates; the helpers below
take it as one (2, height, width) array.  The energy is the Riemann sum

    E(u) = 1/2 * sum_p w_p * (alpha * r_p^2 + |D u|_F^2),
    w_p  = sqrt(det g)_p * h^2,

with r the optical-flow-constraint residual fx1*u1 + fx2*u2 + ft and D the
covariant derivative D_j u^i = d_j u^i + G^i_j1 u^1 + G^i_j2 u^2 whose
Frobenius norm is the plain sum of squared entries.  The gradient here is the
exact derivative of this discrete sum (adjoint stencils, not a discretized
continuous Euler-Lagrange operator), so finite-difference checks hold to
rounding and descent methods inherit exact monotonicity.

Summations use np.sum, whose pairwise reduction is deterministic for a fixed
shape, so energies and gradients are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceGeometry, flat_geometry
from .grid import (
    ScalarField,
    VectorField,
    diff_t,
    diff_x1,
    diff_x1_adjoint_array,
    diff_x1_array,
    diff_x2,
    diff_x2_adjoint_array,
    diff_x2_array,
)

__all__ = [
    "FlowProblem",
    "problem_from_frames",
    "ofc_residual",
    "energy",
    "energy_gradient",
]


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """Data term derivatives, geometry and coupling weight for one frame pair.

    ``fx1``, ``fx2``, ``ft`` are the spatial and temporal derivatives of the
    intensity sequence evaluated on the grid; ``alpha`` weights the data term
    against the regularizer.
    """

    geom: SurfaceGeometry
    fx1: ScalarField
    fx2: ScalarField
    ft: ScalarField
    alpha: float = 10.0

    def __post_init__(self) -> None:
        spec = self.geom.spec
        for name in ("fx1", "fx2", "ft"):
            if getattr(self, name).spec != spec:
                raise ValueError(f"{name} does not match the geometry grid spec")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not np.all(np.isfinite(_quad_weights(self.geom))):
            raise ValueError("quadrature weights sqrt(det g) * h^2 are not finite")

    @property
    def spec(self):
        return self.geom.spec


def problem_from_frames(
    frame_a: ScalarField,
    frame_b: ScalarField,
    geom: SurfaceGeometry | None = None,
    alpha: float = 10.0,
    dt: float | None = None,
) -> FlowProblem:
    """Differentiate a frame pair into a :class:`FlowProblem`.

    Spatial derivatives are taken on the first frame and the time derivative
    is the forward difference (frame_b - frame_a) / dt.  Omitting ``geom``
    poses the problem on the flat plane.
    """
    if geom is None:
        geom = flat_geometry(frame_a.spec)
    if frame_a.spec != geom.spec:
        raise ValueError("frames do not match the geometry grid spec")
    return FlowProblem(
        geom=geom,
        fx1=diff_x1(frame_a),
        fx2=diff_x2(frame_a),
        ft=diff_t(frame_a, frame_b, dt),
        alpha=alpha,
    )


def ofc_residual(problem: FlowProblem, u: VectorField) -> ScalarField:
    """Pulled-back optical-flow-constraint residual fx1*u1 + fx2*u2 + ft."""
    if u.spec != problem.spec:
        raise ValueError("flow field does not match the problem grid spec")
    r = _residual_array(problem, np.stack((u.u1.values, u.u2.values)))
    return ScalarField(problem.spec, r)


def energy(problem: FlowProblem, u: VectorField) -> float:
    """Discrete energy value; the quantity every solver step must not increase."""
    if u.spec != problem.spec:
        raise ValueError("flow field does not match the problem grid spec")
    return _energy_arrays(problem, np.stack((u.u1.values, u.u2.values)))


def energy_gradient(problem: FlowProblem, u: VectorField) -> VectorField:
    """Exact gradient of :func:`energy` with respect to the flow values."""
    if u.spec != problem.spec:
        raise ValueError("flow field does not match the problem grid spec")
    g = _gradient_arrays(problem, np.stack((u.u1.values, u.u2.values)))
    return VectorField.from_arrays(problem.spec, *g)


def _quad_weights(geom: SurfaceGeometry) -> np.ndarray:
    return geom.sqrt_detg.values * (geom.spec.h * geom.spec.h)


def _residual_array(problem: FlowProblem, u: np.ndarray) -> np.ndarray:
    return problem.fx1.values * u[0] + problem.fx2.values * u[1] + problem.ft.values


def _christoffel_arrays(geom: SurfaceGeometry):
    """G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22 as plain arrays."""
    names = ("gamma1_11", "gamma1_12", "gamma1_22", "gamma2_11", "gamma2_12", "gamma2_22")
    return tuple(getattr(geom, name).values for name in names)


def _covd_arrays(geom: SurfaceGeometry, u: np.ndarray):
    h = geom.spec.h
    u1, u2 = u
    c1_11, c1_12, c1_22, c2_11, c2_12, c2_22 = _christoffel_arrays(geom)
    d11 = diff_x1_array(u1, h) + c1_11 * u1 + c1_12 * u2
    d12 = diff_x2_array(u1, h) + c1_12 * u1 + c1_22 * u2
    d21 = diff_x1_array(u2, h) + c2_11 * u1 + c2_12 * u2
    d22 = diff_x2_array(u2, h) + c2_12 * u1 + c2_22 * u2
    return d11, d12, d21, d22


def _energy_arrays(problem: FlowProblem, u: np.ndarray) -> float:
    """:func:`energy` on the flow held as one array."""
    r = _residual_array(problem, u)
    d11, d12, d21, d22 = _covd_arrays(problem.geom, u)
    w = _quad_weights(problem.geom)
    total = np.sum(
        w * (problem.alpha * r * r + d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22)
    )
    return 0.5 * float(total)


def _gradient_arrays(problem: FlowProblem, u: np.ndarray):
    """Adjoint assembly of the energy gradient as one (2, height, width) array.

    With s_ij = w * d_ij, the regularizer contributes the transposed stencils
    applied to s plus the Christoffel multipliers regrouped by the flow
    component each entry multiplies.
    """
    geom = problem.geom
    h = geom.spec.h
    w = _quad_weights(geom)
    d11, d12, d21, d22 = _covd_arrays(geom, u)
    s11, s12, s21, s22 = w * d11, w * d12, w * d21, w * d22
    c1_11, c1_12, c1_22, c2_11, c2_12, c2_22 = _christoffel_arrays(geom)

    g1 = (
        diff_x1_adjoint_array(s11, h)
        + diff_x2_adjoint_array(s12, h)
        + c1_11 * s11
        + c1_12 * s12
        + c2_11 * s21
        + c2_12 * s22
    )
    g2 = (
        diff_x1_adjoint_array(s21, h)
        + diff_x2_adjoint_array(s22, h)
        + c1_12 * s11
        + c1_22 * s12
        + c2_12 * s21
        + c2_22 * s22
    )

    awr = problem.alpha * w * _residual_array(problem, u)
    g = np.empty((2,) + w.shape)
    np.add(g1, awr * problem.fx1.values, out=g[0])
    np.add(g2, awr * problem.fx2.values, out=g[1])
    return g
