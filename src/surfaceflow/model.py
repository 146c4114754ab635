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

The covariant derivative is one (2, 2, height, width) array d[i, j] = D_j u^i,
and each stencil or adjoint runs once per axis on both components.  Sums and
products run in place through scratch arrays, each element's operations in
the order of the term-by-term formulas, so the layout changes no bit.
"""

from __future__ import annotations

import itertools
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
        w = _quad_weights(self.geom)
        if not np.all(np.isfinite(w)):
            raise ValueError("quadrature weights sqrt(det g) * h^2 are not finite")
        fx1, fx2, ft = self.fx1.values, self.fx2.values, self.ft.values
        with np.errstate(over="ignore", invalid="ignore"):
            data = np.sum(self.alpha * w * (fx1 * fx1 + fx2 * fx2 + ft * ft))
        if not np.isfinite(data):
            raise ValueError(
                "data term alpha * sqrt(det g) * h^2 * (fx1^2 + fx2^2 + ft^2) "
                "overflows; rescale the intensities"
            )

    @property
    def spec(self):
        return self.geom.spec


def problem_from_frames(
    frame_a: ScalarField,
    frame_b: ScalarField,
    geom: SurfaceGeometry | None = None,
    alpha: float = FlowProblem.alpha,
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
    r = _residual_array(problem, _flow_array(problem, u))
    return ScalarField(problem.spec, r)


def energy(problem: FlowProblem, u: VectorField) -> float:
    """Discrete energy value; the quantity every solver step must not increase."""
    return _energy_arrays(problem, _flow_array(problem, u))


def energy_gradient(problem: FlowProblem, u: VectorField) -> VectorField:
    """Exact gradient of :func:`energy` with respect to the flow values."""
    g = _gradient_arrays(problem, _flow_array(problem, u))
    return VectorField.from_arrays(problem.spec, *g)


def _flow_array(problem: FlowProblem, u: VectorField) -> np.ndarray:
    """A flow on the problem's grid as a new (2, height, width) array."""
    if u.spec != problem.spec:
        raise ValueError("flow field does not match the problem grid spec")
    return np.stack((u.u1.values, u.u2.values))


def _quad_weights(geom: SurfaceGeometry, out=None) -> np.ndarray:
    return np.multiply(geom.sqrt_detg.values, geom.spec.h * geom.spec.h, out=out)


def _residual_array(problem: FlowProblem, u: np.ndarray, work=None, out=None) -> np.ndarray:
    r = np.multiply(problem.fx1.values, u[0], out=out)
    r += np.multiply(problem.fx2.values, u[1], out=work)
    r += problem.ft.values
    return r


def _christoffel_table(geom: SurfaceGeometry):
    """G^i_jk as ``gamma[i][j][k]``, from 0: component i, derivative j, flow component k."""
    c = [getattr(geom, f"gamma{i}_{jk}").values for i in (1, 2) for jk in ("11", "12", "22")]
    return ((c[0], c[1]), (c[1], c[2])), ((c[3], c[4]), (c[4], c[5]))


def _covd_arrays(geom: SurfaceGeometry, u: np.ndarray, work=None, out=None) -> np.ndarray:
    """d[i, j] = D_j u^i = d_j u^i + G^i_j1 u^1 + G^i_j2 u^2 as one (2, 2, height, width) array."""
    h = geom.spec.h
    d = np.empty((2,) + u.shape) if out is None else out
    diff_x1_array(u, h, out=d[:, 0])
    diff_x2_array(u, h, out=d[:, 1])
    gamma = _christoffel_table(geom)
    for i, j, k in itertools.product(range(2), repeat=3):
        d[i, j] += np.multiply(gamma[i][j][k], u[k], out=work)
    return d


def _energy_arrays(problem: FlowProblem, u: np.ndarray) -> float:
    """:func:`energy` on the flow held as one array."""
    r, d = _residual_array(problem, u), _covd_arrays(problem.geom, u)
    return _energy_sum(problem.alpha, _quad_weights(problem.geom), r, d)


def _energy_sum(alpha, w, r, d, work=None) -> float:
    """1/2 sum of w (alpha r^2 + d11^2 + d12^2 + d21^2 + d22^2), summed left to right."""
    total = np.multiply(r, alpha)
    total *= r
    for entry in d.reshape((4,) + r.shape):
        total += np.multiply(entry, entry, out=work)
    total *= w
    return 0.5 * float(np.sum(total))


def _gradient_arrays(problem: FlowProblem, u: np.ndarray, with_energy: bool = False):
    """Adjoint assembly of the energy gradient as one (2, height, width) array.

    With s_ij = w * d_ij, component m of the gradient is the transposed
    stencils applied to s_m1 and s_m2, plus the Christoffel multipliers
    G^k_jm s_kj regrouped by the flow component m each entry multiplies, plus
    the data term alpha w r f_m.  Every sum runs in that order, left to
    right.  ``with_energy`` also returns the energy, from the same residual
    and covariant derivative: (energy, gradient).
    """
    geom = problem.geom
    h = geom.spec.h
    shape = u.shape[1:]
    # One block holds all scratch: d, the second adjoint, w, r and the product
    # buffer.  glibc gives its heap top back to the system once more than twice
    # the largest block freed so far lies free there; as separate arrays they
    # crossed that bound on every call, so each call faulted its pages in again.
    block = np.empty((9,) + shape)
    d, adjoint, (w, r, work) = block[:4].reshape((2, 2) + shape), block[4:6], block[6:]
    _quad_weights(geom, out=w)
    _covd_arrays(geom, u, work, out=d)
    _residual_array(problem, u, work, out=r)
    if with_energy:
        value = _energy_sum(problem.alpha, w, r, d, work)
    s = np.multiply(d, w, out=d)  # s_ij = w d_ij, in d's place
    g = diff_x1_adjoint_array(s[:, 0], h, out=np.empty(u.shape))
    g += diff_x2_adjoint_array(s[:, 1], h, out=adjoint)
    gamma = _christoffel_table(geom)
    for m, k, j in itertools.product(range(2), repeat=3):
        g[m] += np.multiply(gamma[k][j][m], s[k, j], out=work)
    # alpha w r, then the data term alpha w r f_m
    r *= np.multiply(w, problem.alpha, out=work)
    g[0] += np.multiply(r, problem.fx1.values, out=work)
    g[1] += np.multiply(r, problem.fx2.values, out=work)
    return (value, g) if with_energy else g
