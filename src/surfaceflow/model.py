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

Every energy pass starts from one fill, ``_terms``: one scratch block, holding
the covariant derivative d[i, j] = D_j u^i as one (2, 2, height, width) array
and the residual r.  Each stencil or adjoint runs once per axis on both
components, and sums and products run in place, each element's operations in
the order of the term-by-term formulas, so the layout changes no bit.

A problem builds the arrays these sums read once, at construction, into one
private, immutable bundle of plain arrays (``FlowProblem._ops``, built and
checked by ``_operands``): the grid spec, alpha, sqrt(det g), the tuple of the
six Christoffel arrays in the order of ``SurfaceGeometry.christoffel`` (whose
docstring gives the index rule), fx1, fx2, ft, w and alpha * w.  The solver's
A is the same bundle with a zero ft; a coarse bundle samples the six arrays in
that order and recomputes w from (2h)^2 rather than scaling w by 4.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .geometry import SurfaceGeometry, flat_geometry
from .grid import ScalarField, VectorField, _positive, diff_t, diff_x1, diff_x1_adjoint_array
from .grid import diff_x1_array, diff_x2, diff_x2_adjoint_array, diff_x2_array

__all__ = ["FlowProblem", "problem_from_frames", "ofc_residual", "energy", "energy_gradient"]


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """Data term derivatives, geometry and coupling weight for one frame pair.

    ``fx1``, ``fx2``, ``ft`` are the spatial and temporal derivatives of the
    intensity sequence evaluated on the grid; ``alpha``, a positive finite
    real scalar, weights the data term against the regularizer.  Construction
    builds the arrays the energy reads once, as the bundle ``_ops`` (the module
    docstring lists them, with A's and a coarse level's), and checks alpha, w
    and the data term on it.
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
        geom, data = self.geom, (self.fx1.values, self.fx2.values, self.ft.values)
        gamma = [g.values for g in geom.christoffel]
        ops = _operands(spec, self.alpha, geom.sqrt_detg.values, gamma, *data)
        object.__setattr__(self, "_ops", ops)

    @property
    def spec(self):
        return self.geom.spec


_Operands = namedtuple("_Operands", "spec alpha sqrt_detg christoffel fx1 fx2 ft w alpha_w")


def _operands(spec, alpha, sqrt_detg, christoffel, fx1, fx2, ft) -> _Operands:
    """The bundle on ``spec``, with ``christoffel`` the six arrays as one tuple in
    ``SurfaceGeometry.christoffel``'s order; ``ValueError`` unless alpha is a
    positive finite real scalar and w and the data term are finite."""
    _positive("alpha", alpha)
    w = np.multiply(sqrt_detg, spec.h * spec.h)
    if not np.all(np.isfinite(w)):
        raise ValueError("quadrature weights sqrt(det g) * h^2 are not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_w = np.multiply(w, alpha)
        data = np.sum(alpha_w * (fx1 * fx1 + fx2 * fx2 + ft * ft))
    if not np.isfinite(data):
        raise ValueError(
            "data term alpha * sqrt(det g) * h^2 * (fx1^2 + fx2^2 + ft^2) "
            "overflows; rescale the intensities"
        )
    w.flags.writeable = alpha_w.flags.writeable = False
    return _Operands(spec, alpha, sqrt_detg, tuple(christoffel), fx1, fx2, ft, w, alpha_w)


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
    return ScalarField(problem.spec, _residual_array(problem._ops, _flow_array(problem, u)))


def energy(problem: FlowProblem, u: VectorField) -> float:
    """Discrete energy value; the quantity every solver step must not increase."""
    return _energy_arrays(problem._ops, _flow_array(problem, u))


def energy_gradient(problem: FlowProblem, u: VectorField) -> VectorField:
    """Exact gradient of :func:`energy` with respect to the flow values."""
    g = _gradient_arrays(problem._ops, _flow_array(problem, u))
    return VectorField.from_arrays(problem.spec, *g)


def _flow_array(problem: FlowProblem, u: VectorField) -> np.ndarray:
    """A flow on the problem's grid as a new (2, height, width) array."""
    if u.spec != problem.spec:
        raise ValueError("flow field does not match the problem grid spec")
    return np.stack((u.u1.values, u.u2.values))


def _residual_array(ops: _Operands, u: np.ndarray, work=None, out=None) -> np.ndarray:
    r = np.multiply(ops.fx1, u[0], out=out)
    r += np.multiply(ops.fx2, u[1], out=work)
    r += ops.ft
    return r


def _terms(ops: _Operands, u: np.ndarray):
    """The scratch block of one energy pass, filled: (d, adjoint, r, work), with the
    covariant derivative d and the residual r written, and adjoint and work free."""
    h, shape = ops.spec.h, u.shape[1:]
    # One block holds all scratch: d, the second adjoint, r and the product
    # buffer.  glibc gives its heap top back to the system once more than twice
    # the largest block freed so far lies free there; as separate arrays they
    # crossed that bound on every call, so each call faulted its pages in again.
    block = np.empty((8,) + shape)
    d, adjoint, (r, work) = block[:4].reshape((2, 2) + shape), block[4:6], block[6:]
    diff_x1_array(u, h, out=d[:, 0])
    diff_x2_array(u, h, out=d[:, 1])
    for i, j, k in itertools.product(range(2), repeat=3):
        d[i, j] += np.multiply(ops.christoffel[3 * i + j + k], u[k], out=work)
    _residual_array(ops, u, work, out=r)
    return d, adjoint, r, work


def _energy_arrays(ops: _Operands, u: np.ndarray) -> float:
    """:func:`energy` on the flow held as one array."""
    d, _, r, work = _terms(ops, u)
    return _energy_sum(ops.alpha, ops.w, r, d, work)


def _energy_sum(alpha, w, r, d, work) -> float:
    """1/2 sum of w (alpha r^2 + d11^2 + d12^2 + d21^2 + d22^2), summed left to right."""
    total = np.multiply(r, alpha)
    total *= r
    for entry in d.reshape((4,) + r.shape):
        total += np.multiply(entry, entry, out=work)
    total *= w
    return 0.5 * float(np.sum(total))


def _gradient_arrays(ops: _Operands, u: np.ndarray, with_energy: bool = False):
    """Adjoint assembly of the energy gradient as one (2, height, width) array.

    With s_ij = w * d_ij, component m of the gradient is the transposed
    stencils applied to s_m1 and s_m2, plus the Christoffel multipliers
    G^k_jm s_kj regrouped by the flow component m each entry multiplies, plus
    the data term alpha w r f_m.  Every sum runs in that order, left to
    right.  ``with_energy`` also returns the energy, from the same residual
    and covariant derivative: (energy, gradient).
    """
    h = ops.spec.h
    d, adjoint, r, work = _terms(ops, u)
    if with_energy:
        value = _energy_sum(ops.alpha, ops.w, r, d, work)
    s = np.multiply(d, ops.w, out=d)  # s_ij = w d_ij, in d's place
    g = diff_x1_adjoint_array(s[:, 0], h, out=np.empty(u.shape))
    g += diff_x2_adjoint_array(s[:, 1], h, out=adjoint)
    for m, k, j in itertools.product(range(2), repeat=3):
        g[m] += np.multiply(ops.christoffel[3 * k + j + m], s[k, j], out=work)
    # alpha w r, then the data term alpha w r f_m
    r *= ops.alpha_w
    g[0] += np.multiply(r, ops.fx1, out=work)
    g[1] += np.multiply(r, ops.fx2, out=work)
    return (value, g) if with_energy else g
