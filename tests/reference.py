"""Validation-only geometry, constraint and trajectory helpers for the tests.

These functions check the package's production path from the outside: the
graph's tangent frame and metric, which the energy never reads, the general
Levi-Civita formula against the closed-form graph Christoffel symbols, the
geometry's fields against the Hessian composition they were built on, the
moving bump's closed-form height rate and slopes, the pattern's closed-form
gradient, the motions' closed-form inverse maps, the render that samples
the pattern at every pulled-back grid point, the surface form of the
optical-flow constraint against the pulled-back residual, the natural
boundary condition of converged flows, brightness constancy along
ground-truth trajectories, the solver's probed stencil against whole-grid
applies and a square-coloring probe, its SOR sweeps against their six-sum
form, the stacked energy gradient against its term-by-term assembly, CG's
in-place loop against its allocating form, and the per-channel colour coding
against a whole-pixel blend.  Unlike
``oracles``, they build on the package's grid stencils and containers;
:func:`covariant_derivative` wraps the package's own covariant-derivative
kernel, so tests of it exercise the code the energy uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import itertools
import math

import numpy as np

from surfaceflow.geometry import SurfaceGeometry
from surfaceflow.grid import (
    GridSpec,
    ScalarField,
    VectorField,
    coordinate_arrays,
    diff_t,
    diff_x1,
    diff_x1_array,
    diff_x2,
    diff_x2_array,
)
from surfaceflow.io import COLOR_WHEEL, wheel_position
from surfaceflow.model import FlowProblem, _gradient_arrays, _terms
from surfaceflow.solver import (
    OMEGA,
    SolverConfig,
    _STENCIL,
    _block_solve,
    _coloring,
    _inverse_blocks,
    _max_norm,
    _probe,
)
from surfaceflow.synth import MovingBump


# ---------------------------------------------------------------------------
# surface frames and the general Christoffel formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurfaceFrame:
    """Slopes, metric, inverse metric and height rate of a graph surface.

    The tangent basis J has columns (1, 0, dz1) and (0, 1, dz2), and the
    metric is g = J^T J.  ``evolving`` records whether a second height frame
    was supplied (a static frame keeps zt = 0 but has no surface velocity).
    """

    spec: GridSpec
    dz1: ScalarField
    dz2: ScalarField
    g11: ScalarField
    g12: ScalarField
    g22: ScalarField
    detg: ScalarField
    sqrt_detg: ScalarField
    ginv11: ScalarField
    ginv12: ScalarField
    ginv22: ScalarField
    zt: ScalarField
    evolving: bool


def surface_frame(
    z: ScalarField, z_next: ScalarField | None = None, dt: float | None = None
) -> SurfaceFrame:
    """The frame of the graph of ``z`` from the same slope stencils and the
    same det g as :func:`surfaceflow.geometry.build_geometry`; ``zt`` is the
    time difference of ``(z, z_next)``, zero without ``z_next``."""
    spec = z.spec
    a1 = diff_x1_array(z.values, spec.h)
    a2 = diff_x2_array(z.values, spec.h)
    g11 = 1.0 + a1 * a1
    g12 = a1 * a2
    g22 = 1.0 + a2 * a2
    detg = 1.0 + a1 * a1 + a2 * a2
    zt = ScalarField.zeros(spec) if z_next is None else diff_t(z, z_next, dt)
    wrap = lambda a: ScalarField(spec, a)
    return SurfaceFrame(
        spec=spec,
        dz1=wrap(a1),
        dz2=wrap(a2),
        g11=wrap(g11),
        g12=wrap(g12),
        g22=wrap(g22),
        detg=wrap(detg),
        sqrt_detg=wrap(np.sqrt(detg)),
        ginv11=wrap(g22 / detg),
        ginv12=wrap(-g12 / detg),
        ginv22=wrap(g11 / detg),
        zt=zt,
        evolving=z_next is not None,
    )


def surface_gradient_coeffs(
    frame: SurfaceFrame, fx1: ScalarField, fx2: ScalarField
) -> VectorField:
    """Coefficients g^-1 grad(f); the embedded surface gradient is J times this."""
    if fx1.spec != frame.spec or fx2.spec != frame.spec:
        raise ValueError("data derivatives must share the frame grid spec")
    c1 = frame.ginv11.values * fx1.values + frame.ginv12.values * fx2.values
    c2 = frame.ginv12.values * fx1.values + frame.ginv22.values * fx2.values
    return VectorField.from_arrays(frame.spec, c1, c2)


def embed_tangent(frame: SurfaceFrame, u: VectorField) -> np.ndarray:
    """Push coefficients through J; columns of J are (1,0,d1 z), (0,1,d2 z).

    Returns an array of shape (height, width, 3).
    """
    if u.spec != frame.spec:
        raise ValueError("vector field must share the frame grid spec")
    a1, a2 = u.u1.values, u.u2.values
    out = np.empty(frame.spec.shape + (3,))
    out[..., 0] = a1
    out[..., 1] = a2
    out[..., 2] = a1 * frame.dz1.values + a2 * frame.dz2.values
    return out


def unit_normal(frame: SurfaceFrame) -> np.ndarray:
    """Upward unit normal (-d1 z, -d2 z, 1) / sqrt(det g), shape (H, W, 3)."""
    inv = 1.0 / frame.sqrt_detg.values
    out = np.empty(frame.spec.shape + (3,))
    out[..., 0] = -frame.dz1.values * inv
    out[..., 1] = -frame.dz2.values * inv
    out[..., 2] = inv
    return out


def tangential_surface_velocity(frame: SurfaceFrame) -> np.ndarray:
    """Projection of the parametrization velocity (0, 0, zt) onto the tangent plane."""
    if not frame.evolving:
        raise ValueError("frame was built static; no surface velocity available")
    xdot = np.zeros(frame.spec.shape + (3,))
    xdot[..., 2] = frame.zt.values
    n = unit_normal(frame)
    normal_part = np.sum(xdot * n, axis=-1)
    return xdot - normal_part[..., None] * n


def tangent_coords(frame: SurfaceFrame, vectors: np.ndarray) -> VectorField:
    """Coefficients of the tangential part of per-point 3-vectors in the basis J.

    Solves g c = J^T v pointwise; any normal component of ``v`` is annihilated
    by J^T and therefore ignored.
    """
    if vectors.shape != frame.spec.shape + (3,):
        raise ValueError(
            f"expected per-point 3-vectors of shape {frame.spec.shape + (3,)}, "
            f"got {vectors.shape}"
        )
    p1 = vectors[..., 0] + vectors[..., 2] * frame.dz1.values
    p2 = vectors[..., 1] + vectors[..., 2] * frame.dz2.values
    c1 = frame.ginv11.values * p1 + frame.ginv12.values * p2
    c2 = frame.ginv12.values * p1 + frame.ginv22.values * p2
    return VectorField.from_arrays(frame.spec, c1, c2)


def christoffel_from_metric(
    g11: ScalarField, g12: ScalarField, g22: ScalarField
) -> dict[tuple[int, int, int], ScalarField]:
    """Levi-Civita symbols from metric derivatives.

    Evaluates 0.5 * sum_m g^{mi} (d_j g_km + d_k g_mj - d_m g_jk) with the
    same central/one-sided stencils used everywhere else.  Returns the six
    symbols keyed by (i, j, k) with j <= k.  Boundary-adjacent values are
    low-order; comparisons against the closed graph form should stay two or
    more points away from the boundary.
    """
    spec = g11.spec
    if g12.spec != spec or g22.spec != spec:
        raise ValueError("metric components must share one grid spec")
    g = {(1, 1): g11.values, (1, 2): g12.values, (2, 1): g12.values, (2, 2): g22.values}
    det = g11.values * g22.values - g12.values * g12.values
    ginv = {
        (1, 1): g22.values / det,
        (1, 2): -g12.values / det,
        (2, 1): -g12.values / det,
        (2, 2): g11.values / det,
    }
    d = {}
    for (j, k), comp in g.items():
        d[(1, j, k)] = diff_x1_array(comp, spec.h)
        d[(2, j, k)] = diff_x2_array(comp, spec.h)

    out: dict[tuple[int, int, int], ScalarField] = {}
    for i in (1, 2):
        for j, k in ((1, 1), (1, 2), (2, 2)):
            acc = np.zeros(spec.shape)
            for m in (1, 2):
                acc += ginv[(m, i)] * (d[(j, k, m)] + d[(k, m, j)] - d[(m, j, k)])
            out[(i, j, k)] = ScalarField(spec, 0.5 * acc)
    return out


def termwise_diff2_x2(values: np.ndarray, h: float) -> np.ndarray:
    """The second x2 difference on one (height, width) array, as the package
    wrote it before it took leading axes; boundary rows reuse the nearest
    interior stencil."""
    out = np.empty_like(values)
    h2 = h * h
    out[1:-1, :] = (values[2:, :] - 2.0 * values[1:-1, :] + values[:-2, :]) / h2
    out[0, :] = (values[2, :] - 2.0 * values[1, :] + values[0, :]) / h2
    out[-1, :] = (values[-1, :] - 2.0 * values[-2, :] + values[-3, :]) / h2
    return out


def hessian(field: ScalarField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Second central differences (d11, d12, d22); d12 = diff_x2(diff_x1(.))
    also stands for d21.  The package's composition before ``build_geometry``
    took d12 from its slope; d11 differentiates the transpose."""
    h = field.spec.h
    d11 = ScalarField(field.spec, termwise_diff2_x2(field.values.T, h).T)
    d22 = ScalarField(field.spec, termwise_diff2_x2(field.values, h))
    return d11, diff_x2(diff_x1(field)), d22


def hessian_geometry(
    z: ScalarField, z_next: ScalarField | None = None, dt: float | None = None
) -> SurfaceGeometry:
    """:func:`surfaceflow.geometry.build_geometry` as it was written over
    :func:`hessian`, against which its fields are checked bit for bit."""
    spec = z.spec
    a1 = diff_x1_array(z.values, spec.h)
    a2 = diff_x2_array(z.values, spec.h)
    z11, z12, z22 = (d.values for d in hessian(z))
    detg = 1.0 + a1 * a1 + a2 * a2
    zt = ScalarField.zeros(spec) if z_next is None else diff_t(z, z_next, dt)
    wrap = lambda a: ScalarField(spec, a)
    return SurfaceGeometry(
        spec=spec,
        sqrt_detg=wrap(np.sqrt(detg)),
        gamma1_11=wrap(a1 * z11 / detg),
        gamma1_12=wrap(a1 * z12 / detg),
        gamma1_22=wrap(a1 * z22 / detg),
        gamma2_11=wrap(a2 * z11 / detg),
        gamma2_12=wrap(a2 * z12 / detg),
        gamma2_22=wrap(a2 * z22 / detg),
        zt=zt,
    )


def bump_height_t(surface, x1, x2, t):
    """Closed-form height rate dz/dt of a ``synth.MovingBump``."""
    r1, r2 = _bump_offsets(surface, x1, x2, t)
    inv = 1.0 / (surface.sigma * surface.sigma)
    return surface.height(x1, x2, t) * (r1 * surface.drift[0] + r2 * surface.drift[1]) * inv


def bump_height_grad(surface, x1, x2, t):
    """Closed-form slopes (dz/dx1, dz/dx2) of a ``synth.MovingBump``."""
    r1, r2 = _bump_offsets(surface, x1, x2, t)
    inv = 1.0 / (surface.sigma * surface.sigma)
    bump = surface.height(x1, x2, t)
    return -bump * r1 * inv, -bump * r2 * inv


def _bump_offsets(surface, x1, x2, t):
    return (
        x1 - (surface.center[0] + surface.drift[0] * t),
        x2 - (surface.center[1] + surface.drift[1] * t),
    )


def pattern_grad(pattern, x1, x2):
    """Closed-form gradient (dF/dx1, dF/dx2) of a ``synth.GaussianPattern``."""
    shape = np.broadcast(x1, x2).shape
    g1 = np.zeros(shape)
    g2 = np.zeros(shape)
    for amp, c1, c2, sigma in pattern.components:
        inv = 1.0 / (sigma * sigma)
        q = (x1 - c1) ** 2 + (x2 - c2) ** 2
        e = amp * np.exp(-q * inv / 2.0)
        g1 = g1 - e * (x1 - c1) * inv
        g2 = g2 - e * (x2 - c2) * inv
    return g1, g2


def translation_inverse(motion, x1, x2, t):
    """The closed-form inverse map of a ``synth.Translation``: x - v t."""
    return x1 - motion.v1 * t, x2 - motion.v2 * t


def rotation_inverse(motion, x1, x2, t):
    """The closed-form inverse map of a ``synth.Rotation``: rotation by -omega t."""
    angle = -motion.omega * t
    c, s = math.cos(angle), math.sin(angle)
    r1 = x1 - motion.center[0]
    r2 = x2 - motion.center[1]
    return motion.center[0] + c * r1 - s * r2, motion.center[1] + s * r1 + c * r2


def sampled_render(scene):
    """``synth.render`` by pulling every sample point back: (frames, heights, truth).

    Frame k sums the pattern's Gaussians as exp(-q / (2 sigma^2)) of squared
    distances q at beta(x, -t_k), over the full coordinate grid, and height
    and velocity are built for every frame, a moving bump's height likewise
    from its summed squared offsets.  ``render`` carries the centres forward
    to beta(c, t_k) instead and takes each Gaussian as a product of one
    exponential per axis; for rigid motions the two agree to a few ulps.
    """
    spec = scene.spec
    x1, x2 = coordinate_arrays(spec, scene.origin)
    rng = np.random.default_rng(scene.seed)
    frames, heights, truth = [], [], []
    for k in range(scene.frame_count):
        t = k * spec.dt
        # beta(x, -t) has the closed-form inverse's bits: IEEE products are
        # sign-symmetric and x - y is x + (-y), so x + v (-t) == x - v t and
        # omega (-t) == (-omega) t, also at t = 0 where -t is -0.0 (x + (-0.0) is x)
        a1, a2 = scene.motion.map(x1, x2, -t)
        values = summed_pattern(scene.pattern, a1, a2)
        if scene.noise_sigma > 0:
            values = values + rng.normal(0.0, scene.noise_sigma, size=values.shape)
        frames.append(ScalarField(spec, values))
        if isinstance(scene.surface, MovingBump):
            r1, r2 = _bump_offsets(scene.surface, x1, x2, t)
            sigma = scene.surface.sigma
            height = scene.surface.amplitude * np.exp(-(r1 * r1 + r2 * r2) / (2.0 * sigma * sigma))
        else:
            height = scene.surface.height(x1, x2, t)
        heights.append(ScalarField(spec, height))
        truth.append(VectorField.from_arrays(spec, *scene.motion.velocity(x1, x2, t)))
    return frames, heights, truth


def summed_pattern(pattern, x1, x2):
    """A ``synth.GaussianPattern`` with each Gaussian's squared distances summed
    inside one exponential."""
    out = np.full(np.broadcast(x1, x2).shape, pattern.base)
    for amp, c1, c2, sigma in pattern.components:
        q = (x1 - c1) ** 2 + (x2 - c2) ** 2
        out = out + amp * np.exp(-q / (2.0 * sigma * sigma))
    return out


# ---------------------------------------------------------------------------
# constraint residual and covariant derivative
# ---------------------------------------------------------------------------


def intrinsic_ofc_residual(
    frame: SurfaceFrame,
    fx1: ScalarField,
    fx2: ScalarField,
    f_param_t: ScalarField,
    v_tan_coeffs: VectorField,
) -> ScalarField:
    """Surface form of the constraint residual for an absolute velocity field.

    ``v_tan_coeffs`` holds coordinates (in the tangent basis J) of the data's
    absolute tangential velocity: motion relative to space, not to the
    moving parametrization.  The residual is

        <grad_M f, J v> + (f_param_t - <grad_M f, xdot>),

    with grad_M f the embedded surface gradient, xdot = (0, 0, zt) the
    parametrization velocity, and all inner products taken in ambient
    3-space on embedded vectors; the bracketed term is the normal time
    derivative of the data.  Adding the tangential coordinates of xdot to
    the parametric flow u makes this equal the pulled-back residual
    identically, so a static surface (zt = 0) reduces it to
    :func:`surfaceflow.model.ofc_residual`.
    """
    spec = frame.spec
    for name, field in (("fx1", fx1), ("fx2", fx2), ("f_param_t", f_param_t)):
        if field.spec != spec:
            raise ValueError(f"{name} does not match the frame grid spec")
    if v_tan_coeffs.spec != spec:
        raise ValueError("velocity field does not match the frame grid spec")
    grad3 = embed_tangent(frame, surface_gradient_coeffs(frame, fx1, fx2))
    v3 = embed_tangent(frame, v_tan_coeffs)
    advect = np.sum(grad3 * v3, axis=-1)
    # parametrization velocity (0, 0, zt): only the third component survives
    grad_dot_xdot = grad3[..., 2] * frame.zt.values
    return ScalarField(spec, advect + f_param_t.values - grad_dot_xdot)


@dataclass(frozen=True, eq=False)
class CovariantDerivative:
    """Entries d_ij = D_j u^i of the covariant derivative of a vector field."""

    d11: ScalarField
    d12: ScalarField
    d21: ScalarField
    d22: ScalarField


def covariant_derivative(geom: SurfaceGeometry, u: VectorField) -> CovariantDerivative:
    """All four entries D_j u^i on the grid."""
    if u.spec != geom.spec:
        raise ValueError("vector field does not match the geometry grid spec")
    zero = ScalarField.zeros(geom.spec)
    ops = FlowProblem(geom, zero, zero, zero)._ops
    (d11, d12), (d21, d22) = _terms(ops, np.stack((u.u1.values, u.u2.values)))[0]
    wrap = lambda a: ScalarField(geom.spec, a)
    return CovariantDerivative(wrap(d11), wrap(d12), wrap(d21), wrap(d22))


def check_natural_bc(geom: SurfaceGeometry, u: VectorField) -> ScalarField:
    """Boundary residual of the natural boundary condition, per point.

    The energy's natural boundary condition is D_1 u^i = 0 on the two
    x1-extreme columns and D_2 u^i = 0 on the two x2-extreme rows, with the
    derivative taken one-sided along the edge normal (exactly what the
    stencils already do at the boundary).  Returned field: zero in the
    interior, max-abs over flow components at each boundary point, max over
    both conditions at corners.  Minimizers of the discrete energy satisfy
    the condition to first order in the grid spacing.
    """
    cd = covariant_derivative(geom, u)
    n1 = np.maximum(np.abs(cd.d11.values), np.abs(cd.d21.values))
    n2 = np.maximum(np.abs(cd.d12.values), np.abs(cd.d22.values))
    out = np.zeros(geom.spec.shape)
    out[:, 0] = n1[:, 0]
    out[:, -1] = n1[:, -1]
    out[0, :] = np.maximum(out[0, :], n2[0, :])
    out[-1, :] = np.maximum(out[-1, :], n2[-1, :])
    return ScalarField(geom.spec, out)


# ---------------------------------------------------------------------------
# the energy gradient term by term
# ---------------------------------------------------------------------------


def termwise_x2(values: np.ndarray, h: float) -> np.ndarray:
    """The x2 stencil on one (height, width) array, as the package wrote it
    before its stencils took leading axes and output arrays."""
    out = np.empty_like(values)
    out[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * h)
    out[0, :] = (values[1, :] - values[0, :]) / h
    out[-1, :] = (values[-1, :] - values[-2, :]) / h
    return out


def termwise_x1(values: np.ndarray, h: float) -> np.ndarray:
    """:func:`termwise_x2` along x1, on the transpose."""
    return termwise_x2(values.T, h).T


def scatter_x2_adjoint(s: np.ndarray, h: float) -> np.ndarray:
    """Transpose of the x2 stencil on one (height, width) array, scattered
    term by term into zeros: the package's adjoint before it gathered rows."""
    out = np.zeros_like(s)
    c = 1.0 / (2.0 * h)
    out[2:, :] += s[1:-1, :] * c
    out[:-2, :] -= s[1:-1, :] * c
    out[1, :] += s[0, :] / h
    out[0, :] -= s[0, :] / h
    out[-1, :] += s[-1, :] / h
    out[-2, :] -= s[-1, :] / h
    return out


def scatter_x1_adjoint(s: np.ndarray, h: float) -> np.ndarray:
    """:func:`scatter_x2_adjoint` along x1, on the transpose."""
    return scatter_x2_adjoint(s.T, h).T


def termwise_covd(ops, u: np.ndarray):
    """d11, d12, d21, d22 of the (2, height, width) flow, one array per entry,
    from a problem's bundle of energy arrays."""
    h = ops.spec.h
    u1, u2 = u
    c1_11, c1_12, c1_22, c2_11, c2_12, c2_22 = _christoffel_values(ops)
    d11 = termwise_x1(u1, h) + c1_11 * u1 + c1_12 * u2
    d12 = termwise_x2(u1, h) + c1_12 * u1 + c1_22 * u2
    d21 = termwise_x1(u2, h) + c2_11 * u1 + c2_12 * u2
    d22 = termwise_x2(u2, h) + c2_12 * u1 + c2_22 * u2
    return d11, d12, d21, d22


def termwise_gradient(ops, u: np.ndarray, with_energy: bool = False):
    """The energy gradient with every term in its own array and each
    adjoint scattered into zeros: the package's gradient, operation for
    operation and in the same order, before it wrote through scratch arrays.
    It reads a problem's bundle of energy arrays but computes w and alpha * w
    itself, from sqrt(det g), h and alpha, as the package did per apply."""
    h = ops.spec.h
    w = ops.sqrt_detg * (h * h)
    d11, d12, d21, d22 = termwise_covd(ops, u)
    s11, s12, s21, s22 = w * d11, w * d12, w * d21, w * d22
    c1_11, c1_12, c1_22, c2_11, c2_12, c2_22 = _christoffel_values(ops)
    g1 = (
        scatter_x1_adjoint(s11, h)
        + scatter_x2_adjoint(s12, h)
        + c1_11 * s11
        + c1_12 * s12
        + c2_11 * s21
        + c2_12 * s22
    )
    g2 = (
        scatter_x1_adjoint(s21, h)
        + scatter_x2_adjoint(s22, h)
        + c1_12 * s11
        + c1_22 * s12
        + c2_12 * s21
        + c2_22 * s22
    )
    fx1, fx2 = ops.fx1, ops.fx2
    r = fx1 * u[0] + fx2 * u[1] + ops.ft
    awr = ops.alpha * w * r
    g = np.empty((2,) + w.shape)
    np.add(g1, awr * fx1, out=g[0])
    np.add(g2, awr * fx2, out=g[1])
    if with_energy:
        total = np.sum(
            w * (ops.alpha * r * r + d11 * d11 + d12 * d12 + d21 * d21 + d22 * d22)
        )
        return 0.5 * float(total), g
    return g


def _christoffel_values(ops):
    """G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22: the bundle's tuple, in its order."""
    return ops.christoffel


def a_bundle(problem: FlowProblem):
    """A's bundle, as the solver builds it: the problem's bundle with a zero ft."""
    return problem._ops._replace(ft=np.zeros(problem.spec.shape))


def allocating_cg_steps(homogeneous, g, u):
    """The solver's CG steps with every vector update allocating its result
    and z and p sharing one array until the first direction update: the
    package's loop before it updated in place."""
    diagonal, off_diagonal = _inverse_blocks(_probe(homogeneous, _STENCIL[:1])[0])

    def precondition(r):
        return diagonal * r + off_diagonal * r[::-1]

    def dot(x, y):
        xy = x * y
        return float(np.sum(xy[0]) + np.sum(xy[1]))

    r = -g
    p = z = precondition(r)
    rz = dot(r, z)
    while True:
        q = _gradient_arrays(homogeneous, p)
        p_dot_q = dot(p, q)
        if p_dot_q <= 0.0:
            return
        step = rz / p_dot_q
        u += step * p
        r -= step * q
        yield float(np.max(np.abs(r)))
        z = precondition(r)
        rz_next = dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next


# ---------------------------------------------------------------------------
# the probed stencil form of the solver's operator
# ---------------------------------------------------------------------------


def square_probe(homogeneous, offsets) -> np.ndarray:
    """The solver's probe with a square coloring: the same c[d, i, k] array,
    read from the 2 p^2 applies of the (row mod p, col mod p) coloring whose
    period p is the smallest at which q + d is the only stencil point of q in
    its color (5 for the whole stencil, 3 for the diagonal)."""
    period = next(
        p
        for p in itertools.count(1)
        if all(
            (s[0] - d[0]) % p or (s[1] - d[1]) % p
            for d in offsets
            for s in _STENCIL
            if s != d
        )
    )
    shape = homogeneous.spec.shape
    coeffs = np.empty((len(offsets), 2, 2) + shape)
    for a in range(period):
        for c in range(period):
            for k in range(2):
                e = np.zeros((2,) + shape)
                e[k, a::period, c::period] = 1.0
                y = _gradient_arrays(homogeneous, e)
                for n, (dr, dc) in enumerate(offsets):
                    rows = slice((a - dr) % period, None, period)
                    cols = slice((c - dc) % period, None, period)
                    coeffs[n, :, k, rows, cols] = y[:, rows, cols]
    return coeffs


def stencil_apply(coeffs: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    """(A u)_i(q) = sum over d, k of coeffs[d, i, k](q) u_k(q + d) on the whole
    grid, for the offsets d of the solver's stencil and u zero off the grid."""
    height, width = u1.shape
    pad = np.zeros((2, height + 4, width + 4))
    pad[0, 2:-2, 2:-2] = u1
    pad[1, 2:-2, 2:-2] = u2
    out = np.zeros((2, height, width))
    for c, (dr, dc) in zip(coeffs, _STENCIL):
        shifted = pad[:, 2 + dr : 2 + dr + height, 2 + dc : 2 + dc + width]
        for i in range(2):
            for k in range(2):
                out[i] += c[i, k] * shifted[k]
    return out[0], out[1]


def full_apply_sor(problem: FlowProblem, config: SolverConfig, u1: np.ndarray, u2: np.ndarray):
    """Exact block SOR over the colors (row + col) mod 3 that recomputes the
    whole gradient after every color update: the solver's SOR before its colors
    read their residuals off the probed stencil.  Sweeps at least once from
    (u1, u2), updated in place; returns (converged, sweeps, u1, u2, gradient
    max-norm)."""
    (i11, i22), i12 = _inverse_blocks(_probe(a_bundle(problem), _STENCIL[:1])[0])
    g1, g2 = _gradient_arrays(problem._ops, np.stack((u1, u2)))
    omega = 1.9  # the solver's relaxation factor, stated here on its own
    color = np.add.outer(np.arange(u1.shape[0]), np.arange(u1.shape[1])) % 3
    converged = False
    res = np.inf
    for sweeps in range(1, config.max_iter + 1):
        for a in range(3):
            sel = color == a
            gb1 = g1[sel]
            gb2 = g2[sel]
            u1[sel] -= omega * (i11[sel] * gb1 + i12[sel] * gb2)
            u2[sel] -= omega * (i12[sel] * gb1 + i22[sel] * gb2)
            g1, g2 = _gradient_arrays(problem._ops, np.stack((u1, u2)))
        res = float(max(np.max(np.abs(g1)), np.max(np.abs(g2))))
        if res <= config.tol:
            converged = True
            break
    return converged, sweeps, u1, u2, res


def regathering_sor_steps(homogeneous, g, u):
    """The solver's SOR steps with six gather-and-sum residuals per sweep, one
    for each color's update and one for each color after the sweep, and each
    update written through a (component, point) index: the package's loop
    before a sweep reused color 0's residual and took the last color's from
    its update."""
    coeffs = _probe(homogeneous, _STENCIL)
    height, width = homogeneous.spec.shape
    flow = np.zeros((2, height + 4, width + 4))
    flow[:, 2:-2, 2:-2] = u

    # the points color by color, row-major within a color, for the coefficients
    # (permuted in place), b = g - A u, the inverted blocks and idx, the flat
    # index into a padded flow component of each point's sample at each offset
    color = _coloring((height, width), _STENCIL[:1])[2].ravel()
    order = np.argsort(color, kind="stable")
    for part in coeffs.reshape(len(_STENCIL), 4, -1):
        part[...] = part.take(order, axis=1)
    coeffs = coeffs.reshape(len(_STENCIL), 2, 2, -1)
    diagonal, off_diagonal = _inverse_blocks(coeffs[0])
    offset = np.array([dr * (width + 4) + dc for dr, dc in _STENCIL])
    idx = np.arange(flow[0].size).reshape(flow[0].shape)[2:-2, 2:-2].take(order) + offset[:, None]
    samples = flow.reshape(2, -1)
    b = g.reshape(2, -1).take(order, axis=1)
    b -= np.einsum("dikn,kdn->in", coeffs, samples.take(idx, axis=1))
    bounds = np.cumsum(np.bincount(color))[:-1]
    del color, order
    split = (np.split(x, bounds, axis=-1) for x in (coeffs, idx, b, diagonal, off_diagonal))
    colors = list(zip(*split))

    def residual(coeff, index, b_color):
        return b_color + np.einsum("dikn,kdn->in", coeff, samples.take(index, axis=1))

    while True:
        # offset (0, 0) comes first, so index[0] holds each of the color's points once
        for coeff, index, b_color, *blocks in colors:
            samples[:, index[0]] -= OMEGA * _block_solve(*blocks, residual(coeff, index, b_color))
        u[...] = flow[:, 2:-2, 2:-2]
        yield max(_max_norm(residual(*color[:3])) for color in colors)


# ---------------------------------------------------------------------------
# the colour wheel
# ---------------------------------------------------------------------------


def broadcast_colorize(u1: np.ndarray, u2: np.ndarray, max_magnitude: float) -> np.ndarray:
    """The package's colour coding as a blend of whole (height, width, 3) wheel
    rows, against which its per-channel lookups are checked byte for byte."""
    rad = np.hypot(u1, u2)
    fk = wheel_position(u1, u2)
    k0 = np.floor(fk).astype(int)
    k1 = (k0 + 1) % len(COLOR_WHEEL)
    f = fk - k0
    col = (1.0 - f)[..., None] * COLOR_WHEEL[k0] + f[..., None] * COLOR_WHEEL[k1]
    radn = np.clip(rad / max_magnitude, 0.0, 1.0)
    col = 255.0 - radn[..., None] * (255.0 - col)
    return np.floor(col).astype(np.uint8)


# ---------------------------------------------------------------------------
# brightness constancy along ground-truth trajectories
# ---------------------------------------------------------------------------


def bca_residual(frames, truth, spec: GridSpec, origin=(0.0, 0.0)) -> float:
    """Worst brightness-constancy violation along trajectories of the truth flow.

    Trajectories start at the grid points of frame 0 and are advanced one
    frame step at a time through the per-frame velocity fields (classic
    Runge-Kutta with bilinearly interpolated, time-averaged velocities, so
    integration error is far below interpolation error for smooth motions).
    At every frame the current frame is sampled bilinearly at the trajectory
    positions and compared with frame 0; positions outside the grid are
    skipped.  For noise-free renders the result is pure interpolation error,
    zero when trajectories land on grid points.
    """
    if len(frames) != len(truth):
        raise ValueError("frames and truth must have equal length")
    x1, x2 = coordinate_arrays(spec, origin)
    p1, p2 = x1.copy(), x2.copy()
    f0 = frames[0].values
    worst = 0.0
    for k in range(1, len(frames)):
        p1, p2 = _advance(truth[k - 1], truth[k], p1, p2, spec, origin)
        values, inside = _bilinear(frames[k], p1, p2, origin)
        if np.any(inside):
            gap = np.abs(values - f0)
            worst = max(worst, float(np.max(gap[inside])))
    return worst


def _advance(truth_a, truth_b, p1, p2, spec, origin):
    """One RK4 step of dt through velocity fields given at the step endpoints."""

    def vel(field, q1, q2):
        v1, _ = _bilinear(field.u1, q1, q2, origin)
        v2, _ = _bilinear(field.u2, q1, q2, origin)
        return v1, v2

    def mid(q1, q2):
        a1, a2 = vel(truth_a, q1, q2)
        b1, b2 = vel(truth_b, q1, q2)
        return 0.5 * (a1 + b1), 0.5 * (a2 + b2)

    dt = spec.dt
    k1 = vel(truth_a, p1, p2)
    k2 = mid(p1 + 0.5 * dt * k1[0], p2 + 0.5 * dt * k1[1])
    k3 = mid(p1 + 0.5 * dt * k2[0], p2 + 0.5 * dt * k2[1])
    k4 = vel(truth_b, p1 + dt * k3[0], p2 + dt * k3[1])
    q1 = p1 + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    q2 = p2 + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return q1, q2


def _bilinear(field: ScalarField, x1: np.ndarray, x2: np.ndarray, origin):
    """Sample a field at arbitrary points; returns (values, in_domain_mask)."""
    spec = field.spec
    fx = (x1 - origin[0]) / spec.h
    fy = (x2 - origin[1]) / spec.h
    inside = (fx >= 0) & (fx <= spec.width - 1) & (fy >= 0) & (fy <= spec.height - 1)
    fx = np.clip(fx, 0, spec.width - 1)
    fy = np.clip(fy, 0, spec.height - 1)
    i0 = np.minimum(np.floor(fx).astype(int), spec.width - 2)
    j0 = np.minimum(np.floor(fy).astype(int), spec.height - 2)
    wx = fx - i0
    wy = fy - j0
    v = field.values
    vals = (
        v[j0, i0] * (1 - wx) * (1 - wy)
        + v[j0, i0 + 1] * wx * (1 - wy)
        + v[j0 + 1, i0] * (1 - wx) * wy
        + v[j0 + 1, i0 + 1] * wx * wy
    )
    return vals, inside
