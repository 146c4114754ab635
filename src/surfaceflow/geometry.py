"""Differential geometry of a surface given as the graph of a height field.

For the parametrization x(x1, x2) = (x1, x2, z(x1, x2)) the induced metric,
its inverse, determinant and the Christoffel symbols all have closed forms
in the first and second derivatives of z:

    g      = I2 + grad(z) grad(z)^T,      det g = 1 + |grad(z)|^2,
    G^i_jk = d_i z * d_jk z / det g.

The test suite checks these closed forms against the general Levi-Civita
formula evaluated with the same grid stencils; the two agree to second
order away from the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, diff_x1_array, diff_x2_array, hessian

__all__ = ["SurfaceGeometry", "build_geometry", "flat_geometry"]


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Pointwise metric data of the graph surface at a fixed time.

    Christoffel symbols are stored once per symmetric pair; use
    :meth:`christoffel` for arbitrary (i, j, k) access.  ``zt`` is the height
    rate (d/dt z) between the frame pair; ``evolving`` records whether a
    second height frame was supplied (a static build keeps zt = 0 but must
    not be asked for surface velocities).
    """

    spec: GridSpec
    z: ScalarField
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
    gamma1_11: ScalarField
    gamma1_12: ScalarField
    gamma1_22: ScalarField
    gamma2_11: ScalarField
    gamma2_12: ScalarField
    gamma2_22: ScalarField
    zt: ScalarField
    evolving: bool

    def christoffel(self, i: int, j: int, k: int) -> ScalarField:
        """Symbol with upper index i and symmetric lower pair (j, k)."""
        if i not in (1, 2) or j not in (1, 2) or k not in (1, 2):
            raise ValueError(f"indices must be 1 or 2, got ({i}, {j}, {k})")
        j, k = min(j, k), max(j, k)
        return getattr(self, f"gamma{i}_{j}{k}")


def build_geometry(
    z: ScalarField,
    z_next: ScalarField | None = None,
    spec: GridSpec | None = None,
    dt: float | None = None,
) -> SurfaceGeometry:
    """Derive all metric quantities of the graph of ``z``.

    ``z_next`` is the height field of the following frame; when given, the
    height rate is the forward difference ``(z_next - z) / dt`` with ``dt``
    defaulting to the grid's temporal displacement.  Without it the surface
    is treated as static.
    """
    if spec is not None and z.spec != spec:
        raise ValueError("height field does not match the requested grid spec")
    spec = z.spec
    if z_next is not None and z_next.spec != spec:
        raise ValueError("z_next must share the grid spec of z")

    a1 = diff_x1_array(z.values, spec.h)
    a2 = diff_x2_array(z.values, spec.h)
    hz = hessian(z)
    z11, z12, z22 = hz.d11.values, hz.d12.values, hz.d22.values

    g11 = 1.0 + a1 * a1
    g12 = a1 * a2
    g22 = 1.0 + a2 * a2
    # graph identity det g = 1 + |grad z|^2; guarantees det g >= 1 exactly
    detg = 1.0 + a1 * a1 + a2 * a2
    ginv11 = g22 / detg
    ginv12 = -g12 / detg
    ginv22 = g11 / detg

    _check_inverse(g11, g12, g22, ginv11, ginv12, ginv22)

    if z_next is None:
        zt = np.zeros(spec.shape)
        evolving = False
    else:
        step = spec.dt if dt is None else float(dt)
        if not step > 0:
            raise ValueError(f"dt must be positive, got {step}")
        zt = (z_next.values - z.values) / step
        evolving = True

    wrap = lambda a: ScalarField(spec, a)
    return SurfaceGeometry(
        spec=spec,
        z=z,
        dz1=wrap(a1),
        dz2=wrap(a2),
        g11=wrap(g11),
        g12=wrap(g12),
        g22=wrap(g22),
        detg=wrap(detg),
        sqrt_detg=wrap(np.sqrt(detg)),
        ginv11=wrap(ginv11),
        ginv12=wrap(ginv12),
        ginv22=wrap(ginv22),
        gamma1_11=wrap(a1 * z11 / detg),
        gamma1_12=wrap(a1 * z12 / detg),
        gamma1_22=wrap(a1 * z22 / detg),
        gamma2_11=wrap(a2 * z11 / detg),
        gamma2_12=wrap(a2 * z12 / detg),
        gamma2_22=wrap(a2 * z22 / detg),
        zt=wrap(zt),
        evolving=evolving,
    )


def flat_geometry(spec: GridSpec) -> SurfaceGeometry:
    """Geometry of the flat plane z = 0 (Euclidean reduction)."""
    return build_geometry(ScalarField.zeros(spec))


def _check_inverse(g11, g12, g22, i11, i12, i22) -> None:
    """g * g^-1 = I pointwise to 1e-12 relative; construction guarantee."""
    scale = np.maximum(1.0, np.abs(g11) + np.abs(g12) + np.abs(g22))
    off = np.maximum(np.abs(g11 * i12 + g12 * i22), np.abs(g12 * i11 + g22 * i12))
    diag = np.maximum(np.abs(g11 * i11 + g12 * i12 - 1.0), np.abs(g12 * i12 + g22 * i22 - 1.0))
    if np.any(np.maximum(off, diag) > 1e-12 * scale):
        raise ValueError("metric inverse check failed; height field too extreme")
