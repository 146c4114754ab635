"""Differential geometry of a surface given as the graph of a height field.

For the parametrization x(x1, x2) = (x1, x2, z(x1, x2)) the area element and
the Christoffel symbols, the two surface quantities the flow energy reads,
have closed forms in the first and second derivatives of z:

    det g = 1 + |grad(z)|^2,      G^i_jk = d_i z * d_jk z / det g.

The test suite checks these closed forms against the general Levi-Civita
formula evaluated with the same grid stencils; the two agree to second
order away from the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import GridSpec, ScalarField, diff2_x2_array, diff_t, diff_x1_array, diff_x2_array

__all__ = ["SurfaceGeometry", "build_geometry", "flat_geometry"]


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Area element and Christoffel symbols of the graph surface at a fixed time.

    ``gamma{i}_{j}{k}`` is G^i_jk, stored once per symmetric lower pair
    (j <= k).  ``zt`` is the height rate (d/dt z) between the frame pair,
    zero for a static build.
    """

    spec: GridSpec
    sqrt_detg: ScalarField
    gamma1_11: ScalarField
    gamma1_12: ScalarField
    gamma1_22: ScalarField
    gamma2_11: ScalarField
    gamma2_12: ScalarField
    gamma2_22: ScalarField
    zt: ScalarField

    def __post_init__(self) -> None:
        if any(getattr(self, f.name).spec != self.spec for f in fields(self)[1:]):
            raise ValueError("geometry fields must share the grid spec")


def build_geometry(
    z: ScalarField,
    z_next: ScalarField | None = None,
    dt: float | None = None,
) -> SurfaceGeometry:
    """Area element and Christoffel symbols of the graph of ``z``.

    ``z_next`` is the height field of the following frame; when given, the
    height rate ``zt`` is :func:`~surfaceflow.grid.diff_t` of the pair.
    Without it the surface is treated as static.  The flow energy never
    reads ``zt``.
    """
    spec = z.spec
    a1 = diff_x1_array(z.values, spec.h)
    a2 = diff_x2_array(z.values, spec.h)
    z11 = diff2_x2_array(z.values.swapaxes(-1, -2), spec.h).swapaxes(-1, -2)
    z12, z22 = diff_x2_array(a1, spec.h), diff2_x2_array(z.values, spec.h)

    # graph identity det g = 1 + |grad z|^2; guarantees det g >= 1 exactly
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


def flat_geometry(spec: GridSpec) -> SurfaceGeometry:
    """Geometry of the flat plane z = 0 (Euclidean reduction)."""
    return build_geometry(ScalarField.zeros(spec))

