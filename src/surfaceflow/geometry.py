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

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField, diff2_x2_array, diff_t, diff_x1_array, diff_x2_array

__all__ = ["SurfaceGeometry", "build_geometry", "flat_geometry"]


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """Area element and Christoffel symbols of the graph surface at a fixed time.

    ``christoffel`` holds G^1_11, G^1_12, G^1_22, G^2_11, G^2_12, G^2_22, so G^i_jk
    (from 0; G is symmetric in j, k) is ``christoffel[3*i + j + k]``.  ``zt`` is
    the height rate (d/dt z) between the frame pair, zero for a static build.
    """

    spec: GridSpec
    sqrt_detg: ScalarField
    christoffel: tuple[ScalarField, ...]
    zt: ScalarField

    def __post_init__(self) -> None:
        six = isinstance(self.christoffel, tuple) and len(self.christoffel) == 6
        parts = (self.sqrt_detg, *self.christoffel, self.zt) if six else ()
        if not parts or not all(isinstance(p, ScalarField) and p.spec == self.spec for p in parts):
            raise ValueError("sqrt_detg, zt and six christoffel fields must be on the grid spec")


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

    wrap = lambda a: ScalarField(spec, a)
    return SurfaceGeometry(
        spec=spec,
        sqrt_detg=wrap(np.sqrt(detg)),
        christoffel=tuple(wrap(a * zjk / detg) for a in (a1, a2) for zjk in (z11, z12, z22)),
        zt=diff_t(z, z if z_next is None else z_next, dt),
    )


def flat_geometry(spec: GridSpec) -> SurfaceGeometry:
    """Geometry of the flat plane z = 0 (Euclidean reduction)."""
    return build_geometry(ScalarField.zeros(spec))
