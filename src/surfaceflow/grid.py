"""Regular-grid field containers and finite-difference stencils.

Fields live on a uniform grid of ``width`` x ``height`` samples with spacing
``h``.  Arrays are stored row-major with shape ``(height, width)``: axis 1
runs along the first coordinate x1, axis 0 along the second coordinate x2.

Interior derivatives use the symmetric three-point stencil
``(v[i+1] - v[i-1]) / (2h)``; the outermost rows/columns fall back to
first-order one-sided differences so every operation stays local.  The
adjoint (transpose) of each difference operator is provided as well, which
is what makes exact gradients of quadratic grid functionals possible.  Each
stencil is written once, along axis 0; the x1 versions apply it to the
transposed array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "ScalarField",
    "VectorField",
    "diff_x1",
    "diff_x2",
    "diff_t",
    "hessian",
    "coordinate_arrays",
]


@dataclass(frozen=True)
class GridSpec:
    """Sample counts, grid spacing and temporal displacement between frames."""

    width: int
    height: int
    h: float = 1.0
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError(
                f"grid must be at least 3x3 for central differences, "
                f"got {self.width}x{self.height}"
            )
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"grid spacing must be finite and positive, got {self.h}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(
                f"temporal displacement must be finite and positive, got {self.dt}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(height, width)``."""
        return (self.height, self.width)


def coordinate_arrays(
    spec: GridSpec, origin: tuple[float, float] = (0.0, 0.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Physical coordinates of every sample: ``X1[r, c] = origin_1 + c*h``."""
    x1 = origin[0] + spec.h * np.arange(spec.width)
    x2 = origin[1] + spec.h * np.arange(spec.height)
    return np.meshgrid(x1, x2, indexing="xy")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Immutable grid of real samples.

    ``values`` is coerced to a private, read-only float64 array of shape
    ``(height, width)``.  Non-finite samples are rejected at construction,
    so downstream numerics never have to re-check.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.shape != self.spec.shape:
            raise ValueError(
                f"values shape {arr.shape} does not match grid "
                f"(height, width) = {self.spec.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite samples")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, spec: GridSpec, value: float) -> "ScalarField":
        return cls(spec, np.full(spec.shape, float(value)))

    @classmethod
    def zeros(cls, spec: GridSpec) -> "ScalarField":
        return cls.constant(spec, 0.0)

    @classmethod
    def from_function(
        cls,
        spec: GridSpec,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        origin: tuple[float, float] = (0.0, 0.0),
    ) -> "ScalarField":
        """Sample ``fn(X1, X2)`` on the grid."""
        x1, x2 = coordinate_arrays(spec, origin)
        return cls(spec, np.broadcast_to(np.asarray(fn(x1, x2), dtype=np.float64), spec.shape))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Coefficient pair (u1, u2) of a tangential field in the basis (d1 x, d2 x)."""

    spec: GridSpec
    u1: ScalarField
    u2: ScalarField

    def __post_init__(self) -> None:
        if self.u1.spec != self.spec or self.u2.spec != self.spec:
            raise ValueError("vector components must share the grid spec")

    @classmethod
    def zeros(cls, spec: GridSpec) -> "VectorField":
        z = ScalarField.zeros(spec)
        return cls(spec, z, z)

    @classmethod
    def from_arrays(cls, spec: GridSpec, u1: np.ndarray, u2: np.ndarray) -> "VectorField":
        return cls(spec, ScalarField(spec, u1), ScalarField(spec, u2))


# ---------------------------------------------------------------------------
# array-level stencils
# ---------------------------------------------------------------------------


def _require_3x3(values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[0] < 3 or values.shape[1] < 3:
        raise ValueError(f"differences need at least a 3x3 field, got shape {values.shape}")


def diff_x2_array(values: np.ndarray, h: float) -> np.ndarray:
    """d/dx2 (along axis 0): central interior, one-sided first-order boundary."""
    _require_3x3(values)
    out = np.empty_like(values)
    out[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * h)
    out[0, :] = (values[1, :] - values[0, :]) / h
    out[-1, :] = (values[-1, :] - values[-2, :]) / h
    return out


def diff_x2_adjoint_array(s: np.ndarray, h: float) -> np.ndarray:
    """Transpose of :func:`diff_x2_array` as a linear map, same grid."""
    _require_3x3(s)
    out = np.zeros_like(s)
    c = 1.0 / (2.0 * h)
    out[2:, :] += s[1:-1, :] * c
    out[:-2, :] -= s[1:-1, :] * c
    out[1, :] += s[0, :] / h
    out[0, :] -= s[0, :] / h
    out[-1, :] += s[-1, :] / h
    out[-2, :] -= s[-1, :] / h
    return out


def _diff2_x2_array(values: np.ndarray, h: float) -> np.ndarray:
    """d^2/dx2^2 (along axis 0), central interior."""
    out = np.empty_like(values)
    h2 = h * h
    out[1:-1, :] = (values[2:, :] - 2.0 * values[1:-1, :] + values[:-2, :]) / h2
    # boundary rows reuse the nearest interior 3-point stencil
    out[0, :] = (values[2, :] - 2.0 * values[1, :] + values[0, :]) / h2
    out[-1, :] = (values[-1, :] - 2.0 * values[-2, :] + values[-3, :]) / h2
    return out


def diff_x1_array(values: np.ndarray, h: float) -> np.ndarray:
    """d/dx1 (along axis 1): :func:`diff_x2_array` on the transpose."""
    return diff_x2_array(values.T, h).T


def diff_x1_adjoint_array(s: np.ndarray, h: float) -> np.ndarray:
    """Transpose of :func:`diff_x1_array` as a linear map, same grid."""
    return diff_x2_adjoint_array(s.T, h).T


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------


def diff_x1(field: ScalarField) -> ScalarField:
    """Partial derivative along x1."""
    return ScalarField(field.spec, diff_x1_array(field.values, field.spec.h))


def diff_x2(field: ScalarField) -> ScalarField:
    """Partial derivative along x2."""
    return ScalarField(field.spec, diff_x2_array(field.values, field.spec.h))


def diff_t(frame_a: ScalarField, frame_b: ScalarField, dt: float | None = None) -> ScalarField:
    """Forward time difference ``(frame_b - frame_a) / dt`` of a frame pair.

    ``dt`` defaults to the frames' grid spec value.
    """
    if frame_a.spec != frame_b.spec:
        raise ValueError("frames must share one grid spec")
    if dt is None:
        dt = frame_a.spec.dt
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return ScalarField(frame_a.spec, (frame_b.values - frame_a.values) / dt)


def hessian(field: ScalarField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Second central differences (d11, d12, d22); d12 = diff_x2(diff_x1(.))
    also stands for d21."""
    h = field.spec.h
    d11 = ScalarField(field.spec, _diff2_x2_array(field.values.T, h).T)
    d22 = ScalarField(field.spec, _diff2_x2_array(field.values, h))
    return d11, diff_x2(diff_x1(field)), d22
