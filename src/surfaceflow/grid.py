"""Regular-grid field containers and finite-difference stencils.

Fields live on a uniform grid of ``width`` x ``height`` samples with spacing
``h``.  Arrays are stored row-major with shape ``(height, width)``: axis 1
runs along the first coordinate x1, axis 0 along the second coordinate x2.

Interior derivatives use the symmetric three-point stencil
``(v[i+1] - v[i-1]) / (2h)``; the outermost rows/columns fall back to
first-order one-sided differences so every operation stays local.  The
adjoint (transpose) of each difference operator is provided as well, which
is what makes exact gradients of quadratic grid functionals possible.  Each
stencil, the second difference ``(v[i+1] - 2 v[i] + v[i-1]) / h^2`` included
(its boundary rows repeat the nearest interior one), is written once, along
axis -2, and differentiates any stack of fields held on leading axes in one
call; the x1 versions apply it with the last two axes swapped.  Each adjoint
is gathered row by row into its output, with the same sums, in the same
order, as scattering the stencil's terms into a zero-filled array.
"""

from __future__ import annotations

import operator
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
        if _index("width", self.width) < 3 or _index("height", self.height) < 3:
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


def _index(name: str, value) -> int:
    """``operator.index(value)``, so numpy ints pass; ``ValueError`` naming ``name`` if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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


def diff_x2_array(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx2 (along axis -2, leading axes being separate fields): central
    interior, one-sided first-order boundary; written into ``out`` if given."""
    if out is None:
        out = np.empty_like(values)
    interior = out[..., 1:-1, :]
    np.subtract(values[..., 2:, :], values[..., :-2, :], out=interior)
    interior /= 2.0 * h
    out[..., 0, :] = (values[..., 1, :] - values[..., 0, :]) / h
    out[..., -1, :] = (values[..., -1, :] - values[..., -2, :]) / h
    return out


def diff_x2_adjoint_array(s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose of :func:`diff_x2_array` as a linear map, same grid and layout.

    Row i gathers what scattering the stencil into zeros adds to it: 0 + t[i-1]
    and 0 - t[i+1] for t = s * (1 / (2h)), then the one-sided s[0] / h and
    s[-1] / h.  (0 - t[i+1]) + t[i-1] is (0 + t[i-1]) - t[i+1] bit for bit,
    signed zeros included.
    """
    if out is None:
        out = np.empty_like(s)
    t = s[..., 1:-1, :] * (1.0 / (2.0 * h))
    first, last = s[..., 0, :] / h, s[..., -1, :] / h
    # np.subtract(0.0, t) is the sum's 0 - t; np.negative would give -0 for +0,
    # and numpy 2.4's negative writes wrong values into some strided outputs
    np.subtract(0.0, t, out=out[..., :-2, :])
    out[..., 2:-2, :] += t[..., :-2, :]
    out[..., 0, :] -= first
    if out.shape[-2] > 3:
        out[..., 1, :] += first
        out[..., -2, :] = (0.0 + t[..., -2, :]) - last
    else:
        out[..., 1, :] = (0.0 + first) - last
    out[..., -1, :] = (0.0 + t[..., -1, :]) + last
    return out


def diff2_x2_array(values: np.ndarray, h: float) -> np.ndarray:
    """d^2/dx2^2 (along axis -2, leading axes being separate fields), central interior."""
    out = np.empty_like(values)
    h2 = h * h
    out[..., 1:-1, :] = (values[..., 2:, :] - 2.0 * values[..., 1:-1, :] + values[..., :-2, :]) / h2
    # boundary rows reuse the nearest interior 3-point stencil
    out[..., 0, :] = (values[..., 2, :] - 2.0 * values[..., 1, :] + values[..., 0, :]) / h2
    out[..., -1, :] = (values[..., -1, :] - 2.0 * values[..., -2, :] + values[..., -3, :]) / h2
    return out


def diff_x1_array(values: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """d/dx1 (along axis -1): :func:`diff_x2_array` on the swapped last axes."""
    swapped = None if out is None else out.swapaxes(-1, -2)
    return diff_x2_array(values.swapaxes(-1, -2), h, swapped).swapaxes(-1, -2)


def diff_x1_adjoint_array(s: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Transpose of :func:`diff_x1_array` as a linear map, same grid."""
    swapped = None if out is None else out.swapaxes(-1, -2)
    return diff_x2_adjoint_array(s.swapaxes(-1, -2), h, swapped).swapaxes(-1, -2)


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
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    return ScalarField(frame_a.spec, (frame_b.values - frame_a.values) / dt)
