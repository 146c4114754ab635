"""Synthetic scenes with closed-form ground truth.

A scene renders a pattern advected by a coordinate motion over a (possibly
evolving) graph surface:

    f(x, t_k) = F(beta^{-1}(x, t_k)),

so brightness is constant along trajectories by construction, exactly, with
no integration error.  Pattern, surfaces and motions are all closed-form;
motions give exact velocity fields.  A motion gives only its forward map and
its velocity, so every motion must be a one-parameter group,
beta(beta(x, t), s) = beta(x, t + s), which makes beta^{-1}(x, t) equal to
beta(x, -t) and the velocity independent of t; :func:`_check_overlap` and the
ground truth (the coordinate velocity the solver estimates) rely on this.
Each map beta(., t) must also be a rigid motion of the plane, so
|beta(x, -t) - c| = |x - beta(c, t)|: :func:`render` carries the pattern's
Gaussian centres forward instead of pulling every sample point back.  A
surface gives only its height, broadcast from a row of x1 and a column of x2:
the validation helpers in ``tests/reference.py`` derive the evolving
:class:`MovingBump`'s exact slopes and height rate.

Catalog scenes from :func:`make_scene` use pixel units (spacing and frame
step both 1, origin at index (0, 0)) with the pattern scaled to the grid, so
"translate" means one pixel per frame.  The underlying classes are
unit-agnostic; tests build scenes on physical domains for refinement
studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import GridSpec, ScalarField, VectorField, _index, _positive, coordinate_arrays

__all__ = [
    "GaussianPattern",
    "Flat",
    "Tilt",
    "Paraboloid",
    "MovingBump",
    "Translation",
    "Rotation",
    "SyntheticScene",
    "SCENE_NAMES",
    "make_scene",
    "render",
]


@dataclass(frozen=True)
class GaussianPattern:
    """Mixture of isotropic Gaussians over a constant base intensity.

    ``components`` holds (amplitude, center1, center2, sigma) tuples.  The
    pattern is defined on the whole plane.  Each Gaussian is a product of one
    exponential per axis, so a row of x1 and a column of x2 give the grid.
    """

    base: float = 0.4
    components: tuple[tuple[float, float, float, float], ...] = ()

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        out = np.full(np.broadcast(x1, x2).shape, self.base)
        for amp, c1, c2, sigma in self.components:
            s = 2.0 * sigma * sigma
            out += amp * np.exp(-((x1 - c1) ** 2) / s) * np.exp(-((x2 - c2) ** 2) / s)
        return out

    def scaled(self, extent: float) -> "GaussianPattern":
        """The same mixture with centers and widths multiplied by ``extent``."""
        return GaussianPattern(
            base=self.base,
            components=tuple(
                (amp, c1 * extent, c2 * extent, sigma * extent)
                for amp, c1, c2, sigma in self.components
            ),
        )


# unit-square reference mixture: nine blobs on a jittered 3x3 layout with
# alternating signs, so gradients point in all directions everywhere and no
# large region is textureless; values stay within [0.14, 0.90]
_UNIT_PATTERN = GaussianPattern(
    base=0.5,
    components=(
        (0.3642, 0.1554, 0.1999, 0.0406),
        (-0.2899, 0.1578, 0.5514, 0.0426),
        (0.3317, 0.2538, 0.8146, 0.0502),
        (-0.2993, 0.5195, 0.1730, 0.0558),
        (0.3943, 0.5204, 0.5015, 0.0510),
        (-0.3575, 0.5577, 0.7645, 0.0497),
        (0.3129, 0.7824, 0.2110, 0.0560),
        (-0.3454, 0.8441, 0.4555, 0.0455),
        (0.3402, 0.7500, 0.8475, 0.0430),
    ),
)


@dataclass(frozen=True)
class Flat:
    """The plane z = 0."""

    time_dependent: bool = field(default=False, init=False)

    def height(self, x1, x2, t):
        return np.zeros(np.broadcast(x1, x2).shape)


@dataclass(frozen=True)
class Tilt:
    """Inclined plane z = s1*x1 + s2*x2."""

    s1: float = 0.5
    s2: float = 0.2
    time_dependent: bool = field(default=False, init=False)

    def height(self, x1, x2, t):
        return self.s1 * x1 + self.s2 * x2


@dataclass(frozen=True)
class Paraboloid:
    """Bowl z = curvature * ((x1 - c1)^2 + (x2 - c2)^2) / 2."""

    curvature: float = 1.0
    center: tuple[float, float] = (0.0, 0.0)
    time_dependent: bool = field(default=False, init=False)

    def height(self, x1, x2, t):
        r1 = x1 - self.center[0]
        r2 = x2 - self.center[1]
        return 0.5 * self.curvature * (r1 * r1 + r2 * r2)


@dataclass(frozen=True)
class MovingBump:
    """Gaussian hill whose center drifts linearly in time."""

    amplitude: float = 0.3
    sigma: float = 0.35
    center: tuple[float, float] = (-0.15, -0.10)
    drift: tuple[float, float] = (0.05, 0.03)
    time_dependent: bool = field(default=True, init=False)

    def height(self, x1, x2, t):
        r1 = x1 - (self.center[0] + self.drift[0] * t)
        r2 = x2 - (self.center[1] + self.drift[1] * t)
        s = 2.0 * self.sigma * self.sigma
        return self.amplitude * np.exp(-(r1 * r1) / s) * np.exp(-(r2 * r2) / s)


@dataclass(frozen=True)
class Translation:
    """Uniform drift with constant velocity (v1, v2)."""

    v1: float = 1.0
    v2: float = 0.0

    def map(self, x1, x2, t):
        return x1 + self.v1 * t, x2 + self.v2 * t

    def velocity(self, x1, x2, t):
        shape = np.broadcast(x1, x2).shape
        return np.full(shape, self.v1), np.full(shape, self.v2)


@dataclass(frozen=True)
class Rotation:
    """Rigid rotation at ``omega`` radians per unit time about ``center``."""

    omega: float = 0.05
    center: tuple[float, float] = (0.0, 0.0)

    def map(self, x1, x2, t):
        angle = self.omega * t
        c, s = math.cos(angle), math.sin(angle)
        r1 = x1 - self.center[0]
        r2 = x2 - self.center[1]
        return self.center[0] + c * r1 - s * r2, self.center[1] + s * r1 + c * r2

    def velocity(self, x1, x2, t):
        r1 = x1 - self.center[0]
        r2 = x2 - self.center[1]
        return -self.omega * r2, self.omega * r1


@dataclass(frozen=True)
class SyntheticScene:
    """Full description of a renderable sequence.

    ``origin`` is the coordinate of grid index (0, 0); frame k sits at time
    k * dt.  ``noise_sigma`` adds Gaussian noise per frame from a generator
    seeded with ``seed``, so renders are reproducible.
    """

    spec: GridSpec
    surface: object
    pattern: GaussianPattern
    motion: object
    frame_count: int = 2
    origin: tuple[float, float] = (0.0, 0.0)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _index("seed", self.seed, least=0)
        _index("frame_count", self.frame_count, least=2)
        _positive("noise_sigma", self.noise_sigma, zero=True)


def render(scene: SyntheticScene):
    """Evaluate the scene; returns (frames, heights, truth).

    All three are per-frame lists; ``truth[k]`` holds the motion's velocity
    at frame k sampled on the grid.  Frame k is the pattern with its centres
    moved to beta(c, t_k), evaluated on a row of x1 and a column of x2: to a
    few ulps the pattern sampled at beta(x, -t_k).  The velocity and a static
    surface's height are built once, and every frame shares that immutable
    field.  Raises if the motion carries the central half-box of the domain
    outside the grid within the rendered time span, which would leave later
    frames without usable overlap.
    """
    spec = scene.spec
    x1, x2 = coordinate_arrays(spec, scene.origin)
    _check_overlap(scene, x1, x2)
    row, column = x1[:1], x2[:, :1]
    surface, motion, pattern = scene.surface, scene.motion, scene.pattern
    times = [k * spec.dt for k in range(scene.frame_count)]
    if surface.time_dependent:
        heights = [ScalarField(spec, surface.height(row, column, t)) for t in times]
    else:
        heights = [ScalarField(spec, surface.height(row, column, 0.0))] * len(times)
    truth = [VectorField.from_arrays(spec, *motion.velocity(x1, x2, 0.0))] * len(times)

    rng = np.random.default_rng(scene.seed)
    frames = []
    for t in times:
        moved = [(amp, *motion.map(c1, c2, t), sigma) for amp, c1, c2, sigma in pattern.components]
        values = replace(pattern, components=tuple(moved))(row, column)
        if scene.noise_sigma > 0:
            values += rng.normal(0.0, scene.noise_sigma, size=values.shape)
        frames.append(ScalarField(spec, values))
    return frames, heights, truth


def _check_overlap(scene: SyntheticScene, x1: np.ndarray, x2: np.ndarray) -> None:
    lo1, hi1 = float(x1.min()), float(x1.max())
    lo2, hi2 = float(x2.min()), float(x2.max())
    q1 = (hi1 - lo1) / 4.0
    q2 = (hi2 - lo2) / 4.0
    corners = [
        (lo1 + q1, lo2 + q2),
        (lo1 + q1, hi2 - q2),
        (hi1 - q1, lo2 + q2),
        (hi1 - q1, hi2 - q2),
    ]
    t_end = (scene.frame_count - 1) * scene.spec.dt
    for c1, c2 in corners:
        m1, m2 = scene.motion.map(np.asarray(c1), np.asarray(c2), t_end)
        if not (lo1 <= float(m1) <= hi1 and lo2 <= float(m2) <= hi2):
            raise ValueError(
                "motion carries the central half-box outside the grid over "
                f"{scene.frame_count} frames; shorten the sequence or slow the motion"
            )


# each catalog scene's (surface, motion) as a function of the grid's extent, size - 1
_CATALOG = {
    "flat-static": lambda e: (Flat(), Translation(0.0, 0.0)),
    "flat-translate": lambda e: (Flat(), Translation(1.0, 0.0)),
    "flat-rotate": lambda e: (Flat(), Rotation(omega=0.05, center=(e / 2, e / 2))),
    "tilt-translate": lambda e: (Tilt(0.5, 0.2), Translation(1.0, 0.0)),
    "paraboloid-translate": lambda e: (
        Paraboloid(curvature=0.3 / e, center=(e / 2, e / 2)),
        Translation(1.0, 0.0),
    ),
    "paraboloid-rotate": lambda e: (
        Paraboloid(curvature=0.3 / e, center=(e / 2, e / 2)),
        Rotation(omega=0.05, center=(e / 2, e / 2)),
    ),
    "moving-bump": lambda e: (
        MovingBump(0.12 * e, 0.25 * e, center=(0.40 * e, 0.45 * e), drift=(0.3, 0.2)),
        Translation(1.0, 0.0),
    ),
}

SCENE_NAMES = tuple(_CATALOG)


def make_scene(
    name: str,
    size: int = 65,
    frame_count: int = 3,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> SyntheticScene:
    """Catalog scene in pixel units on a ``size`` x ``size`` grid.

    Spacing and frame step are 1, so "translate" scenes move the pattern one
    pixel per frame and their ground truth is the constant field (1, 0).
    Surface heights are in pixels as well, scaled with the grid so slopes
    stay moderate and size-independent.
    """
    _index("size", size, least=3)
    if name not in _CATALOG:
        raise ValueError(f"unknown scene {name!r}; expected one of {SCENE_NAMES}")
    extent = float(size - 1)
    surface, motion = _CATALOG[name](extent)
    spec = GridSpec(width=size, height=size, h=1.0, dt=1.0)
    return SyntheticScene(
        spec=spec,
        surface=surface,
        pattern=_UNIT_PATTERN.scaled(extent),
        motion=motion,
        frame_count=frame_count,
        origin=(0.0, 0.0),
        noise_sigma=noise_sigma,
        seed=seed,
    )
