"""Bit-exact file formats: float maps, flow files, color coding, manifests.

Brightness frames and height maps share one grayscale float-map format (an
ASCII header "Pf", width, height, scale token whose sign encodes endianness,
then raw 32-bit floats in bottom-to-top row order).  Flow fields use the
Middlebury interchange layout: the 32-bit float 202021.25 as magic,
little-endian int32 width and height, then row-major interleaved (u1, u2)
float32 pairs, 12 + 8*width*height bytes total.  A manifest is a plain-text
key/value file tying a frame sequence and its height maps to one grid;
loading one frame pair opens only its two frames and one height map.  All
byte layouts are documented in docs/formats.md; writers are canonical
(single possible output), so write-read round-trips are bitwise identities.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField, VectorField

__all__ = [
    "ManifestError",
    "FloatImageError",
    "FlowFileError",
    "Manifest",
    "read_manifest",
    "write_manifest",
    "load_sequence",
    "read_float_image",
    "write_float_image",
    "read_flow",
    "write_flow",
    "FLOW_MAGIC",
    "COLOR_WHEEL",
    "wheel_position",
    "default_max_magnitude",
    "colorize",
    "write_ppm",
]


class ManifestError(ValueError):
    """Malformed or inconsistent manifest, or a referenced file problem."""


class FloatImageError(ValueError):
    """Malformed float-map file."""


class FlowFileError(ValueError):
    """Malformed flow file."""


FLOW_MAGIC = 202021.25


@dataclass(frozen=True)
class Manifest:
    """Description of an on-disk sequence.

    ``height_paths`` either matches ``frame_paths`` in length or holds a
    single entry for a static surface.  Paths are kept as written and
    resolved against ``base_dir`` when loading.
    """

    version: int
    spec: GridSpec
    frame_paths: tuple[str, ...]
    height_paths: tuple[str, ...]
    intensity_range: tuple[float, float] = (0.0, 1.0)
    base_dir: Path = Path(".")

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ManifestError(f"version must be >= 1, got {self.version}")
        if not self.frame_paths:
            raise ManifestError("manifest lists no frames")
        if len(self.height_paths) not in (1, len(self.frame_paths)):
            raise ManifestError(
                f"{len(self.height_paths)} height maps for "
                f"{len(self.frame_paths)} frames; need one per frame or a single static map"
            )
        lo, hi = self.intensity_range
        # the span hi - lo is finite only when both ends are
        if not (lo < hi and np.isfinite(float(hi) - float(lo))):
            raise ManifestError(f"intensity_range needs lower < upper, finite span; got {lo}, {hi}")

    @property
    def frame_count(self) -> int:
        return len(self.frame_paths)

    @property
    def static_surface(self) -> bool:
        return len(self.height_paths) == 1


def write_manifest(path, manifest: Manifest) -> None:
    lines = [
        "version " + str(manifest.version),
        "width " + str(manifest.spec.width),
        "height " + str(manifest.spec.height),
        "h " + repr(manifest.spec.h),
        "dt " + repr(manifest.spec.dt),
        "intensity_range "
        + repr(manifest.intensity_range[0])
        + " "
        + repr(manifest.intensity_range[1]),
    ]
    lines.extend("frame " + p for p in manifest.frame_paths)
    lines.extend("heightmap " + p for p in manifest.height_paths)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> Manifest:
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    scalars: dict[str, str] = {}
    frames: list[str] = []
    heights: list[str] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest:
            raise ManifestError(f"{path}:{lineno}: key {key!r} has no value")
        if key == "frame":
            frames.append(rest)
        elif key == "heightmap":
            heights.append(rest)
        elif key in ("version", "width", "height", "h", "dt", "intensity_range"):
            if key in scalars:
                raise ManifestError(f"{path}:{lineno}: duplicate key {key!r}")
            scalars[key] = rest
        else:
            raise ManifestError(f"{path}:{lineno}: unknown key {key!r}")
    missing = [k for k in ("version", "width", "height", "h", "dt") if k not in scalars]
    if missing:
        raise ManifestError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        version = int(scalars["version"])
        spec = GridSpec(
            width=int(scalars["width"]),
            height=int(scalars["height"]),
            h=float(scalars["h"]),
            dt=float(scalars["dt"]),
        )
        if "intensity_range" in scalars:
            parts = scalars["intensity_range"].split()
            if len(parts) != 2:
                raise ManifestError(
                    f"{path}: intensity_range needs two values, got {scalars['intensity_range']!r}"
                )
            rng = (float(parts[0]), float(parts[1]))
        else:
            rng = (0.0, 1.0)
    except ManifestError:
        raise
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    manifest = Manifest(
        version=version,
        spec=spec,
        frame_paths=tuple(frames),
        height_paths=tuple(heights),
        intensity_range=rng,
        base_dir=path.parent,
    )
    for rel in (*manifest.frame_paths, *manifest.height_paths):
        full = manifest.base_dir / rel
        if not full.is_file():
            raise ManifestError(f"{path}: referenced file not found: {full}")
    return manifest


def load_sequence(manifest: Manifest, i: int, j: int):
    """Load frames i and j and the height map of frame i; returns
    (frame_i, frame_j, height_i) as ScalarFields.

    Only those three files are opened, so a long sequence costs what one
    pair costs; a static surface's single map serves every frame.  A pair
    outside ``0 <= i < j < frame_count`` raises a plain ValueError.  Stored
    intensities are treated as fractions of ``intensity_range`` and mapped
    affinely onto it (the default range [0, 1] leaves values untouched, bit
    for bit).  Heights are geometric and never rescaled.  Missing files,
    wrong dimensions and frames that the mapping carries to non-finite
    values raise ManifestError naming the file; non-finite stored samples
    surface as FloatImageError from the reader, also naming the file.
    """
    if not (0 <= i < j < manifest.frame_count):
        raise ValueError(
            f"frame pair ({i}, {j}) out of range for {manifest.frame_count} frames; "
            "need 0 <= i < j < frame_count"
        )
    spec = manifest.spec
    lo, hi = manifest.intensity_range

    def load_field(rel: str) -> np.ndarray:
        full = manifest.base_dir / rel
        if not full.is_file():
            raise ManifestError(f"referenced file not found: {full}")
        values = read_float_image(full)
        if values.shape != spec.shape:
            raise ManifestError(
                f"{full}: expected {spec.width}x{spec.height} samples, "
                f"got {values.shape[1]}x{values.shape[0]}"
            )
        return values

    def load_frame(k: int) -> ScalarField:
        rel = manifest.frame_paths[k]
        values = load_field(rel)
        if (lo, hi) != (0.0, 1.0):
            with np.errstate(over="ignore"):
                values = lo + values * (hi - lo)
            if not np.all(np.isfinite(values)):
                raise ManifestError(f"{manifest.base_dir / rel}: intensity_range mapping overflows")
        return ScalarField(spec, values)

    height = manifest.height_paths[0 if manifest.static_surface else i]
    return load_frame(i), load_frame(j), ScalarField(spec, load_field(height))


def write_float_image(path, values) -> None:
    """Write a grayscale float map (canonical little-endian, scale -1.0).

    Accepts a ScalarField or a 2-d array; payload rows run bottom-to-top,
    so the last array row is written first.
    """
    if isinstance(values, ScalarField):
        values = values.values
    values = np.asarray(values)
    if values.ndim != 2:
        raise FloatImageError(f"expected a 2-d array, got shape {values.shape}")
    height, width = values.shape
    header = f"Pf\n{width} {height}\n-1.0\n".encode("ascii")
    payload = np.flipud(values).astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_float_image(path) -> np.ndarray:
    """Read a grayscale float map; returns float64 values, exactly as stored."""
    data = Path(path).read_bytes()
    magic, offset = _token(data, 0, path)
    if magic == b"PF":
        raise FloatImageError(f"{path}: color float maps are not supported")
    if magic != b"Pf":
        raise FloatImageError(f"{path}: not a float map (leading token {magic!r})")
    wtok, offset = _token(data, offset, path)
    htok, offset = _token(data, offset, path)
    stok, offset = _token(data, offset, path)
    try:
        width, height = int(wtok), int(htok)
        scale = float(stok)
    except ValueError as exc:
        raise FloatImageError(f"{path}: malformed header: {exc}") from exc
    if width <= 0 or height <= 0:
        raise FloatImageError(f"{path}: non-positive dimensions {width}x{height}")
    if not (np.isfinite(scale) and scale != 0.0):
        raise FloatImageError(f"{path}: scale token must be finite and non-zero, got {scale}")
    expected = 4 * width * height
    payload = data[offset:]
    if len(payload) != expected:
        raise FloatImageError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    dtype = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    values = np.flipud(rows).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FloatImageError(f"{path}: non-finite samples")
    return values


def _token(data: bytes, offset: int, path) -> tuple[bytes, int]:
    """Next whitespace-delimited header token and the offset just past its
    single terminating whitespace byte."""
    while offset < len(data) and data[offset : offset + 1].isspace():
        offset += 1
    start = offset
    while offset < len(data) and not data[offset : offset + 1].isspace():
        offset += 1
    if start == offset or offset >= len(data):
        raise FloatImageError(f"{path}: truncated header")
    return data[start:offset], offset + 1


def write_flow(path, u, u2=None) -> None:
    """Write a flow field; accepts a VectorField or two component arrays."""
    if isinstance(u, VectorField):
        u1_values, u2_values = u.u1.values, u.u2.values
    else:
        if u2 is None:
            raise ValueError("pass a VectorField or both component arrays")
        u1_values, u2_values = np.asarray(u), np.asarray(u2)
        if u1_values.shape != u2_values.shape or u1_values.ndim != 2:
            raise ValueError("component arrays must share one 2-d shape")
    height, width = u1_values.shape
    samples = np.empty((height, width, 2), dtype="<f4")
    samples[..., 0] = u1_values
    samples[..., 1] = u2_values
    header = struct.pack("<fii", FLOW_MAGIC, width, height)
    Path(path).write_bytes(header + samples.tobytes())


def read_flow(path):
    """Read a flow file; returns (u1, u2) float64 arrays of shape (height, width)."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FlowFileError(f"{path}: shorter than the 12-byte header")
    magic, width, height = struct.unpack_from("<fii", data)
    if magic != FLOW_MAGIC:
        raise FlowFileError(f"{path}: wrong magic {magic!r}")
    if width <= 0 or height <= 0:
        raise FlowFileError(f"{path}: non-positive dimensions {width}x{height}")
    expected = 12 + 8 * width * height
    if len(data) != expected:
        raise FlowFileError(f"{path}: {len(data)} bytes, expected exactly {expected}")
    samples = np.frombuffer(data, dtype="<f4", offset=12).reshape(height, width, 2)
    u1 = samples[..., 0].astype(np.float64)
    u2 = samples[..., 1].astype(np.float64)
    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(u2))):
        raise FlowFileError(f"{path}: non-finite samples")
    return u1, u2


def _make_color_wheel() -> np.ndarray:
    """The 55-entry piecewise-linear wheel: RY 15, YG 6, GC 4, CB 11, BM 13, MR 6."""
    transitions = (
        (15, (255, 0, 0), 1, 1),   # red -> yellow: G ramps up
        (6, (255, 255, 0), 0, -1), # yellow -> green: R ramps down
        (4, (0, 255, 0), 2, 1),    # green -> cyan: B ramps up
        (11, (0, 255, 255), 1, -1),# cyan -> blue: G ramps down
        (13, (0, 0, 255), 0, 1),   # blue -> magenta: R ramps up
        (6, (255, 0, 255), 2, -1), # magenta -> red: B ramps down
    )
    wheel = np.zeros((sum(t[0] for t in transitions), 3))
    row = 0
    for count, start, channel, direction in transitions:
        for i in range(count):
            wheel[row] = start
            ramp = np.floor(255.0 * i / count)
            wheel[row, channel] += direction * ramp
            row += 1
    return wheel


COLOR_WHEEL = _make_color_wheel()
COLOR_WHEEL.setflags(write=False)


def wheel_position(u1, u2) -> np.ndarray:
    """Continuous wheel coordinate in [0, 54]: angle mapped over one period.

    The wheel period is 54 (one less than the table length), so opposite
    vectors sit exactly half a period (27 positions) apart.
    """
    angle = np.arctan2(-np.asarray(u2), -np.asarray(u1)) / np.pi
    return (angle + 1.0) / 2.0 * (len(COLOR_WHEEL) - 1)


def default_max_magnitude(rad: np.ndarray) -> float:
    """Colour scale for flow magnitudes ``rad``: their 99th percentile, or
    1.0 when that is zero (an all-zero field)."""
    scale = float(np.percentile(rad, 99))
    return scale if scale > 0.0 else 1.0


def colorize(u, max_magnitude: float | None = None) -> np.ndarray:
    """Map a flow field to RGB: hue from direction, darkness from magnitude.

    Zero vectors map to white and saturation reaches the pure wheel color at
    ``max_magnitude`` (longer vectors are clipped).  When ``max_magnitude``
    is omitted :func:`default_max_magnitude` picks it; an all-zero field
    then renders as a uniform white image.
    """
    if isinstance(u, VectorField):
        u1_values, u2_values = u.u1.values, u.u2.values
    else:
        u1_values, u2_values = (np.asarray(c, dtype=float) for c in u)
    if max_magnitude is None:
        max_magnitude = default_max_magnitude(np.hypot(u1_values, u2_values))
    elif not (np.isfinite(max_magnitude) and max_magnitude > 0.0):
        raise ValueError(f"max_magnitude must be positive and finite, got {max_magnitude}")

    rgb = np.empty(u1_values.shape + (3,), np.uint8)
    # strips of about 8k points keep each temporary near 64 KB, small enough
    # to reuse freed memory instead of paging in fresh memory on every call
    step = -(-8192 // max(1, int(np.prod(u1_values.shape[1:]))))
    for start in range(0, len(rgb), step):
        rows = slice(start, start + step)
        u1, u2 = u1_values[rows], u2_values[rows]
        fk = wheel_position(u1, u2)
        k0 = np.floor(fk)
        f = fk - k0
        k0 = k0.astype(np.intp)
        k1 = (k0 + 1) % len(COLOR_WHEEL)
        radn = np.clip(np.hypot(u1, u2) / max_magnitude, 0.0, 1.0)
        # one channel at a time from 1-D wheel lookups; interpolate in the
        # 0..255 domain so integer wheel entries survive the final floor
        # exactly when f = 0 and the vector is at full magnitude
        for c, wheel in enumerate(COLOR_WHEEL.T):
            col = (1.0 - f) * wheel.take(k0) + f * wheel.take(k1)
            rgb[rows, ..., c] = np.floor(255.0 - radn * (255.0 - col))
    return rgb


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an RGB image as binary PPM (P6, maxval 255)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"expected a uint8 (height, width, 3) image, got {rgb.dtype} {rgb.shape}")
    height, width = rgb.shape[:2]
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + rgb.tobytes())
