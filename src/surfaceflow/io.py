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

The writers and :func:`colorize` take plain arrays; :func:`load_sequence`
is the one call that returns containers, the ScalarFields a problem is built from.
"""

from __future__ import annotations

import numbers
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import GridSpec, ScalarField, _index, _positive, _shown

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
    resolved against ``base_dir`` when loading; each must be a one-line str with
    no leading or trailing whitespace, the only paths a manifest file reads back.
    The spec must be a ``GridSpec``, the sequences tuples and ``base_dir`` a ``Path``,
    as read back.
    """

    spec: GridSpec
    frame_paths: tuple[str, ...]
    height_paths: tuple[str, ...]
    intensity_range: tuple[float, float] = (0.0, 1.0)
    base_dir: Path = Path(".")

    def __post_init__(self) -> None:
        kinds = dict(
            spec=GridSpec, frame_paths=tuple, height_paths=tuple, intensity_range=tuple, base_dir=Path
        )
        for name, kind in kinds.items():
            if not isinstance(getattr(self, name), kind):
                raise ManifestError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not self.frame_paths:
            raise ManifestError("manifest lists no frames")
        for rel in (*self.frame_paths, *self.height_paths):
            if not (isinstance(rel, str) and rel == rel.strip() and len(rel.splitlines()) == 1):
                raise ManifestError(f"path {rel!r} must be a one-line str, no edge whitespace")
        if len(self.height_paths) not in (1, len(self.frame_paths)):
            raise ManifestError(
                f"{len(self.height_paths)} height maps for "
                f"{len(self.frame_paths)} frames; need one per frame or a single static map"
            )
        rng = self.intensity_range
        try:  # two reals lo < hi; the span hi - lo is finite only when both ends are
            valid = len(rng) == 2 and all(isinstance(x, numbers.Real) for x in rng)
            valid = valid and rng[0] < rng[1] and np.isfinite(float(rng[1]) - float(rng[0]))
        except (TypeError, OverflowError):  # no length, or an int beyond float
            valid = False
        if not valid:
            raise ManifestError(
                f"intensity_range needs reals lo < hi, finite span, got {_shown(rng)}"
            )

    @property
    def frame_count(self) -> int:
        return len(self.frame_paths)

    @property
    def static_surface(self) -> bool:
        return len(self.height_paths) == 1


def write_manifest(path, manifest: Manifest) -> None:
    spec, (lo, hi) = manifest.spec, manifest.intensity_range
    # a float's repr reads back exactly; a numpy scalar's repr names its type
    lines = [
        "version 1",
        f"width {spec.width}",
        f"height {spec.height}",
        f"h {float(spec.h)!r}",
        f"dt {float(spec.dt)!r}",
        f"intensity_range {float(lo)!r} {float(hi)!r}",
        *(f"frame {p}" for p in manifest.frame_paths),
        *(f"heightmap {p}" for p in manifest.height_paths),
    ]
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
    if scalars["version"] != "1":
        raise ManifestError(f"{path}: version must be 1, got {scalars['version']!r}")
    try:
        manifest = Manifest(
            spec=GridSpec(
                width=_dimension(scalars["width"]),
                height=_dimension(scalars["height"]),
                h=float(scalars["h"]),
                dt=float(scalars["dt"]),
            ),
            frame_paths=tuple(frames),
            height_paths=tuple(heights),
            intensity_range=tuple(map(float, scalars.get("intensity_range", "0 1").split())),
            base_dir=path.parent,
        )
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
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
    if not (0 <= _index("i", i) < _index("j", j) < manifest.frame_count):
        raise ValueError(
            f"frame pair ({_shown(i)}, {_shown(j)}) out of range for "
            f"{manifest.frame_count} frames; need 0 <= i < j < frame_count"
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
    """Write a 2-d array as a grayscale float map (canonical little-endian,
    scale -1.0); payload rows run bottom-to-top, so the last array row is
    written first."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise FloatImageError(f"expected a 2-d array, got shape {values.shape}")
    height, width = values.shape
    with np.errstate(over="ignore"):
        samples = np.flipud(values).astype("<f4")
    _finite(path, samples, FloatImageError)
    _write(path, f"Pf\n{width} {height}\n-1.0\n".encode("ascii"), samples)


def _write(path, header: bytes, payload: np.ndarray) -> None:
    """Write ``header``, then ``payload``'s bytes in C order, with no joined copy."""
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(payload))


def read_float_image(path) -> np.ndarray:
    """Read a grayscale float map; returns float64 values, exactly as stored."""
    data = Path(path).read_bytes()
    header = _FLOAT_MAP_HEADER.match(data)
    if header is None:
        raise FloatImageError(f"{path}: truncated header")
    magic, wtok, htok, stok = header.groups()
    if magic == b"PF":
        raise FloatImageError(f"{path}: color float maps are not supported")
    if magic != b"Pf":
        raise FloatImageError(f"{path}: not a float map (leading token {magic!r})")
    try:
        width, height, scale = _dimension(wtok), _dimension(htok), float(stok)
    except ValueError as exc:
        raise FloatImageError(f"{path}: malformed header: {exc}") from exc
    if width <= 0 or height <= 0:
        raise FloatImageError(f"{path}: non-positive dimensions {width}x{height}")
    if not (np.isfinite(scale) and scale != 0.0):
        raise FloatImageError(f"{path}: scale token must be finite and non-zero, got {scale}")
    size, expected = len(data) - header.end(), 4 * width * height
    if size != expected:
        raise FloatImageError(f"{path}: payload is {size} bytes, expected {expected}")
    dtype = "<f4" if scale < 0 else ">f4"
    rows = np.frombuffer(data, dtype, offset=header.end()).reshape(height, width)
    values = np.flipud(rows).astype(np.float64)
    _finite(path, values, FloatImageError)
    return values


def _finite(path, samples: np.ndarray, error) -> None:
    """``error`` naming ``path`` unless every sample, as read or as cast to float32, is finite."""
    if not np.all(np.isfinite(samples)):
        raise error(f"{path}: non-finite samples")


# magic, width, height and scale, then the one whitespace byte before the payload
_FLOAT_MAP_HEADER = re.compile(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s")


def _dimension(token) -> int:
    """A width or height token (str or bytes) as an int: ASCII decimal digits
    only, where ``int`` alone takes a sign, ``_`` and non-ASCII digits too."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"dimensions must be ASCII decimal digits, got {token!r}")
    return int(token)


def _components(u1, u2, dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """The two flow components as arrays; ValueError unless their shapes match."""
    u1, u2 = np.asarray(u1, dtype), np.asarray(u2, dtype)
    if u1.shape != u2.shape:
        raise ValueError(f"flow components differ in shape: {u1.shape} and {u2.shape}")
    return u1, u2


def write_flow(path, u1, u2) -> None:
    """Write a flow file from its two 2-d component arrays."""
    u1, u2 = _components(u1, u2)
    if u1.ndim != 2:
        raise ValueError(f"flow components must be 2-d, got shape {u1.shape}")
    height, width = u1.shape
    samples = np.empty((height, width, 2), dtype="<f4")
    with np.errstate(over="ignore"):
        samples[..., 0] = u1
        samples[..., 1] = u2
    _finite(path, samples, FlowFileError)
    _write(path, struct.pack("<fii", FLOW_MAGIC, width, height), samples)


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
    _finite(path, samples, FlowFileError)
    return samples[..., 0].astype(np.float64), samples[..., 1].astype(np.float64)


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


def colorize(u1, u2, max_magnitude: float | None = None) -> np.ndarray:
    """Map a flow's component arrays (of one shape) to RGB: hue from
    direction, darkness from magnitude.

    Zero vectors map to white and saturation reaches the pure wheel color at
    ``max_magnitude`` (longer vectors are clipped).  When ``max_magnitude``
    is omitted :func:`default_max_magnitude` picks it; an all-zero field
    then renders as a uniform white image.
    """
    u1_values, u2_values = _components(u1, u2, float)
    if max_magnitude is None:
        max_magnitude = default_max_magnitude(np.hypot(u1_values, u2_values))
    else:
        _positive("max_magnitude", max_magnitude)

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
    _write(path, f"P6\n{width} {height}\n255\n".encode("ascii"), rgb)
