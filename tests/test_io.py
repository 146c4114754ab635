import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surfaceflow.grid import GridSpec, ScalarField, VectorField
from surfaceflow.io import (
    COLOR_WHEEL,
    FLOW_MAGIC,
    FloatImageError,
    FlowFileError,
    Manifest,
    ManifestError,
    colorize,
    default_max_magnitude,
    load_sequence,
    read_float_image,
    read_flow,
    read_manifest,
    wheel_position,
    write_float_image,
    write_flow,
    write_manifest,
    write_ppm,
)

from reference import broadcast_colorize

def reals(lo, hi):
    """Python and numpy ints and floats in [lo, hi]."""
    floats = st.floats(lo, hi)
    ints = st.integers(math.ceil(lo), math.floor(hi))
    return st.one_of(
        floats, ints, floats.map(np.float64), floats.map(np.float32), ints.map(np.int64)
    )


GOLDEN_FLO_HEX = "5049454802000000010000000000803f000000400000404000008040"


class TestFloatImage:
    @given(
        width=st.integers(3, 9),
        height=st.integers(3, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, tmp_path_factory, width, height, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((height, width)).astype(np.float32).astype(np.float64)
        path = tmp_path_factory.mktemp("pfm") / "field.pfm"
        write_float_image(path, values)
        first = path.read_bytes()
        loaded = read_float_image(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, values)
        write_float_image(path, loaded)
        assert path.read_bytes() == first

    def test_exact_byte_layout(self, tmp_path):
        path = tmp_path / "zeros.pfm"
        write_float_image(path, np.zeros((3, 3)))
        data = path.read_bytes()
        header = b"Pf\n3 3\n-1.0\n"
        assert data[: len(header)] == header
        assert len(data) == len(header) + 36
        assert data[len(header):] == b"\x00" * 36

    @pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided", "float32"])
    def test_matches_concatenated_bytes(self, tmp_path, rng, layout):
        """Header, then payload: the bytes of ``header + payload.tobytes()``."""
        values = rng.standard_normal((5, 7))
        arg = {
            "c-order": values,
            "fortran-order": np.asfortranarray(values),
            "strided": rng.standard_normal((10, 21))[::-2, ::3],
            "float32": values.astype(np.float32),
        }[layout]
        write_float_image(tmp_path / "f.pfm", arg)
        expected = b"Pf\n7 5\n-1.0\n" + np.flipud(arg).astype("<f4").tobytes()
        assert (tmp_path / "f.pfm").read_bytes() == expected

    def test_big_endian_file(self, tmp_path):
        # rows are stored bottom-to-top, so the decoded array is flipped
        path = tmp_path / "be.pfm"
        payload = struct.pack(">4f", 1.0, 2.0, 3.0, 4.0)
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        loaded = read_float_image(path)
        assert np.array_equal(loaded, np.array([[3.0, 4.0], [1.0, 2.0]]))

    @pytest.mark.parametrize(
        "content",
        [
            b"PF\n2 2\n-1.0\n" + b"\x00" * 32,
            b"Pf\n2\n-1.0\n" + b"\x00" * 16,
            b"Pf\n2 2\n0.0\n" + b"\x00" * 16,
            b"Pf\n2 2\nnope\n" + b"\x00" * 16,
            b"Pf\n2 2\n-1.0\n" + b"\x00" * 15,
            b"Pf\n2 2\n-1.0\n" + b"\x00" * 17,
            b"Qx\n2 2\n-1.0\n" + b"\x00" * 16,
            b"Pf\n2 2\nnan\n" + b"\x00" * 16,
            b"Pf\n2 2\ninf\n" + b"\x00" * 16,
            b"Pf\n2 2\n-inf\n" + b"\x00" * 16,
            # dimensions are ASCII decimal digits: no "_", sign or other digits
            b"Pf\n1_0 1\n-1.0\n" + b"\x00" * 40,
            b"Pf\n+2 2\n-1.0\n" + b"\x00" * 16,
            b"Pf\n2 +2\n-1.0\n" + b"\x00" * 16,
            "Pf\n２ 2\n-1.0\n".encode() + b"\x00" * 16,
        ],
    )
    def test_malformed_rejected(self, tmp_path, content):
        path = tmp_path / "bad.pfm"
        path.write_bytes(content)
        with pytest.raises(FloatImageError):
            read_float_image(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.pfm"
        payload = struct.pack("<4f", 1.0, float("nan"), 3.0, 4.0)
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(FloatImageError):
            read_float_image(path)

    # NaN as is, 1e39 beyond the float32 range: the writer refuses what its reader
    # would, with no numpy overflow warning and no file written
    @pytest.mark.parametrize("sample", [np.nan, 1e39, -1e39])
    def test_writer_refuses_non_finite_float32(self, tmp_path, sample):
        values = np.zeros((3, 4))
        values[1, 2] = sample
        with pytest.raises(FloatImageError, match="non-finite"):
            write_float_image(tmp_path / "bad.pfm", values)
        assert not (tmp_path / "bad.pfm").exists()


class TestFlowFile:
    def test_round_trip(self, tmp_path, rng):
        spec = GridSpec(6, 5)
        u = VectorField(
            spec,
            ScalarField(spec, rng.standard_normal((5, 6)).astype(np.float32).astype(float)),
            ScalarField(spec, rng.standard_normal((5, 6)).astype(np.float32).astype(float)),
        )
        path = tmp_path / "flow.flo"
        write_flow(path, u.u1.values, u.u2.values)
        u1, u2 = read_flow(path)
        assert np.array_equal(u1, u.u1.values)
        assert np.array_equal(u2, u.u2.values)
        first = path.read_bytes()
        write_flow(path, u1, u2)
        assert path.read_bytes() == first

    def test_golden_file(self, tmp_path):
        path = tmp_path / "golden.flo"
        write_flow(path, np.array([[1.0, 3.0]]), np.array([[2.0, 4.0]]))
        data = path.read_bytes()
        assert len(data) == 28
        assert data.hex() == GOLDEN_FLO_HEX
        assert struct.unpack("<f", data[:4])[0] == FLOW_MAGIC
        assert data[:4] == b"PIEH"

    @pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided", "float32"])
    def test_matches_concatenated_bytes(self, tmp_path, rng, layout):
        """Header, then samples: the bytes of ``header + samples.tobytes()``."""
        u1, u2 = rng.standard_normal((2, 5, 7))
        args = {
            "c-order": (u1, u2),
            "fortran-order": (np.asfortranarray(u1), np.asfortranarray(u2)),
            "strided": tuple(rng.standard_normal((2, 10, 21))[:, ::-2, ::3]),
            "float32": (u1.astype(np.float32), u2.astype(np.float32)),
        }[layout]
        write_flow(tmp_path / "f.flo", *args)
        u1, u2 = args
        samples = np.empty((5, 7, 2), dtype="<f4")
        samples[..., 0] = u1
        samples[..., 1] = u2
        expected = struct.pack("<fii", FLOW_MAGIC, 7, 5) + samples.tobytes()
        assert (tmp_path / "f.flo").read_bytes() == expected

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(struct.pack("<fii", 0.0, 1, 1) + b"\x00" * 8)
        with pytest.raises(FlowFileError):
            read_flow(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.flo"
        path.write_bytes(struct.pack("<fii", FLOW_MAGIC, 2, 2) + b"\x00" * 24)
        with pytest.raises(FlowFileError):
            read_flow(path)
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(FlowFileError):
            read_flow(path)

    def test_bad_dimensions_rejected(self, tmp_path):
        path = tmp_path / "dims.flo"
        path.write_bytes(struct.pack("<fii", FLOW_MAGIC, -1, 3))
        with pytest.raises(FlowFileError):
            read_flow(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.flo"
        path.write_bytes(
            struct.pack("<fii", FLOW_MAGIC, 1, 1) + struct.pack("<2f", np.inf, 0.0)
        )
        with pytest.raises(FlowFileError):
            read_flow(path)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("sample", [np.nan, 1e39, -1e39])
    def test_writer_refuses_non_finite_float32(self, tmp_path, component, sample):
        u = np.zeros((2, 3, 4))
        u[component, 2, 1] = sample
        with pytest.raises(FlowFileError, match="non-finite"):
            write_flow(tmp_path / "bad.flo", *u)
        assert not (tmp_path / "bad.flo").exists()


def write_fields(directory, names, spec, value=0.5):
    for name in names:
        write_float_image(directory / name, np.full((spec.height, spec.width), value))


class TestManifest:
    def make_manifest(self, tmp_path, frame_count=2, height_count=1, size=4):
        spec = GridSpec(size, size, h=1.0, dt=1.0)
        frames = [f"frame_{k:04d}.pfm" for k in range(frame_count)]
        heights = [f"height_{k:04d}.pfm" for k in range(height_count)]
        write_fields(tmp_path, frames, spec)
        write_fields(tmp_path, heights, spec, value=0.0)
        manifest = Manifest(
            spec=spec,
            frame_paths=tuple(frames),
            height_paths=tuple(heights),
            base_dir=tmp_path,
        )
        write_manifest(tmp_path / "manifest.txt", manifest)
        return manifest

    def test_round_trip(self, tmp_path):
        manifest = self.make_manifest(tmp_path, frame_count=3, height_count=3)
        loaded = read_manifest(tmp_path / "manifest.txt")
        assert (tmp_path / "manifest.txt").read_text().startswith("version 1\n")
        assert loaded.spec == manifest.spec
        assert loaded.frame_paths == manifest.frame_paths
        assert loaded.height_paths == manifest.height_paths
        assert loaded.intensity_range == manifest.intensity_range
        assert loaded.base_dir == tmp_path

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "nope.txt")

    def test_missing_referenced_file(self, tmp_path):
        self.make_manifest(tmp_path)
        (tmp_path / "frame_0001.pfm").unlink()
        with pytest.raises(ManifestError, match="frame_0001"):
            read_manifest(tmp_path / "manifest.txt")

    def test_unknown_key_rejected(self, tmp_path):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text() + "wibble 3\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_duplicate_key_rejected(self, tmp_path):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text() + "width 4\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        lines = [l for l in path.read_text().splitlines() if not l.startswith("dt")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestError, match="dt"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("width", "x"),
            ("width", "4.0"),
            # int() alone would read these three as 40, 4 and 5
            ("width", "4_0"),
            ("width", "+4"),
            ("height", "５"),
            ("h", "nope"),
            ("dt", "-1"),
            ("intensity_range", "0"),
            ("intensity_range", "0 1 2"),
            ("intensity_range", "a b"),
        ],
    )
    def test_invalid_value_rejected(self, tmp_path, key, value):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        lines = [l for l in path.read_text().splitlines() if not l.startswith(key + " ")]
        path.write_text("\n".join(lines + [f"{key} {value}"]) + "\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="manifest.txt: "):
            read_manifest(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text("# generated\n\n" + path.read_text())
        assert read_manifest(path).frame_count == 2

    @pytest.mark.parametrize("version", ["0", "2"])
    def test_version_other_than_1_rejected(self, tmp_path, version):
        self.make_manifest(tmp_path)
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("version 1\n", f"version {version}\n"))
        with pytest.raises(ManifestError, match=f"manifest.txt: version must be 1, got '{version}'"):
            read_manifest(path)

    def test_invalid_intensity_range(self):
        spec = GridSpec(4, 4)
        # an empty range, then spans that are not finite
        for lo, hi in [(1.0, 1.0), (-1e308, 1e308), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ManifestError, match="intensity_range"):
                    Manifest(
                        spec=spec,
                        frame_paths=("a.pfm",),
                        height_paths=("b.pfm",),
                        intensity_range=(lo, hi),
                    )

    # a non-real end, a range of other than two values, and ends whose span
    # overflows a float
    @pytest.mark.parametrize(
        "rng",
        [("0", "2"), (0, "2"), (0, None), (0, 1, 2), (0,), 5, "01", (0, 10**400), (0, 10**5000)],
    )
    def test_malformed_intensity_range(self, rng):
        with pytest.raises(ManifestError, match="intensity_range"):
            Manifest(
                spec=GridSpec(4, 4), frame_paths=("a.pfm",), height_paths=("b.pfm",),
                intensity_range=rng,
            )

    @given(h=reals(1e-3, 1e3), dt=reals(1e-3, 1e3), bounds=st.tuples(*[reals(-1e3, 1e3)] * 2))
    @settings(max_examples=60, deadline=None)
    @example(h=np.float64(0.5), dt=np.int64(2), bounds=(np.float32(0.1), 1))
    def test_numpy_and_python_scalars_read_back_equal(self, tmp_path_factory, h, dt, bounds):
        lo, hi = sorted(bounds)
        assume(lo < hi)
        directory = tmp_path_factory.mktemp("manifest")
        for rel in ("a.pfm", "b.pfm"):
            (directory / rel).write_bytes(b"")
        manifest = Manifest(
            spec=GridSpec(4, 5, h, dt), frame_paths=("a.pfm",), height_paths=("b.pfm",),
            intensity_range=(lo, hi), base_dir=directory,
        )
        write_manifest(directory / "manifest.txt", manifest)
        assert read_manifest(directory / "manifest.txt") == manifest

    # a list or a bare str for a tuple, or a str for the Path, constructed a
    # manifest that read back unequal (and a list made it unhashable); a tuple
    # for the spec constructed one that the writer could not write
    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_paths", ["a.pfm"]),
            ("frame_paths", "a.pfm"),
            ("height_paths", ["b.pfm"]),
            ("height_paths", "b.pfm"),
            ("intensity_range", [0.0, 1.0]),
            ("base_dir", "."),
            ("spec", (4, 4)),
        ],
    )
    def test_only_the_types_read_back_construct(self, tmp_path, field, value):
        fields = dict(
            spec=GridSpec(4, 4), frame_paths=("a.pfm",), height_paths=("b.pfm",),
            intensity_range=(0.0, 1.0), base_dir=tmp_path,
        )
        for rel in ("a.pfm", "b.pfm"):
            (tmp_path / rel).write_bytes(b"")
        manifest = Manifest(**fields)
        write_manifest(tmp_path / "manifest.txt", manifest)
        loaded = read_manifest(tmp_path / "manifest.txt")
        assert loaded == manifest and hash(loaded) == hash(manifest)
        with pytest.raises(ManifestError, match=f"^{field} must be a "):
            Manifest(**{**fields, field: value})

    def test_height_count_must_be_one_or_match(self):
        spec = GridSpec(4, 4)
        with pytest.raises(ValueError):
            Manifest(
                spec=spec,
                frame_paths=("a.pfm", "b.pfm", "c.pfm"),
                height_paths=("h0.pfm", "h1.pfm"),
            )

    # none of these reads back as written: the reader strips each line and splits
    # at every line break, and bytes would be written as their repr
    @pytest.mark.parametrize(
        "path",
        [" a.pfm", "a.pfm\t", "a\nb.pfm", "a\rb.pfm", "a\u2028b.pfm", "", " ", b"a.pfm", None],
    )
    @pytest.mark.parametrize("role", ["frame", "height"])
    def test_path_that_does_not_read_back_is_refused(self, path, role):
        paths = {"frame_paths": ("f.pfm",), "height_paths": ("z.pfm",)}
        paths[f"{role}_paths"] = (path,)
        with pytest.raises(ManifestError, match="path"):
            Manifest(spec=GridSpec(4, 4), **paths)

    @given(
        width=st.integers(3, 9),
        height=st.integers(3, 9),
        h=st.floats(0.0, exclude_min=True, allow_infinity=False),
        dt=st.floats(0.0, exclude_min=True, allow_infinity=False),
        bounds=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
        # any name a file can have in one directory, edge whitespace and line breaks included
        paths=st.lists(
            st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="/\x00"),
                    min_size=1, max_size=8).filter(lambda p: p not in (".", "..")),
            min_size=2,
            max_size=5,
        ),
        static=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(3, 3, 1.0, 1.0, (0.0, 1.0), ["a b.pfm", "#c.pfm"], True)
    def test_every_manifest_that_constructs_reads_back_equal(
        self, tmp_path_factory, width, height, h, dt, bounds, paths, static
    ):
        directory = tmp_path_factory.mktemp("manifest")
        frames = paths[:-1] if static else paths[: len(paths) // 2]
        heights = paths[-1:] if static else paths[len(paths) // 2 :][: len(frames)]
        try:
            manifest = Manifest(
                spec=GridSpec(width, height, h, dt),
                frame_paths=tuple(frames),
                height_paths=tuple(heights),
                intensity_range=tuple(sorted(bounds)),
                base_dir=directory,
            )
        except ManifestError:
            reject()
        for rel in paths:
            (directory / rel).write_bytes(b"")
        write_manifest(directory / "manifest.txt", manifest)
        assert read_manifest(directory / "manifest.txt") == manifest


class TestLoadSequence:
    def test_full_resolution_frames(self, tmp_path):
        spec = GridSpec(512, 512)
        write_fields(tmp_path, ["f0.pfm", "f1.pfm", "z.pfm"], spec)
        manifest = Manifest(
            spec=spec,
            frame_paths=("f0.pfm", "f1.pfm"),
            height_paths=("z.pfm",),
            base_dir=tmp_path,
        )
        frame_0, frame_1, height_0 = load_sequence(manifest, 0, 1)
        assert frame_0.spec.width == 512
        assert frame_1.spec.shape == height_0.spec.shape == (512, 512)

    def test_static_surface_broadcast(self, tmp_path):
        spec = GridSpec(16, 16)
        frame_names = [f"f{k}.pfm" for k in range(77)]
        write_fields(tmp_path, frame_names, spec)
        write_fields(tmp_path, ["z.pfm"], spec, value=0.75)
        manifest = Manifest(
            spec=spec,
            frame_paths=tuple(frame_names),
            height_paths=("z.pfm",),
            base_dir=tmp_path,
        )
        # a late pair of a static surface reads the one shared map
        _, _, height_57 = load_sequence(manifest, 57, 58)
        assert np.array_equal(height_57.values, read_float_image(tmp_path / "z.pfm"))

    def test_dimension_mismatch_names_file(self, tmp_path):
        spec = GridSpec(8, 8)
        write_fields(tmp_path, ["good.pfm"], spec)
        write_fields(tmp_path, ["short.pfm"], GridSpec(4, 4))
        manifest = Manifest(
            spec=spec,
            frame_paths=("good.pfm", "short.pfm"),
            height_paths=("good.pfm",),
            base_dir=tmp_path,
        )
        with pytest.raises(ManifestError, match="short.pfm"):
            load_sequence(manifest, 0, 1)

    def test_intensity_mapping(self, tmp_path):
        spec = GridSpec(4, 4)
        write_fields(tmp_path, ["f.pfm", "z.pfm"], spec, value=0.25)
        manifest = Manifest(
            spec=spec,
            frame_paths=("f.pfm", "f.pfm"),
            height_paths=("z.pfm",),
            intensity_range=(2.0, 6.0),
            base_dir=tmp_path,
        )
        frame_0, _, height_0 = load_sequence(manifest, 0, 1)
        # frames map 0.25 -> 2 + 0.25 * 4; heights stay in raw units
        assert np.allclose(frame_0.values, 3.0)
        assert np.allclose(height_0.values, 0.25)

    def test_intensity_overflow_names_frame(self, tmp_path):
        spec = GridSpec(4, 4)
        write_fields(tmp_path, ["f0.pfm", "z.pfm"], spec)
        write_fields(tmp_path, ["f1.pfm"], spec, value=1e30)
        manifest = Manifest(
            spec=spec,
            frame_paths=("f0.pfm", "f1.pfm"),
            height_paths=("z.pfm",),
            intensity_range=(0.0, 1e300),
            base_dir=tmp_path,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ManifestError, match="f1.pfm"):
                load_sequence(manifest, 0, 1)

    def test_default_range_is_bitwise_identity(self, tmp_path, rng):
        spec = GridSpec(5, 5)
        raw = rng.standard_normal((5, 5)).astype(np.float32).astype(float)
        write_float_image(tmp_path / "f.pfm", raw)
        write_fields(tmp_path, ["z.pfm"], spec)
        manifest = Manifest(
            spec=spec,
            frame_paths=("f.pfm", "f.pfm"),
            height_paths=("z.pfm",),
            base_dir=tmp_path,
        )
        frame_0, _, _ = load_sequence(manifest, 0, 1)
        assert np.array_equal(frame_0.values, raw)

    # a float index is refused by name, static or evolving, never used as an index
    @pytest.mark.parametrize("i, j, name", [(0.0, 1, "i"), (0, 1.0, "j"), ("0", 1, "i")])
    @pytest.mark.parametrize("height_count", [1, 2])
    def test_pair_indices_must_be_integers(self, tmp_path, i, j, name, height_count):
        spec = GridSpec(4, 4)
        write_fields(tmp_path, ["f0.pfm", "f1.pfm", "z0.pfm", "z1.pfm"], spec)
        manifest = Manifest(
            spec=spec,
            frame_paths=("f0.pfm", "f1.pfm"),
            height_paths=("z0.pfm", "z1.pfm")[:height_count],
            base_dir=tmp_path,
        )
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            load_sequence(manifest, i, j)
        _, _, height = load_sequence(manifest, np.int64(0), np.int32(1))
        assert height.spec == spec


class TestColorWheel:
    def test_table_shape_and_anchors(self):
        assert COLOR_WHEEL.shape == (55, 3)
        assert np.array_equal(COLOR_WHEEL, np.floor(COLOR_WHEEL))
        assert COLOR_WHEEL.min() >= 0 and COLOR_WHEEL.max() <= 255
        anchors = {
            0: (255, 0, 0),
            15: (255, 255, 0),
            21: (0, 255, 0),
            25: (0, 255, 255),
            36: (0, 0, 255),
            49: (255, 0, 255),
        }
        for idx, rgb in anchors.items():
            assert tuple(COLOR_WHEEL[idx]) == rgb
        # interior ramp sample: 7 steps into the red-yellow segment
        assert tuple(COLOR_WHEEL[7]) == (255, int(255 * 7 / 15), 0)

    def test_wheel_position_axis_directions(self):
        assert wheel_position(1.0, 0.0) == 0.0
        assert wheel_position(0.0, 1.0) == 13.5
        assert wheel_position(-1.0, 0.0) == 27.0
        assert wheel_position(0.0, -1.0) == 40.5

    def test_rotation_shifts_position(self, rng):
        # rotating a vector by k wheel steps advances the position by k
        u1 = rng.standard_normal(40)
        u2 = rng.standard_normal(40)
        base = wheel_position(u1, u2)
        for k in (1, 9, 27, 40):
            theta = 2.0 * np.pi * k / 54.0
            r1 = np.cos(theta) * u1 - np.sin(theta) * u2
            r2 = np.sin(theta) * u1 + np.cos(theta) * u2
            shift = (wheel_position(r1, r2) - base) % 54.0
            assert np.allclose(shift, float(k), atol=1e-9)


class TestColorize:
    def test_zero_flow_is_white(self):
        img = colorize(np.zeros((4, 4)), np.zeros((4, 4)))
        assert img.dtype == np.uint8
        assert np.all(img == 255)

    def test_unit_flow_is_pure_red(self):
        img = colorize(np.ones((3, 3)), np.zeros((3, 3)), max_magnitude=1.0)
        assert np.all(img.reshape(-1, 3) == np.array([255, 0, 0], dtype=np.uint8))

    def test_opposite_fields_are_half_a_wheel_apart(self):
        ones = np.ones((2, 2))
        zeros = np.zeros((2, 2))
        forward = colorize(ones, zeros, max_magnitude=1.0)
        backward = colorize(-ones, zeros, max_magnitude=1.0)
        assert tuple(forward[0, 0]) == tuple(COLOR_WHEEL[0].astype(np.uint8))
        assert tuple(backward[0, 0]) == tuple(COLOR_WHEEL[27].astype(np.uint8))
        sep = (wheel_position(-1.0, 0.0) - wheel_position(1.0, 0.0)) % 54.0
        assert sep == 27.0

    def test_magnitude_scales_toward_white(self):
        img_half = colorize(np.full((2, 2), 0.5), np.zeros((2, 2)), max_magnitude=1.0)
        # half magnitude sits halfway between white and pure red
        assert tuple(img_half[0, 0]) == (255, 127, 127)

    def test_clipping_beyond_max(self):
        img = colorize(np.full((2, 2), 10.0), np.zeros((2, 2)), max_magnitude=1.0)
        assert tuple(img[0, 0]) == (255, 0, 0)

    def test_auto_normalization_uses_percentile(self, rng):
        u1 = np.ones((10, 10))
        u1[0, 0] = 1000.0
        u2 = np.zeros((10, 10))
        auto = colorize(u1, u2)
        explicit = colorize(u1, u2, max_magnitude=float(np.percentile(np.hypot(u1, u2), 99)))
        assert np.array_equal(auto, explicit)

    @pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1.0])
    def test_invalid_max_magnitude(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="max_magnitude"):
                colorize(np.ones((2, 2)), np.zeros((2, 2)), max_magnitude=scale)

    @given(
        height=st.integers(1, 6),
        width=st.integers(1, 6),
        max_magnitude=st.floats(1e-3, 10.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_broadcast_reference(self, height, width, max_magnitude, data):
        # non-square grids, signed zeros, and magnitudes up to far above the scale
        shape = (height, height + width)
        elements = st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0])
        u1, u2 = (data.draw(hnp.arrays(np.float64, shape, elements=elements)) for _ in range(2))
        # a vector at the wrap angle: fk == 54, so k0 = 54 and k1 = 0
        u1[0, 0], u2[0, 0] = data.draw(st.floats(1e-3, 50.0)), -0.0
        assert wheel_position(u1[0, 0], u2[0, 0]) == 54.0
        zero = np.zeros(shape)
        for v1, v2 in ((u1, u2), (zero, zero)):
            expected = broadcast_colorize(v1, v2, max_magnitude)
            assert np.array_equal(colorize(v1, v2, max_magnitude), expected)
            scale = default_max_magnitude(np.hypot(v1, v2))
            assert np.array_equal(colorize(v1, v2), broadcast_colorize(v1, v2, scale))

    @pytest.mark.parametrize("shape", [(70, 130), (3, 9000), (20000,)])
    def test_strips_match_broadcast_reference(self, rng, shape):
        # grids of several row strips, a partial last one, one-row strips of a
        # wide grid, and a flat array
        u1, u2 = 2.0 * rng.standard_normal(shape), 2.0 * rng.standard_normal(shape)
        assert np.array_equal(colorize(u1, u2, 1.5), broadcast_colorize(u1, u2, 1.5))

    @pytest.mark.parametrize("shapes", [((4, 4), (1, 4)), ((1, 4), (4, 4)), ((4, 4), (4,))])
    def test_components_of_different_shapes_rejected(self, shapes):
        # broadcasting one component against the other would render a
        # flow that was never given
        with pytest.raises(ValueError, match="differ in shape"):
            colorize(*(np.ones(shape) for shape in shapes))


class TestPpm:
    def test_byte_layout(self, tmp_path):
        img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        data = path.read_bytes()
        assert data == b"P6\n4 2\n255\n" + img.tobytes()

    @pytest.mark.parametrize("layout", ["c-order", "fortran-order", "strided"])
    def test_matches_concatenated_bytes(self, tmp_path, rng, layout):
        """Header, then pixels: the bytes of ``header + rgb.tobytes()``."""
        rgb = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
        arg = {
            "c-order": rgb,
            "fortran-order": np.asfortranarray(rgb),
            "strided": rng.integers(0, 256, (10, 21, 3), dtype=np.uint8)[::-2, ::3],
        }[layout]
        write_ppm(tmp_path / "f.ppm", arg)
        assert (tmp_path / "f.ppm").read_bytes() == b"P6\n7 5\n255\n" + arg.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=float))

    def test_rejects_wrong_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2), dtype=np.uint8))
