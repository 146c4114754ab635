import contextlib
import dataclasses
import filecmp
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import surfaceflow.cli
import surfaceflow.io
from surfaceflow.cli import angular_error_deg, endpoint_error, main
from surfaceflow.geometry import build_geometry
from surfaceflow.grid import GridSpec, ScalarField, VectorField
from surfaceflow.io import (
    Manifest,
    ManifestError,
    colorize,
    load_sequence,
    read_float_image,
    read_flow,
    read_manifest,
    write_float_image,
    write_flow,
    write_manifest,
    write_ppm,
)
from surfaceflow.model import FlowProblem, energy, energy_gradient, problem_from_frames
from surfaceflow.solver import METHODS, SolverConfig, solve
from surfaceflow.synth import Translation, make_scene


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            report[key] = value
    return code, report


@pytest.fixture
def translation_dir(tmp_path, capsys):
    out = tmp_path / "scene"
    code = main(["synth", "flat-translate", "--out", str(out), "--size", "49", "--frames", "2"])
    capsys.readouterr()
    assert code == 0
    return out


def scale_intensities(dataset, line):
    """Rewrite the dataset's manifest to map frames onto ``intensity_range line``."""
    manifest = dataset / "manifest.txt"
    text = manifest.read_text()
    assert "\nintensity_range 0.0 1.0\n" in text
    manifest.write_text(text.replace("\nintensity_range 0.0 1.0\n", f"\nintensity_range {line}\n"))
    return manifest


class TestErrorMetrics:
    def test_identical_fields(self):
        u = np.ones((3, 3))
        assert np.all(endpoint_error(u, u, u, u) == 0.0)
        assert np.allclose(angular_error_deg(u, u, u, u), 0.0, atol=1e-6)

    def test_unit_cross_error(self):
        one = np.ones((2, 2))
        zero = np.zeros((2, 2))
        epe = endpoint_error(one, zero, zero, one)
        assert np.allclose(epe, math.sqrt(2.0))
        # lifted 3-vectors (1,0,1) and (0,1,1) subtend exactly 60 degrees
        ang = angular_error_deg(one, zero, zero, one)
        assert np.allclose(ang, 60.0, atol=1e-10)


class TestSynthCommand:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        out = tmp_path / "scene"
        code, report = run_cli(
            capsys, "synth", "flat-translate", "--out", str(out), "--size", "33"
        )
        assert code == 0
        assert report["scene"] == "flat-translate"
        manifest = read_manifest(out / "manifest.txt")
        assert manifest.spec.width == 33
        assert len(manifest.frame_paths) == 3
        # static surface: one shared height map
        assert manifest.height_paths == ("height_static.pfm",)
        u1, u2 = read_flow(out / "truth_0000_0001.flo")
        assert np.all(u1 == 1.0)
        assert np.all(u2 == 0.0)

    def test_moving_bump_writes_per_frame_heights(self, tmp_path, capsys):
        out = tmp_path / "bump"
        code, _ = run_cli(
            capsys, "synth", "moving-bump", "--out", str(out), "--size", "17"
        )
        assert code == 0
        manifest = read_manifest(out / "manifest.txt")
        assert len(manifest.height_paths) == 3
        h0 = (out / "height_0000.pfm").read_bytes()
        h1 = (out / "height_0001.pfm").read_bytes()
        assert h0 != h1

    def test_deterministic_regeneration(self, tmp_path, capsys):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _ = run_cli(
                capsys,
                "synth",
                "flat-rotate",
                "--out",
                str(out),
                "--size",
                "17",
                "--noise",
                "0.01",
                "--seed",
                "11",
            )
            assert code == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files == sorted(p.name for p in dirs[1].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
        assert mismatch == [] and errors == []

    def test_unknown_scene_rejected(self, tmp_path, capsys):
        code = main(["synth", "warp-field", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 2

    # an int beyond the float range is a usage error naming the argument, and
    # nothing is written
    @pytest.mark.parametrize("flag, name", [("--size", "size"), ("--frames", "frame_count")])
    def test_count_beyond_float_range_is_usage_error(self, tmp_path, capsys, flag, name):
        out = tmp_path / "x"
        assert main(["synth", "flat-static", "--out", str(out), flag, str(10**400)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be at least")
        assert not out.exists()

    # so is a seed below 0, which numpy refuses only while rendering, and a size
    # beyond sys.maxsize, the largest numpy shape
    @pytest.mark.parametrize(
        "flag, value, name", [("--seed", "-1", "seed"), ("--size", str(sys.maxsize + 1), "size")]
    )
    def test_count_out_of_range_is_usage_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "x"
        assert main(["synth", "flat-static", "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be at least")
        assert not out.exists()


class TestFlowCommand:
    # a max_iter beyond sys.maxsize, the largest islice takes, is a usage error
    # naming the argument, and nothing is written
    def test_max_iter_beyond_maxsize_is_usage_error(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        manifest = str(translation_dir / "manifest.txt")
        big = str(sys.maxsize + 1)
        assert main(["flow", "--manifest", manifest, "--out", str(out), "--max-iter", big]) == 2
        assert capsys.readouterr().err.startswith("error: max_iter must be at least")
        assert not out.exists()

    def test_translation_defaults_recover_flow(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
        )
        assert code == 0
        assert report["converged"] == "true"
        assert report["frame_a"] == "0" and report["frame_b"] == "1"
        assert report["alpha"] == "10.0"
        code, report = run_cli(
            capsys,
            "eval",
            "--flow",
            str(out / "flow_0000_0001.flo"),
            "--truth",
            str(translation_dir / "truth_0000_0001.flo"),
        )
        assert code == 0
        assert float(report["epe_mean"]) <= 0.1

    def test_report_file_matches_stdout(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
            "--method",
            "cg",
        )
        assert code == 0
        text = (out / "report_0000_0001.txt").read_text()
        for key in ("iterations", "energy_final", "grad_inf_norm", "converged"):
            assert f"{key}={report[key]}" in text

    def test_non_convergence_exit_code_and_artifacts(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
            "--max-iter",
            "1",
            "--tol",
            "1e-14",
        )
        assert code == 3
        assert report["converged"] == "false"
        assert (out / "flow_0000_0001.flo").is_file()
        assert (out / "report_0000_0001.txt").is_file()

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_spelling_accepted(self, tmp_path, capsys, translation_dir, method):
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(tmp_path / "run"),
            "--method",
            method,
        )
        assert code == 0
        assert report["method"] == method

    def test_method_names_matched_exactly(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "x"
        manifest = str(translation_dir / "manifest.txt")
        code = main(["flow", "--manifest", manifest, "--out", str(out), "--method", "CG"])
        assert code == 2
        assert "invalid choice: 'CG'" in capsys.readouterr().err
        assert not out.exists()

    # the key=value lines are the report format: every key, in order
    @pytest.mark.parametrize("method", METHODS)
    def test_report_keys_in_order(self, tmp_path, capsys, translation_dir, method):
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
            "--method",
            method,
        )
        assert code == 0
        lines = (out / "report_0000_0001.txt").read_text().splitlines()
        assert [line.partition("=")[0] for line in lines] == [
            "frame_a",
            "frame_b",
            "width",
            "height",
            "h",
            "dt",
            "alpha",
            "method",
            "omega",
            "tol",
            "max_iter",
            "iterations",
            "converged",
            "energy_initial",
            "energy_final",
            "grad_inf_norm",
            "flow_file",
        ]
        assert report["method"] == method and report["omega"] == "1.9"

    def test_manifest_version_2_is_io_error(self, tmp_path, capsys, translation_dir):
        manifest = translation_dir / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("version 1\n", "version 2\n"))
        code = main(["flow", "--manifest", str(manifest), "--out", str(tmp_path / "x")])
        assert code == 4
        assert capsys.readouterr().err == f"error: {manifest}: version must be 1, got '2'\n"

    def test_non_ascii_dimension_is_io_error(self, tmp_path, capsys, translation_dir):
        manifest = translation_dir / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert "\nheight 49\n" in text
        # full-width digits, which int() alone reads as 49
        manifest.write_text(text.replace("\nheight 49\n", "\nheight ４９\n"), encoding="utf-8")
        code = main(["flow", "--manifest", str(manifest), "--out", str(tmp_path / "x")])
        assert code == 4
        assert "ASCII decimal digits" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_alpha_zero_rejected_at_parsing(self, tmp_path, capsys, translation_dir):
        code = main(
            [
                "flow",
                "--manifest",
                str(translation_dir / "manifest.txt"),
                "--out",
                str(tmp_path / "x"),
                "--alpha",
                "0",
            ]
        )
        capsys.readouterr()
        assert code == 2

    # each positive flag is refused at parsing, so no input is read and no file is written
    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--manifest", "none.txt", "--out", "x", "--tol", "0"],
            ["flow", "--manifest", "none.txt", "--out", "x", "--alpha", "nan"],
            ["energy", "--manifest", "none.txt", "--flow", "none.flo", "--alpha", "inf"],
            ["color", "--flow", "none.flo", "--out", "x.ppm", "--max-magnitude", "-1"],
        ],
        ids=["tol", "flow-alpha", "energy-alpha", "max-magnitude"],
    )
    def test_positive_flag_refused_before_any_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert f"invalid positive value: '{argv[-1]}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_frame_pair_rejected(self, tmp_path, capsys, translation_dir):
        code = main(
            [
                "flow",
                "--manifest",
                str(translation_dir / "manifest.txt"),
                "--out",
                str(tmp_path / "x"),
                "--frame",
                "7",
            ]
        )
        capsys.readouterr()
        assert code == 2

    # neither a removed flag (--h, --omega) nor the prefix of a present one may
    # be read as a flag it abbreviates
    @pytest.mark.parametrize("flag, value", [("--h", "0.5"), ("--meth", "cg"), ("--omega", "1.5")])
    def test_flag_prefix_is_usage_error(self, tmp_path, capsys, translation_dir, flag, value):
        out = tmp_path / "x"
        manifest = str(translation_dir / "manifest.txt")
        code = main(["flow", "--manifest", manifest, "--out", str(out), flag, value])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_io_error(self, tmp_path, capsys):
        code = main(
            ["flow", "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "x")]
        )
        capsys.readouterr()
        assert code == 4

    def test_deterministic_output(self, tmp_path, capsys, translation_dir):
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _ = run_cli(
                capsys,
                "flow",
                "--manifest",
                str(translation_dir / "manifest.txt"),
                "--out",
                str(out),
            )
            assert code == 0
            blobs.append((out / "flow_0000_0001.flo").read_bytes())
        assert blobs[0] == blobs[1]

    def test_late_frame_pair_of_long_sequence(self, tmp_path, capsys):
        scene = tmp_path / "long"
        code, _ = run_cli(
            capsys,
            "synth",
            "flat-static",
            "--out",
            str(scene),
            "--size",
            "17",
            "--frames",
            "77",
        )
        assert code == 0
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(scene / "manifest.txt"),
            "--out",
            str(out),
            "--frame",
            "57",
        )
        assert code == 0
        assert report["frame_a"] == "57" and report["frame_b"] == "58"
        # a static scene has no temporal change, so the flow is exactly zero
        u1, u2 = read_flow(out / "flow_0057_0058.flo")
        assert np.all(u1 == 0.0) and np.all(u2 == 0.0)

    def test_frame_b_pair_ignores_height_rate(self, tmp_path, capsys):
        scene = tmp_path / "bump"
        code, _ = run_cli(capsys, "synth", "moving-bump", "--out", str(scene), "--size", "17")
        assert code == 0
        out = tmp_path / "run"
        code, report = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(scene / "manifest.txt"),
            "--out",
            str(out),
            "--frame",
            "0",
            "--frame-b",
            "2",
        )
        assert code == 0
        assert report["frame_b"] == "2"
        # the library with the height rate of frames 0 -> 2 gives the same
        # bytes as the CLI, which builds the geometry from height map 0 alone
        frame_0, frame_2, height_0 = load_sequence(read_manifest(scene / "manifest.txt"), 0, 2)
        z_next = ScalarField(height_0.spec, read_float_image(scene / "height_0002.pfm"))
        geom = build_geometry(height_0, z_next, dt=2.0)
        flow, _ = solve(problem_from_frames(frame_0, frame_2, geom, dt=2.0), SolverConfig())
        write_flow(tmp_path / "library.flo", flow.u1.values, flow.u2.values)
        assert (out / "flow_0000_0002.flo").read_bytes() == (tmp_path / "library.flo").read_bytes()

    # an infinite step is a manifest error; a finite spacing whose square
    # overflows the quadrature weight is a validation error
    @pytest.mark.parametrize(
        "line, value, expected", [("dt", "inf", 4), ("h", "inf", 4), ("h", "1e160", 2)]
    )
    def test_extreme_manifest_step(self, tmp_path, capsys, translation_dir, line, value, expected):
        manifest = translation_dir / "manifest.txt"
        text = manifest.read_text()
        assert f"\n{line} 1.0\n" in text
        manifest.write_text(text.replace(f"\n{line} 1.0\n", f"\n{line} {value}\n"))
        # a numpy warning before the check would escape main as an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["flow", "--manifest", str(manifest), "--out", str(tmp_path / "x")])
        assert code == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    # a range whose span overflows is a manifest error; so is a finite span
    # that carries a stored sample past the float range
    @pytest.mark.parametrize("line, big_frame", [("-1e308 1e308", False), ("0 1e300", True)])
    def test_overflowing_intensity_range_is_io_error(
        self, tmp_path, capsys, translation_dir, line, big_frame
    ):
        manifest = scale_intensities(translation_dir, line)
        if big_frame:
            write_float_image(translation_dir / "frame_0001.pfm", np.full((49, 49), 1e30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = ["--manifest", str(manifest), "--method", "cg", "--out", str(tmp_path / "x")]
            code = main(["flow"] + args)
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "intensity_range" in err and (not big_frame or "frame_0001.pfm" in err)
        assert not (tmp_path / "x").exists()

    def test_overflowing_data_term_is_usage_error(self, tmp_path, capsys, translation_dir):
        # a finite intensity scale whose squared derivatives overflow the energy
        manifest = scale_intensities(translation_dir, "0.0 1e160")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = ["--manifest", str(manifest), "--method", "cg", "--out", str(tmp_path / "x")]
            code = main(["flow"] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "data term" in err
        assert not (tmp_path / "x").exists()

    # constant frames on a curved, evolving surface carry no motion at all
    @pytest.mark.parametrize("method", METHODS)
    def test_textureless_frames_give_zero_flow(self, tmp_path, capsys, method):
        scene = tmp_path / "bump"
        code, _ = run_cli(capsys, "synth", "moving-bump", "--out", str(scene), "--size", "17")
        assert code == 0
        for name in ("frame_0000.pfm", "frame_0001.pfm"):
            write_float_image(scene / name, np.full((17, 17), 0.5))
        out = tmp_path / "run"
        args = ["--manifest", str(scene / "manifest.txt"), "--method", method, "--out", str(out)]
        code, report = run_cli(capsys, "flow", *args)
        assert code == 0
        assert report["converged"] == "true" and report["iterations"] == "0"
        u1, u2 = read_flow(out / "flow_0000_0001.flo")
        assert np.all(u1 == 0.0) and np.all(u2 == 0.0)

    def test_color_flag_writes_image(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        code, _ = run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
            "--color",
        )
        assert code == 0
        data = (out / "flow_0000_0001.ppm").read_bytes()
        assert data.startswith(b"P6\n49 49\n255\n")


@pytest.fixture(scope="module")
def long_bump(tmp_path_factory):
    """A 77-frame moving-bump dataset at 17² and the CLI's flow for its pair (57, 58).

    The catalog scene moves its pattern one pixel per frame, which leaves a
    17² grid long before frame 76, so ``synth`` renders it at 0.05 pixel per
    frame; the surface evolves as in the catalog.
    """
    root = tmp_path_factory.mktemp("long")
    scene, out = root / "bump", root / "run"

    def slowed(*args, **kwargs):
        return dataclasses.replace(make_scene(*args, **kwargs), motion=Translation(0.05, 0.0))

    with contextlib.redirect_stdout(io.StringIO()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surfaceflow.cli, "make_scene", slowed)
            synth = ["synth", "moving-bump", "--out", str(scene), "--size", "17", "--frames", "77"]
            assert main(synth) == 0
        manifest = str(scene / "manifest.txt")
        assert main(["flow", "--manifest", manifest, "--frame", "57", "--out", str(out)]) == 0
    return scene, (out / "flow_0057_0058.flo").read_bytes()


class TestLongSequence:
    """A pair of a long sequence reads its two frames and one height map only."""

    def flow_57(self, scene, out):
        manifest = str(scene / "manifest.txt")
        return main(["flow", "--manifest", manifest, "--frame", "57", "--out", str(out)])

    def test_flow_and_energy_read_three_maps(self, tmp_path, capsys, monkeypatch, long_bump):
        scene, _ = long_bump
        opened = []

        def counting_reader(path):
            opened.append(path)
            return read_float_image(path)

        monkeypatch.setattr(surfaceflow.io, "read_float_image", counting_reader)
        pair_maps = ["frame_0057.pfm", "frame_0058.pfm", "height_0057.pfm"]
        assert self.flow_57(scene, tmp_path / "run") == 0
        assert len(opened) == 3
        flow_file = str(tmp_path / "run" / "flow_0057_0058.flo")
        args = ["--manifest", str(scene / "manifest.txt"), "--frame", "57", "--flow", flow_file]
        code, _ = run_cli(capsys, "energy", *args)
        assert code == 0
        assert len(opened) == 6
        assert [p.name for p in opened] == pair_maps * 2

    def test_flow_matches_library_on_the_three_maps(self, tmp_path, long_bump):
        scene, cli_bytes = long_bump
        spec = read_manifest(scene / "manifest.txt").spec
        field = lambda name: ScalarField(spec, read_float_image(scene / name))
        geom = build_geometry(field("height_0057.pfm"))
        problem = problem_from_frames(field("frame_0057.pfm"), field("frame_0058.pfm"), geom)
        flow, _ = solve(problem, SolverConfig())
        write_flow(tmp_path / "library.flo", flow.u1.values, flow.u2.values)
        assert (tmp_path / "library.flo").read_bytes() == cli_bytes

    def test_unread_frame_is_not_checked(self, tmp_path, capsys, long_bump):
        scene = shutil.copytree(long_bump[0], tmp_path / "bump")
        (scene / "frame_0003.pfm").write_bytes(b"garbage")
        assert self.flow_57(scene, tmp_path / "run") == 0
        assert (tmp_path / "run" / "flow_0057_0058.flo").read_bytes() == long_bump[1]

    def test_corrupt_pair_frame_is_io_error(self, tmp_path, capsys, long_bump):
        scene = shutil.copytree(long_bump[0], tmp_path / "bump")
        (scene / "frame_0058.pfm").write_bytes(b"garbage")
        assert self.flow_57(scene, tmp_path / "run") == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "frame_0058.pfm" in err

    @pytest.mark.parametrize("i, j", [(1, 1), (-1, 0), pytest.param(0, 10**5000, id="0-beyond-str")])
    def test_bad_pair_is_value_error(self, long_bump, i, j):
        manifest = read_manifest(long_bump[0] / "manifest.txt")
        with pytest.raises(ValueError, match="out of range") as info:
            load_sequence(manifest, i, j)
        assert not isinstance(info.value, ManifestError)

class TestEnergyCommand:
    def test_energy_of_written_flow(self, tmp_path, capsys, translation_dir):
        out = tmp_path / "run"
        run_cli(
            capsys,
            "flow",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--out",
            str(out),
            "--method",
            "cg",
        )
        code, report = run_cli(
            capsys,
            "energy",
            "--manifest",
            str(translation_dir / "manifest.txt"),
            "--flow",
            str(out / "flow_0000_0001.flo"),
        )
        assert code == 0
        assert float(report["energy"]) >= 0.0
        assert float(report["grad_inf_norm"]) >= 0.0

    @pytest.mark.parametrize("scene", ["flat-translate", "paraboloid-rotate", "moving-bump"])
    def test_report_matches_library(self, tmp_path, capsys, scene):
        # flat, curved and evolving surfaces: the report's numbers are those of
        # energy() and energy_gradient() on the problem the CLI builds
        data = tmp_path / scene
        code, _ = run_cli(capsys, "synth", scene, "--out", str(data), "--size", "17")
        assert code == 0
        draws = np.random.default_rng(3)
        flow = tmp_path / "u.flo"
        write_flow(flow, draws.standard_normal((17, 17)), draws.standard_normal((17, 17)))
        argv = ("energy", "--manifest", str(data / "manifest.txt"), "--frame", "1")
        code, report = run_cli(capsys, *argv, "--flow", str(flow))
        assert code == 0

        manifest = read_manifest(data / "manifest.txt")
        frame_1, frame_2, height_1 = load_sequence(manifest, 1, 2)
        geom = build_geometry(height_1)
        problem = problem_from_frames(frame_1, frame_2, geom, dt=manifest.spec.dt)
        u = VectorField.from_arrays(manifest.spec, *read_flow(flow))
        grad = energy_gradient(problem, u)
        assert float(report["energy"]) == energy(problem, u)
        norm = max(float(np.max(np.abs(grad.u1.values))), float(np.max(np.abs(grad.u2.values))))
        assert float(report["grad_inf_norm"]) == norm

    def test_overflowing_data_term_is_usage_error(self, capsys, translation_dir):
        manifest = scale_intensities(translation_dir, "0.0 1e160")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = ["--manifest", str(manifest), "--flow", str(translation_dir / "truth_0000_0001.flo")]
            code = main(["energy"] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "data term" in err

    def test_flow_shape_mismatch(self, tmp_path, capsys, translation_dir):
        bad = tmp_path / "bad.flo"
        write_flow(bad, np.zeros((3, 3)), np.zeros((3, 3)))
        code = main(
            [
                "energy",
                "--manifest",
                str(translation_dir / "manifest.txt"),
                "--flow",
                str(bad),
            ]
        )
        capsys.readouterr()
        assert code == 2


class TestColorCommand:
    def test_writes_ppm(self, tmp_path, capsys):
        flow = tmp_path / "u.flo"
        write_flow(flow, np.ones((4, 4)), np.zeros((4, 4)))
        out = tmp_path / "u.ppm"
        code, report = run_cli(
            capsys, "color", "--flow", str(flow), "--out", str(out), "--max-magnitude", "1"
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P6\n4 4\n255\n")
        # unit rightward flow at full saturation is the wheel's first color
        assert data[-3:] == bytes([255, 0, 0])

    @pytest.mark.parametrize("scale", [1.0, 0.0])
    def test_default_magnitude_is_99th_percentile(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(5)
        flow = tmp_path / "u.flo"
        write_flow(flow, scale * rng.standard_normal((9, 11)), scale * rng.standard_normal((9, 11)))
        out = tmp_path / "u.ppm"
        code, report = run_cli(capsys, "color", "--flow", str(flow), "--out", str(out))
        assert code == 0
        u1, u2 = read_flow(flow)
        expected = float(np.percentile(np.hypot(u1, u2), 99)) if scale else 1.0
        assert float(report["max_magnitude"]) == expected
        reference = tmp_path / "reference.ppm"
        write_ppm(reference, colorize(u1, u2))
        assert out.read_bytes() == reference.read_bytes()

    def test_corrupt_flow_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.flo"
        bad.write_bytes(b"\x00" * 28)
        code = main(["color", "--flow", str(bad), "--out", str(tmp_path / "x.ppm")])
        capsys.readouterr()
        assert code == 4


class TestEvalCommand:
    def test_identical_files(self, tmp_path, capsys):
        flow = tmp_path / "u.flo"
        write_flow(flow, np.ones((4, 4)), np.zeros((4, 4)))
        code, report = run_cli(capsys, "eval", "--flow", str(flow), "--truth", str(flow))
        assert code == 0
        assert float(report["epe_mean"]) == 0.0
        assert float(report["epe_median"]) == 0.0
        assert float(report["angular_error_mean_deg"]) == 0.0
        assert float(report["max_magnitude"]) == 1.0

    def test_orthogonal_unit_fields(self, tmp_path, capsys):
        est = tmp_path / "est.flo"
        tru = tmp_path / "tru.flo"
        write_flow(est, np.zeros((4, 4)), np.ones((4, 4)))
        write_flow(tru, np.ones((4, 4)), np.zeros((4, 4)))
        code, report = run_cli(capsys, "eval", "--flow", str(est), "--truth", str(tru))
        assert code == 0
        assert float(report["epe_mean"]) == pytest.approx(math.sqrt(2.0), rel=1e-7)
        assert float(report["angular_error_mean_deg"]) == pytest.approx(60.0, rel=1e-6)

    def test_dimension_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.flo"
        b = tmp_path / "b.flo"
        write_flow(a, np.zeros((4, 4)), np.zeros((4, 4)))
        write_flow(b, np.zeros((3, 3)), np.zeros((3, 3)))
        code = main(["eval", "--flow", str(a), "--truth", str(b)])
        capsys.readouterr()
        assert code == 2


class TestPinnedBytes:
    """A polynomial 17x13 dataset written through the file layer, then CG's
    flow file and report and the energy report on that flow, byte for byte.
    SOR (its einsum order) and ``color`` and ``eval`` (libm's atan2 and
    hypot) may round differently between numpy builds, so they are left out."""

    def test_cg_flow_and_energy(self, tmp_path, capsys):
        spec = GridSpec(17, 13, h=0.5)
        x2, x1 = 0.5 * np.mgrid[-6:7, -8:9]

        def frame(shift):
            y1, y2 = x1 - shift, x2 - 0.5 * shift
            return 1.0 / (1.0 + y1 * y1 + 2.0 * y2 * y2) + 0.5 * y1 * y2 / (4.0 + y1 * y1 + y2 * y2)

        fields = {
            "frame_0000.pfm": frame(0.0),
            "frame_0001.pfm": frame(0.25),
            "height_0000.pfm": 0.125 * (x1 * x1 - x1 * x2 + 0.5 * x2 * x2),
            "height_0001.pfm": 0.125 * (x1 * x1 - x1 * x2 + 0.5 * x2 * x2) + 0.0625 * x1,
        }
        for name, values in fields.items():
            write_float_image(tmp_path / name, values)
        names = sorted(fields)
        write_manifest(tmp_path / "manifest.txt", Manifest(spec, tuple(names[:2]), tuple(names[2:])))
        manifest, out = str(tmp_path / "manifest.txt"), tmp_path / "out"

        code, report = run_cli(capsys, "flow", "--manifest", manifest, "--method", "cg", "--out", str(out))
        assert code == 0
        flo = out / "flow_0000_0001.flo"
        pinned = (hashlib.sha256(flo.read_bytes()).hexdigest(), report["iterations"],
                  report["energy_final"], report["grad_inf_norm"])
        assert pinned == (
            "a96bc702e21327ce67da3e16a24bc58ad85f91c6d3fb6a745fba08b589c2aa08",
            "58",
            "0.016423043718389284",
            "8.364189917288347e-07",
        )

        code, report = run_cli(capsys, "energy", "--manifest", manifest, "--flow", str(flo))
        assert code == 0
        assert report == {
            "frame_a": "0",
            "frame_b": "1",
            "alpha": "10.0",
            "energy": "0.01642304371839686",
            "grad_inf_norm": "8.43773238532494e-07",
        }


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_optional_flags_do_not_leak(self, tmp_path, capsys):
        data = tmp_path / "bump"
        assert run_cli(capsys, "synth", "moving-bump", "--out", str(data), "--size", "17")[0] == 0
        manifest = str(data / "manifest.txt")
        truth = str(data / "truth_0000_0001.flo")

        energy_argv = ("energy", "--manifest", manifest, "--flow", truth)
        assert run_cli(capsys, *energy_argv, "--frame-b", "2")[1]["frame_b"] == "2"
        assert run_cli(capsys, *energy_argv)[1]["frame_b"] == "1"

        color_argv = ("color", "--flow", truth, "--out", str(tmp_path / "c.ppm"))
        assert run_cli(capsys, *color_argv, "--max-magnitude", "0.5")[1]["max_magnitude"] == "0.5"
        u1, u2 = read_flow(truth)
        default = repr(float(np.percentile(np.hypot(u1, u2), 99)))
        assert run_cli(capsys, *color_argv)[1]["max_magnitude"] == default

        flow_argv = ("flow", "--manifest", manifest, "--method", "cg")
        assert run_cli(capsys, *flow_argv, "--out", str(tmp_path / "a"), "--color")[0] == 0
        assert run_cli(capsys, *flow_argv, "--out", str(tmp_path / "b"))[0] == 0
        assert (tmp_path / "a" / "flow_0000_0001.ppm").is_file()
        assert not (tmp_path / "b" / "flow_0000_0001.ppm").exists()

    def test_argument_error_then_valid_call(self, tmp_path, capsys):
        flow = tmp_path / "u.flo"
        write_flow(flow, np.ones((4, 4)), np.zeros((4, 4)))
        assert main(["eval", "--flow", str(flow)]) == 2
        assert "--truth" in capsys.readouterr().err
        code, report = run_cli(capsys, "eval", "--flow", str(flow), "--truth", str(flow))
        assert code == 0 and report["epe_mean"] == "0.0"

    def test_dispatch_reads_the_current_command(self, tmp_path, capsys, monkeypatch):
        flow = tmp_path / "u.flo"
        write_flow(flow, np.ones((4, 4)), np.zeros((4, 4)))
        argv = ["eval", "--flow", str(flow), "--truth", str(flow)]
        assert main(argv) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(surfaceflow.cli, "cmd_eval", lambda args: seen.append(args) or 7)
        assert main(argv) == 7
        assert [(args.command, args.flow) for args in seen] == [("eval", str(flow))]


class TestParserDefaults:
    def test_defaults_are_the_library_defaults(self):
        parse = surfaceflow.cli._parser().parse_args
        flow = parse(["flow", "--manifest", "m", "--out", "o"])
        assert (flow.method, flow.tol, flow.max_iter) == dataclasses.astuple(
            SolverConfig()
        )
        energy_args = parse(["energy", "--manifest", "m", "--flow", "f"])
        assert flow.alpha == energy_args.alpha == FlowProblem.alpha


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_cleanly(self, capsys):
        code = main(["--help"])
        capsys.readouterr()
        assert code == 0


class TestModuleEntryPoint:
    # ``python -m surfaceflow`` goes through ``__main__`` and ``run()``, which
    # turn main()'s return value into the process exit code
    @staticmethod
    def run_module(*argv, cwd):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "surfaceflow", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )

    def test_no_arguments_exits_2(self, tmp_path):
        assert self.run_module(cwd=tmp_path).returncode == 2

    def test_synth_exits_0(self, tmp_path):
        argv = ("synth", "flat-translate", "--size", "17", "--out", "data")
        done = self.run_module(*argv, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "data" / "manifest.txt").is_file()
