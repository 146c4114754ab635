import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfaceflow.grid import GridSpec, ScalarField, coordinate_arrays
from surfaceflow.geometry import build_geometry
from surfaceflow.io import write_float_image, write_flow
from surfaceflow.model import problem_from_frames
from surfaceflow.solver import SolverConfig, solve
from surfaceflow.synth import (
    SCENE_NAMES,
    _UNIT_PATTERN,
    Flat,
    GaussianPattern,
    MovingBump,
    Rotation,
    SyntheticScene,
    Translation,
    make_scene,
    render,
)

from conftest import same_bits
from reference import (
    bca_residual,
    pattern_grad,
    rotation_inverse,
    sampled_render,
    translation_inverse,
)


def pixel_scene(size, surface, pattern, motion, frame_count=3, **kwargs):
    spec = GridSpec(size, size, h=1.0, dt=1.0)
    return SyntheticScene(
        spec=spec,
        surface=surface,
        pattern=pattern,
        motion=motion,
        frame_count=frame_count,
        origin=(0.0, 0.0),
        **kwargs,
    )


def unit_domain_scene(n, motion, sigma=0.2, frame_count=3):
    spec = GridSpec(n, n, h=1.0 / (n - 1), dt=1.0)
    pattern = GaussianPattern(base=0.3, components=((0.5, 0.55, 0.45, sigma),))
    return SyntheticScene(
        spec=spec,
        surface=Flat(),
        pattern=pattern,
        motion=motion,
        frame_count=frame_count,
        origin=(0.0, 0.0),
    )


class TestSceneValidation:
    @pytest.mark.parametrize(
        "kwargs", [dict(frame_count=3.0), dict(frame_count="3"), dict(seed=2.5), dict(seed=None)]
    )
    def test_integer_fields(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            pixel_scene(17, Flat(), GaussianPattern(), Translation(0.0, 0.0), **kwargs)

    def test_numpy_integers_accepted(self):
        scene = pixel_scene(
            17, Flat(), GaussianPattern(), Translation(0.0, 0.0),
            frame_count=np.int64(3), seed=np.int32(2),
        )
        assert len(render(scene)[0]) == 3

    def test_noise_sigma(self):
        with pytest.raises(ValueError):
            make_scene("flat-translate", size=17, noise_sigma=-0.1)

    @pytest.mark.parametrize(
        "noise_sigma", ["0.1", -1e-3, float("nan"), float("inf"), np.array([0.1]), None]
    )
    def test_noise_sigma_not_a_non_negative_real(self, noise_sigma):
        with pytest.raises(ValueError, match="^noise_sigma"):
            make_scene("flat-translate", size=17, noise_sigma=noise_sigma)

    # ints beyond the float range, one with more digits than Python converts to a
    # string, are refused by name at construction, before render would overflow
    @pytest.mark.parametrize("value", [10**400, 10**5000], ids=["beyond-float", "beyond-str"])
    @pytest.mark.parametrize("name", ["frame_count", "noise_sigma"])
    def test_int_beyond_float_range(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_scene("flat-static", **{"size": 9, name: value})

    @pytest.mark.parametrize("noise_sigma", [0, 0.0, np.float64(0.0), np.float32(1e-3)])
    def test_zero_and_numpy_noise_sigma_accepted(self, noise_sigma):
        scene = make_scene("flat-translate", size=17, noise_sigma=noise_sigma)
        assert scene.noise_sigma == noise_sigma

    def test_unknown_scene(self):
        with pytest.raises(ValueError):
            make_scene("spiral-collapse")

    def test_motion_leaving_domain(self):
        scene = pixel_scene(
            17, Flat(), GaussianPattern(base=0.5, components=()), Translation(100.0, 0.0)
        )
        with pytest.raises(ValueError):
            render(scene)


class TestGroundTruth:
    def test_identity_motion(self):
        scene = pixel_scene(
            17, Flat(), make_scene("flat-static", size=17).pattern, Translation(0.0, 0.0)
        )
        frames, heights, truth = render(scene)
        for frame in frames[1:]:
            assert np.array_equal(frame.values, frames[0].values)
        for t in truth:
            assert np.all(t.u1.values == 0.0)
            assert np.all(t.u2.values == 0.0)

    def test_translation_truth_is_unit_flow(self):
        scene = make_scene("flat-translate", size=33, frame_count=3)
        frames, heights, truth = render(scene)
        for t in truth:
            assert np.all(t.u1.values == 1.0)
            assert np.all(t.u2.values == 0.0)

    def test_integer_translation_shifts_pixels(self):
        scene = make_scene("flat-translate", size=33, frame_count=3)
        frames, _, _ = render(scene)
        for k in (1, 2):
            assert np.array_equal(frames[k].values[:, k:], frames[0].values[:, :-k])

    def test_rotation_truth_formula(self):
        size, omega = 33, 0.05
        center = ((size - 1) / 2.0, (size - 1) / 2.0)
        scene = pixel_scene(
            size,
            Flat(),
            make_scene("flat-rotate", size=size).pattern,
            Rotation(omega=omega, center=center),
        )
        frames, heights, truth = render(scene)
        x1, x2 = coordinate_arrays(scene.spec, origin=(0.0, 0.0))
        expected_u1 = -omega * (x2 - center[1])
        expected_u2 = omega * (x1 - center[0])
        assert np.allclose(truth[0].u1.values, expected_u1, atol=1e-12)
        assert np.allclose(truth[0].u2.values, expected_u2, atol=1e-12)

    def test_all_catalog_scenes_render(self):
        for name in SCENE_NAMES:
            frames, heights, truth = render(make_scene(name, size=17, frame_count=2))
            assert len(frames) == 2
            assert len(heights) == 2
            assert len(truth) == 2


coordinate = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)
coordinates = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=16).map(
    lambda pairs: tuple(np.array(c) for c in zip(*pairs))
)
times = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3)
SIGNED_ZEROS = (np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -0.0]))


class TestInverseMaps:
    """``sampled_render`` samples the pattern at beta(x, -t); that has the
    bits of the closed-form inverse, signed zeros included."""

    @given(v=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), x=coordinates, t=times)
    @example(v=(1.0, 0.0), x=SIGNED_ZEROS, t=0.0)
    @settings(max_examples=200, deadline=None)
    def test_translation(self, v, x, t):
        motion = Translation(*v)
        got = motion.map(*x, -t)
        want = translation_inverse(motion, *x, t)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @given(
        omega=st.floats(-10.0, 10.0),
        center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        x=coordinates,
        t=times,
    )
    @example(omega=0.05, center=(0.0, 0.0), x=SIGNED_ZEROS, t=0.0)
    @settings(max_examples=200, deadline=None)
    def test_rotation(self, omega, center, x, t):
        motion = Rotation(omega=omega, center=center)
        got = motion.map(*x, -t)
        want = rotation_inverse(motion, *x, t)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    @given(x=coordinates, t=times)
    @example(x=SIGNED_ZEROS, t=0.0)
    def test_zero_translation_keeps_coordinates(self, x, t):
        got = Translation(0.0, 0.0).map(*x, -t)
        assert same_bits(got[0], x[0]) and same_bits(got[1], x[1])


def physical_scene(width, height, h, origin, rotate):
    """The catalog mixture stretched over a physical domain, on a moving bump,
    translated or rotated about the domain's centre."""
    l1, l2 = (width - 1) * h, (height - 1) * h
    o1, o2 = origin
    pattern = GaussianPattern(
        base=0.5,
        components=tuple(
            (amp, o1 + c1 * l1, o2 + c2 * l2, sigma * min(l1, l2))
            for amp, c1, c2, sigma in _UNIT_PATTERN.components
        ),
    )
    centre = (o1 + l1 / 2.0, o2 + l2 / 2.0)
    motion = Rotation(0.05, centre) if rotate else Translation(0.02 * l1, -0.01 * l2)
    bump = MovingBump(
        0.1 * l1, 0.25 * min(l1, l2), (o1 + 0.4 * l1, o2 + 0.45 * l2), (0.03 * l1, 0.02 * l2)
    )
    return SyntheticScene(
        spec=GridSpec(width, height, h=h, dt=0.5),
        surface=bump,
        pattern=pattern,
        motion=motion,
        frame_count=5,
        origin=origin,
        noise_sigma=1e-3,
        seed=3,
    )


REFERENCE_SCENES = {
    **{
        name: make_scene(name, size=33, frame_count=5, noise_sigma=1e-3, seed=1)
        for name in SCENE_NAMES
    },
    **{
        f"{label}-{'rotate' if rotate else 'translate'}": physical_scene(*shape, rotate)
        for label, shape in {
            "13x21": (13, 21, 1.0, (0.0, 0.0)),
            "offset-origin": (17, 17, 1.0, (-6.5, 3.25)),
            "h0.37": (17, 17, 0.37, (0.0, 0.0)),
        }.items()
        for rotate in (False, True)
    },
}
# largest gap measured over these scenes: 28 ulps, on the 33^2 rotations, where
# the centres' and the sample points' rotations round differently
MAX_ULP = 32


class TestSampledReference:
    """``render`` moves the pattern's centres forward and evaluates separable
    Gaussians; ``sampled_render`` pulls every grid point back."""

    @pytest.mark.parametrize("name", REFERENCE_SCENES)
    def test_render_matches_reference(self, tmp_path, name):
        scene = REFERENCE_SCENES[name]
        frames, heights, truth = render(scene)
        ref_frames, ref_heights, ref_truth = sampled_render(scene)
        for got, want in zip(frames + heights, ref_frames + ref_heights):
            np.testing.assert_array_max_ulp(got.values, want.values, maxulp=MAX_ULP)
            write_float_image(tmp_path / "got.pfm", got.values)
            write_float_image(tmp_path / "want.pfm", want.values)
            assert (tmp_path / "got.pfm").read_bytes() == (tmp_path / "want.pfm").read_bytes()
        for got, want in zip(truth, ref_truth):
            assert same_bits(got.u1.values, want.u1.values)
            assert same_bits(got.u2.values, want.u2.values)
            write_flow(tmp_path / "got.flo", got.u1.values, got.u2.values)
            write_flow(tmp_path / "want.flo", want.u1.values, want.u2.values)
            assert (tmp_path / "got.flo").read_bytes() == (tmp_path / "want.flo").read_bytes()

    @given(
        component=st.tuples(
            st.floats(-10.0, 10.0), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(0.1, 1e3)
        ),
        motion=st.builds(Translation, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
        | st.builds(
            Rotation,
            st.floats(-10.0, 10.0),
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        ),
        x=coordinates,
        t=times,
    )
    @settings(max_examples=300, deadline=None)
    def test_centre_identity(self, component, motion, x, t):
        """|beta(x, -t) - c| = |x - beta(c, t)| for rigid motions, so the pattern
        with moved centres at x is the pattern at beta(x, -t), up to rounding
        that grows with the coordinates' magnitude."""
        amp, c1, c2, sigma = component
        m1, m2 = motion.map(c1, c2, t)
        a1, a2 = motion.map(*x, -t)
        centre = getattr(motion, "center", (0.0, 0.0))
        drift = abs(getattr(motion, "v1", 0.0)) + abs(getattr(motion, "v2", 0.0))
        scale = np.abs(x[0]) + np.abs(x[1]) + abs(c1) + abs(c2) + drift * t
        scale = scale + 2.0 * (abs(centre[0]) + abs(centre[1]))
        eps = np.finfo(float).eps
        gap = np.abs(np.hypot(a1 - c1, a2 - c2) - np.hypot(x[0] - m1, x[1] - m2))
        assert np.all(gap <= 8.0 * eps * scale)
        pulled = GaussianPattern(0.0, (component,))(a1, a2)
        moved = GaussianPattern(0.0, ((amp, m1, m2, sigma),))(*x)
        # |d/dr amp exp(-r^2 / (2 sigma^2))| <= |amp| / sigma
        assert np.all(np.abs(moved - pulled) <= abs(amp) * eps * (8.0 * scale / sigma + 8.0))


class TestBrightnessConstancy:
    def test_identity_residual_zero(self):
        scene = pixel_scene(
            17, Flat(), make_scene("flat-static", size=17).pattern, Translation(0.0, 0.0)
        )
        frames, _, truth = render(scene)
        assert bca_residual(frames, truth, scene.spec) == 0.0

    def test_integer_translation_residual_zero(self):
        scene = make_scene("flat-translate", size=33, frame_count=3)
        frames, _, truth = render(scene)
        assert bca_residual(frames, truth, scene.spec) == 0.0

    def test_rotation_residual_shrinks_quadratically(self):
        # trajectories land between grid points, so the residual is pure
        # bilinear interpolation error and halving h divides it by ~4
        residuals = []
        for n in (129, 257):
            scene = unit_domain_scene(n, Rotation(omega=0.05, center=(0.5, 0.5)))
            frames, _, truth = render(scene)
            residuals.append(bca_residual(frames, truth, scene.spec))
        assert residuals[0] > 0.0
        assert residuals[0] / residuals[1] >= 3.8


class TestEvolvingSurface:
    def test_moving_bump_heights_differ(self):
        frames, heights, truth = render(make_scene("moving-bump", size=33, frame_count=3))
        assert not np.array_equal(heights[0].values, heights[1].values)
        assert not np.array_equal(heights[1].values, heights[2].values)

    def test_static_scenes_share_height(self):
        frames, heights, _ = render(make_scene("paraboloid-translate", size=17))
        assert np.array_equal(heights[0].values, heights[1].values)


class TestDeterminismAndNoise:
    def test_same_seed_bitwise_identical(self):
        a = render(make_scene("flat-translate", size=17, noise_sigma=0.01, seed=7))
        b = render(make_scene("flat-translate", size=17, noise_sigma=0.01, seed=7))
        for fa, fb in zip(a[0], b[0]):
            assert np.array_equal(fa.values, fb.values)

    def test_different_seed_differs(self):
        a = render(make_scene("flat-translate", size=17, noise_sigma=0.01, seed=7))
        b = render(make_scene("flat-translate", size=17, noise_sigma=0.01, seed=8))
        assert not np.array_equal(a[0][0].values, b[0][0].values)

    def test_noise_perturbs_frames_only(self):
        clean = render(make_scene("flat-translate", size=17, seed=7))
        noisy = render(make_scene("flat-translate", size=17, noise_sigma=0.01, seed=7))
        assert not np.array_equal(clean[0][0].values, noisy[0][0].values)
        assert np.array_equal(clean[1][0].values, noisy[1][0].values)
        assert np.array_equal(clean[2][0].u1.values, noisy[2][0].u1.values)


class TestPattern:
    def test_catalog_pattern_within_unit_interval(self):
        scene = make_scene("flat-translate", size=65)
        frames, _, _ = render(scene)
        assert frames[0].values.min() >= 0.0
        assert frames[0].values.max() <= 1.0

    def test_gradient_matches_finite_differences(self):
        pattern = make_scene("flat-translate", size=33).pattern
        rng = np.random.default_rng(5)
        pts1 = rng.uniform(5.0, 27.0, 50)
        pts2 = rng.uniform(5.0, 27.0, 50)
        g1, g2 = pattern_grad(pattern, pts1, pts2)
        eps = 1e-6
        fd1 = (pattern(pts1 + eps, pts2) - pattern(pts1 - eps, pts2)) / (2 * eps)
        fd2 = (pattern(pts1, pts2 + eps) - pattern(pts1, pts2 - eps)) / (2 * eps)
        assert np.allclose(g1, fd1, atol=1e-8)
        assert np.allclose(g2, fd2, atol=1e-8)


class TestSolverIntegration:
    def test_static_scene_yields_zero_flow(self):
        frames, heights, _ = render(make_scene("flat-static", size=17, frame_count=2))
        geom = build_geometry(heights[0])
        prob = problem_from_frames(frames[0], frames[1], geom)
        flow, report = solve(prob, SolverConfig(method="sor"))
        assert report.iterations == 0
        assert np.all(flow.u1.values == 0.0)
        assert np.all(flow.u2.values == 0.0)
