import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfaceflow.grid import GridSpec, ScalarField, VectorField, coordinate_arrays
from surfaceflow.geometry import build_geometry, flat_geometry

from conftest import random_heights, random_vector_field, same_bits
from reference import (
    christoffel_from_metric,
    embed_tangent,
    hessian_geometry,
    surface_frame,
    surface_gradient_coeffs,
    tangent_coords,
    tangential_surface_velocity,
    unit_normal,
)


def make_surface(spec, fn, origin=(0.0, 0.0)):
    return build_geometry(ScalarField.from_function(spec, fn, origin=origin))


def make_frame(spec, fn, origin=(0.0, 0.0)):
    return surface_frame(ScalarField.from_function(spec, fn, origin=origin))


def slopes(lo: int, hi: int):
    """Signed slopes sign * m * 10**e with m in [1, 10) and e in [lo, hi]."""
    return st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from((-1.0, 1.0)),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(lo, hi),
    )


class TestFlatGeometry:
    def test_euclidean_values(self):
        spec = GridSpec(5, 6)
        geom = build_geometry(ScalarField.zeros(spec))
        frame = surface_frame(ScalarField.zeros(spec))
        assert np.all(frame.g11.values == 1.0)
        assert np.all(frame.g22.values == 1.0)
        assert np.all(frame.g12.values == 0.0)
        assert np.all(frame.detg.values == 1.0)
        assert np.all(geom.zt.values == 0.0)
        for field in geom.christoffel:
            assert np.all(field.values == 0.0)

    def test_fields_from_another_grid_rejected(self):
        geom = flat_geometry(GridSpec(5, 6, h=2.0))
        with pytest.raises(ValueError, match="grid spec"):
            dataclasses.replace(geom, spec=GridSpec(5, 6, h=1.0))
        with pytest.raises(ValueError, match="grid spec"):
            dataclasses.replace(geom, zt=ScalarField.zeros(GridSpec(5, 6, h=1.0)))
        # six Christoffel fields, as a tuple, and every part a ScalarField
        for part in (
            {"christoffel": geom.christoffel[:5]},
            {"christoffel": list(geom.christoffel)},
            {"sqrt_detg": geom.sqrt_detg.values},
        ):
            with pytest.raises(ValueError, match="grid spec"):
                dataclasses.replace(geom, **part)

    def test_flat_geometry_helper(self):
        spec = GridSpec(4, 4)
        helper = flat_geometry(spec)
        built = build_geometry(ScalarField.zeros(spec))
        assert np.array_equal(helper.sqrt_detg.values, built.sqrt_detg.values)
        assert np.array_equal(helper.christoffel[0].values, built.christoffel[0].values)


class TestTiltedPlane:
    # z = x1: the Hessian vanishes, so the metric is constant and all
    # Christoffel symbols are identically zero
    def test_metric(self):
        frame = make_frame(GridSpec(6, 5), lambda x1, x2: x1)
        assert np.allclose(frame.g11.values, 2.0, atol=1e-13)
        assert np.allclose(frame.g12.values, 0.0, atol=1e-13)
        assert np.allclose(frame.g22.values, 1.0, atol=1e-13)
        assert np.allclose(frame.detg.values, 2.0, atol=1e-13)

    def test_christoffel_vanishes(self):
        geom = make_surface(GridSpec(6, 5), lambda x1, x2: x1)
        for field in geom.christoffel:
            assert np.allclose(field.values, 0.0, atol=1e-13)

    def test_inverse_metric(self):
        frame = make_frame(GridSpec(5, 5), lambda x1, x2: x1)
        assert np.allclose(frame.ginv11.values, 0.5, atol=1e-13)
        assert np.allclose(frame.ginv22.values, 1.0, atol=1e-13)
        assert np.allclose(frame.ginv12.values, 0.0, atol=1e-13)


class TestParaboloid:
    # z = (x1^2 + x2^2)/2 with dz = (x1, x2) and unit Hessian; the grid
    # stencils are exact on quadratics, so interior values are analytic
    def setup_method(self):
        self.spec = GridSpec(7, 7, h=1.0)
        self.origin = (-3.0, -3.0)
        z = lambda x1, x2: (x1**2 + x2**2) / 2.0
        self.geom = make_surface(self.spec, z, origin=self.origin)
        self.frame = make_frame(self.spec, z, origin=self.origin)
        # grid point (x1, x2) = (1, 0) sits at row 3, column 4
        self.at = (3, 4)

    def test_det_g(self):
        assert self.frame.detg.values[self.at] == pytest.approx(2.0, abs=1e-12)

    def test_christoffel_values(self):
        g111, _, g122, g211, g212, _ = (field.values[self.at] for field in self.geom.christoffel)
        assert g111 == pytest.approx(0.5, abs=1e-12)
        assert g122 == pytest.approx(0.5, abs=1e-12)
        assert g211 == pytest.approx(0.0, abs=1e-12)
        assert g212 == pytest.approx(0.0, abs=1e-12)


class TestMetricIdentities:
    def test_det_identity(self, rng):
        # det g == 1 + |grad z|^2 for a graph
        frame = surface_frame(*random_heights(GridSpec(9, 8), rng, amplitude=0.5))
        expected = 1.0 + frame.dz1.values**2 + frame.dz2.values**2
        assert np.allclose(frame.detg.values, expected, rtol=1e-12, atol=1e-12)
        assert np.all(frame.detg.values >= 1.0)

    def test_inverse_metric_pointwise(self, rng):
        frame = surface_frame(*random_heights(GridSpec(8, 9), rng, amplitude=0.5))
        a = frame.g11.values * frame.ginv11.values + frame.g12.values * frame.ginv12.values
        b = frame.g11.values * frame.ginv12.values + frame.g12.values * frame.ginv22.values
        c = frame.g12.values * frame.ginv11.values + frame.g22.values * frame.ginv12.values
        d = frame.g12.values * frame.ginv12.values + frame.g22.values * frame.ginv22.values
        assert np.allclose(a, 1.0, atol=1e-12)
        assert np.allclose(d, 1.0, atol=1e-12)
        assert np.allclose(b, 0.0, atol=1e-12)
        assert np.allclose(c, 0.0, atol=1e-12)

    @given(s1=slopes(-150, 149), s2=slopes(-150, 149))
    @settings(max_examples=200, deadline=None)
    def test_inverse_metric_extreme_slopes(self, s1, s2):
        # g * g^-1 = I pointwise, relative to the size of g, for slopes of
        # any magnitude whose squares stay finite
        frame = make_frame(GridSpec(4, 3), lambda x1, x2: s1 * x1 + s2 * x2)
        g11, g12, g22 = frame.g11.values, frame.g12.values, frame.g22.values
        i11, i12, i22 = frame.ginv11.values, frame.ginv12.values, frame.ginv22.values
        tol = 1e-12 * np.maximum(1.0, np.abs(g11) + np.abs(g12) + np.abs(g22))
        assert np.all(np.abs(g11 * i11 + g12 * i12 - 1.0) <= tol)
        assert np.all(np.abs(g11 * i12 + g12 * i22) <= tol)
        assert np.all(np.abs(g12 * i11 + g22 * i12) <= tol)
        assert np.all(np.abs(g12 * i12 + g22 * i22 - 1.0) <= tol)

    @given(s1=slopes(160, 300), s2=slopes(-150, 300))
    @settings(max_examples=50, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_slopes_rejected(self, s1, s2):
        # squared slopes overflow to inf; the finiteness scan rejects them
        with pytest.raises(ValueError):
            make_surface(GridSpec(4, 3), lambda x1, x2: s1 * x1 + s2 * x2)

    def test_general_formula_agrees_with_closed_form(self):
        # the general Levi-Civita formula differentiates the metric fields, so
        # it carries stencil error near the boundary; compare two rows in
        n = 65
        spec = GridSpec(n, n, h=2.0 / (n - 1))
        z = ScalarField.from_function(
            spec, lambda x1, x2: np.sin(x1) * np.cos(x2), origin=(-1.0, -1.0)
        )
        geom = build_geometry(z)
        frame = surface_frame(z)
        general = christoffel_from_metric(frame.g11, frame.g12, frame.g22)
        inner = (slice(2, -2), slice(2, -2))
        for (i, j, k), field in general.items():
            # general's keys count from 1
            closed = geom.christoffel[3 * (i - 1) + (j - 1) + (k - 1)].values[inner]
            assert np.allclose(field.values[inner], closed, atol=3e-4)


class TestNormalAndTangent:
    def test_flat_normal(self):
        frame = surface_frame(ScalarField.zeros(GridSpec(4, 4)))
        n = unit_normal(frame)
        assert np.allclose(n[..., 0], 0.0)
        assert np.allclose(n[..., 1], 0.0)
        assert np.allclose(n[..., 2], 1.0)

    def test_tilt_normal(self):
        frame = make_frame(GridSpec(5, 5), lambda x1, x2: x1)
        n = unit_normal(frame)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(n, expected, atol=1e-13)

    def test_normal_is_unit_and_orthogonal(self, rng):
        frame = surface_frame(*random_heights(GridSpec(8, 8), rng, amplitude=0.6))
        n = unit_normal(frame)
        assert np.allclose(np.sum(n * n, axis=-1), 1.0, atol=1e-12)
        # columns of J are (1, 0, dz1) and (0, 1, dz2)
        col1 = np.stack([np.ones_like(frame.dz1.values), np.zeros_like(frame.dz1.values), frame.dz1.values], axis=-1)
        col2 = np.stack([np.zeros_like(frame.dz2.values), np.ones_like(frame.dz2.values), frame.dz2.values], axis=-1)
        assert np.allclose(np.sum(n * col1, axis=-1), 0.0, atol=1e-12)
        assert np.allclose(np.sum(n * col2, axis=-1), 0.0, atol=1e-12)

    def test_embed_flat(self):
        spec = GridSpec(4, 4)
        frame = surface_frame(ScalarField.zeros(spec))
        u = VectorField(spec, ScalarField.constant(spec, 3.0), ScalarField.constant(spec, 4.0))
        vec = embed_tangent(frame, u)
        assert np.allclose(vec, np.array([3.0, 4.0, 0.0]))

    def test_embed_tilt(self):
        spec = GridSpec(5, 5)
        frame = make_frame(spec, lambda x1, x2: x1)
        u = VectorField(spec, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec))
        vec = embed_tangent(frame, u)
        assert np.allclose(vec, np.array([1.0, 0.0, 1.0]), atol=1e-13)

    def test_embed_zero(self, rng):
        spec = GridSpec(5, 5)
        frame = surface_frame(*random_heights(spec, rng))
        u = VectorField(spec, ScalarField.zeros(spec), ScalarField.zeros(spec))
        assert np.allclose(embed_tangent(frame, u), 0.0)

    def test_tangent_coords_round_trip(self, rng):
        spec = GridSpec(7, 6)
        frame = surface_frame(*random_heights(spec, rng, amplitude=0.5))
        u = random_vector_field(spec, rng)
        back = tangent_coords(frame, embed_tangent(frame, u))
        assert np.allclose(back.u1.values, u.u1.values, atol=1e-12)
        assert np.allclose(back.u2.values, u.u2.values, atol=1e-12)


class TestSurfaceGradient:
    def test_flat_identity(self):
        spec = GridSpec(4, 4)
        frame = surface_frame(ScalarField.zeros(spec))
        out = surface_gradient_coeffs(
            frame, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec)
        )
        assert np.allclose(out.u1.values, 1.0)
        assert np.allclose(out.u2.values, 0.0)

    def test_tilt_contraction(self):
        spec = GridSpec(5, 5)
        frame = make_frame(spec, lambda x1, x2: x1)
        out = surface_gradient_coeffs(
            frame, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec)
        )
        assert np.allclose(out.u1.values, 0.5, atol=1e-13)
        assert np.allclose(out.u2.values, 0.0, atol=1e-13)

    def test_zero_gradient(self, rng):
        spec = GridSpec(5, 5)
        frame = surface_frame(*random_heights(spec, rng))
        out = surface_gradient_coeffs(frame, ScalarField.zeros(spec), ScalarField.zeros(spec))
        assert np.all(out.u1.values == 0.0)
        assert np.all(out.u2.values == 0.0)


class TestSurfaceVelocity:
    def test_static_geometry_rejected(self):
        frame = surface_frame(ScalarField.zeros(GridSpec(4, 4)))
        with pytest.raises(ValueError):
            tangential_surface_velocity(frame)

    def test_purely_normal_motion_has_no_tangential_part(self):
        # z(x, t) = t * x1 at t = 0: the surface is flat, the velocity
        # (0, 0, x1) is parallel to the normal, so the projection vanishes
        spec = GridSpec(5, 5, dt=1.0)
        z0 = ScalarField.zeros(spec)
        z1 = ScalarField.from_function(spec, lambda x1, x2: x1)
        frame = surface_frame(z0, z1)
        out = tangential_surface_velocity(frame)
        assert np.allclose(out, 0.0, atol=1e-13)

    def test_tilted_plane_projection(self):
        # slope z = x1 rising at dz/dt = 1: hand projection gives (1/2, 0, 1/2)
        spec = GridSpec(5, 5, dt=1.0)
        z0 = ScalarField.from_function(spec, lambda x1, x2: x1)
        z1 = ScalarField(spec, z0.values + 1.0)
        frame = surface_frame(z0, z1)
        out = tangential_surface_velocity(frame)
        assert np.allclose(out, np.array([0.5, 0.0, 0.5]), atol=1e-13)

    def test_orthogonal_to_normal(self, rng):
        frame = surface_frame(*random_heights(GridSpec(8, 7), rng, amplitude=0.5, evolving=True))
        out = tangential_surface_velocity(frame)
        n = unit_normal(frame)
        assert np.max(np.abs(np.sum(out * n, axis=-1))) <= 1e-10


class TestHessianReference:
    @given(
        height=st.integers(3, 20),
        width=st.integers(3, 20),
        h=st.floats(0.01, 100.0),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=13, width=10, h=1.0, surface="evolving", seed=0)
    @example(height=3, width=17, h=0.5, surface="curved", seed=1)
    @settings(max_examples=60, deadline=None)
    def test_fields_match_hessian_composition(self, height, width, h, surface, seed):
        # every field, zt included, is bitwise the one built over the
        # field-level Hessian, signed zeros included
        rng = np.random.default_rng(seed)
        spec = GridSpec(width, height, h=h)
        if surface == "flat":
            heights = (ScalarField.zeros(spec), None)
        else:
            heights = random_heights(spec, rng, rng.uniform(0.1, 2.0), surface == "evolving")
        mine, ref = build_geometry(*heights), hessian_geometry(*heights)
        parts = lambda geom: (geom.sqrt_detg, *geom.christoffel, geom.zt)
        assert len(parts(mine)) == len(parts(ref)) == 8
        for n, (field, expected) in enumerate(zip(parts(mine), parts(ref))):
            assert same_bits(field.values, expected.values), n


class TestBuildValidation:
    def test_z_next_mismatch(self):
        z = ScalarField.zeros(GridSpec(4, 4))
        z_next = ScalarField.zeros(GridSpec(5, 4))
        with pytest.raises(ValueError):
            build_geometry(z, z_next)
