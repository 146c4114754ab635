import numpy as np
import pytest

from surfaceflow.grid import GridSpec, ScalarField, VectorField, coordinate_arrays
from surfaceflow.geometry import build_geometry, flat_geometry

from conftest import random_geometry, random_vector_field
from reference import (
    christoffel_from_metric,
    embed_tangent,
    surface_gradient_coeffs,
    tangent_coords,
    tangential_surface_velocity,
    unit_normal,
)


def make_surface(spec, fn, origin=(0.0, 0.0)):
    return build_geometry(ScalarField.from_function(spec, fn, origin=origin))


class TestFlatGeometry:
    def test_euclidean_values(self):
        spec = GridSpec(5, 6)
        geom = build_geometry(ScalarField.zeros(spec))
        assert np.all(geom.g11.values == 1.0)
        assert np.all(geom.g22.values == 1.0)
        assert np.all(geom.g12.values == 0.0)
        assert np.all(geom.detg.values == 1.0)
        assert np.all(geom.zt.values == 0.0)
        for i, j, k in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2)]:
            assert np.all(geom.christoffel(i, j, k).values == 0.0)
        assert not geom.evolving

    def test_flat_geometry_helper(self):
        spec = GridSpec(4, 4)
        helper = flat_geometry(spec)
        built = build_geometry(ScalarField.zeros(spec))
        assert np.array_equal(helper.detg.values, built.detg.values)
        assert np.array_equal(helper.ginv11.values, built.ginv11.values)


class TestTiltedPlane:
    # z = x1: the Hessian vanishes, so the metric is constant and all
    # Christoffel symbols are identically zero
    def test_metric(self):
        geom = make_surface(GridSpec(6, 5), lambda x1, x2: x1)
        assert np.allclose(geom.g11.values, 2.0, atol=1e-13)
        assert np.allclose(geom.g12.values, 0.0, atol=1e-13)
        assert np.allclose(geom.g22.values, 1.0, atol=1e-13)
        assert np.allclose(geom.detg.values, 2.0, atol=1e-13)

    def test_christoffel_vanishes(self):
        geom = make_surface(GridSpec(6, 5), lambda x1, x2: x1)
        for i, j, k in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 1, 2), (2, 2, 2)]:
            assert np.allclose(geom.christoffel(i, j, k).values, 0.0, atol=1e-13)

    def test_inverse_metric(self):
        geom = make_surface(GridSpec(5, 5), lambda x1, x2: x1)
        assert np.allclose(geom.ginv11.values, 0.5, atol=1e-13)
        assert np.allclose(geom.ginv22.values, 1.0, atol=1e-13)
        assert np.allclose(geom.ginv12.values, 0.0, atol=1e-13)


class TestParaboloid:
    # z = (x1^2 + x2^2)/2 with dz = (x1, x2) and unit Hessian; the grid
    # stencils are exact on quadratics, so interior values are analytic
    def setup_method(self):
        self.spec = GridSpec(7, 7, h=1.0)
        self.origin = (-3.0, -3.0)
        self.geom = make_surface(
            self.spec, lambda x1, x2: (x1**2 + x2**2) / 2.0, origin=self.origin
        )
        # grid point (x1, x2) = (1, 0) sits at row 3, column 4
        self.at = (3, 4)

    def test_det_g(self):
        assert self.geom.detg.values[self.at] == pytest.approx(2.0, abs=1e-12)

    def test_christoffel_values(self):
        assert self.geom.christoffel(1, 1, 1).values[self.at] == pytest.approx(0.5, abs=1e-12)
        assert self.geom.christoffel(1, 2, 2).values[self.at] == pytest.approx(0.5, abs=1e-12)
        assert self.geom.christoffel(2, 1, 1).values[self.at] == pytest.approx(0.0, abs=1e-12)
        assert self.geom.christoffel(2, 1, 2).values[self.at] == pytest.approx(0.0, abs=1e-12)

    def test_christoffel_index_validation(self):
        with pytest.raises(ValueError):
            self.geom.christoffel(0, 1, 1)
        with pytest.raises(ValueError):
            self.geom.christoffel(1, 3, 1)

    def test_christoffel_symmetry_is_shared_storage(self):
        assert self.geom.christoffel(1, 1, 2) is self.geom.christoffel(1, 2, 1)
        assert self.geom.christoffel(2, 1, 2) is self.geom.christoffel(2, 2, 1)


class TestMetricIdentities:
    def test_det_identity(self, rng):
        # det g == 1 + |grad z|^2 for a graph
        geom = random_geometry(GridSpec(9, 8), rng, amplitude=0.5)
        expected = 1.0 + geom.dz1.values**2 + geom.dz2.values**2
        assert np.allclose(geom.detg.values, expected, rtol=1e-12, atol=1e-12)
        assert np.all(geom.detg.values >= 1.0)

    def test_inverse_metric_pointwise(self, rng):
        geom = random_geometry(GridSpec(8, 9), rng, amplitude=0.5)
        a = geom.g11.values * geom.ginv11.values + geom.g12.values * geom.ginv12.values
        b = geom.g11.values * geom.ginv12.values + geom.g12.values * geom.ginv22.values
        c = geom.g12.values * geom.ginv11.values + geom.g22.values * geom.ginv12.values
        d = geom.g12.values * geom.ginv12.values + geom.g22.values * geom.ginv22.values
        assert np.allclose(a, 1.0, atol=1e-12)
        assert np.allclose(d, 1.0, atol=1e-12)
        assert np.allclose(b, 0.0, atol=1e-12)
        assert np.allclose(c, 0.0, atol=1e-12)

    def test_general_formula_agrees_with_closed_form(self):
        # the general Levi-Civita formula differentiates the metric fields, so
        # it carries stencil error near the boundary; compare two rows in
        n = 65
        spec = GridSpec(n, n, h=2.0 / (n - 1))
        z = ScalarField.from_function(
            spec, lambda x1, x2: np.sin(x1) * np.cos(x2), origin=(-1.0, -1.0)
        )
        geom = build_geometry(z)
        general = christoffel_from_metric(geom.g11, geom.g12, geom.g22)
        inner = (slice(2, -2), slice(2, -2))
        for (i, j, k), field in general.items():
            closed = geom.christoffel(i, j, k).values[inner]
            assert np.allclose(field.values[inner], closed, atol=3e-4)


class TestNormalAndTangent:
    def test_flat_normal(self):
        geom = build_geometry(ScalarField.zeros(GridSpec(4, 4)))
        n = unit_normal(geom)
        assert np.allclose(n[..., 0], 0.0)
        assert np.allclose(n[..., 1], 0.0)
        assert np.allclose(n[..., 2], 1.0)

    def test_tilt_normal(self):
        geom = make_surface(GridSpec(5, 5), lambda x1, x2: x1)
        n = unit_normal(geom)
        expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(n, expected, atol=1e-13)

    def test_normal_is_unit_and_orthogonal(self, rng):
        geom = random_geometry(GridSpec(8, 8), rng, amplitude=0.6)
        n = unit_normal(geom)
        assert np.allclose(np.sum(n * n, axis=-1), 1.0, atol=1e-12)
        # columns of J are (1, 0, dz1) and (0, 1, dz2)
        col1 = np.stack([np.ones_like(geom.dz1.values), np.zeros_like(geom.dz1.values), geom.dz1.values], axis=-1)
        col2 = np.stack([np.zeros_like(geom.dz2.values), np.ones_like(geom.dz2.values), geom.dz2.values], axis=-1)
        assert np.allclose(np.sum(n * col1, axis=-1), 0.0, atol=1e-12)
        assert np.allclose(np.sum(n * col2, axis=-1), 0.0, atol=1e-12)

    def test_embed_flat(self):
        spec = GridSpec(4, 4)
        geom = build_geometry(ScalarField.zeros(spec))
        u = VectorField(spec, ScalarField.constant(spec, 3.0), ScalarField.constant(spec, 4.0))
        vec = embed_tangent(geom, u)
        assert np.allclose(vec, np.array([3.0, 4.0, 0.0]))

    def test_embed_tilt(self):
        spec = GridSpec(5, 5)
        geom = make_surface(spec, lambda x1, x2: x1)
        u = VectorField(spec, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec))
        vec = embed_tangent(geom, u)
        assert np.allclose(vec, np.array([1.0, 0.0, 1.0]), atol=1e-13)

    def test_embed_zero(self, rng):
        spec = GridSpec(5, 5)
        geom = random_geometry(spec, rng)
        u = VectorField(spec, ScalarField.zeros(spec), ScalarField.zeros(spec))
        assert np.allclose(embed_tangent(geom, u), 0.0)

    def test_tangent_coords_round_trip(self, rng):
        spec = GridSpec(7, 6)
        geom = random_geometry(spec, rng, amplitude=0.5)
        u = random_vector_field(spec, rng)
        back = tangent_coords(geom, embed_tangent(geom, u))
        assert np.allclose(back.u1.values, u.u1.values, atol=1e-12)
        assert np.allclose(back.u2.values, u.u2.values, atol=1e-12)


class TestSurfaceGradient:
    def test_flat_identity(self):
        spec = GridSpec(4, 4)
        geom = build_geometry(ScalarField.zeros(spec))
        out = surface_gradient_coeffs(
            geom, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec)
        )
        assert np.allclose(out.u1.values, 1.0)
        assert np.allclose(out.u2.values, 0.0)

    def test_tilt_contraction(self):
        spec = GridSpec(5, 5)
        geom = make_surface(spec, lambda x1, x2: x1)
        out = surface_gradient_coeffs(
            geom, ScalarField.constant(spec, 1.0), ScalarField.zeros(spec)
        )
        assert np.allclose(out.u1.values, 0.5, atol=1e-13)
        assert np.allclose(out.u2.values, 0.0, atol=1e-13)

    def test_zero_gradient(self, rng):
        spec = GridSpec(5, 5)
        geom = random_geometry(spec, rng)
        out = surface_gradient_coeffs(geom, ScalarField.zeros(spec), ScalarField.zeros(spec))
        assert np.all(out.u1.values == 0.0)
        assert np.all(out.u2.values == 0.0)


class TestSurfaceVelocity:
    def test_static_geometry_rejected(self):
        geom = build_geometry(ScalarField.zeros(GridSpec(4, 4)))
        with pytest.raises(ValueError):
            tangential_surface_velocity(geom)

    def test_purely_normal_motion_has_no_tangential_part(self):
        # z(x, t) = t * x1 at t = 0: the surface is flat, the velocity
        # (0, 0, x1) is parallel to the normal, so the projection vanishes
        spec = GridSpec(5, 5, dt=1.0)
        z0 = ScalarField.zeros(spec)
        z1 = ScalarField.from_function(spec, lambda x1, x2: x1)
        geom = build_geometry(z0, z1)
        out = tangential_surface_velocity(geom)
        assert np.allclose(out, 0.0, atol=1e-13)

    def test_tilted_plane_projection(self):
        # slope z = x1 rising at dz/dt = 1: hand projection gives (1/2, 0, 1/2)
        spec = GridSpec(5, 5, dt=1.0)
        z0 = ScalarField.from_function(spec, lambda x1, x2: x1)
        z1 = ScalarField(spec, z0.values + 1.0)
        geom = build_geometry(z0, z1)
        out = tangential_surface_velocity(geom)
        assert np.allclose(out, np.array([0.5, 0.0, 0.5]), atol=1e-13)

    def test_orthogonal_to_normal(self, rng):
        geom = random_geometry(GridSpec(8, 7), rng, amplitude=0.5, evolving=True)
        out = tangential_surface_velocity(geom)
        n = unit_normal(geom)
        assert np.max(np.abs(np.sum(out * n, axis=-1))) <= 1e-10


class TestBuildValidation:
    def test_spec_mismatch(self):
        z = ScalarField.zeros(GridSpec(4, 4))
        with pytest.raises(ValueError):
            build_geometry(z, spec=GridSpec(5, 5))

    def test_z_next_mismatch(self):
        z = ScalarField.zeros(GridSpec(4, 4))
        z_next = ScalarField.zeros(GridSpec(5, 4))
        with pytest.raises(ValueError):
            build_geometry(z, z_next)
