import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfaceflow.grid import GridSpec, ScalarField, VectorField, coordinate_arrays
from surfaceflow.geometry import build_geometry
from surfaceflow.model import (
    FlowProblem,
    _energy_arrays,
    _gradient_arrays,
    _terms,
    energy,
    energy_gradient,
    ofc_residual,
    problem_from_frames,
)
from surfaceflow.solver import solve

from conftest import (
    random_field,
    random_heights,
    random_problem,
    random_vector_field,
    same_bits,
    smooth_field,
)
from reference import (
    covariant_derivative,
    intrinsic_ofc_residual,
    surface_frame,
    tangent_coords,
    tangential_surface_velocity,
    termwise_covd,
    termwise_gradient,
)

INDEX_PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]


def constant_vector(spec, a, b):
    return VectorField(spec, ScalarField.constant(spec, a), ScalarField.constant(spec, b))


def flat_problem(spec, fx1, fx2, ft, alpha=10.0):
    geom = build_geometry(ScalarField.zeros(spec))
    return FlowProblem(geom=geom, fx1=fx1, fx2=fx2, ft=ft, alpha=alpha)


class TestFlowProblemValidation:
    def test_alpha_positive(self):
        spec = GridSpec(4, 4)
        zero = ScalarField.zeros(spec)
        geom = build_geometry(zero)
        with pytest.raises(ValueError):
            FlowProblem(geom=geom, fx1=zero, fx2=zero, ft=zero, alpha=0.0)
        with pytest.raises(ValueError):
            FlowProblem(geom=geom, fx1=zero, fx2=zero, ft=zero, alpha=-3.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weights_rejected(self):
        # h^2 overflows the quadrature weight although h itself is finite
        spec = GridSpec(4, 4, h=1e160)
        zero = ScalarField.zeros(spec)
        with pytest.raises(ValueError, match="quadrature weights"):
            FlowProblem(geom=build_geometry(zero), fx1=zero, fx2=zero, ft=zero)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_data_term_rejected(self):
        # every derivative is finite, but their squares overflow the energy
        spec = GridSpec(4, 4)
        zero = ScalarField.zeros(spec)
        big = ScalarField.constant(spec, 1e160)
        for fx1, fx2, ft in ((big, zero, zero), (zero, big, zero), (zero, zero, big)):
            with pytest.raises(ValueError, match="data term"):
                FlowProblem(geom=build_geometry(zero), fx1=fx1, fx2=fx2, ft=ft)
        # a large alpha can carry a representable data term past the float range
        half = ScalarField.constant(spec, 1e150)
        with pytest.raises(ValueError, match="data term"):
            FlowProblem(geom=build_geometry(zero), fx1=half, fx2=zero, ft=zero, alpha=1e10)
        FlowProblem(geom=build_geometry(zero), fx1=half, fx2=zero, ft=zero)

    @pytest.mark.parametrize(
        "alpha",
        ["10", np.array([1.0, 2.0]), None, 1j, float("nan"), float("inf"), np.float64("-inf")],
        ids=["str", "array", "none", "complex", "nan", "inf", "-inf"],
    )
    def test_alpha_not_a_positive_finite_real_scalar(self, alpha):
        zero = ScalarField.zeros(GridSpec(4, 4))
        with pytest.raises(ValueError, match="alpha"):
            FlowProblem(geom=build_geometry(zero), fx1=zero, fx2=zero, ft=zero, alpha=alpha)

    @pytest.mark.parametrize(
        "alpha", [10, np.int64(10), np.int32(10), np.float32(10.0), np.float64(10.0)],
        ids=["int", "int64", "int32", "float32", "float64"],
    )
    def test_alpha_ints_and_floats_keep_the_bits(self, rng, alpha):
        ref = random_problem(GridSpec(6, 5), rng, alpha=10.0, curved=True)
        prob = FlowProblem(geom=ref.geom, fx1=ref.fx1, fx2=ref.fx2, ft=ref.ft, alpha=alpha)
        u = random_vector_field(ref.spec, rng)
        assert energy(prob, u) == energy(ref, u)
        mine, theirs = energy_gradient(prob, u), energy_gradient(ref, u)
        assert same_bits(mine.u1.values, theirs.u1.values)
        assert same_bits(mine.u2.values, theirs.u2.values)

    def test_spec_mismatch(self):
        geom = build_geometry(ScalarField.zeros(GridSpec(4, 4)))
        other = ScalarField.zeros(GridSpec(5, 4))
        ok = ScalarField.zeros(GridSpec(4, 4))
        with pytest.raises(ValueError):
            FlowProblem(geom=geom, fx1=other, fx2=ok, ft=ok)


@pytest.mark.parametrize(
    "call",
    [energy, energy_gradient, ofc_residual, lambda problem, u: solve(problem, u0=u)],
    ids=["energy", "energy_gradient", "ofc_residual", "solve"],
)
@pytest.mark.parametrize("other", [GridSpec(4, 5), GridSpec(5, 4, h=0.5)], ids=["shape", "h"])
def test_flow_on_another_grid_rejected(call, other, rng):
    prob = random_problem(GridSpec(5, 4), rng)
    with pytest.raises(ValueError, match="flow field does not match the problem grid spec"):
        call(prob, random_vector_field(other, rng))


class TestOfcResidual:
    def test_exact_satisfaction(self):
        spec = GridSpec(4, 4)
        prob = flat_problem(
            spec,
            ScalarField.constant(spec, 1.0),
            ScalarField.zeros(spec),
            ScalarField.constant(spec, -1.0),
        )
        r = ofc_residual(prob, constant_vector(spec, 1.0, 0.0))
        assert np.all(r.values == 0.0)

    def test_arithmetic(self):
        spec = GridSpec(4, 4)
        prob = flat_problem(
            spec,
            ScalarField.constant(spec, 2.0),
            ScalarField.zeros(spec),
            ScalarField.constant(spec, 1.0),
        )
        r = ofc_residual(prob, constant_vector(spec, 1.0, 1.0))
        assert np.all(r.values == 3.0)

    def test_zero_flow_gives_ft(self, rng):
        spec = GridSpec(5, 5)
        prob = random_problem(spec, rng)
        r = ofc_residual(prob, constant_vector(spec, 0.0, 0.0))
        assert np.array_equal(r.values, prob.ft.values)


class TestCovariantDerivative:
    def test_flat_constant_vanishes(self):
        spec = GridSpec(5, 5)
        geom = build_geometry(ScalarField.zeros(spec))
        out = covariant_derivative(geom, constant_vector(spec, 2.0, -1.0))
        for part in (out.d11, out.d12, out.d21, out.d22):
            assert np.all(part.values == 0.0)

    def test_flat_linear_component(self):
        spec = GridSpec(6, 6)
        geom = build_geometry(ScalarField.zeros(spec))
        u1 = ScalarField.from_function(spec, lambda x1, x2: x1)
        u = VectorField(spec, u1, ScalarField.zeros(spec))
        out = covariant_derivative(geom, u)
        assert np.allclose(out.d11.values, 1.0, atol=1e-13)
        for part in (out.d12, out.d21, out.d22):
            assert np.allclose(part.values, 0.0, atol=1e-13)

    def test_paraboloid_connection_term(self):
        # constant u = (1, 0) on z = (x1^2 + x2^2)/2: the derivative part
        # vanishes and D_1 u^1 reduces to Gamma^1_11 = 1/2 at (1, 0)
        spec = GridSpec(7, 7)
        geom = build_geometry(
            ScalarField.from_function(
                spec, lambda x1, x2: (x1**2 + x2**2) / 2.0, origin=(-3.0, -3.0)
            )
        )
        out = covariant_derivative(geom, constant_vector(spec, 1.0, 0.0))
        assert out.d11.values[3, 4] == pytest.approx(0.5, abs=1e-12)


class TestEnergy:
    def test_pure_data_term(self):
        # unit-square flat grid: 10x10 samples at h = 0.1 cover area 1, so
        # E = 0.5 * alpha * 1 * 1 = 5
        spec = GridSpec(10, 10, h=0.1)
        prob = flat_problem(
            spec,
            ScalarField.zeros(spec),
            ScalarField.zeros(spec),
            ScalarField.constant(spec, 1.0),
        )
        e = energy(prob, constant_vector(spec, 0.0, 0.0))
        assert e == pytest.approx(5.0, rel=1e-14)

    def test_zero_energy_minimizer(self):
        # f(x, t) = (x1 - t)^2 + x2^2 with analytic derivatives: the residual
        # cancels exactly at u = (1, 0) and a constant field has zero
        # derivative on a flat surface
        spec = GridSpec(9, 9, h=0.5)
        origin = (-2.0, -2.0)
        x1, x2 = coordinate_arrays(spec, origin=origin)
        prob = flat_problem(
            spec,
            ScalarField(spec, 2.0 * x1),
            ScalarField(spec, 2.0 * x2),
            ScalarField(spec, -2.0 * x1),
        )
        assert energy(prob, constant_vector(spec, 1.0, 0.0)) == 0.0

    def test_zero_flow_matches_direct_sum(self, rng):
        prob = random_problem(GridSpec(8, 7), rng, curved=True)
        spec = prob.spec
        e = energy(prob, constant_vector(spec, 0.0, 0.0))
        weights = prob.geom.sqrt_detg.values * spec.h * spec.h
        oracle = 0.5 * prob.alpha * math.fsum((prob.ft.values**2 * weights).ravel().tolist())
        assert e == pytest.approx(oracle, rel=1e-12)

    def test_nonnegative(self, rng):
        prob = random_problem(GridSpec(6, 6), rng, curved=True)
        for _ in range(20):
            u = random_vector_field(prob.spec, rng, scale=3.0)
            assert energy(prob, u) >= 0.0

    def test_exactly_quadratic(self, rng):
        # the third difference of a quadratic along any ray is zero
        prob = random_problem(GridSpec(7, 6), rng, curved=True)
        u = random_vector_field(prob.spec, rng)
        w = random_vector_field(prob.spec, rng)

        def at(t):
            shifted = VectorField(
                prob.spec,
                ScalarField(prob.spec, u.u1.values + t * w.u1.values),
                ScalarField(prob.spec, u.u2.values + t * w.u2.values),
            )
            return energy(prob, shifted)

        samples = [at(t) for t in (-1.0, 0.0, 1.0, 2.0)]
        third = samples[3] - 3.0 * samples[2] + 3.0 * samples[1] - samples[0]
        assert abs(third) <= 1e-9 * max(1.0, max(abs(s) for s in samples))

    def test_flat_energy_matches_classical_oracle(self, rng):
        from oracles import classical_hs_energy

        spec = GridSpec(9, 8, h=0.25)
        prob = random_problem(spec, rng, alpha=10.0)
        u = random_vector_field(spec, rng)
        mine = energy(prob, u)
        ref = classical_hs_energy(
            prob.fx1.values,
            prob.fx2.values,
            prob.ft.values,
            prob.alpha,
            spec.h,
            u.u1.values,
            u.u2.values,
        )
        assert mine == pytest.approx(ref, rel=1e-12)


class TestEnergyGradient:
    def test_directional_derivative(self, rng):
        prob = random_problem(GridSpec(12, 11), rng, curved=True)
        u = random_vector_field(prob.spec, rng)
        w = random_vector_field(prob.spec, rng)
        grad = energy_gradient(prob, u)
        inner = float(
            np.sum(grad.u1.values * w.u1.values) + np.sum(grad.u2.values * w.u2.values)
        )
        eps = 1e-6 * max(1.0, float(np.max(np.abs(u.u1.values))))

        def shifted(sign):
            return VectorField(
                prob.spec,
                ScalarField(prob.spec, u.u1.values + sign * eps * w.u1.values),
                ScalarField(prob.spec, u.u2.values + sign * eps * w.u2.values),
            )

        fd = (energy(prob, shifted(+1.0)) - energy(prob, shifted(-1.0))) / (2.0 * eps)
        assert inner == pytest.approx(fd, rel=1e-5)

    def test_affine_in_u(self, rng):
        prob = random_problem(GridSpec(8, 8), rng, curved=True)
        spec = prob.spec
        a = random_vector_field(spec, rng)
        b = random_vector_field(spec, rng)
        zero = constant_vector(spec, 0.0, 0.0)
        combined = VectorField(
            spec,
            ScalarField(spec, a.u1.values + b.u1.values),
            ScalarField(spec, a.u2.values + b.u2.values),
        )
        lhs1 = energy_gradient(prob, combined).u1.values - energy_gradient(prob, a).u1.values
        rhs1 = energy_gradient(prob, b).u1.values - energy_gradient(prob, zero).u1.values
        assert np.allclose(lhs1, rhs1, atol=1e-10)

    def test_operator_symmetry(self, rng):
        prob = random_problem(GridSpec(7, 7), rng, curved=True)
        spec = prob.spec
        zero = constant_vector(spec, 0.0, 0.0)
        base1 = energy_gradient(prob, zero).u1.values
        base2 = energy_gradient(prob, zero).u2.values

        def apply(w):
            g = energy_gradient(prob, w)
            return g.u1.values - base1, g.u2.values - base2

        w1 = random_vector_field(spec, rng)
        w2 = random_vector_field(spec, rng)
        a1 = apply(w1)
        a2 = apply(w2)
        lhs = float(np.sum(a1[0] * w2.u1.values) + np.sum(a1[1] * w2.u2.values))
        rhs = float(np.sum(w1.u1.values * a2[0]) + np.sum(w1.u2.values * a2[1]))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_vanishes_at_global_minimum(self):
        # a zero-energy minimizer of a nonnegative quadratic is stationary
        spec = GridSpec(9, 9, h=0.5)
        x1, x2 = coordinate_arrays(spec, origin=(-2.0, -2.0))
        prob = flat_problem(
            spec,
            ScalarField(spec, 2.0 * x1),
            ScalarField(spec, 2.0 * x2),
            ScalarField(spec, -2.0 * x1),
        )
        grad = energy_gradient(prob, constant_vector(spec, 1.0, 0.0))
        assert np.max(np.abs(grad.u1.values)) <= 1e-14
        assert np.max(np.abs(grad.u2.values)) <= 1e-14


class TestBundle:
    def test_holds_the_problem_arrays(self, rng):
        # the problem's own read-only arrays, the geometry's Christoffel
        # arrays in its order, and w and alpha w computed once
        prob = random_problem(GridSpec(7, 6, h=0.5), rng, alpha=3.0, curved=True)
        ops, geom = prob._ops, prob.geom
        assert ops is prob._ops and ops.spec == prob.spec and ops.alpha == prob.alpha
        assert ops.sqrt_detg is geom.sqrt_detg.values
        assert ops.fx1 is prob.fx1.values and ops.fx2 is prob.fx2.values
        assert ops.ft is prob.ft.values
        assert len(ops.christoffel) == len(geom.christoffel) == 6
        for mine, field in zip(ops.christoffel, geom.christoffel):
            assert mine is field.values
        w = geom.sqrt_detg.values * (0.5 * 0.5)
        assert same_bits(ops.w, w) and same_bits(ops.alpha_w, 3.0 * w)
        assert not (ops.w.flags.writeable or ops.alpha_w.flags.writeable)


class TestGradientMatchesTermwise:
    """The stacked gradient, written through scratch arrays, is bitwise the
    term-by-term assembly with every sum in the same order."""

    @given(
        height=st.integers(3, 20),
        width=st.integers(3, 20),
        h=st.floats(0.05, 5.0),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=13, width=10, h=1.0, surface="curved", seed=0)
    @example(height=10, width=13, h=1.0, surface="evolving", seed=0)
    @example(height=3, width=17, h=0.5, surface="flat", seed=1)
    @example(height=17, width=3, h=0.5, surface="curved", seed=1)
    @settings(max_examples=60, deadline=None)
    def test_bitwise(self, height, width, h, surface, seed):
        spec = GridSpec(width, height, h=h)
        rng = np.random.default_rng(seed)
        if surface == "flat":
            geom = build_geometry(ScalarField.zeros(spec))
        else:
            geom = build_geometry(*random_heights(spec, rng, evolving=surface == "evolving"))
        prob = FlowProblem(
            geom=geom,
            fx1=random_field(spec, rng),
            fx2=random_field(spec, rng),
            ft=random_field(spec, rng),
            alpha=float(rng.uniform(0.1, 100.0)),
        )
        # signed zeros among the flow values, so sign changes would show
        u = rng.standard_normal((2, height, width))
        u[rng.random(u.shape) < 0.2] = 0.0
        u[rng.random(u.shape) < 0.2] = -0.0

        ops = prob._ops
        value, g = _gradient_arrays(ops, u, with_energy=True)
        ref_value, ref_g = termwise_gradient(ops, u, with_energy=True)
        assert value == ref_value == _energy_arrays(ops, u)
        assert same_bits(g, ref_g)
        assert same_bits(_gradient_arrays(ops, u), ref_g)
        d = _terms(ops, u)[0]
        for mine, ref in zip(d.reshape((4,) + spec.shape), termwise_covd(ops, u)):
            assert same_bits(mine, ref)


class TestIntrinsicResidual:
    def test_static_flat_equals_pulled_back(self, rng):
        spec = GridSpec(8, 8)
        prob = random_problem(spec, rng)
        u = random_vector_field(spec, rng)
        direct = ofc_residual(prob, u)
        frame = surface_frame(ScalarField.zeros(spec))
        intrinsic = intrinsic_ofc_residual(frame, prob.fx1, prob.fx2, prob.ft, u)
        assert np.allclose(intrinsic.values, direct.values, atol=1e-12)

    def test_surface_carried_brightness(self, rng):
        # data constant in the parametrization (f_param_t = 0) moving with the
        # surface: the intrinsic residual vanishes
        spec = GridSpec(9, 8)
        frame = surface_frame(*random_heights(spec, rng, amplitude=0.4, evolving=True))
        fx1 = smooth_field(spec, rng)
        fx2 = smooth_field(spec, rng)
        w = tangent_coords(frame, tangential_surface_velocity(frame))
        out = intrinsic_ofc_residual(frame, fx1, fx2, ScalarField.zeros(spec), w)
        assert np.max(np.abs(out.values)) <= 1e-10

    def test_relative_motion_identity(self, rng):
        # feeding the absolute velocity u + coords(xdot_tan) into the
        # intrinsic form reproduces the pulled-back residual of u; the
        # equality is pointwise linear algebra, so it holds to roundoff for
        # arbitrary data fields
        spec = GridSpec(9, 9)
        heights = random_heights(spec, rng, amplitude=0.5, evolving=True)
        geom, frame = build_geometry(*heights), surface_frame(*heights)
        fx1 = smooth_field(spec, rng)
        fx2 = smooth_field(spec, rng)
        ft = smooth_field(spec, rng)
        u = random_vector_field(spec, rng)
        w = tangent_coords(frame, tangential_surface_velocity(frame))
        absolute = VectorField(
            spec,
            ScalarField(spec, u.u1.values + w.u1.values),
            ScalarField(spec, u.u2.values + w.u2.values),
        )
        intrinsic = intrinsic_ofc_residual(frame, fx1, fx2, ft, absolute)
        prob = FlowProblem(geom=geom, fx1=fx1, fx2=fx2, ft=ft, alpha=1.0)
        pulled = ofc_residual(prob, u)
        assert np.allclose(intrinsic.values, pulled.values, atol=1e-10)


class TestProblemFromFrames:
    def test_derivatives_and_defaults(self):
        spec = GridSpec(6, 6, dt=2.0)
        frame_a = ScalarField.from_function(spec, lambda x1, x2: x1 * 0.1)
        frame_b = ScalarField(spec, frame_a.values + 1.0)
        prob = problem_from_frames(frame_a, frame_b)
        assert np.allclose(prob.ft.values, 0.5)
        assert np.allclose(prob.fx1.values, 0.1, atol=1e-14)
        assert prob.alpha == 10.0
        assert np.all(prob.geom.sqrt_detg.values == 1.0)

    def test_spec_mismatch(self):
        a = ScalarField.zeros(GridSpec(5, 5))
        b = ScalarField.zeros(GridSpec(5, 6))
        with pytest.raises(ValueError):
            problem_from_frames(a, b)
