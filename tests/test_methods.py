"""The contract every solver method meets, run for each name in ``solver.METHODS``.

A method is a row of the solver's method table.  Naming one there, and giving
its apply budget a row in ``BUDGETS``, runs every test here for it: converged
flows are stationary and match the sparse oracle, repeats are bitwise, the
stop reasons and the apply budget are as documented, grids with an even side
and steep surfaces match the oracle too, and textureless frames cost nothing.  Three metamorphic relations need no oracle, so they check the
discretisation itself (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Computing Surveys 51(1), 2018):
transposing a problem transposes its flow and swaps u1 and u2; mirroring it in
x1 or x2 mirrors the flow and negates that component; and scaling the
intensities by 2^k with alpha divided by 4^k changes no bit of the solve.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfaceflow.solver as solver
from surfaceflow.geometry import build_geometry, flat_geometry
from surfaceflow.grid import GridSpec, ScalarField, VectorField
from surfaceflow.model import FlowProblem, energy, energy_gradient, problem_from_frames
from surfaceflow.solver import SolverConfig, solve
from surfaceflow.synth import make_scene, render

from conftest import (
    drawn_problem,
    random_geometry,
    random_problem,
    random_vector_field,
    same_bits,
    steep_problem,
)

# each method's gradient applies in one level's solve, besides the one at the
# initial flow and the one at the returned flow: (the probe at set-up, per iteration)
BUDGETS = {"cg": (6, 1), "sor": (20, 0)}


# module scope, so the hypothesis tests may take it too
@pytest.fixture(params=solver.METHODS, scope="module")
def method(request):
    return request.param


def test_every_method_has_an_apply_budget():
    assert set(BUDGETS) == set(solver.METHODS)


def applies(method, iterations):
    """The gradient applies of one level's solve that iterates ``iterations`` times."""
    probe, per_iter = BUDGETS[method]
    return 1 + probe + per_iter * iterations + 1


def counted_applies(monkeypatch):
    """The list that every gradient apply in the solver appends to."""
    calls = []
    original = solver._gradient_arrays

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "_gradient_arrays", counting)
    return calls


class TestSolve:
    def test_zero_rhs_returns_zero_immediately(self, rng, method):
        spec = GridSpec(8, 8)
        prob = FlowProblem(
            geom=build_geometry(ScalarField.zeros(spec)),
            fx1=ScalarField(spec, rng.standard_normal((8, 8))),
            fx2=ScalarField(spec, rng.standard_normal((8, 8))),
            ft=ScalarField.zeros(spec),
        )
        flow, report = solve(prob, SolverConfig(method=method))
        assert report.iterations <= 1
        assert report.converged
        assert np.all(flow.u1.values == 0.0)
        assert np.all(flow.u2.values == 0.0)

    def test_stationarity_of_converged_solutions(self, method, rng):
        prob = random_problem(GridSpec(16, 16), rng, curved=True)
        config = SolverConfig(method=method, tol=1e-7)
        flow, report = solve(prob, config)
        assert report.converged
        grad = energy_gradient(prob, flow)
        norm = max(float(np.max(np.abs(grad.u1.values))), float(np.max(np.abs(grad.u2.values))))
        assert norm <= config.tol
        assert report.grad_inf_norm <= config.tol

    def test_non_convergence_is_reported_not_raised(self, rng, method):
        prob = random_problem(GridSpec(16, 16), rng, curved=True)
        flow, report = solve(prob, SolverConfig(method=method, tol=1e-14, max_iter=1))
        assert not report.converged
        assert report.iterations == 1
        assert report.energy_final <= report.energy_initial + 1e-12

    @pytest.mark.parametrize("k", [1, 3])
    def test_apply_budget(self, monkeypatch, rng, method, k):
        # setup: 1 gradient and energy at the initial flow, from zero or u0,
        # + the method's probe; per iteration: the method's applies (none for
        # an SOR sweep, whose residual comes from the stencil, 1 for CG);
        # finish: 1 for the gradient at the returned flow
        calls = counted_applies(monkeypatch)
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        for u0 in (None, random_vector_field(prob.spec, rng)):
            calls.clear()
            _, report = solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=k), u0=u0)
            assert report.iterations == k and not report.converged
            assert len(calls) == applies(method, k)

    def test_deterministic(self, rng, method):
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        flow_a, report_a = solve(prob, SolverConfig(method=method, tol=1e-8))
        flow_b, report_b = solve(prob, SolverConfig(method=method, tol=1e-8))
        assert np.array_equal(flow_a.u1.values, flow_b.u1.values)
        assert np.array_equal(flow_a.u2.values, flow_b.u2.values)
        assert report_a.iterations == report_b.iterations

    def test_warm_start(self, rng, method):
        # starting from the converged solution terminates without iterating
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        flow, _ = solve(prob, SolverConfig(method=method, tol=1e-9))
        again, report = solve(prob, SolverConfig(method=method, tol=1e-8), u0=flow)
        assert report.iterations == 0
        assert np.array_equal(again.u1.values, flow.u1.values)

    @pytest.mark.parametrize("max_iter", [1, 7, 50000])
    def test_energy_trace_spans_the_iterations(self, rng, method, max_iter):
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        config = SolverConfig(method=method, tol=1e-8, max_iter=max_iter)
        flow, report = solve(prob, config, track_energy=True)
        assert report.converged == (max_iter == 50000)
        trace = report.energy_trace
        assert len(trace) == report.iterations + 1
        assert trace[0] == report.energy_initial
        assert trace[-1] == report.energy_final
        assert report.energy_final == energy(prob, flow)

    def test_max_iter_is_the_stop_reason(self, rng, method):
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        _, report = solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=1))
        assert report.iterations == 1 and report.stop_reason == "max_iter"
        _, report = solve(prob, SolverConfig(method=method, tol=1e-6))
        assert report.converged and report.stop_reason == "converged"


def oracle_gradient_and_energy(prob, flow):
    """The energy gradient's max-norm and the energy at ``flow``, from the
    scipy sparse covariant system."""
    from oracles import covariant_hs_system

    geom = prob.geom
    gamma = np.array([
        [[getattr(geom, f"gamma{i}_{min(j, k)}{max(j, k)}").values for k in (1, 2)] for j in (1, 2)]
        for i in (1, 2)
    ])
    a, b, c = covariant_hs_system(
        prob.fx1.values, prob.fx2.values, prob.ft.values, prob.alpha, prob.spec.h,
        geom.sqrt_detg.values, gamma,
    )
    u = np.concatenate([flow.u1.values.ravel(), flow.u2.values.ravel()])
    au = a @ u
    return float(np.max(np.abs(au + b))), 0.5 * float(u @ au) + float(b @ u) + c


class TestNestedStart:
    """A cold solve on a grid with both sides odd and above 65 starts from its
    coarse problem's prolonged flow, whatever the method."""

    @pytest.mark.parametrize("height, width", [(129, 129), (129, 131)])
    @pytest.mark.parametrize("surface", ["flat", "curved", "evolving"])
    def test_converges_to_the_cold_minimum(self, height, width, surface, method):
        rng = np.random.default_rng(height + width)
        prob = drawn_problem(height, width, surface, rng)
        config = SolverConfig(method=method, tol=1e-6)
        flow, report = solve(prob, config)
        _, cold = solve(prob, config, u0=VectorField.zeros(prob.spec))
        assert report.converged and report.grad_inf_norm <= config.tol
        assert report.coarse_iterations and cold.coarse_iterations == ()
        assert abs(report.energy_final - cold.energy_final) <= 1e-6 * abs(cold.energy_final)
        # the oracle reads the same gradient and energy at the returned flow, to rounding
        gradient, value = oracle_gradient_and_energy(prob, flow)
        assert abs(gradient - report.grad_inf_norm) <= 1e-12 * max(1.0, gradient)
        assert abs(value - report.energy_final) <= 1e-12 * abs(value)

    @pytest.mark.parametrize(
        "height, width, given", [(129, 130, False), (65, 65, False), (65, 129, False), (129, 129, True)]
    )
    def test_no_nested_start(self, monkeypatch, method, height, width, given):
        # an even side, a side of 65 or less, or a given u0: one level, and
        # test_apply_budget's count
        calls = counted_applies(monkeypatch)
        rng = np.random.default_rng(3)
        prob = drawn_problem(height, width, "curved", rng)
        u0 = random_vector_field(prob.spec, rng) if given else None
        _, report = solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=3), u0=u0)
        assert report.coarse_iterations == () and report.iterations == 3
        assert len(calls) == applies(method, 3)

    @pytest.mark.parametrize(
        "height, width, levels", [(67, 67, 2), (129, 131, 2), (257, 257, 3)]
    )
    def test_apply_budget_sums_the_levels(self, monkeypatch, method, height, width, levels):
        calls = counted_applies(monkeypatch)
        prob = drawn_problem(height, width, "evolving", np.random.default_rng(5))
        _, report = solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=3))
        counts = report.coarse_iterations + (report.iterations,)
        assert counts == (3,) * levels
        assert len(calls) == sum(applies(method, k) for k in counts)

    def test_bitwise_repeatable(self, method):
        prob = drawn_problem(129, 131, "curved", np.random.default_rng(11))
        config = SolverConfig(method=method, tol=1e-6)
        flow_a, report_a = solve(prob, config)
        flow_b, report_b = solve(prob, config)
        assert report_a.coarse_iterations
        assert same_bits(flow_a.u1.values, flow_b.u1.values)
        assert same_bits(flow_a.u2.values, flow_b.u2.values)
        assert report_a == report_b


class TestOracleEdgeCases:
    """The oracle's gradient and energy at the returned flow, to rounding, where
    the nested start stays off and where det g spans sixteen decades."""

    # an even side gets no nested start, so the fine level starts cold
    @pytest.mark.parametrize("height, width", [(64, 64), (63, 64), (129, 130)])
    @pytest.mark.parametrize("surface", ["flat", "curved", "evolving"])
    def test_grid_with_an_even_side(self, height, width, surface, method):
        prob = drawn_problem(height, width, surface, np.random.default_rng(height + width))
        config = SolverConfig(method=method, tol=1e-6)
        flow, report = solve(prob, config)
        assert report.converged and report.grad_inf_norm <= config.tol
        gradient, value = oracle_gradient_and_energy(prob, flow)
        assert abs(gradient - report.grad_inf_norm) <= 1e-12 * max(1.0, gradient)
        assert abs(value - report.energy_final) <= 1e-12 * abs(value)

    # det g spans sixteen decades on ``steep_problem``'s paraboloids.  The
    # gradient's rounding grows with det g, so only the energy is held to the oracle.
    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e8])
    def test_steep_surface(self, scale, method):
        prob = steep_problem(scale)
        flow, report = solve(prob, SolverConfig(method=method, tol=1e-6), track_energy=True)
        assert report.converged
        trace = np.array(report.energy_trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-12 * np.abs(trace[:-1]))
        _, value = oracle_gradient_and_energy(prob, flow)
        assert abs(value - report.energy_final) <= 1e-12 * abs(value)


class TestTexturelessFrames:
    # constant frames have no spatial or temporal derivative, so the data term
    # vanishes, E(0) = 0 is the minimum and the gradient there is exactly zero
    @pytest.mark.parametrize("curved", [False, True])
    def test_zero_flow_in_zero_iterations(self, rng, method, curved):
        spec = GridSpec(12, 10)
        geom = random_geometry(spec, rng) if curved else flat_geometry(spec)
        frame = ScalarField.constant(spec, 0.4)
        prob = problem_from_frames(frame, frame, geom, alpha=10.0)
        flow, report = solve(prob, SolverConfig(method=method))
        assert report.converged
        assert report.iterations == 0
        assert report.energy_final == 0.0
        assert np.all(flow.u1.values == 0.0) and np.all(flow.u2.values == 0.0)


@functools.cache
def scene_arrays(name):
    """Frames 0 and 1 and height map 0 of a catalog scene, cropped to 31 x 37:
    both sides odd, unequal and below the nested start."""
    frames, heights, _ = render(make_scene(name, size=37, frame_count=2, noise_sigma=1e-3, seed=1))
    return [field.values[:, :31] for field in (frames[0], frames[1], heights[0])]


def array_solve(method, frame_a, frame_b, height, alpha=10.0):
    """The flow arrays (u1, u2) and report of the problem on these arrays,
    solved to tol 1e-10, where the relations hold to rounding."""
    spec = GridSpec(frame_a.shape[1], frame_a.shape[0])
    field = lambda values: ScalarField(spec, values)
    prob = problem_from_frames(field(frame_a), field(frame_b), build_geometry(field(height)), alpha)
    flow, report = solve(prob, SolverConfig(method=method, tol=1e-10))
    assert report.converged
    return (flow.u1.values, flow.u2.values), report


@functools.cache
def scene_solve(method, name):
    """:func:`array_solve` of the cropped catalog scene, solved once per method."""
    return array_solve(method, *scene_arrays(name))


def relative_gap(mine, expected):
    return max(np.max(np.abs(m - e)) for m, e in zip(mine, expected)) / max(
        np.max(np.abs(e)) for e in expected
    )


SCENES = ["moving-bump", "paraboloid-rotate"]


class TestMetamorphicRelations:
    @pytest.mark.parametrize("scene", SCENES)
    def test_transposition_swaps_the_components(self, method, scene):
        (u1, u2), _ = scene_solve(method, scene)
        mine, _ = array_solve(method, *(a.T for a in scene_arrays(scene)))
        assert relative_gap(mine, (u2.T, u1.T)) <= 1e-13

    @pytest.mark.parametrize("axis", [1, 2], ids=["x1", "x2"])
    @pytest.mark.parametrize("scene", SCENES)
    def test_mirror_negates_that_component(self, method, scene, axis):
        # x1 runs along array axis 1, x2 along axis 0
        flip = lambda a: np.flip(a, axis=2 - axis)
        (u1, u2), report = scene_solve(method, scene)
        mine, mirrored = array_solve(method, *map(flip, scene_arrays(scene)))
        expected = (-flip(u1), flip(u2)) if axis == 1 else (flip(u1), -flip(u2))
        assert relative_gap(mine, expected) <= 1e-8
        assert abs(mirrored.energy_final - report.energy_final) <= 1e-12 * report.energy_final

    @given(k=st.integers(-20, 20))
    @example(k=-20)
    @example(k=20)
    @settings(max_examples=8, deadline=None)
    def test_intensity_scale_changes_no_bit(self, method, k):
        # 2^k scales every derivative exactly and alpha / 4^k undoes it in
        # the data term, so every product of the solve is scaled exactly
        frame_a, frame_b, height = scene_arrays("moving-bump")
        flow, report = scene_solve(method, "moving-bump")
        scale = 2.0**k
        mine, scaled = array_solve(method, scale * frame_a, scale * frame_b, height, 10.0 / scale**2)
        assert all(same_bits(m, e) for m, e in zip(mine, flow))
        assert scaled.iterations == report.iterations
        assert scaled.energy_final == report.energy_final
