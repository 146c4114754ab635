import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfaceflow.solver as solver
from surfaceflow.grid import GridSpec, ScalarField, coordinate_arrays
from surfaceflow.geometry import build_geometry
from surfaceflow.model import (
    FlowProblem,
    _gradient_arrays,
    energy,
    energy_gradient,
    problem_from_frames,
)
from surfaceflow.solver import SolverConfig, SolverReport, solve
from surfaceflow.synth import make_scene, render

from conftest import (
    affine_parts,
    random_field,
    random_geometry,
    random_problem,
    random_vector_field,
)
from reference import check_natural_bc, full_apply_sor, stencil_apply


def quadratic_translation_problem(n, extent=4.0, alpha=10.0):
    """Flat scene f(x, t) = (x1 - t)^2 + x2^2 with analytic derivative fields;
    the unique zero-energy minimizer is u = (1, 0)."""
    spec = GridSpec(n, n, h=extent / (n - 1))
    origin = (-extent / 2.0, -extent / 2.0)
    x1, x2 = coordinate_arrays(spec, origin=origin)
    geom = build_geometry(ScalarField.zeros(spec))
    return FlowProblem(
        geom=geom,
        fx1=ScalarField(spec, 2.0 * x1),
        fx2=ScalarField(spec, 2.0 * x2),
        ft=ScalarField(spec, -2.0 * x1),
        alpha=alpha,
    )


class TestSolverConfig:
    def test_defaults(self):
        config = SolverConfig()
        assert config.method == "sor"
        assert config.omega == 1.9
        assert config.tol == 1e-6
        assert config.max_iter == 50000

    @pytest.mark.parametrize("name", ["sor", "successive-over-relaxation"])
    def test_sor_aliases(self, name):
        assert SolverConfig(method=name).method == "sor"

    @pytest.mark.parametrize("name", ["cg", "conjugate-gradient"])
    def test_cg_aliases(self, name):
        assert SolverConfig(method=name).method == "cg"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="jacobi"),
            dict(omega=0.0),
            dict(omega=2.0),
            dict(omega=-0.5),
            dict(tol=0.0),
            dict(tol=-1e-6),
            dict(max_iter=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolverReport:
    def test_energy_increase_rejected(self):
        with pytest.raises(ValueError):
            SolverReport(
                method="sor",
                converged=True,
                iterations=1,
                energy_initial=1.0,
                energy_final=1.1,
                grad_inf_norm=0.0,
            )

    def test_tiny_slack_allowed(self):
        report = SolverReport(
            method="cg",
            converged=True,
            iterations=1,
            energy_initial=1.0,
            energy_final=1.0 + 5e-13,
            grad_inf_norm=0.0,
        )
        assert report.energy_final >= report.energy_initial

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            SolverReport(
                method="sor",
                converged=False,
                iterations=-1,
                energy_initial=1.0,
                energy_final=0.5,
                grad_inf_norm=1.0,
            )


class TestAssemble:
    def test_positive_semidefinite(self, rng):
        prob = random_problem(GridSpec(16, 16), rng, curved=True)
        _, apply = affine_parts(prob)
        for _ in range(100):
            w1 = rng.standard_normal((16, 16))
            w2 = rng.standard_normal((16, 16))
            a1, a2 = apply(w1, w2)
            quad = float(np.sum(a1 * w1) + np.sum(a2 * w2))
            assert quad >= -1e-10 * max(1.0, abs(quad))

    def test_flat_matches_classical_horn_schunck(self, rng):
        from oracles import classical_hs_system

        spec = GridSpec(32, 32, h=0.5)
        prob = random_problem(spec, rng, alpha=10.0)
        b, apply = affine_parts(prob)
        a_ref, b_ref = classical_hs_system(
            prob.fx1.values, prob.fx2.values, prob.ft.values, prob.alpha, spec.h
        )
        n = spec.width * spec.height
        assert np.allclose(
            np.concatenate([b.u1.values.ravel(), b.u2.values.ravel()]), b_ref, atol=1e-12
        )
        for _ in range(20):
            w = rng.standard_normal(2 * n)
            ref = a_ref @ w
            mine1, mine2 = apply(
                w[:n].reshape(spec.shape), w[n:].reshape(spec.shape)
            )
            mine = np.concatenate([mine1.ravel(), mine2.ravel()])
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(mine - ref)) <= 1e-12 * scale


def probed(prob):
    """b = grad E(0) and the whole probed stencil of ``prob``."""
    zero = np.zeros(prob.spec.shape)
    b = _gradient_arrays(prob, zero, zero)
    return b, solver._probe(prob, b, solver._STENCIL)


class TestStencil:
    @given(
        height=st.integers(3, 23),
        width=st.integers(3, 23),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_probe_matches_matrix_free_apply(self, height, width, surface, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(width, height, h=rng.uniform(0.2, 2.0))
        geom = (
            build_geometry(ScalarField.zeros(spec))
            if surface == "flat"
            else random_geometry(spec, rng, amplitude=0.5, evolving=surface == "evolving")
        )
        prob = FlowProblem(
            geom=geom,
            fx1=random_field(spec, rng),
            fx2=random_field(spec, rng),
            ft=random_field(spec, rng),
            alpha=rng.uniform(0.1, 100.0),
        )
        b, coeffs = probed(prob)
        # coefficients reaching off the grid are exactly zero, so the solver
        # may pad the flow with anything finite
        for c, (dr, dc) in zip(coeffs, solver._STENCIL):
            rows = np.arange(height)[:, None] + dr
            cols = np.arange(width)[None, :] + dc
            off = (rows < 0) | (rows >= height) | (cols < 0) | (cols >= width)
            assert np.all(c[:, :, off] == 0.0)
        # the diagonal probe's coarser coloring reads the same blocks
        assert np.array_equal(solver._probe(prob, b, solver._STENCIL[:1])[0], coeffs[0])
        for _ in range(3):
            w1 = rng.standard_normal(spec.shape)
            w2 = rng.standard_normal(spec.shape)
            ref1, ref2 = solver._apply(prob, b, w1, w2)
            mine1, mine2 = stencil_apply(coeffs, w1, w2)
            bound = stencil_apply(np.abs(coeffs), np.abs(w1), np.abs(w2))
            scale = max(1.0, float(np.max(bound)))
            assert max(np.max(np.abs(mine1 - ref1)), np.max(np.abs(mine2 - ref2))) <= 1e-12 * scale

    @pytest.mark.parametrize("height, width", [(3, 3), (7, 11), (20, 13)])
    def test_flat_probe_matches_classical_horn_schunck(self, rng, height, width):
        from oracles import classical_hs_system

        spec = GridSpec(width, height, h=0.5)
        prob = random_problem(spec, rng, alpha=10.0)
        _, coeffs = probed(prob)
        a_ref, _ = classical_hs_system(
            prob.fx1.values, prob.fx2.values, prob.ft.values, prob.alpha, spec.h
        )
        n = height * width
        for _ in range(5):
            w = rng.standard_normal(2 * n)
            ref = a_ref @ w
            mine1, mine2 = stencil_apply(
                coeffs, w[:n].reshape(spec.shape), w[n:].reshape(spec.shape)
            )
            mine = np.concatenate([mine1.ravel(), mine2.ravel()])
            assert np.max(np.abs(mine - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    @pytest.mark.parametrize(
        "height, width, evolving", [(12, 12, False), (13, 10, True), (9, 17, True)]
    )
    def test_sor_matches_full_apply_sweeps(self, rng, height, width, evolving):
        spec = GridSpec(width, height)
        prob = FlowProblem(
            geom=random_geometry(spec, rng, amplitude=0.3, evolving=evolving),
            fx1=random_field(spec, rng),
            fx2=random_field(spec, rng),
            ft=random_field(spec, rng),
        )
        for config in (
            SolverConfig(tol=1e-300, max_iter=1),
            SolverConfig(tol=1e-300, max_iter=7),
            SolverConfig(tol=1e-8),
        ):
            flow, report = solve(prob, config)
            converged, sweeps, u1, u2, res = full_apply_sor(
                prob, config, np.zeros(spec.shape), np.zeros(spec.shape)
            )
            assert (report.converged, report.iterations) == (converged, sweeps)
            gap = max(np.max(np.abs(flow.u1.values - u1)), np.max(np.abs(flow.u2.values - u2)))
            assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))


class TestSolve:
    def test_flat_quadratic_recovery(self):
        prob = quadratic_translation_problem(33, extent=4.0)
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-10, max_iter=5000))
        assert report.converged
        inner = (slice(1, -1), slice(1, -1))
        assert np.max(np.abs(flow.u1.values[inner] - 1.0)) <= 1e-3
        assert np.max(np.abs(flow.u2.values[inner])) <= 1e-3
        assert report.energy_final <= 1e-8

    def test_zero_rhs_returns_zero_immediately(self, rng):
        spec = GridSpec(8, 8)
        prob = FlowProblem(
            geom=build_geometry(ScalarField.zeros(spec)),
            fx1=ScalarField(spec, rng.standard_normal((8, 8))),
            fx2=ScalarField(spec, rng.standard_normal((8, 8))),
            ft=ScalarField.zeros(spec),
        )
        flow, report = solve(prob, SolverConfig(method="sor"))
        assert report.iterations <= 1
        assert report.converged
        assert np.all(flow.u1.values == 0.0)
        assert np.all(flow.u2.values == 0.0)

    def test_sor_cg_agreement(self, rng):
        prob = random_problem(GridSpec(24, 24), rng, curved=True)
        tol = 1e-8
        sor_flow, sor_report = solve(prob, SolverConfig(method="sor", tol=tol))
        cg_flow, cg_report = solve(prob, SolverConfig(method="cg", tol=tol))
        assert sor_report.converged and cg_report.converged
        gap = max(
            float(np.max(np.abs(sor_flow.u1.values - cg_flow.u1.values))),
            float(np.max(np.abs(sor_flow.u2.values - cg_flow.u2.values))),
        )
        assert gap <= 10.0 * tol

    @pytest.mark.parametrize("method", ["sor", "cg"])
    def test_stationarity_of_converged_solutions(self, method, rng):
        prob = random_problem(GridSpec(16, 16), rng, curved=True)
        config = SolverConfig(method=method, tol=1e-7)
        flow, report = solve(prob, config)
        assert report.converged
        grad = energy_gradient(prob, flow)
        norm = max(float(np.max(np.abs(grad.u1.values))), float(np.max(np.abs(grad.u2.values))))
        assert norm <= config.tol
        assert report.grad_inf_norm <= config.tol

    def test_non_convergence_is_reported_not_raised(self, rng):
        prob = random_problem(GridSpec(16, 16), rng, curved=True)
        flow, report = solve(prob, SolverConfig(method="sor", tol=1e-14, max_iter=1))
        assert not report.converged
        assert report.iterations == 1
        assert report.energy_final <= report.energy_initial + 1e-12

    @pytest.mark.parametrize("method, per_iter", [("sor", 1), ("cg", 1)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_apply_budget(self, monkeypatch, rng, method, per_iter, k):
        # setup: 1 initial gradient + 1 for b + the stencil probe, 50 for
        # SOR's whole stencil or 18 for CG's diagonal blocks
        setup = {"sor": 2 + 50, "cg": 2 + 18}[method]
        import surfaceflow.solver as solver_module

        calls = []
        original = solver_module._gradient_arrays

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(solver_module, "_gradient_arrays", counting)
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        _, report = solve(prob, SolverConfig(method=method, tol=1e-300, max_iter=k))
        assert report.iterations == k and not report.converged
        assert len(calls) == setup + per_iter * k

    def test_sor_energy_monotone(self, rng):
        prob = random_problem(GridSpec(24, 24), rng, curved=True)
        flow, report = solve(
            prob,
            SolverConfig(method="sor", tol=1e-30, max_iter=300),
            track_energy=True,
        )
        trace = np.asarray(report.energy_trace)
        assert trace.size >= 2
        slack = 1e-12 * np.maximum(1.0, trace[:-1])
        assert np.all(trace[1:] <= trace[:-1] + slack)

    def test_data_scaling_keeps_minimizer(self):
        base = quadratic_translation_problem(17, extent=4.0)
        scaled = FlowProblem(
            geom=base.geom,
            fx1=ScalarField(base.spec, 7.3 * base.fx1.values),
            fx2=ScalarField(base.spec, 7.3 * base.fx2.values),
            ft=ScalarField(base.spec, 7.3 * base.ft.values),
            alpha=base.alpha,
        )
        config = SolverConfig(method="cg", tol=1e-11, max_iter=5000)
        flow_a, _ = solve(base, config)
        flow_b, _ = solve(scaled, config)
        assert np.max(np.abs(flow_a.u1.values - flow_b.u1.values)) <= 1e-6
        assert np.max(np.abs(flow_a.u2.values - flow_b.u2.values)) <= 1e-6

    def test_deterministic(self, rng):
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        flow_a, report_a = solve(prob, SolverConfig(method="sor", tol=1e-8))
        flow_b, report_b = solve(prob, SolverConfig(method="sor", tol=1e-8))
        assert np.array_equal(flow_a.u1.values, flow_b.u1.values)
        assert np.array_equal(flow_a.u2.values, flow_b.u2.values)
        assert report_a.iterations == report_b.iterations

    def test_warm_start(self, rng):
        # starting from the converged solution terminates without iterating
        prob = random_problem(GridSpec(12, 12), rng, curved=True)
        flow, _ = solve(prob, SolverConfig(method="cg", tol=1e-9))
        again, report = solve(prob, SolverConfig(method="cg", tol=1e-8), u0=flow)
        assert report.iterations == 0
        assert np.array_equal(again.u1.values, flow.u1.values)

    def test_curved_recovery_within_flat_margin(self):
        # translating pattern over the catalog paraboloid: the endpoint error
        # stays within 20% of the flat-scene error
        def scene_epe(name):
            scene = make_scene(name, size=65, frame_count=2)
            frames, heights, truth = render(scene)
            geom = build_geometry(heights[0])
            prob = problem_from_frames(frames[0], frames[1], geom, alpha=10.0)
            flow, report = solve(prob, SolverConfig(method="cg", tol=1e-6))
            assert report.converged
            epe = np.hypot(
                flow.u1.values - truth[0].u1.values, flow.u2.values - truth[0].u2.values
            )
            return float(epe.mean())

        flat = scene_epe("flat-translate")
        curved = scene_epe("paraboloid-translate")
        assert curved <= 1.2 * flat


class TestNaturalBoundaryConditions:
    def test_pure_regularization_solution_satisfies_bc(self, rng):
        # with ft = 0 the minimizer from u0 = 0 is u = 0, whose covariant
        # derivative vanishes identically on a flat surface
        spec = GridSpec(12, 12)
        prob = FlowProblem(
            geom=build_geometry(ScalarField.zeros(spec)),
            fx1=ScalarField(spec, rng.standard_normal((12, 12))),
            fx2=ScalarField(spec, rng.standard_normal((12, 12))),
            ft=ScalarField.zeros(spec),
        )
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-10))
        residual = check_natural_bc(prob.geom, flow)
        assert float(np.max(residual.values)) <= 1e-10

    def test_random_field_violates_bc(self, rng):
        spec = GridSpec(12, 12)
        geom = build_geometry(ScalarField.zeros(spec))
        u = random_vector_field(spec, rng)
        residual = check_natural_bc(geom, u)
        assert float(np.max(residual.values)) > 1e-3

    def test_interior_is_zero(self, rng):
        spec = GridSpec(10, 10)
        geom = build_geometry(ScalarField.zeros(spec))
        u = random_vector_field(spec, rng)
        residual = check_natural_bc(geom, u)
        assert np.all(residual.values[1:-1, 1:-1] == 0.0)
