import dataclasses
import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import surfaceflow.model as model
import surfaceflow.solver as solver
from surfaceflow.grid import GridSpec, ScalarField, VectorField, coordinate_arrays
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
    drawn_problem,
    random_field,
    random_geometry,
    random_problem,
    random_vector_field,
    same_bits,
    steep_problem,
)
from reference import (
    a_bundle,
    allocating_cg_steps,
    check_natural_bc,
    full_apply_sor,
    regathering_sor_steps,
    square_probe,
    stencil_apply,
)


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
        assert config.method == "cg"
        assert solver.OMEGA == 1.9
        assert config.tol == 1e-6
        assert config.max_iter == 50000

    # max_iter's refusals are its row of COUNT_ENTRIES in test_grid.py
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="jacobi"),
            # method names are matched exactly
            dict(method="conjugate-gradient"),
            dict(method="successive-over-relaxation"),
            dict(method="CG"),
            dict(tol=0.0),
            dict(tol=-1e-6),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("method", solver.METHODS)
    def test_max_iter_at_the_ceiling_solves_as_the_default(self, method):
        # islice takes at most sys.maxsize, the largest max_iter SolverConfig takes
        prob = quadratic_translation_problem(5)
        flow, report = solve(prob, SolverConfig(method=method))
        top_flow, top_report = solve(prob, SolverConfig(method=method, max_iter=sys.maxsize))
        assert report.converged and 0 < report.iterations
        assert top_report == report
        assert same_bits(top_flow.u1.values, flow.u1.values)
        assert same_bits(top_flow.u2.values, flow.u2.values)


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
    """A's bundle for ``prob`` and its whole probed stencil."""
    homogeneous = a_bundle(prob)
    return homogeneous, solver._probe(homogeneous, solver._STENCIL)


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
        prob = drawn_problem(height, width, surface, rng)
        spec = prob.spec
        homogeneous, coeffs = probed(prob)
        # coefficients reaching off the grid are exactly zero, so the solver
        # may pad the flow with anything finite
        for c, (dr, dc) in zip(coeffs, solver._STENCIL):
            rows = np.arange(height)[:, None] + dr
            cols = np.arange(width)[None, :] + dc
            off = (rows < 0) | (rows >= height) | (cols < 0) | (cols >= width)
            assert np.all(c[:, :, off] == 0.0)
        # the diagonal probe's coarser coloring reads the same blocks
        assert np.array_equal(solver._probe(homogeneous, solver._STENCIL[:1])[0], coeffs[0])
        for _ in range(3):
            w1 = rng.standard_normal(spec.shape)
            w2 = rng.standard_normal(spec.shape)
            ref1, ref2 = _gradient_arrays(homogeneous, np.stack((w1, w2)))
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
            SolverConfig(method="sor", tol=1e-300, max_iter=1),
            SolverConfig(method="sor", tol=1e-300, max_iter=7),
            SolverConfig(method="sor", tol=1e-8),
        ):
            flow, report = solve(prob, config)
            converged, sweeps, u1, u2, res = full_apply_sor(
                prob, config, np.zeros(spec.shape), np.zeros(spec.shape)
            )
            assert (report.converged, report.iterations) == (converged, sweeps)
            gap = max(np.max(np.abs(flow.u1.values - u1)), np.max(np.abs(flow.u2.values - u2)))
            assert gap <= 1e-12 * max(1.0, float(np.max(np.abs(u1))), float(np.max(np.abs(u2))))

    @given(
        height=st.integers(3, 14),
        width=st.integers(3, 14),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_probe_splits_into_regularizer_and_data_block(self, height, width, surface, seed):
        # A = R + D: off the point itself the probe reads the regularizer R
        # alone, bitwise the probe of the same geometry with no data; at
        # offset 0 it adds the block alpha * w * f f^T with one rounding
        rng = np.random.default_rng(seed)
        prob = drawn_problem(height, width, surface, rng)
        mine = solver._probe(a_bundle(prob), solver._STENCIL)
        zero = ScalarField.zeros(prob.spec)
        no_data = FlowProblem(geom=prob.geom, fx1=zero, fx2=zero, ft=zero, alpha=prob.alpha)._ops
        regularizer = solver._probe(no_data, solver._STENCIL)
        assert np.array_equal(mine[1:], regularizer[1:])
        f = np.stack((prob.fx1.values, prob.fx2.values))
        w = prob.geom.sqrt_detg.values * prob.spec.h**2
        data = prob.alpha * w * f[:, None] * f[None, :]
        gap = np.abs(mine[0] - (regularizer[0] + data))
        assert np.all(gap <= 1e-15 * (np.abs(regularizer[0]) + np.abs(data)))

    @given(
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # below m = 10 on both sides some colors are empty; the masked copies must
    # still write every point of the uninitialised stencil exactly once
    @example(height=3, width=3, surface="flat", seed=0)
    @example(height=3, width=17, surface="curved", seed=1)
    @example(height=17, width=3, surface="evolving", seed=2)
    @example(height=13, width=10, surface="evolving", seed=3)
    @settings(max_examples=40, deadline=None)
    def test_lattice_probe_matches_square_probe(self, height, width, surface, seed):
        rng = np.random.default_rng(seed)
        prob = drawn_problem(height, width, surface, rng)
        spec = prob.spec
        homogeneous = a_bundle(prob)
        for offsets in (solver._STENCIL, solver._STENCIL[:1]):
            mine = solver._probe(homogeneous, offsets)
            ref = square_probe(homogeneous, offsets)
            assert mine.shape == ref.shape == (len(offsets), 2, 2) + spec.shape
            assert np.array_equal(mine.view(np.int64), ref.view(np.int64))

    @given(
        height=st.integers(3, 14),
        width=st.integers(3, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_sor_residual_matches_gradient(self, height, width, seed):
        # each sweep's stopping residual, read from the probed stencil, is
        # the max-norm of the matrix-free gradient at the swept flow, from a
        # zero start and from a random one
        rng = np.random.default_rng(seed)
        prob = random_problem(GridSpec(width, height), rng, curved=True)
        for u in (np.zeros((2,) + prob.spec.shape), rng.standard_normal((2,) + prob.spec.shape)):
            g = _gradient_arrays(prob._ops, u)
            sweeps = solver._sor_steps(a_bundle(prob), g, u)
            for _ in range(6):
                res = next(sweeps)
                ref = solver._max_norm(_gradient_arrays(prob._ops, u))
                assert abs(res - ref) <= 1e-12 * ref

    @given(
        height=st.integers(3, 17),
        width=st.integers(3, 17),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=4, width=4, surface="evolving", seed=0)
    @example(height=16, width=17, surface="curved", seed=1)
    @settings(max_examples=40, deadline=None)
    def test_sor_colors_do_not_couple(self, height, width, surface, seed):
        # one exact block update of a color scales its gradient by 1 - OMEGA,
        # as it must when the color's principal submatrix is its 2x2 blocks
        rng = np.random.default_rng(seed)
        prob = drawn_problem(height, width, surface, rng)
        _, coeffs = probed(prob)
        blocks = solver._inverse_blocks(coeffs[0])
        color = solver._coloring(prob.spec.shape, solver._STENCIL[:1])[2]
        u = rng.standard_normal((2,) + prob.spec.shape)
        g = _gradient_arrays(prob._ops, u)
        # the gradient's rounding is relative to the size of its terms, |A| |u| + |b|
        b = _gradient_arrays(prob._ops, np.zeros_like(u))
        scale = np.max(np.stack(stencil_apply(np.abs(coeffs), *np.abs(u))) + np.abs(b))
        for a in range(3):
            own = color == a
            swept = u - solver.OMEGA * own * solver._block_solve(*blocks, g)
            after = _gradient_arrays(prob._ops, swept)
            gap = np.abs(after - (1.0 - solver.OMEGA) * g)[:, own]
            assert np.max(gap) <= 1e-12 * scale

    @given(
        height=st.integers(3, 17),
        width=st.integers(3, 17),
        surface=st.sampled_from(["flat", "curved", "evolving"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(height=4, width=16, surface="evolving", seed=0)
    @example(height=17, width=3, surface="curved", seed=1)
    @example(height=3, width=3, surface="flat", seed=2)
    @settings(max_examples=40, deadline=None)
    def test_sor_sweeps_match_six_sum_sweeps(self, height, width, surface, seed):
        # reusing color 0's residual and taking the last color's from its
        # update moves no iterate: after each of the first 8 sweeps the flow is
        # the six-sum form's bit for bit, from a zero start and from a random
        # one, and the yielded residuals differ by rounding alone
        rng = np.random.default_rng(seed)
        prob = drawn_problem(height, width, surface, rng)
        homogeneous = a_bundle(prob)
        for u in (np.zeros((2,) + prob.spec.shape), rng.standard_normal((2,) + prob.spec.shape)):
            g = _gradient_arrays(prob._ops, u)
            mine_u, ref_u = u.copy(), u.copy()
            mine = solver._sor_steps(homogeneous, g, mine_u)
            ref = regathering_sor_steps(homogeneous, g, ref_u)
            for _ in range(8):
                res, ref_res = next(mine), next(ref)
                assert same_bits(mine_u, ref_u)
                assert abs(res - ref_res) <= 1e-12 * ref_res


def assert_block_solve_inverts(block, x):
    """The inverted blocks undo the blocks: ``_block_solve`` of A_qq x is x."""
    a_x = np.einsum("ikyx,kyx->iyx", block, x)
    z = solver._block_solve(*solver._inverse_blocks(block), a_x)
    assert np.max(np.abs(z - x)) <= 1e-12 * np.max(np.abs(x))


class TestBlocks:
    @given(
        height=st.integers(1, 12),
        width=st.integers(1, 12),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_solve_inverts_random_spd_blocks(self, height, width, log_scale, seed):
        rng = np.random.default_rng(seed)
        shape = (height, width)
        a11 = 10.0**log_scale * rng.uniform(0.5, 2.0, shape)
        a22 = 10.0**log_scale * rng.uniform(0.5, 2.0, shape)
        a12 = 0.9 * rng.uniform(-1.0, 1.0, shape) * np.sqrt(a11 * a22)
        block = np.array([[a11, a12], [a12, a22]])
        assert_block_solve_inverts(block, rng.standard_normal((2,) + shape))

    @given(
        height=st.integers(3, 17),
        width=st.integers(3, 17),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_solve_inverts_probed_blocks(self, height, width, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec(width, height, h=rng.uniform(0.2, 2.0))
        prob = FlowProblem(
            geom=random_geometry(spec, rng, amplitude=0.5, evolving=True),
            fx1=random_field(spec, rng),
            fx2=random_field(spec, rng),
            ft=random_field(spec, rng),
            alpha=rng.uniform(0.1, 100.0),
        )
        block = solver._probe(a_bundle(prob), solver._STENCIL[:1])[0]
        assert_block_solve_inverts(block, rng.standard_normal((2,) + spec.shape))

    # one bad point among SPD blocks: a negative a11 with a positive
    # determinant, a zero determinant, a NaN coupling
    @pytest.mark.parametrize(
        "a11, a12, a22",
        [(-1.0, 1.0, -4.0), (2.0, 2.0, 2.0), (2.0, np.nan, 2.0)],
        ids=["a11", "det", "nan"],
    )
    def test_inverse_blocks_rejects_indefinite_block(self, a11, a12, a22):
        block = np.empty((2, 2, 4, 5))
        block[0, 0] = block[1, 1] = 2.0
        block[0, 1] = block[1, 0] = 1.0
        block[:, :, 2, 3] = [[a11, a12], [a12, a22]]
        with pytest.raises(ValueError, match="not positive definite"):
            solver._inverse_blocks(block)


def cg_run(steps, prob, u0, limit=500, floor=1e-13):
    """The residuals a CG step generator yields from ``u0``, up to ``limit``
    or once one falls below ``floor``, and the flow it leaves."""
    u = u0.copy()
    g = _gradient_arrays(prob._ops, u)
    residuals = []
    generator = steps(a_bundle(prob), g, u)
    for res in itertools.islice(generator, limit):
        residuals.append(res)
        if res < floor:
            break
    return residuals, u


class TestInPlaceCG:
    """CG's in-place updates leave every iterate the allocating loop's."""

    @pytest.mark.parametrize("height, width", [(12, 12), (13, 10), (10, 13), (17, 9)])
    @pytest.mark.parametrize("surface", ["flat", "curved", "evolving"])
    def test_same_residuals_and_flow(self, height, width, surface):
        rng = np.random.default_rng(height * 100 + width)
        prob = drawn_problem(height, width, surface, rng)
        u0 = rng.standard_normal((2, height, width))
        residuals, u = cg_run(solver._cg_steps, prob, u0)
        ref_residuals, ref_u = cg_run(allocating_cg_steps, prob, u0)
        assert len(residuals) > 5
        assert residuals == ref_residuals
        assert np.array_equal(u, ref_u)

    def test_same_breakdown(self):
        # the 3x3 regularizer-only problem, whose steps run on below rounding
        # until they end on p.q <= 0
        spec = GridSpec(3, 3)
        zero = ScalarField.zeros(spec)
        prob = FlowProblem(geom=build_geometry(zero), fx1=zero, fx2=zero, ft=zero)
        u0 = np.random.default_rng(1).standard_normal((2, 3, 3))
        residuals, u = cg_run(solver._cg_steps, prob, u0, limit=1000, floor=0.0)
        ref_residuals, ref_u = cg_run(allocating_cg_steps, prob, u0, limit=1000, floor=0.0)
        assert len(residuals) == 14
        assert residuals == ref_residuals
        assert np.array_equal(u, ref_u)


class TestMaxNorm:
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_max_abs(self, x):
        mine = solver._max_norm(x)
        assert type(mine) is float
        assert np.float64(mine).tobytes() == np.float64(np.max(np.abs(x))).tobytes()

    @pytest.mark.parametrize("where", [0, 7, -1])
    def test_nan(self, where):
        x = np.random.default_rng(0).standard_normal((2, 3, 4))
        x.reshape(-1)[where] = np.nan
        assert math.isnan(solver._max_norm(x))


class TestABundle:
    def test_shares_every_array_but_a_zero_ft(self, monkeypatch, rng):
        # the bundle each method probes A from is the problem's own, built
        # once, with ft replaced by zeros and nothing rebuilt or checked again
        prob = drawn_problem(7, 5, "evolving", rng)
        probed_bundles = []
        original = solver._probe
        monkeypatch.setattr(
            solver, "_probe", lambda ops, offsets: probed_bundles.append(ops) or original(ops, offsets)
        )
        for module in (model, solver):
            monkeypatch.setattr(module, "_operands", lambda *args: pytest.fail("bundle rebuilt"))
        for method in solver.METHODS:
            solve(prob, SolverConfig(method=method, max_iter=2))
        ops = prob._ops
        assert len(probed_bundles) == len(solver.METHODS)
        for homogeneous in probed_bundles:
            assert type(homogeneous) is type(ops)
            for name in ops._fields:
                if name != "ft":
                    assert getattr(homogeneous, name) is getattr(ops, name), name
            assert homogeneous.ft.shape == prob.spec.shape and np.all(homogeneous.ft == 0.0)
            assert not np.any(np.signbit(homogeneous.ft))
        assert np.any(prob.ft.values != 0.0)


class TestSolve:
    def test_flat_quadratic_recovery(self):
        prob = quadratic_translation_problem(33, extent=4.0)
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-10, max_iter=5000))
        assert report.converged
        inner = (slice(1, -1), slice(1, -1))
        assert np.max(np.abs(flow.u1.values[inner] - 1.0)) <= 1e-3
        assert np.max(np.abs(flow.u2.values[inner])) <= 1e-3
        assert report.energy_final <= 1e-8

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

    def test_report_reads_true_gradient(self):
        # CG stops on its recurrence residual, 7.8e-16 here, while the true
        # gradient at the returned flow is 7.6e-15 > tol
        scene = make_scene("moving-bump", size=17, frame_count=2, noise_sigma=1e-3, seed=1)
        frames, heights, _ = render(scene)
        prob = problem_from_frames(frames[0], frames[1], build_geometry(heights[0]), alpha=10.0)
        config = SolverConfig(method="cg", tol=1e-15)
        flow, report = solve(prob, config)
        grad = energy_gradient(prob, flow)
        norm = max(float(np.max(np.abs(grad.u1.values))), float(np.max(np.abs(grad.u2.values))))
        assert report.grad_inf_norm == norm
        assert norm > config.tol and not report.converged

    @staticmethod
    def zero_data_problem_and_start(seed):
        # a 3x3 problem with no data term, whose energy is the regularizer
        # alone, and a random start
        spec = GridSpec(3, 3)
        zero = ScalarField.zeros(spec)
        prob = FlowProblem(geom=build_geometry(zero), fx1=zero, fx2=zero, ft=zero)
        draws = np.random.default_rng(seed)
        u0 = VectorField.from_arrays(
            spec, draws.standard_normal((3, 3)), draws.standard_normal((3, 3))
        )
        return prob, u0

    def test_cg_breakdown_reports_true_gradient(self):
        # CG reaches the regularizer's zero-energy minimizer, then meets
        # p.q <= 0 before its recurrence residual (still 19.3) falls to tol
        prob, u0 = self.zero_data_problem_and_start(1)
        config = SolverConfig(method="cg", tol=1e-300, max_iter=1000)
        flow, report = solve(prob, config, u0=u0)
        assert report.iterations == 14
        assert report.energy_final == 0.0 == energy(prob, flow)
        grad = energy_gradient(prob, flow)
        assert np.all(grad.u1.values == 0.0) and np.all(grad.u2.values == 0.0)
        assert report.grad_inf_norm == 0.0 and report.converged

    def test_cg_breakdown_is_the_stop_reason(self):
        # the case above: CG's steps end on p.q <= 0 at iteration 14, long
        # before max_iter, although the returned flow is converged
        prob, u0 = self.zero_data_problem_and_start(1)
        _, report = solve(prob, SolverConfig(method="cg", tol=1e-300, max_iter=1000), u0=u0)
        assert report.iterations == 14 and report.stop_reason == "breakdown"

    def test_tol_below_rounding_raises_on_energy_increase(self):
        # the gradient near the minimizer is rounding, about 1e-15 here; with
        # tol below it CG steps on noise until the energy rises, which the
        # report refuses
        prob, u0 = self.zero_data_problem_and_start(0)
        with pytest.raises(ValueError, match="energy increased"):
            solve(prob, SolverConfig(method="cg", tol=1e-16, max_iter=1000), u0=u0)

    def test_tol_at_rounding_stops_on_recurrence_residual(self):
        # CG's recurrence residual meets tol = 1e-15, but the true gradient
        # at the returned flow is 1.16e-15, so the solve stops as converged
        # and reports that the flow is not
        prob, u0 = self.zero_data_problem_and_start(1)
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-15, max_iter=1000), u0=u0)
        assert report.stop_reason == "converged" and not report.converged
        assert report.grad_inf_norm > 1e-15
        assert report.grad_inf_norm == solver._max_norm(
            _gradient_arrays(prob._ops, np.stack((flow.u1.values, flow.u2.values)))
        )

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


class TestNestedStart:
    """A cold solve on a grid with both sides odd and above 65 starts from its
    coarse problem's prolonged flow."""

    @given(
        height=st.integers(3, 40),
        width=st.integers(3, 40),
        coeffs=st.lists(st.integers(-1000, 1000), min_size=8, max_size=8),
        counts=st.lists(st.integers(0, 500), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_prolongation_exact_on_bilinear_fields(self, height, width, coeffs, counts):
        # integer coefficients keep every sample and midpoint exact in floats
        fine = GridSpec(2 * width - 1, 2 * height - 1)
        rows, cols = np.indices(fine.shape)
        exact = np.stack([a + b * rows + c * cols + d * rows * cols
                          for a, b, c, d in (coeffs[:4], coeffs[4:])]).astype(float)
        coarse = exact[:, ::2, ::2].copy()
        *levels, last = counts or [0]
        report = SolverReport(method="cg", converged=True, iterations=last, energy_initial=0.0,
                              energy_final=0.0, grad_inf_norm=0.0, coarse_iterations=tuple(levels))
        u, coarse_iterations = solver._prolong(coarse, report)
        assert same_bits(u, exact)
        assert coarse_iterations == tuple(counts or [0])

    @pytest.mark.parametrize("surface", ["flat", "curved", "evolving"])
    def test_coarsening_samples_every_other_point(self, surface):
        rng = np.random.default_rng(7)
        prob = drawn_problem(129, 131, surface, rng)
        ops = prob._ops
        arrays = lambda ops: [ops.sqrt_detg, ops.fx1, ops.fx2, ops.ft, *ops.christoffel]
        before = [a.copy() for a in arrays(ops)]
        coarse = solver._coarsen(ops)
        spec = prob.spec
        coarse_spec = GridSpec(66, 65, h=2.0 * spec.h, dt=spec.dt)
        assert coarse.spec == coarse_spec
        assert coarse.alpha == prob.alpha
        for mine, fine, values in zip(arrays(coarse), arrays(ops), before):
            assert same_bits(mine, values[::2, ::2]) and mine.flags.c_contiguous
            assert same_bits(fine, values)
        # w and alpha w are those of the problem on the sampled fields at 2h,
        # recomputed from (2h)^2 rather than sampled and scaled by 4
        sample = lambda field: ScalarField(coarse_spec, field.values[::2, ::2])
        geom = prob.geom
        sampled = {f.name: sample(getattr(geom, f.name))
                   for f in dataclasses.fields(geom) if f.name != "spec"}
        geom = dataclasses.replace(geom, spec=coarse_spec, **sampled)
        data = (sample(field) for field in (prob.fx1, prob.fx2, prob.ft))
        ref = FlowProblem(geom, *data, prob.alpha)._ops
        assert same_bits(coarse.w, ref.w) and same_bits(coarse.alpha_w, ref.alpha_w)
        for mine, theirs in zip(arrays(coarse), arrays(ref)):
            assert same_bits(mine, theirs)

    def test_coarse_level_failing_its_checks_starts_from_zero(self):
        # h^2 is finite but (2h)^2 overflows, so the coarse bundle fails the
        # weight check that the problem passed: the solve starts from zero
        spec = GridSpec(67, 67, h=1e154)
        draws = np.random.default_rng(0)
        frame_a, frame_b = (ScalarField(spec, 1e-6 * draws.standard_normal(spec.shape))
                            for _ in range(2))
        prob = problem_from_frames(frame_a, frame_b, alpha=1.0)
        assert solver._coarsen(prob._ops) is None
        config = SolverConfig(method="cg", max_iter=3)
        flow, report = solve(prob, config)
        zero_flow, zero_report = solve(prob, config, u0=VectorField.zeros(spec))
        assert report.coarse_iterations == () and report == zero_report
        assert same_bits(flow.u1.values, zero_flow.u1.values)
        assert same_bits(flow.u2.values, zero_flow.u2.values)

class TestSteepSurfaces:
    @pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e8])
    def test_sor_and_cg_converge_to_one_flow(self, scale):
        prob = steep_problem(scale)
        sor_flow, sor = solve(prob, SolverConfig(method="sor", tol=1e-6), track_energy=True)
        cg_flow, cg = solve(prob, SolverConfig(method="cg", tol=1e-6))
        assert sor.converged and cg.converged
        trace = np.array(sor.energy_trace)
        assert np.all(trace[1:] <= trace[:-1] + 1e-12 * np.abs(trace[:-1]))
        assert np.max(np.abs(sor_flow.u1.values - cg_flow.u1.values)) <= 1e-6
        assert np.max(np.abs(sor_flow.u2.values - cg_flow.u2.values)) <= 1e-6


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


def polynomial_problem(width, height, h, curved):
    """A frame pair and a height field from rational functions of the grid
    coordinates, centred on the grid; +, -, *, / and sqrt alone set their bits,
    so no libm routine does.  Returns the problem and the coordinates."""
    spec = GridSpec(width, height, h=h)
    x1, x2 = coordinate_arrays(spec, origin=(-(width - 1) * h / 2, -(height - 1) * h / 2))

    def frame(shift):
        y1, y2 = x1 - shift, x2 - 0.5 * shift
        values = 1.0 / (1.0 + y1 * y1 + 2.0 * y2 * y2) + 0.5 * y1 * y2 / (4.0 + y1 * y1 + y2 * y2)
        return ScalarField(spec, values)

    z = 0.125 * (x1 * x1 - x1 * x2 + 0.5 * x2 * x2) if curved else 0.0 * x1
    geom = build_geometry(ScalarField(spec, z))
    return problem_from_frames(frame(0.0), frame(0.25), geom, alpha=10.0), x1, x2


def flow_digest(field):
    return hashlib.sha256(np.stack((field.u1.values, field.u2.values)).tobytes()).hexdigest()


class TestPinnedBits:
    """CG and SOR solves and the energy at fixed inputs, bit for bit: a change
    that keeps every iterate keeps these; one that moves a rounding does not."""

    @pytest.mark.parametrize(
        "width, height, h, curved, expected",
        [
            (17, 13, 0.5, False, (
                "0x1.fca51552c6400p-3", "0x1.e684d6893b412p-7", "0x1.0bb75fb794000p-20", 49, (),
                "19762129c0455128c18cad5d30491f513405c459e5d2c9d91eb5cd3743179320")),
            (17, 13, 0.5, True, (
                "0x1.075d4402b44b9p-2", "0x1.0d1333d3923aap-6", "0x1.c10caeb9ed200p-21", 58, (),
                "cce6b13ee18ebd04c456ae469f30c897ee564ea9ef92846f5fc9f483475c1359")),
            # both sides odd and above 65: the nested start
            (131, 129, 1 / 16, True, (
                "0x1.e6766326a73c6p-7", "0x1.e62933a6968dap-7", "0x1.fd6ff2e4a731bp-21", 65, (161,),
                "683c9f57ac9632bb49a4c12a99a13ad4afc00a59300e33b50179d1e81d337b43")),
        ],
        ids=["flat-17x13", "curved-17x13", "curved-131x129"],
    )
    def test_cg_solve(self, width, height, h, curved, expected):
        prob, _, _ = polynomial_problem(width, height, h, curved)
        flow, r = solve(prob, SolverConfig(method="cg"))
        mine = (r.energy_initial.hex(), r.energy_final.hex(), r.grad_inf_norm.hex(),
                r.iterations, r.coarse_iterations, flow_digest(flow))
        assert mine == expected

    @pytest.mark.parametrize(
        "width, height, h, curved, expected",
        [
            (17, 13, 0.5, False, (
                "0x1.fca51552c6400p-3", "0x1.e684d67290ac8p-7", "0x1.fc28f88270000p-21", 113, (),
                "c066efccedb1b964011575381a730d755a5cb5c07f2a8584a9251ca382b1d302")),
            (17, 13, 0.5, True, (
                "0x1.075d4402b44b9p-2", "0x1.0d1333d0d0f9fp-6", "0x1.e3814cfd92600p-21", 113, (),
                "4b1bf50309d693c99f3eda524eaddf408e91b43a7f6a10aa16abc011065111d4")),
            # both sides odd and above 65: the nested start
            (131, 129, 1 / 16, True, (
                "0x1.e67694eeb1527p-7", "0x1.e6292753250cap-7", "0x1.057c3c2c2f7a8p-20", 88, (324,),
                "41428c1a40c009ef1985a04d2ed0acf0e1d23f15f8f2a85f736cc0edb3d11c82")),
        ],
        ids=["flat-17x13", "curved-17x13", "curved-131x129"],
    )
    def test_sor_solve(self, width, height, h, curved, expected):
        prob, _, _ = polynomial_problem(width, height, h, curved)
        flow, r = solve(prob, SolverConfig(method="sor"))
        mine = (r.energy_initial.hex(), r.energy_final.hex(), r.grad_inf_norm.hex(),
                r.iterations, r.coarse_iterations, flow_digest(flow))
        assert mine == expected

    def test_energy_and_gradient(self):
        prob, x1, x2 = polynomial_problem(17, 13, 0.5, True)
        u = VectorField.from_arrays(prob.spec, 0.25 + 0.01 * x1 * x2, -0.125 * x2 / (1.0 + x1 * x1))
        assert energy(prob, u).hex() == "0x1.c5c3050e924dbp-2"
        assert flow_digest(energy_gradient(prob, u)) == (
            "0267c46c658b57577f2dbd0cb1bff54af0e2f4aba82f260059d21cd7dd1c1063"
        )
