"""Acceptance suite: the nine go/no-go checks for the package.

Each test prints exactly one PASS/FAIL line (visible with `pytest -s` or in
the captured output) and asserts the same condition, with tolerances and
runtime budgets stated inline.
"""

import struct
import time

import numpy as np

from surfaceflow.grid import GridSpec, ScalarField, VectorField, coordinate_arrays
from surfaceflow.geometry import build_geometry
from surfaceflow.model import FlowProblem, energy, energy_gradient, problem_from_frames
from surfaceflow.solver import SolverConfig, solve
from surfaceflow.synth import GaussianPattern, MovingBump, make_scene, render
from surfaceflow.io import (
    COLOR_WHEEL,
    colorize,
    read_float_image,
    read_flow,
    wheel_position,
    write_float_image,
    write_flow,
)

from conftest import affine_parts, random_problem, random_vector_field
from oracles import classical_hs_system
from reference import (
    bump_height_grad,
    bump_height_t,
    check_natural_bc,
    christoffel_from_metric,
    intrinsic_ofc_residual,
    pattern_grad,
    surface_frame,
    tangent_coords,
    tangential_surface_velocity,
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} [{label}]: {status} ({detail})")
    assert ok, f"acceptance {number} [{label}]: {detail}"


def test_1_flat_operator_matches_classical_horn_schunck():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    spec = GridSpec(64, 64, h=0.5)
    prob = random_problem(spec, rng, alpha=10.0)
    b, apply = affine_parts(prob)
    a_ref, b_ref = classical_hs_system(
        prob.fx1.values, prob.fx2.values, prob.ft.values, prob.alpha, spec.h
    )
    n = spec.width * spec.height
    worst = float(
        np.max(np.abs(np.concatenate([b.u1.values.ravel(), b.u2.values.ravel()]) - b_ref))
    )
    for _ in range(20):
        w = rng.standard_normal(2 * n)
        ref = a_ref @ w
        mine1, mine2 = apply(w[:n].reshape(spec.shape), w[n:].reshape(spec.shape))
        gap = np.max(np.abs(np.concatenate([mine1.ravel(), mine2.ravel()]) - ref))
        worst = max(worst, float(gap) / max(1.0, float(np.max(np.abs(ref)))))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "flat reduction",
        worst <= 1e-12 and elapsed < 1.0,
        f"rel err {worst:.2e} <= 1e-12, {elapsed:.2f}s < 1s",
    )


def test_2_flat_quadratic_manufactured_solution():
    start = time.perf_counter()
    n = 129
    spec = GridSpec(n, n, h=1.0 / 32.0)
    origin = (-2.0, -2.0)
    x1, x2 = coordinate_arrays(spec, origin=origin)
    prob = FlowProblem(
        geom=build_geometry(ScalarField.zeros(spec)),
        fx1=ScalarField(spec, 2.0 * x1),
        fx2=ScalarField(spec, 2.0 * x2),
        ft=ScalarField(spec, -2.0 * x1),
        alpha=10.0,
    )
    flow, report = solve(prob, SolverConfig(method="cg", tol=1e-10, max_iter=5000))
    inner = (slice(1, -1), slice(1, -1))
    err = max(
        float(np.max(np.abs(flow.u1.values[inner] - 1.0))),
        float(np.max(np.abs(flow.u2.values[inner]))),
    )
    elapsed = time.perf_counter() - start
    ok = report.converged and err <= 1e-3 and report.energy_final <= 1e-8 and elapsed < 30.0
    _verdict(
        2,
        "zero-energy manufactured solution",
        ok,
        f"interior err {err:.2e} <= 1e-3, energy {report.energy_final:.2e} <= 1e-8, "
        f"{elapsed:.1f}s < 30s",
    )


def test_3_christoffel_closed_form_vs_general_formula():
    start = time.perf_counter()

    def worst_gap(n):
        spec = GridSpec(n, n, h=2.0 / (n - 1))
        z = ScalarField.from_function(
            spec, lambda x1, x2: np.sin(x1) * np.cos(x2), origin=(-1.0, -1.0)
        )
        geom, frame = build_geometry(z), surface_frame(z)
        general = christoffel_from_metric(frame.g11, frame.g12, frame.g22)
        inner = (slice(2, -2), slice(2, -2))
        # general's keys count from 1, so G^i_jk is christoffel[3*(i-1) + (j-1) + (k-1)]
        return max(
            float(np.max(np.abs(field.values[inner] - geom.christoffel[3 * i + j + k - 5].values[inner])))
            for (i, j, k), field in general.items()
        )

    coarse, fine = worst_gap(65), worst_gap(129)
    ratio = coarse / fine
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "geometry oracle",
        ratio >= 3.8 and elapsed < 5.0,
        f"gap {coarse:.3e} -> {fine:.3e}, ratio {ratio:.2f} >= 3.8, {elapsed:.1f}s < 5s",
    )


def test_4_energy_gradient_matches_finite_differences():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(10):
        spec = GridSpec(32, 32, h=0.5)
        prob = random_problem(spec, rng, alpha=10.0, curved=trial % 2 == 0)
        u = random_vector_field(spec, rng)
        w = random_vector_field(spec, rng)
        grad = energy_gradient(prob, u)
        inner = float(
            np.sum(grad.u1.values * w.u1.values) + np.sum(grad.u2.values * w.u2.values)
        )
        eps = 1e-6 * max(1.0, float(np.max(np.abs(u.u1.values))))

        def shifted(sign):
            return VectorField(
                spec,
                ScalarField(spec, u.u1.values + sign * eps * w.u1.values),
                ScalarField(spec, u.u2.values + sign * eps * w.u2.values),
            )

        fd = (energy(prob, shifted(+1.0)) - energy(prob, shifted(-1.0))) / (2.0 * eps)
        worst = max(worst, abs(inner - fd) / max(1.0, abs(fd)))
    _verdict(
        4,
        "gradient check",
        worst <= 1e-5,
        f"worst rel err over 10 triples {worst:.2e} <= 1e-5",
    )


def _bump_residual_fields(n):
    """Moving-bump scene with analytic data derivatives: returns everything
    needed to evaluate both brightness-constraint forms on an n x n grid
    covering [-1, 1]^2."""
    spec = GridSpec(n, n, h=2.0 / (n - 1), dt=1.0)
    origin = (-1.0, -1.0)
    x1, x2 = coordinate_arrays(spec, origin=origin)
    surface = MovingBump(
        amplitude=0.3, sigma=0.35, center=(-0.15, -0.10), drift=(0.05, 0.03)
    )
    pattern = GaussianPattern(
        base=0.4,
        components=(
            (0.5, -0.20, 0.10, 0.35),
            (-0.3, 0.40, -0.30, 0.30),
            (0.25, 0.10, 0.45, 0.25),
        ),
    )
    velocity = (0.04, 0.025)
    g1, g2 = pattern_grad(pattern, x1, x2)
    fx1 = ScalarField(spec, g1)
    fx2 = ScalarField(spec, g2)
    ft = ScalarField(spec, -(g1 * velocity[0] + g2 * velocity[1]))
    z0 = surface.height(x1, x2, 0.0)
    zt = bump_height_t(surface, x1, x2, 0.0)
    frame = surface_frame(
        ScalarField(spec, z0), ScalarField(spec, z0 + spec.dt * zt)
    )
    u = VectorField(
        spec,
        ScalarField(spec, velocity[0] + 0.02 * np.sin(2.0 * x1) * np.cos(x2)),
        ScalarField(spec, velocity[1] + 0.015 * np.cos(x1) * np.sin(2.0 * x2)),
    )
    pulled = fx1.values * u.u1.values + fx2.values * u.u2.values + ft.values
    dz1_a, dz2_a = bump_height_grad(surface, x1, x2, 0.0)
    detg_a = 1.0 + dz1_a**2 + dz2_a**2
    w_analytic = VectorField(
        spec,
        ScalarField(spec, zt * dz1_a / detg_a),
        ScalarField(spec, zt * dz2_a / detg_a),
    )
    return spec, frame, fx1, fx2, ft, u, pulled, w_analytic


def test_5_intrinsic_and_pulled_back_constraints_agree():
    spec, frame, fx1, fx2, ft, u, pulled, w_analytic = _bump_residual_fields(65)

    # same discrete geometry on both sides: the equality is pointwise algebra
    w = tangent_coords(frame, tangential_surface_velocity(frame))
    absolute = VectorField(
        spec,
        ScalarField(spec, u.u1.values + w.u1.values),
        ScalarField(spec, u.u2.values + w.u2.values),
    )
    shared_gap = float(
        np.max(np.abs(intrinsic_ofc_residual(frame, fx1, fx2, ft, absolute).values - pulled))
    )

    # analytic surface-velocity coordinates against stencil geometry: the gap
    # is the spatial discretization error and shrinks at second order
    def analytic_gap(n):
        spec_n, frame_n, fx1_n, fx2_n, ft_n, u_n, pulled_n, w_a = _bump_residual_fields(n)
        absolute_n = VectorField(
            spec_n,
            ScalarField(spec_n, u_n.u1.values + w_a.u1.values),
            ScalarField(spec_n, u_n.u2.values + w_a.u2.values),
        )
        out = intrinsic_ofc_residual(frame_n, fx1_n, fx2_n, ft_n, absolute_n)
        inner = (slice(2, -2), slice(2, -2))
        return float(np.max(np.abs(out.values[inner] - pulled_n[inner])))

    coarse, fine = analytic_gap(65), analytic_gap(129)
    ratio = coarse / fine
    ok = shared_gap <= 1e-6 and ratio >= 3.8
    _verdict(
        5,
        "constraint equivalence",
        ok,
        f"shared-geometry gap {shared_gap:.2e} <= 1e-6; discrete gap {coarse:.3e} -> "
        f"{fine:.3e}, ratio {ratio:.2f} >= 3.8",
    )


def test_6_natural_boundary_conditions_refine_at_first_order():
    def boundary_residual(n):
        spec = GridSpec(n, n, h=1.0 / (n - 1))
        x1, x2 = coordinate_arrays(spec)
        z = ScalarField(spec, 0.3 * np.sin(np.pi * x1) * np.cos(np.pi * x2))
        geom = build_geometry(z)
        prob = FlowProblem(
            geom=geom,
            fx1=ScalarField(spec, np.pi * np.cos(np.pi * x1) * np.cos(np.pi * x2)),
            fx2=ScalarField(spec, -np.pi * np.sin(np.pi * x1) * np.sin(np.pi * x2)),
            ft=ScalarField(spec, 0.3 * np.sin(np.pi * x1) + 0.2 * np.cos(np.pi * x2)),
            alpha=10.0,
        )
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-11, max_iter=20000))
        assert report.converged
        return float(np.max(check_natural_bc(geom, flow).values))

    residuals = [boundary_residual(n) for n in (17, 33, 65)]
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    ok = all(r >= 1.8 for r in ratios)
    _verdict(
        6,
        "natural boundary conditions",
        ok,
        "residuals " + " -> ".join(f"{r:.3e}" for r in residuals)
        + f", ratios {ratios[0]:.2f}, {ratios[1]:.2f} >= 1.8 (first order)",
    )


def test_7_curved_surface_recovery_matches_flat():
    start = time.perf_counter()

    def scene_epe(name):
        scene = make_scene(name, size=128, frame_count=2)
        frames, heights, truth = render(scene)
        geom = build_geometry(heights[0])
        prob = problem_from_frames(frames[0], frames[1], geom, alpha=10.0)
        flow, report = solve(prob, SolverConfig(method="cg", tol=1e-6, max_iter=50000))
        assert report.converged
        epe = np.hypot(
            flow.u1.values - truth[0].u1.values, flow.u2.values - truth[0].u2.values
        )
        return float(epe.mean())

    flat = scene_epe("flat-translate")
    curved = scene_epe("paraboloid-translate")
    elapsed = time.perf_counter() - start
    ok = curved <= 1.3 * flat and elapsed < 60.0
    _verdict(
        7,
        "curved-surface recovery",
        ok,
        f"epe flat {flat:.4f}, paraboloid {curved:.4f}, ratio {curved / flat:.2f} <= 1.3, "
        f"{elapsed:.1f}s < 60s",
    )


def test_8_format_golden_files(tmp_path):
    rng = np.random.default_rng(808)
    checks = []

    values = rng.standard_normal((16, 16)).astype(np.float32).astype(np.float64)
    pfm = tmp_path / "field.pfm"
    write_float_image(pfm, values)
    first = pfm.read_bytes()
    loaded = read_float_image(pfm)
    write_float_image(pfm, loaded)
    checks.append(np.array_equal(loaded, values) and pfm.read_bytes() == first)

    write_float_image(tmp_path / "zeros.pfm", np.zeros((3, 3)))
    data = (tmp_path / "zeros.pfm").read_bytes()
    checks.append(data == b"Pf\n3 3\n-1.0\n" + b"\x00" * 36)

    flo = tmp_path / "golden.flo"
    write_flow(flo, np.array([[1.0, 3.0]]), np.array([[2.0, 4.0]]))
    blob = flo.read_bytes()
    golden = "5049454802000000010000000000803f000000400000404000008040"
    u1, u2 = read_flow(flo)
    checks.append(
        len(blob) == 28
        and blob.hex() == golden
        and np.array_equal(u1, [[1.0, 3.0]])
        and np.array_equal(u2, [[2.0, 4.0]])
    )

    ones = np.ones((2, 2))
    zeros = np.zeros((2, 2))
    white = np.all(colorize(zeros, zeros) == 255)
    forward = colorize(ones, zeros, max_magnitude=1.0)[0, 0]
    backward = colorize(-ones, zeros, max_magnitude=1.0)[0, 0]
    separation = (wheel_position(-1.0, 0.0) - wheel_position(1.0, 0.0)) % 54.0
    checks.append(
        bool(white)
        and tuple(forward) == tuple(COLOR_WHEEL[0].astype(np.uint8))
        and tuple(backward) == tuple(COLOR_WHEEL[27].astype(np.uint8))
        and separation == 27.0
    )

    _verdict(
        8,
        "format golden files",
        all(checks),
        "pfm round-trip bitwise, 3x3 byte layout, 28-byte flow golden, "
        "opposite fields half a wheel (27/54) apart",
    )


def test_9_sor_never_increases_energy():
    rng = np.random.default_rng(7)
    spec = GridSpec(64, 64)
    z = ScalarField(spec, 0.3 * rng.standard_normal((64, 64)))
    prob = FlowProblem(
        geom=build_geometry(z),
        fx1=ScalarField(spec, rng.standard_normal((64, 64))),
        fx2=ScalarField(spec, rng.standard_normal((64, 64))),
        ft=ScalarField(spec, rng.standard_normal((64, 64))),
        alpha=10.0,
    )
    flow, report = solve(
        prob,
        SolverConfig(method="sor", tol=1e-30, max_iter=1000),
        track_energy=True,
    )
    trace = np.asarray(report.energy_trace)
    slack = 1e-12 * np.maximum(1.0, trace[:-1])
    increases = trace[1:] - trace[:-1]
    worst = float(np.max(increases - slack))
    ok = trace.size >= 1000 and bool(np.all(increases <= slack))
    _verdict(
        9,
        "energy monotonicity",
        ok,
        f"{trace.size - 1} sweeps, worst slack-adjusted increase {worst:.2e} <= 0",
    )
