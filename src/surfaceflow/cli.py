"""Command-line interface: synthesize scenes, solve, evaluate, visualize.

Subcommands: ``synth`` writes a scene directory (manifest, frames, heights,
truth flows); ``flow`` estimates flow for one frame pair of a manifest;
``energy`` evaluates the energy of a stored flow on a problem; ``color``
renders a flow file to PPM; ``eval`` compares two flow files.  Reports are
stable key=value lines.  Exit codes: 0 success, 2 validation error, 3
solver did not converge (artifacts still written), 4 I/O or file-format
error.  Identical invocations produce bitwise-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .geometry import build_geometry
from .io import (
    FloatImageError,
    FlowFileError,
    Manifest,
    ManifestError,
    colorize,
    default_max_magnitude,
    load_sequence,
    read_flow,
    read_manifest,
    write_float_image,
    write_flow,
    write_manifest,
    write_ppm,
)
# energy and energy_gradient stay bound here: perfbench/tracing.py wraps them by name
from .model import FlowProblem, _gradient_arrays, energy, energy_gradient, problem_from_frames
from .solver import METHODS, OMEGA, SolverConfig, _max_norm, solve
from .synth import SCENE_NAMES, make_scene, render

__all__ = ["main", "run", "endpoint_error", "angular_error_deg"]


def endpoint_error(u1, u2, v1, v2) -> np.ndarray:
    """Pointwise Euclidean distance between two flows."""
    return np.hypot(np.asarray(u1) - v1, np.asarray(u2) - v2)


def angular_error_deg(u1, u2, v1, v2) -> np.ndarray:
    """Pointwise angle in degrees between space-time direction vectors.

    Flows are lifted to (u1, u2, 1) so the measure stays defined for zero
    vectors, the standard benchmark convention.  The angle is computed via
    atan2 of the cross and dot products, which is exact for identical
    vectors and well conditioned at small angles, unlike the arccos form.
    """
    c1 = u2 - v2
    c2 = v1 - u1
    c3 = u1 * v2 - u2 * v1
    cross = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    dot = 1.0 + u1 * v1 + u2 * v2
    return np.degrees(np.arctan2(cross, dot))


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _report(lines: dict) -> str:
    return "\n".join(f"{key}={_fmt(value)}" for key, value in lines.items()) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; ``main`` looks ``cmd_<command>`` up per call."""
    parser = argparse.ArgumentParser(
        prog="surfaceflow",
        description="Dense optical flow for image sequences on evolving graph surfaces.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", help="render a synthetic scene to a directory", allow_abbrev=False
    )
    p_synth.add_argument("scene", choices=SCENE_NAMES)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--size", type=int, default=65, help="grid size per axis")
    p_synth.add_argument("--frames", type=int, default=3, help="number of frames")
    p_synth.add_argument("--noise", type=float, default=0.0, help="additive noise sigma")
    p_synth.add_argument("--seed", type=int, default=0)

    p_flow = sub.add_parser(
        "flow", help="estimate flow for one frame pair", allow_abbrev=False
    )
    p_energy = sub.add_parser(
        "energy", help="evaluate the energy of a stored flow", allow_abbrev=False
    )
    for p in (p_flow, p_energy):
        p.add_argument("--manifest", required=True)
        p.add_argument("--frame", type=int, default=0, help="first frame index i")
        p.add_argument(
            "--frame-b", type=int, default=None, help="second frame index j (default i+1)"
        )
        p.add_argument("--alpha", type=_positive_float, default=FlowProblem.alpha)
    p_flow.add_argument("--method", default=SolverConfig.method, choices=METHODS)
    p_flow.add_argument("--tol", type=_positive_float, default=SolverConfig.tol)
    p_flow.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p_flow.add_argument("--out", required=True, help="output directory")
    p_flow.add_argument("--color", action="store_true", help="also write a PPM image")
    p_energy.add_argument("--flow", required=True, help="flow file to evaluate")

    p_color = sub.add_parser(
        "color", help="render a flow file as a PPM image", allow_abbrev=False
    )
    p_color.add_argument("--flow", required=True)
    p_color.add_argument("--out", required=True, help="output PPM path")
    p_color.add_argument("--max-magnitude", type=_positive_float, default=None)

    p_eval = sub.add_parser(
        "eval", help="compare a flow file against a truth flow file", allow_abbrev=False
    )
    p_eval.add_argument("--flow", required=True)
    p_eval.add_argument("--truth", required=True)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments and 0 for --help
        return int(exc.code or 0)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ManifestError, FloatImageError, FlowFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


def cmd_synth(args) -> int:
    scene = make_scene(
        args.scene,
        size=args.size,
        frame_count=args.frames,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    frames, heights, truth = render(scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    frame_paths = []
    for k, frame in enumerate(frames):
        name = f"frame_{k:04d}.pfm"
        write_float_image(out / name, frame)
        frame_paths.append(name)
    if scene.surface.time_dependent:
        height_paths = []
        for k, height in enumerate(heights):
            name = f"height_{k:04d}.pfm"
            write_float_image(out / name, height)
            height_paths.append(name)
    else:
        height_paths = ["height_static.pfm"]
        write_float_image(out / height_paths[0], heights[0])
    for k in range(len(frames) - 1):
        write_flow(out / f"truth_{k:04d}_{k + 1:04d}.flo", truth[k])

    manifest = Manifest(
        spec=scene.spec,
        frame_paths=tuple(frame_paths),
        height_paths=tuple(height_paths),
        base_dir=out,
    )
    write_manifest(out / "manifest.txt", manifest)
    print(
        _report(
            {
                "scene": args.scene,
                "width": scene.spec.width,
                "height": scene.spec.height,
                "frames": scene.frame_count,
                "noise_sigma": float(args.noise),
                "seed": args.seed,
                "manifest": str(out / "manifest.txt"),
            }
        ),
        end="",
    )
    return 0


def _load_problem(args):
    manifest = read_manifest(args.manifest)
    i = args.frame
    j = args.frame_b if args.frame_b is not None else i + 1
    frame_i, frame_j, height_i = load_sequence(manifest, i, j)
    # the energy reads frame i's geometry only, never the height rate
    step = (j - i) * manifest.spec.dt
    geom = build_geometry(height_i)
    problem = problem_from_frames(frame_i, frame_j, geom, alpha=args.alpha, dt=step)
    return manifest, problem, i, j


def cmd_flow(args) -> int:
    manifest, problem, i, j = _load_problem(args)
    config = SolverConfig(method=args.method, tol=args.tol, max_iter=args.max_iter)
    flow, report = solve(problem, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    flow_path = out / f"flow_{i:04d}_{j:04d}.flo"
    write_flow(flow_path, flow)
    if args.color:
        write_ppm(out / f"flow_{i:04d}_{j:04d}.ppm", colorize(flow))

    spec = manifest.spec
    text = _report(
        {
            "frame_a": i,
            "frame_b": j,
            "width": spec.width,
            "height": spec.height,
            "h": spec.h,
            "dt": spec.dt,
            "alpha": float(args.alpha),
            "method": report.method,
            "omega": OMEGA,
            "tol": float(args.tol),
            "max_iter": args.max_iter,
            "iterations": report.iterations,
            "converged": report.converged,
            "energy_initial": report.energy_initial,
            "energy_final": report.energy_final,
            "grad_inf_norm": report.grad_inf_norm,
            "flow_file": str(flow_path),
        }
    )
    (out / f"report_{i:04d}_{j:04d}.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0 if report.converged else 3


def cmd_energy(args) -> int:
    manifest, problem, i, j = _load_problem(args)
    u1, u2 = read_flow(args.flow)
    spec = manifest.spec
    if u1.shape != spec.shape:
        raise ValueError(
            f"flow file is {u1.shape[1]}x{u1.shape[0]}, "
            f"manifest grid is {spec.width}x{spec.height}"
        )
    value, grad = _gradient_arrays(problem._ops, np.stack((u1, u2)), with_energy=True)
    print(
        _report(
            {
                "frame_a": i,
                "frame_b": j,
                "alpha": float(args.alpha),
                "energy": value,
                "grad_inf_norm": _max_norm(grad),
            }
        ),
        end="",
    )
    return 0


def cmd_color(args) -> int:
    u1, u2 = read_flow(args.flow)
    used = args.max_magnitude
    if used is None:
        used = default_max_magnitude(np.hypot(u1, u2))
    write_ppm(args.out, colorize((u1, u2), used))
    print(
        _report({"flow": args.flow, "out": args.out, "max_magnitude": float(used)}),
        end="",
    )
    return 0


def cmd_eval(args) -> int:
    u1, u2 = read_flow(args.flow)
    v1, v2 = read_flow(args.truth)
    if u1.shape != v1.shape:
        raise ValueError(
            f"flow is {u1.shape[1]}x{u1.shape[0]} but truth is {v1.shape[1]}x{v1.shape[0]}"
        )
    epe = endpoint_error(u1, u2, v1, v2)
    ang = angular_error_deg(u1, u2, v1, v2)
    print(
        _report(
            {
                "epe_mean": float(np.mean(epe)),
                "epe_median": float(np.median(epe)),
                "angular_error_mean_deg": float(np.mean(ang)),
                "max_magnitude": float(np.max(np.hypot(u1, u2))),
            }
        ),
        end="",
    )
    return 0
