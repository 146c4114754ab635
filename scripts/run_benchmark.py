"""Benchmark the solver on every built-in synthetic scene.

For each scene the script renders two frames, estimates the flow with both
solvers, and reports endpoint error against the stored ground truth together
with iteration counts and wall time.

Usage: python3 scripts/run_benchmark.py [--size 128] [--noise 0.0]
                                        [--alpha 10] [--out DIR]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a checkout: the package lives in src/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from surfaceflow.geometry import build_geometry  # noqa: E402
from surfaceflow.io import colorize, write_ppm  # noqa: E402
from surfaceflow.model import problem_from_frames  # noqa: E402
from surfaceflow.solver import SolverConfig, solve  # noqa: E402
from surfaceflow.synth import SCENE_NAMES, make_scene, render  # noqa: E402


def evaluate(name, size, noise, alpha, method, seed):
    scene = make_scene(name, size=size, frame_count=2, noise_sigma=noise, seed=seed)
    frames, heights, truth = render(scene)
    geom = build_geometry(heights[0])
    prob = problem_from_frames(frames[0], frames[1], geom, alpha=alpha)
    config = SolverConfig(method=method, tol=1e-6, max_iter=50000)
    start = time.perf_counter()
    flow, report = solve(prob, config)
    elapsed = time.perf_counter() - start
    epe = np.hypot(
        flow.u1.values - truth[0].u1.values, flow.u2.values - truth[0].u2.values
    )
    return flow, report, float(epe.mean()), float(np.median(epe)), elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=128, help="grid side length")
    parser.add_argument("--noise", type=float, default=0.0, help="frame noise sigma")
    parser.add_argument("--alpha", type=float, default=10.0, help="data-term weight")
    parser.add_argument("--seed", type=int, default=0, help="noise seed")
    parser.add_argument("--out", type=Path, help="write flow color maps here")
    args = parser.parse_args()

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    header = (
        f"{'scene':<22} {'method':<4} {'epe mean':>9} {'epe med':>9} "
        f"{'iters':>6} {'time':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in SCENE_NAMES:
        for method in ("sor", "cg"):
            flow, report, mean, median, elapsed = evaluate(
                name, args.size, args.noise, args.alpha, method, args.seed
            )
            flag = "" if report.converged else "  (not converged)"
            print(
                f"{name:<22} {method:<4} {mean:9.4f} {median:9.4f} "
                f"{report.iterations:>6} {elapsed:6.2f}s{flag}"
            )
            if args.out is not None and method == "cg":
                rgb = colorize((flow.u1.values, flow.u2.values))
                write_ppm(args.out / f"{name}.ppm", rgb)


if __name__ == "__main__":
    main()
