"""Grid-refinement study for the surface-flow solver.

Runs three independent refinement sequences:

  * interior flow error against the known quadratic-scene minimizer, which
    the discretization represents exactly, so every level should sit at
    machine precision,
  * the gap between the closed-form graph Christoffel symbols and the ones
    recomputed from metric derivatives (expected order 2),
  * the natural boundary-condition residual of converged solutions
    (expected order 1 or better).

Usage: python3 scripts/convergence_study.py [--levels 4] [--alpha 10]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# run from a checkout: the package lives in src/, the validation helpers in tests/
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from surfaceflow.grid import GridSpec, ScalarField, coordinate_arrays  # noqa: E402
from surfaceflow.geometry import build_geometry  # noqa: E402
from surfaceflow.model import FlowProblem  # noqa: E402
from surfaceflow.solver import SolverConfig, solve  # noqa: E402
from reference import check_natural_bc, christoffel_from_metric  # noqa: E402


def quadratic_scene_error(n, alpha):
    """Max interior deviation from (1, 0) on the moving-quadratic scene."""
    spec = GridSpec(n, n, h=4.0 / (n - 1))
    x1, x2 = coordinate_arrays(spec, origin=(-2.0, -2.0))
    prob = FlowProblem(
        geom=build_geometry(ScalarField.zeros(spec)),
        fx1=ScalarField(spec, 2.0 * x1),
        fx2=ScalarField(spec, 2.0 * x2),
        ft=ScalarField(spec, -2.0 * x1),
        alpha=alpha,
    )
    flow, report = solve(prob, SolverConfig(method="cg", tol=1e-12, max_iter=50000))
    inner = (slice(1, -1), slice(1, -1))
    err = max(
        float(np.max(np.abs(flow.u1.values[inner] - 1.0))),
        float(np.max(np.abs(flow.u2.values[inner]))),
    )
    return err, report


def christoffel_gap(n):
    """Closed-form vs metric-derivative Christoffel symbols, interior max."""
    spec = GridSpec(n, n, h=2.0 / (n - 1))
    z = ScalarField.from_function(
        spec, lambda x1, x2: np.sin(x1) * np.cos(x2), origin=(-1.0, -1.0)
    )
    geom = build_geometry(z)
    general = christoffel_from_metric(geom.g11, geom.g12, geom.g22)
    inner = (slice(2, -2), slice(2, -2))
    return max(
        float(np.max(np.abs(f.values[inner] - geom.christoffel(i, j, k).values[inner])))
        for (i, j, k), f in general.items()
    )


def boundary_residual(n, alpha):
    """Natural boundary-condition residual on a curved analytic problem."""
    spec = GridSpec(n, n, h=1.0 / (n - 1))
    x1, x2 = coordinate_arrays(spec)
    geom = build_geometry(
        ScalarField(spec, 0.3 * np.sin(np.pi * x1) * np.cos(np.pi * x2))
    )
    prob = FlowProblem(
        geom=geom,
        fx1=ScalarField(spec, np.pi * np.cos(np.pi * x1) * np.cos(np.pi * x2)),
        fx2=ScalarField(spec, -np.pi * np.sin(np.pi * x1) * np.sin(np.pi * x2)),
        ft=ScalarField(spec, 0.3 * np.sin(np.pi * x1) + 0.2 * np.cos(np.pi * x2)),
        alpha=alpha,
    )
    flow, _ = solve(prob, SolverConfig(method="cg", tol=1e-11, max_iter=50000))
    return float(np.max(check_natural_bc(geom, flow).values))


def print_table(title, sizes, values, unit=""):
    print(f"\n{title}")
    print(f"  {'n':>5}  {'value':>12}  {'order':>6}")
    for i, (n, v) in enumerate(zip(sizes, values)):
        order = "" if i == 0 else f"{np.log2(values[i - 1] / v):6.2f}"
        print(f"  {n:>5}  {v:12.4e}  {order:>6}{unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--levels", type=int, default=4, help="refinement levels")
    parser.add_argument("--alpha", type=float, default=10.0, help="data-term weight")
    args = parser.parse_args()

    sizes = [2**k * 16 + 1 for k in range(args.levels)]
    start = time.perf_counter()

    print("quadratic scene: constant translation is an exact discrete minimizer,")
    print("so the interior error should be at machine precision on every grid")
    for n in sizes:
        err, report = quadratic_scene_error(n, args.alpha)
        print(
            f"  n={n:4d}: err={err:.3e}  "
            f"iters={report.iterations}  energy={report.energy_final:.3e}"
        )

    gaps = [christoffel_gap(n) for n in sizes]
    print_table("christoffel closed-form vs general (expect order ~2)", sizes, gaps)

    bcs = [boundary_residual(n, args.alpha) for n in sizes]
    print_table("natural boundary residual (expect order >= 1)", sizes, bcs)

    print(f"\ntotal {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
