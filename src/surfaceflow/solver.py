"""Minimization of the discrete flow energy.

The energy is quadratic, so its gradient is affine: grad E(u) = A u + b with
A symmetric positive semi-definite and b = grad E(0).  Both solvers work
matrix-free through gradient applies and stop on the max-norm of the
gradient.

Block SOR sweeps a 16-coloring of the grid, (row mod 4, col mod 4).  Every
coupling in A is axis-aligned with offset at most two (the one-dimensional
stencils composed with their adjoints) or joins the two flow components at
one point, so same-color unknowns never interact: the color's principal
submatrix is exactly the per-point 2x2 diagonal blocks, an exact block-SOR
update costs one gradient apply per color, and each update changes the
energy by -omega*(1 - omega/2) * g^T A_BB^{-1} g <= 0 for omega in (0, 2).
That makes every sweep monotone in exact arithmetic, which red-black
coloring would not be here (the wide second-difference composition couples
same-parity neighbours).

The same separation makes the 2x2 blocks recoverable exactly by probing:
applying A to per-color indicator fields reads off a11, a12, a22 without
ever forming the matrix.

The one operator is the gradient itself, and A p = grad E(p) - b.  Counted
in gradient applies, a solve that iterates costs 34 at setup (the initial
gradient, b and 32 probes), then 16 per SOR sweep (one after each color
update; the last is the sweep's residual and the next sweep's first input)
or 1 per CG iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import VectorField
from .model import FlowProblem, _energy_arrays, _gradient_arrays

__all__ = [
    "METHOD_ALIASES",
    "SolverConfig",
    "SolverReport",
    "solve",
]

# accepted method spellings (SolverConfig also ignores case) -> canonical name
METHOD_ALIASES = {
    "sor": "sor",
    "successive-over-relaxation": "sor",
    "cg": "cg",
    "conjugate-gradient": "cg",
}


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; ``tol`` bounds the max-norm of the energy gradient."""

    method: str = "sor"
    omega: float = 1.9
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self) -> None:
        canonical = METHOD_ALIASES.get(self.method.lower())
        if canonical is None:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {sorted(METHOD_ALIASES)}"
            )
        object.__setattr__(self, "method", canonical)
        if not (0.0 < self.omega < 2.0):
            raise ValueError(f"omega must lie in (0, 2), got {self.omega}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve; construction enforces the monotonicity contract.

    ``grad_inf_norm`` is the max-norm of the energy gradient at the returned
    flow, the quantity the stopping rule bounds.
    """

    method: str
    converged: bool
    iterations: int
    energy_initial: float
    energy_final: float
    grad_inf_norm: float
    energy_trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        for name in ("energy_initial", "energy_final", "grad_inf_norm"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        bound = self.energy_initial + 1e-12 * max(1.0, self.energy_initial)
        if self.energy_final > bound:
            raise ValueError(
                f"energy increased: {self.energy_initial} -> {self.energy_final}"
            )


# the 16 colors (row mod 4, col mod 4), row-major
_COLORS = tuple((slice(a, None, 4), slice(b, None, 4)) for a in range(4) for b in range(4))


def solve(
    problem: FlowProblem,
    config: SolverConfig | None = None,
    u0: VectorField | None = None,
    track_energy: bool = False,
):
    """Minimize the flow energy; returns the flow and a :class:`SolverReport`.

    One iteration means one full 16-color sweep (SOR) or one Krylov step
    (CG).  The initial guess converging immediately is reported as zero
    iterations.
    """
    if config is None:
        config = SolverConfig()
    spec = problem.spec
    if u0 is None:
        u1 = np.zeros(spec.shape)
        u2 = np.zeros(spec.shape)
    else:
        if u0.spec != spec:
            raise ValueError("initial guess does not match the problem grid spec")
        u1 = u0.u1.values.copy()
        u2 = u0.u2.values.copy()

    e_initial = _energy_arrays(problem, u1, u2)
    trace = [e_initial] if track_energy else None

    g = _gradient_arrays(problem, u1, u2)
    res = _max_norm(*g)
    if res <= config.tol:
        return _finish(
            problem, config, u1, u2, True, 0, e_initial, e_initial, res, trace
        )

    zero = np.zeros(spec.shape)
    b = _gradient_arrays(problem, zero, zero)
    blocks = _inverse_blocks(problem, b)
    if config.method == "sor":
        result = _solve_sor(problem, config, g, blocks, u1, u2, trace)
    else:
        result = _solve_cg(problem, config, g, b, blocks, u1, u2, trace)
    converged, iterations, u1, u2, res = result
    e_final = _energy_arrays(problem, u1, u2)
    return _finish(
        problem, config, u1, u2, converged, iterations, e_initial, e_final, res, trace
    )


def _finish(problem, config, u1, u2, converged, iterations, e0, e1, res, trace):
    flow = VectorField.from_arrays(problem.spec, u1, u2)
    report = SolverReport(
        method=config.method,
        converged=converged,
        iterations=iterations,
        energy_initial=e0,
        energy_final=e1,
        grad_inf_norm=res,
        energy_trace=None if trace is None else tuple(trace),
    )
    return flow, report


def _max_norm(g1: np.ndarray, g2: np.ndarray) -> float:
    return float(max(np.max(np.abs(g1)), np.max(np.abs(g2))))


def _apply(problem, b, p1, p2):
    """A (p1, p2) = grad E(p) - b, the homogeneous part of the gradient."""
    g1, g2 = _gradient_arrays(problem, p1, p2)
    return g1 - b[0], g2 - b[1]


def _inverse_blocks(problem, b):
    """Inverses (i11, i12, i22) of A's per-point 2x2 diagonal blocks, probed exactly."""
    shape = problem.spec.shape
    a11 = np.empty(shape)
    a12 = np.empty(shape)
    a22 = np.empty(shape)
    zero = np.zeros(shape)
    for sel in _COLORS:
        e = np.zeros(shape)
        e[sel] = 1.0
        y1, y2 = _apply(problem, b, e, zero)
        a11[sel] = y1[sel]
        a12[sel] = y2[sel]
        y1, y2 = _apply(problem, b, zero, e)
        a22[sel] = y2[sel]
    det = a11 * a22 - a12 * a12
    # stencil rows touched by only one component keep the columns of
    # the point block linearly independent, so the blocks are SPD
    if not (np.all(a11 > 0) and np.all(det > 0)):
        raise RuntimeError("probed diagonal blocks are not positive definite")
    return a22 / det, -a12 / det, a11 / det


def _solve_sor(problem, config, g, blocks, u1, u2, trace):
    """16-color exact block SOR from the gradient ``g`` at the initial guess."""
    i11, i12, i22 = blocks
    g1, g2 = g
    omega = config.omega

    converged = False
    iterations = 0
    res = np.inf
    for iterations in range(1, config.max_iter + 1):
        for sel in _COLORS:
            gb1 = g1[sel]
            gb2 = g2[sel]
            u1[sel] -= omega * (i11[sel] * gb1 + i12[sel] * gb2)
            u2[sel] -= omega * (i12[sel] * gb1 + i22[sel] * gb2)
            g1, g2 = _gradient_arrays(problem, u1, u2)
        res = _max_norm(g1, g2)
        if trace is not None:
            trace.append(_energy_arrays(problem, u1, u2))
        if res <= config.tol:
            converged = True
            break
    return converged, iterations, u1, u2, res


def _solve_cg(problem, config, g, b, blocks, u1, u2, trace):
    """Conjugate gradients on A u = -b from the gradient ``g`` at the initial
    guess, preconditioned by the 2x2 blocks."""
    i11, i12, i22 = blocks

    def precond(r1, r2):
        return i11 * r1 + i12 * r2, i12 * r1 + i22 * r2

    r1, r2 = -g[0], -g[1]
    z1, z2 = precond(r1, r2)
    p1, p2 = z1.copy(), z2.copy()
    rz = float(np.sum(r1 * z1) + np.sum(r2 * z2))

    converged = False
    iterations = 0
    res = _max_norm(r1, r2)
    for iterations in range(1, config.max_iter + 1):
        q1, q2 = _apply(problem, b, p1, p2)
        p_dot_q = float(np.sum(p1 * q1) + np.sum(p2 * q2))
        if p_dot_q <= 0.0:
            # zero-curvature direction of the semi-definite system; the
            # residual along it can no longer decrease
            iterations -= 1
            break
        step = rz / p_dot_q
        u1 += step * p1
        u2 += step * p2
        r1 -= step * q1
        r2 -= step * q2
        res = _max_norm(r1, r2)
        if trace is not None:
            trace.append(_energy_arrays(problem, u1, u2))
        if res <= config.tol:
            converged = True
            break
        z1, z2 = precond(r1, r2)
        rz_next = float(np.sum(r1 * z1) + np.sum(r2 * z2))
        beta = rz_next / rz
        p1 = z1 + beta * p1
        p2 = z2 + beta * p2
        rz = rz_next
    return converged, iterations, u1, u2, res
