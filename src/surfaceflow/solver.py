"""Minimization of the discrete flow energy.

The energy is quadratic, so its gradient is affine: grad E(u) = A u + b with
A symmetric positive semi-definite and b = grad E(0).  The one operator is
the gradient itself, A p = grad E(p) - b; both solvers stop on the max-norm
of the gradient, which they compute matrix-free.

Every coupling in A is axis-aligned with offset at most two (the
one-dimensional stencils composed with their adjoints) or joins the two flow
components at one point, so A is a 9-offset "plus" stencil with 2x2 blocks:
(A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d), for d in (0, 0),
(0, +-1), (0, +-2), (+-1, 0) and (+-2, 0).  Applying A to the indicator
fields of a (row mod p, col mod p) coloring reads the coefficients off
exactly (column grouping, after Curtis, Powell & Reid, 1974) once each
wanted offset of a grid point is the only stencil point in its color.  The
diagonal alone needs a period that divides no offset (3, so 18 applies);
the whole stencil one that divides no difference of two offsets, up to 4
(5, so 50 applies).  The inverted 2x2 diagonal blocks are the offset-0
slice.

Block SOR sweeps a 16-coloring of the grid, (row mod 4, col mod 4).  Same-
color unknowns never interact, so the color's principal submatrix is exactly
the per-point 2x2 diagonal blocks, and each exact block update changes the
energy by -omega*(1 - omega/2) * g^T A_BB^{-1} g <= 0 for omega in (0, 2).
That makes every sweep monotone in exact arithmetic, which red-black
coloring would not be here (the wide second-difference composition couples
same-parity neighbours).  Each color computes its residual b + sum c * u on
its own points only, from the probed stencil and the flow padded by two
zeros, so that every offset is one strided view.  CG keeps the matrix-free
apply and takes its preconditioner blocks from the period-3 probe.

Counted in gradient applies, a solve that iterates costs 2 at setup (the
initial gradient and b), then the probe, 50 for SOR or 18 for CG, then 1 per
SOR sweep (the residual that the stopping rule reads) or 1 per CG iteration.
"""

from __future__ import annotations

import itertools
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


# the offsets (row, col) of A's plus stencil, the point itself first
_STENCIL = ((0, 0), (0, -2), (0, -1), (0, 1), (0, 2), (-2, 0), (-1, 0), (1, 0), (2, 0))

# the 16 SOR colors (row mod 4, col mod 4), row-major
_COLORS = tuple((a, c) for a in range(4) for c in range(4))


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
    if config.method == "sor":
        coeffs = _probe(problem, b, _STENCIL)
        result = _solve_sor(problem, config, b, coeffs, u1, u2, trace)
    else:
        blocks = _inverse_blocks(_probe(problem, b, _STENCIL[:1])[0])
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
    g1 -= b[0]
    g2 -= b[1]
    return g1, g2


def _probe(problem, b, offsets):
    """A's coefficients at ``offsets`` (a subset of ``_STENCIL``), read off exactly.

    Returns c of shape (len(offsets), 2, 2, height, width) with
    (A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d); c[d] is zero where
    q + d leaves the grid.  The period p of the (row mod p, col mod p)
    coloring is the smallest at which q + d is the only stencil point of q
    in its color, so each of the 2 p^2 applies yields c[d] on the points q
    whose q + d carries the probed color.
    """
    period = next(
        p
        for p in itertools.count(1)
        if all(
            (s[0] - d[0]) % p or (s[1] - d[1]) % p
            for d in offsets
            for s in _STENCIL
            if s != d
        )
    )
    shape = problem.spec.shape
    coeffs = np.empty((len(offsets), 2, 2) + shape)
    zero = np.zeros(shape)
    for a in range(period):
        for c in range(period):
            e = np.zeros(shape)
            e[a::period, c::period] = 1.0
            for k, (e1, e2) in enumerate(((e, zero), (zero, e))):
                y = _apply(problem, b, e1, e2)
                for n, (dr, dc) in enumerate(offsets):
                    rows = slice((a - dr) % period, None, period)
                    cols = slice((c - dc) % period, None, period)
                    for i in range(2):
                        coeffs[n, i, k, rows, cols] = y[i][rows, cols]
    return coeffs


def _inverse_blocks(block):
    """Inverses (i11, i12, i22) of the 2x2 diagonal blocks ``block[i, k]``."""
    a11, a12, a22 = block[0, 0], block[1, 0], block[1, 1]
    det = a11 * a22 - a12 * a12
    # stencil rows touched by only one component keep the columns of
    # the point block linearly independent, so the blocks are SPD unless
    # the input overflowed them
    if not (np.all(a11 > 0) and np.all(det > 0)):
        raise ValueError("probed diagonal blocks are not positive definite")
    return a22 / det, -a12 / det, a11 / det


def _solve_sor(problem, config, b, coeffs, u1, u2, trace):
    """16-color exact block SOR on the probed stencil ``coeffs``."""
    i11, i12, i22 = _inverse_blocks(coeffs[0])
    height, width = problem.spec.shape
    flow = np.zeros((2, height + 4, width + 4))
    flow[0, 2:-2, 2:-2] = u1
    flow[1, 2:-2, 2:-2] = u2
    u1, u2 = flow[:, 2:-2, 2:-2]
    b = np.stack(b)
    omega = config.omega

    # per color: its coefficients, the flow at each stencil offset of its
    # points (all views), its part of b and its inverted blocks
    colors = []
    for a, c in _COLORS:
        rows, cols = slice(a, None, 4), slice(c, None, 4)
        m, n = i11[rows, cols].shape
        shifted = [
            flow[:, 2 + a + dr : 2 + a + dr + 4 * m : 4, 2 + c + dc : 2 + c + dc + 4 * n : 4]
            for dr, dc in _STENCIL
        ]
        inverse = (i11[rows, cols], i12[rows, cols], i22[rows, cols])
        colors.append((coeffs[..., rows, cols], shifted, b[:, rows, cols], inverse))

    converged = False
    iterations = 0
    res = np.inf
    for iterations in range(1, config.max_iter + 1):
        for coeff, shifted, b_color, (j11, j12, j22) in colors:
            gb1, gb2 = b_color + np.einsum("dikyx,dkyx->iyx", coeff, np.stack(shifted))
            own = shifted[0]
            own[0] -= omega * (j11 * gb1 + j12 * gb2)
            own[1] -= omega * (j12 * gb1 + j22 * gb2)
        res = _max_norm(*_gradient_arrays(problem, u1, u2))
        if trace is not None:
            trace.append(_energy_arrays(problem, u1, u2))
        if res <= config.tol:
            converged = True
            break
    return converged, iterations, u1, u2, res


def _solve_cg(problem, config, g, b, blocks, u1, u2, trace):
    """Conjugate gradients on A u = -b from the gradient ``g`` at the initial
    guess, preconditioned by the 2x2 blocks.  The vector updates write into
    buffers allocated once."""
    i11, i12, i22 = blocks
    tmp = np.empty_like(u1)

    def precond(r1, r2, z1, z2):
        np.multiply(i11, r1, out=z1)
        z1 += np.multiply(i12, r2, out=tmp)
        np.multiply(i12, r1, out=z2)
        z2 += np.multiply(i22, r2, out=tmp)

    def dot(x1, y1, x2, y2):
        return float(np.sum(np.multiply(x1, y1, out=tmp)) + np.sum(np.multiply(x2, y2, out=tmp)))

    r1, r2 = -g[0], -g[1]
    z1, z2 = np.empty_like(r1), np.empty_like(r2)
    precond(r1, r2, z1, z2)
    p1, p2 = z1.copy(), z2.copy()
    rz = dot(r1, z1, r2, z2)

    converged = False
    iterations = 0
    res = _max_norm(r1, r2)
    for iterations in range(1, config.max_iter + 1):
        q1, q2 = _apply(problem, b, p1, p2)
        p_dot_q = dot(p1, q1, p2, q2)
        if p_dot_q <= 0.0:
            # zero-curvature direction of the semi-definite system; the
            # residual along it can no longer decrease
            iterations -= 1
            break
        step = rz / p_dot_q
        u1 += np.multiply(step, p1, out=tmp)
        u2 += np.multiply(step, p2, out=tmp)
        r1 -= np.multiply(step, q1, out=tmp)
        r2 -= np.multiply(step, q2, out=tmp)
        res = _max_norm(r1, r2)
        if trace is not None:
            trace.append(_energy_arrays(problem, u1, u2))
        if res <= config.tol:
            converged = True
            break
        precond(r1, r2, z1, z2)
        rz_next = dot(r1, z1, r2, z2)
        beta = rz_next / rz
        p1 *= beta
        p1 += z1
        p2 *= beta
        p2 += z2
        rz = rz_next
    return converged, iterations, u1, u2, res
