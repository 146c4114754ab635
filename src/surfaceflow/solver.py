"""Minimization of the discrete flow energy.

The energy is quadratic, so its gradient is affine: grad E(u) = A u + b with
A symmetric positive semi-definite and b = grad E(0).  The one operator is
the gradient itself, A p = grad E(p) - b, computed matrix-free.

Every coupling in A is axis-aligned with offset at most two (the
one-dimensional stencils composed with their adjoints) or joins the two flow
components at one point, so A is a 9-offset "plus" stencil with 2x2 blocks:
(A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d), for d in (0, 0),
(0, +-1), (0, +-2), (+-1, 0) and (+-2, 0).  Applying A to the indicator
fields of a coloring reads the coefficients off exactly (column grouping,
after Curtis, Powell & Reid, 1974) once each wanted offset of a grid point is
the only stencil point in its color.  The lattice colorings (row + k col)
mod m of Goldfarb & Toint (1984) need fewest: m = 3, k = 1 for the diagonal
(6 applies), m = 10, k = 3 for the whole stencil (20 applies).  The inverted
2x2 diagonal blocks are the offset-0 slice.

Block SOR sweeps a 16-coloring of the grid, (row mod 4, col mod 4).  Same-
color unknowns never interact, so the color's principal submatrix is exactly
the per-point 2x2 diagonal blocks, and each exact block update changes the
energy by -omega*(1 - omega/2) * g^T A_BB^{-1} g <= 0 for omega in (0, 2).
That makes every sweep monotone in exact arithmetic, which red-black
coloring would not be here (the wide second-difference composition couples
same-parity neighbours).  The stencil, b and the inverted blocks are stored
color by color, so a color's residual b + sum c * u on its own points is one
gather of the flow (padded by two zeros) and one sum, and a sweep's stopping
residual is the same sum over the whole grid.  CG keeps the matrix-free
apply and takes its preconditioner blocks from the diagonal probe.  The
inverted blocks are a stacked diagonal (i11, i22) and an off-diagonal i12,
and ``_block_solve`` alone applies them, as SOR's color update and as CG's
block Jacobi preconditioner.  CG's vector updates allocate their results.

Every two-component array, the flow as well as gradients, residuals and
Krylov vectors, is one (2, height, width) array, component first.  ``solve``
is the one iteration driver.  It owns ``tol``, ``max_iter`` and the energy
trace: it checks the initial guess, caps the steps at ``max_iter`` and stops
once a step's max-norm is within ``tol``.  Each method is a step generator
that sets itself up on its first step, then updates the flow in place and
yields the gradient max-norm its iteration computes: SOR's from the probed
stencil, CG's recurrence residual; both differ from the true gradient by
rounding.  So the report's ``grad_inf_norm`` and ``converged`` read the true
gradient at the returned flow, for both methods.  Its ``stop_reason`` says
why the steps stopped: ``converged`` (a step's max-norm, or the initial
guess's gradient, met ``tol``), ``max_iter``, or ``breakdown`` (the method's
generator ended first, as CG does on a direction of zero curvature).

Counted in gradient applies, a solve that iterates costs 1 at setup (the
initial gradient, which is b when starting from zero; 2 from a given u0),
then the probe, 20 for SOR or 6 for CG, then none per SOR sweep and 1 per CG
iteration, and 1 at the end for the gradient at the returned flow.
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
    flow, the quantity the stopping rule bounds; ``stop_reason`` is
    ``converged``, ``max_iter`` or ``breakdown``.
    """

    method: str
    converged: bool
    iterations: int
    energy_initial: float
    energy_final: float
    grad_inf_norm: float
    stop_reason: str = "converged"
    energy_trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.stop_reason not in ("converged", "max_iter", "breakdown"):
            raise ValueError(f"unknown stop_reason {self.stop_reason!r}")
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
        u = np.zeros((2,) + spec.shape)
    else:
        if u0.spec != spec:
            raise ValueError("initial guess does not match the problem grid spec")
        u = np.stack((u0.u1.values, u0.u2.values))

    e_initial = _energy_arrays(problem, u)
    trace = [e_initial]
    g = _gradient_arrays(problem, u)
    iterations = 0
    stop_reason = "converged"
    if _max_norm(g) > config.tol:
        b = g if u0 is None else _gradient_arrays(problem, np.zeros_like(u))
        steps = _sor_steps if config.method == "sor" else _cg_steps
        # unnamed, the generator and its buffers are freed when the loop ends
        for iterations, res in enumerate(
            itertools.islice(steps(problem, config, b, g, u), config.max_iter), 1
        ):
            if track_energy:
                trace.append(_energy_arrays(problem, u))
            if res <= config.tol:
                break
        else:
            stop_reason = "max_iter" if iterations == config.max_iter else "breakdown"
        g = _gradient_arrays(problem, u)
    res = _max_norm(g)
    report = SolverReport(
        method=config.method,
        converged=res <= config.tol,
        iterations=iterations,
        energy_initial=e_initial,
        energy_final=_energy_arrays(problem, u),
        grad_inf_norm=res,
        stop_reason=stop_reason,
        energy_trace=tuple(trace) if track_energy else None,
    )
    return VectorField.from_arrays(spec, *u), report


def _max_norm(g: np.ndarray) -> float:
    return float(np.max(np.abs(g)))


def _apply(problem, b, p):
    """A p = grad E(p) - b, the homogeneous part of the gradient."""
    g = _gradient_arrays(problem, p)
    g -= b
    return g


def _lattice(offsets):
    """The fewest-color lattice coloring (row + k col) mod m, as (m, k), that
    leaves q + d alone among q's stencil points in its color, for each d in ``offsets``."""
    return next(
        (m, k)
        for m in itertools.count(1)
        for k in range(m)
        if all((s[0] - d[0] + k * (s[1] - d[1])) % m for d in offsets for s in _STENCIL if s != d)
    )


def _probe(problem, b, offsets):
    """A's coefficients at ``offsets`` (a subset of ``_STENCIL``), read off exactly.

    Returns c of shape (len(offsets), 2, 2, height, width) with
    (A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d); c[d] is zero where
    q + d leaves the grid.  Each of the 2 m applies of the ``_lattice``
    coloring yields c[d] on the points q whose q + d carries the probed color.
    """
    m, k = _lattice(offsets)
    coeffs = np.empty((len(offsets), 2, 2) + problem.spec.shape)
    for a, j in itertools.product(range(m), range(2)):
        # color a holds the rows (a - k s) mod m of each column class s mod m
        e = np.zeros((2,) + problem.spec.shape)
        for s in range(m):
            e[j, (a - k * s) % m :: m, s::m] = 1.0
        y = _apply(problem, b, e)
        for n, (dr, dc) in enumerate(offsets):
            for s in range(m):
                rows = slice((a - dr - k * (s + dc)) % m, None, m)
                coeffs[n, :, j, rows, s::m] = y[:, rows, s::m]
    return coeffs


def _inverse_blocks(block):
    """Inverted 2x2 diagonal blocks ``block[i, k]``: diagonal (i11, i22), off-diagonal i12."""
    a11, a12, a22 = block[0, 0], block[1, 0], block[1, 1]
    det = a11 * a22 - a12 * a12
    # stencil rows touched by only one component keep the columns of
    # the point block linearly independent, so the blocks are SPD unless
    # the input overflowed them
    if not (np.all(a11 > 0) and np.all(det > 0)):
        raise ValueError("probed diagonal blocks are not positive definite")
    return np.stack((a22, a11)) / det, -a12 / det


def _block_solve(diagonal, off_diagonal, r):
    """The inverted blocks applied to ``r``: i11 r1 + i12 r2, i12 r1 + i22 r2."""
    return diagonal * r + off_diagonal * r[::-1]


def _sor_steps(problem, config, b, g, u):
    """16-color exact block SOR on the probed stencil, from ``u`` alone (``g``
    goes unused); each sweep copies the padded flow's interior into ``u``."""
    coeffs = _probe(problem, b, _STENCIL)
    height, width = problem.spec.shape
    flow = np.zeros((2, height + 4, width + 4))
    flow[:, 2:-2, 2:-2] = u
    omega = config.omega

    # the points color by color, each color row-major, for the coefficients
    # (permuted in place), b, the inverted blocks and idx, the flat index into
    # a padded flow component of each point's sample at each offset
    rows, cols = np.indices((height, width)).reshape(2, -1)
    order = np.argsort(rows % 4 * 4 + cols % 4, kind="stable")
    for part in coeffs.reshape(len(_STENCIL), 4, -1):
        part[...] = part.take(order, axis=1)
    coeffs = coeffs.reshape(len(_STENCIL), 2, 2, -1)
    b = b.reshape(2, -1).take(order, axis=1)
    diagonal, off_diagonal = _inverse_blocks(coeffs[0])
    offset = np.array([dr * (width + 4) + dc for dr, dc in _STENCIL])
    idx = (rows[order] + 2) * (width + 4) + cols[order] + 2 + offset[:, None]
    samples = flow.reshape(2, -1)
    del rows, cols, order
    # per color: its points in the padded flow (a view) and its slice of the rest
    owns = [flow[:, 2 + a : 2 + height : 4, 2 + c : 2 + width : 4] for a, c in _COLORS]
    bounds = np.cumsum([own[0].size for own in owns])[:-1]
    split = (np.split(x, bounds, axis=-1) for x in (coeffs, idx, b, diagonal, off_diagonal))
    colors = list(zip(owns, *split))

    while True:
        for own, coeff, index, b_color, diagonal_color, off_color in colors:
            residual = b_color + np.einsum("dikn,kdn->in", coeff, samples.take(index, axis=1))
            own -= omega * _block_solve(diagonal_color, off_color, residual).reshape(own.shape)
        u[...] = flow[:, 2:-2, 2:-2]
        yield _max_norm(b + np.einsum("dikn,kdn->in", coeffs, samples.take(idx, axis=1)))


def _cg_steps(problem, config, b, g, u):
    """Conjugate gradients on A u = -b from the gradient ``g`` at ``u``,
    preconditioned by the 2x2 blocks; yields the recurrence residual's
    max-norm and ends on a direction of zero curvature."""
    diagonal, off_diagonal = _inverse_blocks(_probe(problem, b, _STENCIL[:1])[0])

    def dot(x, y):
        # one sum per component keeps each grid's pairwise rounding
        xy = x * y
        return float(np.sum(xy[0]) + np.sum(xy[1]))

    r = -g
    p = z = _block_solve(diagonal, off_diagonal, r)
    rz = dot(r, z)
    while True:
        q = _apply(problem, b, p)
        p_dot_q = dot(p, q)
        if p_dot_q <= 0.0:
            # zero-curvature direction of the semi-definite system; the
            # residual along it can no longer decrease
            return
        step = rz / p_dot_q
        u += step * p
        r -= step * q
        yield _max_norm(r)
        z = _block_solve(diagonal, off_diagonal, r)
        rz_next = dot(r, z)
        p = z + (rz_next / rz) * p
        rz = rz_next
