"""Minimization of the discrete flow energy.

The energy is quadratic, so its gradient is affine: grad E(u) = A u + b with
A symmetric positive semi-definite and b = grad E(0).  A = R + D splits into
the covariant regularizer R, which reads the geometry alone, and the
pointwise data block D = alpha * w * f f^T (w = sqrt(det g) * h^2,
f = (fx1, fx2)); b = alpha * w * ft * f.  The solver sees A only as the
gradient of A's bundle, the problem's bundle of energy arrays (``model``)
with a zero ft: R p + D p, computed matrix-free with no subtraction.

Every coupling in A is axis-aligned with offset at most two (the
one-dimensional stencils composed with their adjoints) or joins the two flow
components at one point, so A is a 9-offset "plus" stencil with 2x2 blocks:
(A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d), for d in (0, 0),
(0, +-1), (0, +-2), (+-1, 0) and (+-2, 0).  Applying A to the indicator
fields of a coloring reads the coefficients off exactly (column grouping,
after Curtis, Powell & Reid, 1974), one masked copy of the apply per offset,
once each wanted offset of a grid point is the only stencil point in its
color.  The lattice colorings (row + k col) mod m of Goldfarb & Toint (1984)
need fewest: m = 3, k = 1 for the diagonal (6 applies), m = 10, k = 3 for the
whole stencil (20 applies).  D sits at offset 0 alone, so the other offsets
are R's bitwise.  The inverted 2x2 diagonal blocks are the offset-0 slice.

Block SOR sweeps a 16-coloring of the grid, (row mod 4, col mod 4).  Same-
color unknowns never interact, so the color's principal submatrix is exactly
the per-point 2x2 diagonal blocks, and each exact block update changes the
energy by -omega*(1 - omega/2) * g^T A_BB^{-1} g <= 0 for omega in (0, 2), and
``OMEGA`` fixes omega at 1.9.  That makes every sweep monotone in exact
arithmetic, which red-black coloring would not be here (the wide
second-difference composition couples same-parity neighbours).  The stencil, b
and the inverted blocks are stored color by color, so a color's residual b +
sum c * u on its own points is one gather of the flow (padded by two zeros)
and one sum, and a sweep's stopping residual is the same sum over the whole
grid.  SOR takes b = g - sum c * u from its stencil and the starting gradient
g, which is g itself from a zero start.  CG keeps the matrix-free apply and
takes its preconditioner blocks from the diagonal probe.  The inverted blocks
are a stacked diagonal (i11, i22) and an off-diagonal i12, and
``_block_solve`` alone applies them, as SOR's color update and as CG's block
Jacobi preconditioner.  CG updates its vectors in place, through one scratch
array.

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
gradient and energy at the initial flow), then the probe, 20 for SOR or 6
for CG, then none per SOR sweep and 1 per CG iteration, and 1 at the end for
the gradient and energy at the returned flow.  A cold solve (no u0) on a grid
with both sides odd and above 65 adds the cost of a solve on its coarse
bundle, every other sample of its source arrays with h doubled (257 recurses
to 129 and 65), and starts from that flow prolonged bilinearly (nested
iteration, after Deuflhard): within ``tol`` of a zero start's flow, bitwise
repeatable.  A coarse bundle failing the problem's checks gives a zero start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, VectorField, _index
from .model import FlowProblem, _energy_arrays, _flow_array, _gradient_arrays, _operands

__all__ = ["METHODS", "OMEGA", "SolverConfig", "SolverReport", "solve"]

METHODS = ("cg", "sor")  # matched exactly
# SOR's relaxation factor: every sweep is monotone for any omega in (0, 2),
# and 1.9 is the one value used
OMEGA = 1.9


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; ``tol`` bounds the max-norm of the energy gradient.

    ``tol`` is absolute, and a computed gradient is exact only to the
    rounding of its terms, about 1e-16 times their size.  A ``tol`` near or
    below that floor is not attainable: CG may then stop on its recurrence
    residual with ``converged`` False, or step on rounding noise until the
    energy rises and the report raises ``ValueError``.  A cold solve on a grid
    with both sides odd and above 65 runs this config on each coarse level too.
    ``method`` is ``cg`` or ``sor``; SOR relaxes by the fixed ``OMEGA`` = 1.9.
    """

    method: str = "cg"
    tol: float = 1e-6
    max_iter: int = 50000

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {list(METHODS)}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if _index("max_iter", self.max_iter) < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve; construction enforces the monotonicity contract.

    ``grad_inf_norm`` is the max-norm of the energy gradient at the returned
    flow, the quantity the stopping rule bounds; ``stop_reason`` is
    ``converged``, ``max_iter`` or ``breakdown``.  ``coarse_iterations`` are
    a nested start's counts, coarsest level first; the rest is the fine grid's.
    """

    method: str
    converged: bool
    iterations: int
    energy_initial: float
    energy_final: float
    grad_inf_norm: float
    stop_reason: str = "converged"
    energy_trace: tuple[float, ...] | None = None
    coarse_iterations: tuple[int, ...] = ()

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

# nested starts above this side length; at 65 the coarse solve costs more than it saves
_NESTED_ABOVE = 65


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
    u = None if u0 is None else _flow_array(problem, u0)
    u, report = _solve(problem._ops, config or SolverConfig(), u, track_energy)
    return VectorField.from_arrays(problem.spec, *u), report


def _solve(ops, config, u, track_energy=False):
    """:func:`solve` on a bundle from the flow array ``u``, or cold from None."""
    spec, coarse, coarse_iterations = ops.spec, None, ()
    if u is None and spec.width % 2 and spec.height % 2 and min(spec.shape) > _NESTED_ABOVE:
        coarse = _coarsen(ops)
    if coarse is not None:
        u, coarse_iterations = _prolong(*_solve(coarse, config, None))
        del coarse  # freed before the fine iterations, which never read it
    elif u is None:
        u = np.zeros((2,) + spec.shape)

    e_initial, g = _gradient_arrays(ops, u, with_energy=True)
    e_final = e_initial
    trace = [e_initial]
    iterations = 0
    stop_reason = "converged"
    if _max_norm(g) > config.tol:
        steps = _sor_steps if config.method == "sor" else _cg_steps
        # A's bundle; its zero ft is still added, as a skipped add can turn +0.0 into -0.0
        homogeneous = ops._replace(ft=np.zeros(spec.shape))
        # unnamed, the generator and its buffers are freed when the loop ends
        for iterations, res in enumerate(
            itertools.islice(steps(homogeneous, g, u), config.max_iter), 1
        ):
            if track_energy:
                trace.append(_energy_arrays(ops, u))
            if res <= config.tol:
                break
        else:
            stop_reason = "max_iter" if iterations == config.max_iter else "breakdown"
        e_final, g = _gradient_arrays(ops, u, with_energy=True)
    res = _max_norm(g)
    return u, SolverReport(
        method=config.method,
        converged=res <= config.tol,
        iterations=iterations,
        energy_initial=e_initial,
        energy_final=e_final,
        grad_inf_norm=res,
        stop_reason=stop_reason,
        energy_trace=tuple(trace) if track_energy else None,
        coarse_iterations=coarse_iterations,
    )


def _coarsen(ops):
    """The bundle on every other sample, h doubled, or None if it fails the checks."""
    spec = ops.spec
    coarse = GridSpec((spec.width + 1) // 2, (spec.height + 1) // 2, 2 * spec.h, spec.dt)
    sample = lambda a: np.ascontiguousarray(a[::2, ::2])
    christoffel = [sample(g[j][k]) for g in ops.gamma for j, k in ((0, 0), (0, 1), (1, 1))]
    data = (sample(a) for a in (ops.fx1, ops.fx2, ops.ft))
    try:
        return _operands(coarse, ops.alpha, sample(ops.sqrt_detg), christoffel, *data)
    except ValueError:
        return None


def _prolong(coarse, report):
    """A coarse solve's flow array, interpolated bilinearly onto the grid it
    samples at every other point, and its levels' iteration counts, coarsest first."""
    height, width = coarse.shape[1:]
    u = np.empty((2, 2 * height - 1, 2 * width - 1))
    u[:, ::2, ::2] = coarse
    for v in (u[:, :, ::2], u.swapaxes(1, 2)):  # the row, then the column midpoints
        mid = np.add(v[:, :-1:2], v[:, 2::2], out=v[:, 1::2])
        mid *= 0.5
    return u, report.coarse_iterations + (report.iterations,)


def _max_norm(g: np.ndarray) -> float:
    """max |g| from g's extremes, with no |g| array; abs makes an all-zero g's -0 +0."""
    return float(abs(max(g.max(), -g.min())))


def _lattice(offsets):
    """The fewest-color lattice coloring (row + k col) mod m, as (m, k), that
    leaves q + d alone among q's stencil points in its color, for each d in ``offsets``."""
    return next(
        (m, k)
        for m in itertools.count(1)
        for k in range(m)
        if all((s[0] - d[0] + k * (s[1] - d[1])) % m for d in offsets for s in _STENCIL if s != d)
    )


def _probe(homogeneous, offsets):
    """A's coefficients at ``offsets`` (a subset of ``_STENCIL``), read off exactly.

    ``homogeneous`` must be A's bundle, the problem's with ft = 0, whose
    energy gradient is A itself; the problem's own would add b to every
    offset.  Returns c of shape (len(offsets), 2, 2, height, width) with
    (A u)_i(q) = sum over d of c[d, i, k](q) u_k(q + d); c[d] is zero where
    q + d leaves the grid.  Each of the 2 m applies of the ``_lattice`` coloring,
    whose color grid is built once as bytes (m <= 10), yields c[d] by one masked
    copy on the points q whose q + d has the applied color: each point once.
    """
    m, k = _lattice(offsets)
    shape = homogeneous.spec.shape
    color = (np.add.outer(np.arange(shape[0]), k * np.arange(shape[1])) % m).astype(np.uint8)
    coeffs = np.empty((len(offsets), 2, 2) + shape)
    for a, j in itertools.product(range(m), range(2)):
        e = np.zeros((2,) + shape)
        e[j] = color == a
        y = _gradient_arrays(homogeneous, e)
        for n, (dr, dc) in enumerate(offsets):
            np.copyto(coeffs[n, :, j], y, where=color == (a - dr - k * dc) % m)
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


def _block_solve(diagonal, off_diagonal, r, out=None, work=None):
    """The inverted blocks applied to ``r``: i11 r1 + i12 r2, i12 r1 + i22 r2,
    written into ``out`` through ``work`` when given."""
    cross = np.multiply(off_diagonal, r[::-1], out=work)
    return np.add(np.multiply(diagonal, r, out=out), cross, out=out)


def _sor_steps(homogeneous, g, u):
    """16-color exact block SOR on the probed stencil from the gradient ``g``
    at ``u``; each sweep copies the padded flow's interior into ``u``."""
    coeffs = _probe(homogeneous, _STENCIL)
    height, width = homogeneous.spec.shape
    flow = np.zeros((2, height + 4, width + 4))
    flow[:, 2:-2, 2:-2] = u

    # the points color by color, color (a, c) the row-major flat indices of grid[a::4, c::4],
    # for the coefficients (permuted in place), b = g - A u, the inverted blocks and idx,
    # the flat index into a padded flow component of each point's sample at each offset
    grid = np.arange(height * width).reshape(height, width)
    order = np.concatenate([grid[a::4, c::4].ravel() for a, c in _COLORS])
    rows, cols = divmod(order, width)
    for part in coeffs.reshape(len(_STENCIL), 4, -1):
        part[...] = part.take(order, axis=1)
    coeffs = coeffs.reshape(len(_STENCIL), 2, 2, -1)
    diagonal, off_diagonal = _inverse_blocks(coeffs[0])
    offset = np.array([dr * (width + 4) + dc for dr, dc in _STENCIL])
    idx = (rows + 2) * (width + 4) + cols + 2 + offset[:, None]
    samples = flow.reshape(2, -1)
    b = g.reshape(2, -1).take(order, axis=1)
    b -= np.einsum("dikn,kdn->in", coeffs, samples.take(idx, axis=1))
    del grid, order, rows, cols
    # per color: its points in the padded flow (a view) and its slice of the rest
    owns = [flow[:, 2 + a : 2 + height : 4, 2 + c : 2 + width : 4] for a, c in _COLORS]
    bounds = np.cumsum([own[0].size for own in owns])[:-1]
    split = (np.split(x, bounds, axis=-1) for x in (coeffs, idx, b, diagonal, off_diagonal))
    colors = list(zip(owns, *split))

    while True:
        for own, coeff, index, b_color, diagonal_color, off_color in colors:
            residual = b_color + np.einsum("dikn,kdn->in", coeff, samples.take(index, axis=1))
            own -= OMEGA * _block_solve(diagonal_color, off_color, residual).reshape(own.shape)
        u[...] = flow[:, 2:-2, 2:-2]
        yield _max_norm(b + np.einsum("dikn,kdn->in", coeffs, samples.take(idx, axis=1)))


def _cg_steps(homogeneous, g, u):
    """Conjugate gradients on A u = -b from the gradient ``g`` at ``u``,
    preconditioned by the 2x2 blocks; yields the recurrence residual's
    max-norm and ends on a direction of zero curvature.  r, z and p are
    updated in place, every product through one scratch array."""
    diagonal, off_diagonal = _inverse_blocks(_probe(homogeneous, _STENCIL[:1])[0])
    work = np.empty_like(g)

    def dot(x, y):
        # one sum per component keeps each grid's pairwise rounding
        xy = np.multiply(x, y, out=work)
        return float(np.sum(xy[0]) + np.sum(xy[1]))

    r = -g
    z = _block_solve(diagonal, off_diagonal, r)
    p = z.copy()
    rz = dot(r, z)
    while True:
        q = _gradient_arrays(homogeneous, p)
        p_dot_q = dot(p, q)
        if p_dot_q <= 0.0:
            # zero-curvature direction of the semi-definite system; the
            # residual along it can no longer decrease
            return
        step = rz / p_dot_q
        u += np.multiply(step, p, out=work)
        r -= np.multiply(step, q, out=work)
        yield _max_norm(r)
        _block_solve(diagonal, off_diagonal, r, out=z, work=work)
        rz_next = dot(r, z)
        p *= rz_next / rz  # p = z + beta p
        p += z
        rz = rz_next
