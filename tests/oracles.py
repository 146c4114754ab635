"""Independently written reference implementations used as test oracles.

Everything in this module is built from first principles with scipy
sparse matrices, deliberately NOT sharing code with the package under test
beyond the raw stencil definitions (central differences inside, one-sided
first-order differences on the boundary).
"""

import numpy as np
import scipy.sparse as sp


def stencil_1d(n: int, h: float) -> sp.csr_matrix:
    """1-d first-derivative matrix: central interior, one-sided at the ends."""
    mat = sp.lil_matrix((n, n))
    mat[0, 0] = -1.0 / h
    mat[0, 1] = 1.0 / h
    for i in range(1, n - 1):
        mat[i, i - 1] = -1.0 / (2.0 * h)
        mat[i, i + 1] = 1.0 / (2.0 * h)
    mat[n - 1, n - 2] = -1.0 / h
    mat[n - 1, n - 1] = 1.0 / h
    return mat.tocsr()


def classical_hs_system(fx1, fx2, ft, alpha: float, h: float):
    """Sparse (A, b) of the classical Horn-Schunck discrete energy on a flat
    grid: E = (h^2/2) sum[alpha (fx1 u1 + fx2 u2 + ft)^2 + |grad u1|^2 + |grad u2|^2].

    Unknown ordering: [u1 row-major, u2 row-major].  Returns A (2N x 2N) and
    b (2N,) with grad E(u) = A u + b.
    """
    fx1 = np.asarray(fx1, dtype=float)
    fx2 = np.asarray(fx2, dtype=float)
    ft = np.asarray(ft, dtype=float)
    height, width = fx1.shape
    n = width * height
    d1 = sp.kron(sp.identity(height), stencil_1d(width, h)).tocsr()
    d2 = sp.kron(stencil_1d(height, h), sp.identity(width)).tocsr()
    lap = (d1.T @ d1 + d2.T @ d2) * h * h
    a11 = lap + sp.diags(alpha * h * h * (fx1**2).ravel())
    a22 = lap + sp.diags(alpha * h * h * (fx2**2).ravel())
    a12 = sp.diags(alpha * h * h * (fx1 * fx2).ravel())
    a = sp.bmat([[a11, a12], [a12, a22]]).tocsr()
    b = alpha * h * h * np.concatenate([(ft * fx1).ravel(), (ft * fx2).ravel()])
    return a, b


def classical_hs_energy(fx1, fx2, ft, alpha, h, u1, u2) -> float:
    """Direct evaluation of the flat discrete energy from its definition."""
    fx1 = np.asarray(fx1, dtype=float)
    height, width = fx1.shape
    d1 = sp.kron(sp.identity(height), stencil_1d(width, h)).tocsr()
    d2 = sp.kron(stencil_1d(height, h), sp.identity(width)).tocsr()
    r = fx1 * u1 + fx2 * u2 + np.asarray(ft, dtype=float)
    parts = [alpha * np.sum(r * r)]
    for comp in (np.asarray(u1, float).ravel(), np.asarray(u2, float).ravel()):
        parts.append(np.sum((d1 @ comp) ** 2))
        parts.append(np.sum((d2 @ comp) ** 2))
    return 0.5 * h * h * float(sum(parts))


def covariant_hs_system(fx1, fx2, ft, alpha: float, h: float, sqrt_detg, gamma):
    """Sparse (A, b, c) of the covariant discrete energy on a graph surface,
    E = 1/2 sum w [alpha (fx1 u1 + fx2 u2 + ft)^2 + sum_ij (D_j u^i)^2] with
    w = sqrt(det g) h^2 and D_j u^i = d_j u^i + sum_k G^i_jk u^k, where
    ``gamma[i, j, k]`` holds G^i_jk (indices from 0).

    Unknown ordering as in :func:`classical_hs_system`; E(u) = 1/2 u^T A u +
    b^T u + c.
    """
    fx1, fx2, ft = (np.asarray(a, dtype=float) for a in (fx1, fx2, ft))
    height, width = fx1.shape
    d = (
        sp.kron(sp.identity(height), stencil_1d(width, h)),
        sp.kron(stencil_1d(height, h), sp.identity(width)),
    )
    # one block row [D_j u^i from u^1, from u^2] per (i, j)
    rows = [
        [(d[j] if k == i else 0) + sp.diags(np.ravel(gamma[i, j, k])) for k in range(2)]
        for i in range(2)
        for j in range(2)
    ]
    cov = sp.bmat(rows).tocsr()
    w = (np.asarray(sqrt_detg, dtype=float) * h * h).ravel()
    data = sp.hstack([sp.diags(fx1.ravel()), sp.diags(fx2.ravel())]).tocsr()
    a = cov.T @ sp.diags(np.tile(w, 4)) @ cov + alpha * (data.T @ sp.diags(w) @ data)
    b = alpha * (data.T @ (w * ft.ravel()))
    c = 0.5 * alpha * float(np.sum(w * ft.ravel() ** 2))
    return a.tocsr(), b, c
