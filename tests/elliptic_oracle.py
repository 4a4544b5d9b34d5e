"""Reference routes for the elliptic operators -D o D + Z (D = cov_dx).

Production solves one block-tridiagonal system in fold order by cyclic
reduction.  The tests check it against two routes that share none of its
assembly: a dense (N*n, N*n) matrix multiplied out from the dense difference
matrix, and conjugate gradients on an operator that applies ``cov_dx`` twice.
"""

import numpy as np
import scipy.sparse.linalg

from elwire.fields import cov_dx
from geometry_oracle import with_connection


def zeroth_blocks(xi, kind):
    npts, n = xi.shape
    eye = np.broadcast_to(np.eye(n), (npts, n, n))
    if kind == "identity":
        return eye.copy()
    if kind == "perp":
        return eye - xi[:, :, None] * xi[:, None, :]
    raise ValueError(f"unknown zeroth-order kind {kind!r}")


def dense_cov_dx_matrix(xi, samples, grid):
    """Dense (N*n, N*n) matrix of cov_dx along the curve with tangent xi."""
    npts, n = xi.shape
    shift_up = np.eye(npts, k=1) + np.eye(npts, k=1 - npts)
    c = (shift_up - shift_up.T) / (2.0 * grid.dx)
    d = np.kron(c, np.eye(n))
    # pointwise connection blocks Gamma(xi_k, .)
    blocks = np.einsum("pikj,pi->pkj", with_connection(samples).chris, xi)
    for k in range(npts):
        d[k * n : (k + 1) * n, k * n : (k + 1) * n] += blocks[k]
    return d


def dense_operator(xi, samples, grid, kind):
    """Dense -D o D + Z, with Z = perp ("perp") or the identity ("identity")."""
    d = dense_cov_dx_matrix(xi, samples, grid)
    a = -d @ d
    npts, n = xi.shape
    blocks = zeroth_blocks(xi, kind)
    for k in range(npts):
        a[k * n : (k + 1) * n, k * n : (k + 1) * n] += blocks[k]
    return a


def dense_solve(xi, samples, grid, kind, rhs):
    flat = np.linalg.solve(dense_operator(xi, samples, grid, kind), rhs.reshape(-1))
    return flat.reshape(rhs.shape)


def cg_solve(xi, samples, grid, kind, rhs, rtol=1e-10):
    """Conjugate gradients on the unassembled operator; asserts convergence."""
    npts, n = xi.shape
    blocks = zeroth_blocks(xi, kind)

    def matvec(flat):
        u = flat.reshape(npts, n)
        du = cov_dx(u, xi, samples, grid.dx)
        out = -cov_dx(du, xi, samples, grid.dx)
        out += np.einsum("pkj,pj->pk", blocks, u)
        return out.reshape(-1)

    op = scipy.sparse.linalg.LinearOperator((npts * n, npts * n), matvec=matvec)
    flat_rhs = rhs.reshape(-1)
    scale = max(np.max(np.abs(flat_rhs)), 1.0)
    flat, info = scipy.sparse.linalg.cg(op, flat_rhs, rtol=rtol / scale, atol=0.0, maxiter=20000)
    assert info == 0, f"conjugate gradients did not converge (info={info})"
    return flat.reshape(npts, n)


def block_tridiagonal_to_dense(system, order, n):
    """Unfold the production blocks in fold order into the dense matrix in
    grid order.

    ``system`` holds the diagonal blocks and the blocks coupling each block
    row to the next; the blocks below the diagonal are their transposes.
    Asserts that the last block row couples to nothing further and that the
    slots past the grid are identity rows coupled to nothing.
    """
    diag, upper = system
    count, m = diag.shape[:2]
    assert not upper[-1].any()
    folded = np.zeros((count * m, count * m))
    for b in range(count):
        rows = slice(b * m, (b + 1) * m)
        folded[rows, rows] = diag[b]
        if b + 1 < count:
            below = slice((b + 1) * m, (b + 2) * m)
            folded[rows, below] = upper[b]
            folded[below, rows] = upper[b].T
    size = len(order) * n
    assert np.array_equal(folded[size:], np.eye(count * m)[size:])
    scalar_order = (order[:, None] * n + np.arange(n)).reshape(-1)
    dense = np.empty((size, size))
    dense[np.ix_(scalar_order, scalar_order)] = folded[:size, :size]
    return dense
