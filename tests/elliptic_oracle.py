"""Reference routes for the elliptic operators -D o D + Z (D = cov_dx).

Production solves a curved chart's block-tridiagonal system in fold order by
cyclic reduction, and a flat chart's periodic strands of step 2 by periodic
odd-even reduction.  The tests check both against two routes that share none
of their assembly: a dense (N*n, N*n) matrix multiplied out from the dense
difference matrix, and conjugate gradients on an operator that applies
``cov_dx`` twice.

On a flat chart the block route of every curved chart (``block_operator``
and ``block_solve``, which pass the zero connection a flat chart does not
sample) is the reference of the strand route, and its penalty at its
minimiser (``reduction_bentness``, within ``FOURIER_TOL``) the reference of
the bentness's Fourier sum.  ``block_tridiagonal_to_dense`` and
``strand_system_to_dense`` unfold the two production systems.
"""

import dataclasses


import numpy as np
import scipy.sparse.linalg

from elwire.elliptic import _block_operator, _cyclic_reduction, _layout
from elwire.fields import cov_dx, l2_norm
from geometry_oracle import dense_chris

#: |Fourier sum - reduction_bentness| on a flat chart, a value in [0, 1]; at
#: most 4.4e-16 was seen over 2736 curve tangents and random unit fields at
#: N = 8 ... 64 and 180
FOURIER_TOL = 1e-14


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
    blocks = np.einsum("pikj,pi->pkj", dense_chris(samples, xi.shape), xi)
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


def block_operator(xi, samples, grid, kind):
    """_block_operator on any chart: a flat chart passes its connection,
    zero, which it does not sample."""
    if samples.conn is None:
        samples = dataclasses.replace(samples, conn=np.zeros(xi.shape))
    return _block_operator(xi, samples, grid, kind)


def block_solve(xi, samples, grid, kind, rhs):
    """(-D o D + Z) u = rhs for a level (N, n) by the block cyclic reduction
    in fold order (block_operator, _cyclic_reduction) on any chart, as
    production solves a curved chart."""
    diag, upper = block_operator(xi, samples, grid, kind)
    place = _layout(*xi.shape)[0]
    count, m = diag.shape[:2]
    folded = np.zeros(count * m)
    folded[place] = rhs
    x = _cyclic_reduction(diag[None], upper[None], folded.reshape(1, count, m))
    return x.reshape(-1)[place]


def reduction_bentness(xi, samples, grid):
    """The bentness by block cyclic reduction on any chart: the root of the
    penalty ||phi - xi||^2 + ||D phi||^2 at the minimiser phi that
    ``block_solve`` solves (-DD + I) phi = xi for."""
    phi = block_solve(xi, samples, grid, "identity", xi)
    dphi = cov_dx(phi, xi, samples, grid.dx)
    return float(np.sqrt(l2_norm(phi - xi, grid.dx) ** 2 + l2_norm(dphi, grid.dx) ** 2))


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


def _strand_order(npts: int) -> np.ndarray:
    """Grid points in strand order (elliptic._to_strands): 0, 2, 4, ...,
    then 1, 3, 5, ..."""
    return np.concatenate([np.arange(0, npts, 2), np.arange(1, npts, 2)])


def strand_system_to_dense(system, npts):
    """Unfold a flat level's strand blocks (_strand_operator) into the dense
    matrix in grid order.

    ``system`` holds the (n, n, C, M) diagonal blocks and the blocks coupling
    each point of a strand to the next, the last to the first; the blocks
    coupling it to the one before are their transposes.
    """
    diag, upper = system
    n, _, strands, length = diag.shape
    assert strands * length == npts
    order = _strand_order(npts).reshape(strands, length)
    dense = np.zeros((npts * n, npts * n))
    for c in range(strands):
        for j in range(length):
            row = slice(n * order[c, j], n * order[c, j] + n)
            ahead = slice(n * order[c, (j + 1) % length], n * order[c, (j + 1) % length] + n)
            dense[row, row] += diag[:, :, c, j]
            dense[row, ahead] += upper[:, :, c, j]
            dense[ahead, row] += upper[:, :, c, j].T
    return dense
