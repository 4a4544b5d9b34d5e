"""Tension solve and bentness: periodic covariant elliptic problems.

Both problems share one operator family built from the covariant arc-length
derivative D = cov_dx along the current curve:

* tension:   -D(D u + f) + perp(u) = h   (perp = projection off the tangent)
* bentness:  -D D phi + phi = xi

The second derivative is deliberately the composition D o D.  The centred
difference matrix is antisymmetric and the connection action is pointwise
antisymmetric, so D^T = -D exactly and both operators are symmetric positive
(semi)definite by construction, with no extra symmetrisation step.  The
tension operator loses definiteness exactly when the tangent field is
covariantly constant; the bentness value measures the distance from that
degeneracy.  The run's gates on it and on the unit tangent live in
dynamics (``_gate``); the tension solve keeps only its own guards.

D couples each point to its two neighbours, so -D o D + Z is
block-pentadiagonal with periodic corners.  Taking the points in the folded
order 0, N-1, 1, N-2, ... puts points two apart on the circle at most four
places apart, so grouping four consecutive places into one block row of
size 4n gives a block-tridiagonal matrix with ceil(N/4) block rows (the
unused places of the last one are identity rows).  One indexing step
gathers its diagonal and upper blocks from a stack of couplings built from
the connection blocks Gamma(xi_k, .), through an entry map that depends on
the grid alone; block odd-even (cyclic) reduction in numpy solves it at
every grid size.  Each stage eliminates the odd block rows through one
batched inverse of their diagonal blocks and leaves the even rows, updated
by their Schur complements, as the next stage's system, down to one small
dense solve; two block products per stage then recover the odd rows.

The tension solve takes a level (N, n) or a window series (L, N, n), as the
field helpers do: the levels lead the gathered system, and every step
batches over them yet solves each alone, to the bytes of a lone solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintDriftError, NumericalSolveError
from .fields import Grid, cov_dx, l2_norm, perp, row_norms, shift
from .geometry import GeometrySamples, dot


@dataclass(frozen=True)
class FluxSolveResult:
    u: np.ndarray          # the solution; the tension theta of a wire level or series
    flux: np.ndarray       # D u + f, reused by the velocity update
    residual: float | np.ndarray  # per level for a series


def _fold_order(npts: int) -> np.ndarray:
    """Points in the order 0, N-1, 1, N-2, 2, ...

    Points two apart on the circle, including across the wrap, end up at
    most four places apart in this order.
    """
    order = np.empty(npts, dtype=int)
    order[0::2] = np.arange((npts + 1) // 2)
    order[1::2] = npts - 1 - np.arange(npts // 2)
    return order


#: grid points per block row.  In fold order, points two apart on the circle
#: sit at most four slots apart, so four slots per block row make the folded
#: system block tridiagonal.
SLOTS = 4
#: largest order of the dense system that finishes the reduction
DENSE_SIZE = 64


@functools.lru_cache(maxsize=16)
def _layout(npts: int, n: int):
    """Where each entry of a level's folded system comes from; grid only.

    Slot s of the fold order holds rows n*s ... n*s + n - 1 of the folded
    system, and block row b the SLOTS slots from SLOTS * b on.  Only the
    diagonal and upper blocks of the symmetric system are kept, as
    (2, B, m, m), m = SLOTS * n.  Returns ``(place, entries)``:
    ``place`` (N, n) is the folded row of each grid component, and
    ``entries`` (2, B, m, m) the element of the level's flattened stack
    [far, edge, -edge, centre, zero, identity] (see _block_operator) that
    each entry holds; the unused slots of the last block row are unit rows.
    """
    order = _fold_order(npts)
    slot = np.empty(npts, dtype=int)
    slot[order] = np.arange(npts)
    n_rows = -(-npts // SLOTS)
    m = SLOTS * n
    comp = np.arange(n)
    place = n * slot[:, None] + comp
    points = np.arange(npts)
    # coupling of point k to point k + d, d = -2 ... 2, as a block of the stack
    far = np.zeros(npts, dtype=int)
    source = np.stack([far, 1 + (points - 1) % npts, 1 + 2 * npts + points, 1 + npts + points, far])
    held = (n * n * source)[..., None, None] + n * comp[:, None] + comp
    col_slot = slot[(points + np.arange(-2, 3)[:, None]) % npts]
    band = col_slot // SLOTS - slot // SLOTS  # 0 diagonal, 1 upper, -1 lower
    keep = band >= 0
    # each coupling's n x n entries, as flat indices of entries seen as (2 * B * m, m)
    row = m * n_rows * band[..., None] + place
    at = m * row[..., None] + (n * (col_slot % SLOTS))[..., None, None] + comp
    entries = np.full((2, n_rows, m, m), (1 + 3 * npts) * n * n)
    # a unit diagonal, which the centre couplings overwrite in the used slots
    entries[0].reshape(n_rows, m * m)[:, :: m + 1] = (2 + 3 * npts) * n * n
    entries.reshape(-1)[at[keep]] = held[keep]
    layout = (place, entries)
    for index in layout:  # shared by every later call
        index.setflags(write=False)
    return layout


def _block_operator(xi, samples, grid, kind: str):
    """-D o D + Z in fold order, as the blocks of a block-tridiagonal matrix.

    ``xi`` is a level (N, n) or a window series (L, N, n) with the samples of
    its curves.  Returns the system (..., 2, B, m, m), B = ceil(N / SLOTS),
    m = SLOTS * n, gathered per level through the grid's entry map (see
    _layout): the diagonal blocks and the blocks coupling block row b to
    b + 1 (the last is zero); the blocks below the diagonal are their
    transposes.
    """
    if kind not in ("perp", "identity"):
        raise ValueError(f"unknown zeroth-order kind {kind!r}")
    *lead, npts, n = xi.shape
    dx = grid.dx
    # connection blocks B_k = Gamma(xi_k, .) = xi_k c_k^T - c_k xi_k^T; none on a flat chart
    flat = samples.conn is None
    if flat:
        conn = np.zeros(xi.shape + (n,))
    else:
        conn = xi[..., :, None] * samples.conn[..., None, :]
        conn = conn - conn.swapaxes(-1, -2)
    eye = np.eye(n)
    # couplings: far (k to k +- 2), edge_k (k + 1 to k; k to k + 1 is -edge_k)
    # and centre_k (k to k), stacked per level as [far, edge, -edge, centre]
    # with a zero and an identity block for the entries no coupling fills
    edge = (conn + shift(conn, -1, axis=-3)) / (2.0 * dx)
    centre = (0.5 / (dx * dx) + 1.0) * eye - (0.0 if flat else conn @ conn)
    if kind == "perp":
        centre = centre - xi[..., :, None] * xi[..., None, :]
    stack = np.empty((*lead, 3 + 3 * npts, n, n))
    stack[..., 0, :, :] = -eye / (4.0 * dx * dx)
    stack[..., 1 : npts + 1, :, :] = edge
    stack[..., npts + 1 : 2 * npts + 1, :, :] = -edge
    stack[..., 2 * npts + 1 : -2, :, :] = centre
    stack[..., -2, :, :] = 0.0
    stack[..., -1, :, :] = eye
    return stack.reshape(*lead, -1)[..., _layout(npts, n)[1]]


def _cyclic_reduction(diag, upper, rhs):
    """Solve the symmetric block-tridiagonal systems of L levels, with
    diagonal blocks ``diag`` (L, B, m, m) and upper blocks ``upper`` (row b
    to row b + 1; the last is zero), for x (L, B, m), by odd-even reduction.

    Odd row j reads U_{2j}^T x_{2j} + D x_{2j+1} + U_{2j+1} x_{2j+2} = r, so
    a stage inverts the odd rows' diagonal blocks D in one batched call and
    forms left = D^-1 U_{2j}^T, right = D^-1 U_{2j+1} and solved = D^-1 r:
    x_{2j+1} = solved - left x_{2j} - right x_{2j+2}.  The even rows' Schur
    updates, D_{2j} -= U_{2j} left_j + U_{2j-1}^T right_{j-1} (r likewise
    with solved) and the coupling -U_{2j} right_j of row 2j to row 2j + 2,
    make the next stage's system.  A dense solve finishes a system of order
    DENSE_SIZE or less (or of one row), and two block products per stage
    recover the odd rows.  The system is symmetric positive definite, so no
    pivoting between rows is needed.  Each level is solved alone: the blocks
    are made C-contiguous on entry, since a gathered series holds its level
    axis innermost and matmul rounds strided blocks differently from the
    contiguous blocks of a lone level.
    """
    # upper[b] couples row b to b + 1, b < B - 1
    diag, upper = np.ascontiguousarray(diag), np.ascontiguousarray(upper[:, :-1])
    rhs = rhs[..., None]  # one-column blocks
    levels, _, m = rhs.shape[:3]
    stages = []
    while diag.shape[1] > max(1, DENSE_SIZE // m):
        odds, evens = diag.shape[1] // 2, (diag.shape[1] + 1) // 2
        # odd row j couples to even row j by up_even[j]^T and to even row j + 1 by up_odd[j]
        up_even, up_odd = upper[:, 0::2], upper[:, 1::2]
        inv = np.linalg.inv(diag[:, 1::2])
        left = inv @ up_even.swapaxes(-1, -2)
        right = inv[:, : evens - 1] @ up_odd
        solved = inv @ rhs[:, 1::2]
        diag, rhs = diag[:, 0::2].copy(), rhs[:, 0::2].copy()
        diag[:, :odds] -= up_even @ left
        rhs[:, :odds] -= up_even @ solved
        diag[:, 1:] -= up_odd.swapaxes(-1, -2) @ right
        rhs[:, 1:] -= up_odd.swapaxes(-1, -2) @ solved[:, : evens - 1]
        upper = -(up_even[:, : evens - 1] @ right)
        stages.append((left, right, solved))

    count = diag.shape[1]
    rows = np.arange(count)
    # indexing two axes apart puts the row axis first: (count, L, m, m)
    dense = np.zeros((levels, count, m, count, m))
    dense[:, rows, :, rows, :] = diag.transpose(1, 0, 2, 3)
    dense[:, rows[:-1], :, rows[1:], :] = upper.transpose(1, 0, 2, 3)
    dense[:, rows[1:], :, rows[:-1], :] = upper.transpose(1, 0, 3, 2)
    size = count * m
    x = np.linalg.solve(dense.reshape(levels, size, size), rhs.reshape(levels, size, 1))
    x = x.reshape(levels, count, m, 1)
    for left, right, solved in reversed(stages):
        odd = solved - left @ x[:, : left.shape[1]]
        odd[:, : right.shape[1]] -= right @ x[:, 1:]
        merged = np.empty((levels, x.shape[1] + odd.shape[1], m, 1))
        merged[:, 0::2], merged[:, 1::2] = x, odd
        x = merged
    return x[..., 0]


def _solve_system(xi, samples, grid, kind, rhs_field):
    """Solve (-D o D + Z) u = rhs by block cyclic reduction in fold order, for
    a level (N, n) or each level of a window series (L, N, n); ``place``
    folds each level's right-hand side and unfolds its solution."""
    system = _block_operator(xi, samples, grid, kind)
    place = _layout(*xi.shape[-2:])[0]
    blocks = system.reshape((-1,) + system.shape[-4:])
    levels, _, count, m = blocks.shape[:4]
    rhs = np.zeros((levels, count * m))
    rhs[:, place] = rhs_field.reshape((levels,) + place.shape)
    try:
        x = _cyclic_reduction(blocks[:, 0], blocks[:, 1], rhs.reshape(levels, count, m))
    except np.linalg.LinAlgError as exc:
        raise NumericalSolveError(f"elliptic solve met a singular block ({exc})") from exc
    return x.reshape(levels, -1)[:, place].reshape(xi.shape)


def bentness(xi: np.ndarray, samples: GeometrySamples, grid: Grid) -> float:
    """Distance of the tangent field from covariant constancy, in [0, 1].

    The square root of the minimum of ||phi - xi||_L2^2 + ||D phi||_L2^2 over
    fields phi; the minimum is attained at the solution of (-DD + I) phi = xi
    and vanishes exactly when some covariantly constant field equals xi.
    """
    phi = _solve_system(xi, samples, grid, "identity", xi)
    dphi = cov_dx(phi, xi, samples, grid.dx)
    value_sq = l2_norm(phi - xi, grid.dx) ** 2 + l2_norm(dphi, grid.dx) ** 2
    return float(np.sqrt(max(value_sq, 0.0)))


def _refuse_first_failure(passed, error, text: str, *values) -> None:
    """Raise ``error`` for the first level whose check did not pass, with
    ``text`` formatted by that level's ``values``; a series names the level."""
    if passed.all():
        return
    at = () if passed.ndim == 0 else int(np.argmin(passed))
    where = "" if at == () else f" at window level {at}"
    raise error(text.format(*(value[at] for value in values)) + where)


def solve_flux_form(
    f: np.ndarray,
    h: np.ndarray,
    xi: np.ndarray,
    samples: GeometrySamples,
    grid: Grid,
    *,
    tol: float,
) -> FluxSolveResult:
    """Solve -D(Du + f) + perp(u) = h along the current curve, in one
    _solve_system call.

    The fields are a level (N, n) or a window series (L, N, n), each of
    whose levels is solved alone.  The caller gates the solve (see
    dynamics._gate); this keeps only the solver's own guards: each level's
    unit-tangent defect must stay within 0.1 (ConstraintDriftError), a
    singular block raises NumericalSolveError, and so does a residual
    (infinity norm) above ``tol`` times that level's data scale; the
    residual is a number for a level and one per level for a series.
    The returned flux D u + f is the quantity downstream consumers need, so
    it is formed here rather than re-differenced.
    """
    drift = np.max(np.abs(dot(xi, xi) - 1.0), axis=-1)
    text = "unit-tangent defect {:.3e} exceeds 0.1; refusing tension solve"
    _refuse_first_failure(drift <= 0.1, ConstraintDriftError, text, drift)
    rhs = h + cov_dx(f, xi, samples, grid.dx)
    u = _solve_system(xi, samples, grid, "perp", rhs)
    flux = cov_dx(u, xi, samples, grid.dx) + f
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    # sup norms over each level's grid
    residual = np.max(row_norms(defect), axis=-1)
    scale = np.fmax(1.0, np.max(row_norms(h), axis=-1) + np.max(row_norms(f), axis=-1))
    text = f"tension solve residual {{:.3e}} exceeds tolerance {tol:.1e} * {{:.3e}}"
    _refuse_first_failure(residual <= tol * scale, NumericalSolveError, text, residual, scale)
    return FluxSolveResult(u=u, flux=flux, residual=residual[()])
