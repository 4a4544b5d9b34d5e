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
degeneracy and gates the solve.

D couples each point to its two neighbours, so -D o D + Z is
block-pentadiagonal with periodic corners.  Taking the points in the folded
order 0, N-1, 1, N-2, ... puts points two apart on the circle at most four
places apart, so grouping four consecutive places into one block row of
size 4n gives a block-tridiagonal matrix with ceil(N/4) block rows (the
unused places of the last one are identity rows).  It is assembled from the
connection blocks Gamma(xi_k, .), keeping the diagonal and upper blocks of
the symmetric matrix, and solved at every grid size by block odd-even
(cyclic) reduction in numpy: batched inverses of the eliminated diagonal
blocks, stage by stage, down to one small dense solve.

The tension solve takes a level (N, n) or a window series (L, N, n), as the
field helpers do: every step batches over a leading level axis and solves
each level on its own, with the bytes of a lone solve of it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstraintDriftError, NearGeodesicError, NumericalSolveError
from .fields import Grid, cov_dx, l2_norm, perp, row_norms, shift
from .geometry import GeometrySamples, dot


@dataclass(frozen=True)
class FluxSolveResult:
    u: np.ndarray          # the solution; the tension theta of a wire level or series
    flux: np.ndarray       # D u + f, reused by the velocity update
    residual: float | np.ndarray  # per level for a series
    bentness: float        # the gate value in force


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
def _layout(shape: tuple):
    """Where the couplings of -D o D + Z go among the block rows; grid only.

    ``shape`` is that of the tangent field, (N, n) for a level or (L, N, n)
    for a window series.  Slot s of the fold order holds rows n*s ... n*s +
    n - 1 of a level's folded system, and block row b the SLOTS slots from
    SLOTS * b on.  The operator is symmetric, so only its diagonal and upper
    blocks are stored, as ``system`` (2, L, B, m, m), m = SLOTS * n (the
    level axis is left out for a level).  Returns ``(order, source,
    scatter, padding, place)``: coupling ``source[l, i]`` of the stacks
    [far, edge, -edge, centre] of the levels (see _block_operator) goes to
    the flat indices ``scatter[l, i]`` (n, n) of ``system``, ``padding``
    indexes the unit diagonal of the unused slots of each level's last block
    row, and ``place`` (..., N, n) the folded row of each grid component.
    """
    *lead, npts, n = shape
    levels = math.prod(lead)
    order = _fold_order(npts)
    slot = np.empty(npts, dtype=int)
    slot[order] = np.arange(npts)
    n_rows = -(-npts // SLOTS)
    m = SLOTS * n
    comp = np.arange(n)
    place = n * slot[:, None] + comp
    points = np.arange(npts)
    # coupling of point k to point k + d, d = -2 ... 2, as an index into the stack
    source = np.stack(
        [
            np.zeros(npts, dtype=int),
            1 + (points - 1) % npts,
            1 + 2 * npts + points,
            1 + npts + points,
            np.zeros(npts, dtype=int),
        ]
    )
    row_block = slot // SLOTS
    col_slot = slot[(points + np.arange(-2, 3)[:, None]) % npts]
    band = col_slot // SLOTS - row_block  # 0 diagonal, 1 upper, -1 lower
    keep = band >= 0
    row = place - m * row_block[:, None]
    col = (n * (col_slot % SLOTS))[:, :, None] + comp
    # each level's blocks follow the previous level's in both halves of system
    level = np.arange(levels)[:, None, None]
    base = ((band * levels + level) * n_rows + row_block) * m * m
    scatter = base[..., None, None] + row[:, :, None] * m + col[:, :, None, :]
    spare = (n * np.arange(npts, SLOTS * n_rows)[:, None] + comp).reshape(-1) % m
    padding = ((level[:, 0] + 1) * n_rows - 1) * m * m + spare * (m + 1)
    layout = (
        order,
        (source + (1 + 3 * npts) * level)[:, keep],
        scatter[:, keep],
        padding,
        place + n_rows * m * level.reshape(lead + [1, 1]),
    )
    for index in layout:  # shared by every later call
        index.setflags(write=False)
    return layout


def _block_operator(xi, samples, grid, kind: str):
    """-D o D + Z in fold order, as the blocks of a block-tridiagonal matrix.

    ``xi`` is a level (N, n) or a window series (L, N, n) with the samples of
    its curves.  Returns ``(system, order)``: ``system[0]`` (..., B, m, m),
    B = ceil(N / SLOTS), m = SLOTS * n, holds each level's diagonal blocks
    and ``system[1]`` the blocks coupling block row b to block row b + 1
    (the last one is zero); the blocks below the diagonal are their
    transposes.  ``order`` lists the grid point behind each slot.
    """
    if kind not in ("perp", "identity"):
        raise ValueError(f"unknown zeroth-order kind {kind!r}")
    npts, n = xi.shape[-2:]
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
    edge = (conn + shift(conn, -1, axis=-3)) / (2.0 * dx)
    centre = (0.5 / (dx * dx) + 1.0) * eye - (0.0 if flat else conn @ conn)
    if kind == "perp":
        centre = centre - xi[..., :, None] * xi[..., None, :]
    stack = np.empty(xi.shape[:-2] + (1 + 3 * npts, n, n))
    stack[..., 0, :, :] = -eye / (4.0 * dx * dx)
    stack[..., 1 : npts + 1, :, :] = edge
    stack[..., npts + 1 : 2 * npts + 1, :, :] = -edge
    stack[..., 2 * npts + 1 :, :, :] = centre

    order, source, scatter, padding, _ = _layout(xi.shape)
    m = SLOTS * n
    system = np.zeros((2,) + xi.shape[:-2] + (-(-npts // SLOTS), m, m))
    entries = system.reshape(-1)
    entries[scatter] = stack.reshape(-1, n, n)[source]
    entries[padding] = 1.0
    return system, order


def _cyclic_reduction(diag, upper, rhs):
    """Solve the symmetric block-tridiagonal systems of L levels, with
    diagonal blocks ``diag`` (L, B, m, m) and upper blocks ``upper`` (row b
    to row b + 1; the last is zero), for x (L, B, m), by odd-even reduction.

    Each stage inverts the diagonal blocks of the odd rows in one batched
    call, expresses their unknowns through their even neighbours, and
    substitutes that into the even rows, which make the next stage's system
    of half the size; a stage with an odd row count first gains an identity
    row.  Once the system has order DENSE_SIZE or less (or one row) a dense
    solve finishes it, and back substitution recovers the odd unknowns stage
    by stage.  The system is symmetric positive definite, so eliminating
    whole rows needs no pivoting between them.  Every step batches over the
    levels and treats each level's blocks alone, so a level's solution does
    not depend on the others.
    """
    levels, _, m = rhs.shape
    state = np.concatenate([diag, rhs[:, :, :, None]], axis=3)  # [diagonal | rhs]
    stages = []
    while state.shape[1] > max(1, DENSE_SIZE // m):
        count = state.shape[1]
        if count % 2:
            pad = np.zeros((levels, 1, m, m + 1))
            pad[:, 0, :, :m] = np.eye(m)
            state = np.concatenate([state, pad], axis=1)
            upper = np.concatenate([upper, np.zeros((levels, 1, m, m))], axis=1)
        up_even, up_odd = upper[:, 0::2], upper[:, 1::2]
        rhs_odd = state[:, 1::2, :, m:]
        # odd row j couples to even row j by up_even[j]^T and to even row
        # j + 1 by up_odd[j]; with solved = diag^-1 [up_even^T | rhs | up_odd | rhs]
        # its unknown is solved[rhs] - solved[:m] x_even[j] - solved[m+1 : 2m+1] x_even[j+1].
        # Repeating the rhs column lines both products up with [diagonal | rhs].
        solved = np.linalg.inv(state[:, 1::2, :, :m]) @ np.concatenate(
            [up_even.transpose(0, 1, 3, 2), rhs_odd, up_odd, rhs_odd], axis=3
        )
        through_right = up_even @ solved
        through_left = up_odd[:, :-1].transpose(0, 1, 3, 2) @ solved[:, :-1, :, m + 1 :]
        state = state[:, 0::2] - through_right[:, :, :, : m + 1]
        state[:, 1:] -= through_left
        upper = -through_right[:, :, :, m + 1 : 2 * m + 1]
        stages.append((count, solved))

    count = state.shape[1]
    rows = np.arange(count)
    # indexing two axes apart puts the row axis first: (count, L, m, m)
    dense = np.zeros((levels, count, m, count, m))
    dense[:, rows, :, rows, :] = state[:, :, :, :m].transpose(1, 0, 2, 3)
    dense[:, rows[:-1], :, rows[1:], :] = upper[:, :-1].transpose(1, 0, 2, 3)
    dense[:, rows[1:], :, rows[:-1], :] = upper[:, :-1].transpose(1, 0, 3, 2)
    size = count * m
    rhs = state[:, :, :, m:].reshape(levels, size, 1)
    x = np.linalg.solve(dense.reshape(levels, size, size), rhs).reshape(levels, count, m)
    for count, solved in reversed(stages):
        half = x.shape[1]
        neighbours = np.zeros((levels, half, 2 * m + 1, 1))
        neighbours[:, :, :m, 0] = x
        neighbours[:, :-1, m + 1 :, 0] = x[:, 1:]
        merged = np.empty((levels, 2 * half, m))
        merged[:, 0::2] = x
        merged[:, 1::2] = solved[:, :, :, m] - (solved[:, :, :, : 2 * m + 1] @ neighbours)[:, :, :, 0]
        x = merged[:, :count]
    return x


def _solve_system(xi, samples, grid, kind, rhs_field):
    """Solve (-D o D + Z) u = rhs by block cyclic reduction in fold order, for
    a level (N, n) or each level of a window series (L, N, n)."""
    system, _ = _block_operator(xi, samples, grid, kind)
    place = _layout(xi.shape)[-1]
    blocks = system.reshape((2, -1) + system.shape[-3:])
    rhs = np.zeros(blocks.shape[1:4])
    rhs.reshape(-1)[place] = rhs_field
    try:
        x = _cyclic_reduction(blocks[0], blocks[1], rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalSolveError(f"elliptic solve met a singular block ({exc})") from exc
    return x.reshape(-1)[place]


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
    b_floor: float,
    gate: Optional[float] = None,
) -> FluxSolveResult:
    """Solve -D(Du + f) + perp(u) = h along the current curve.

    The fields are a level (N, n) or a window series (L, N, n), each of
    whose levels is solved alone.  Refuses to run (NearGeodesicError) when
    the bentness of ``xi`` is below ``b_floor``; a precomputed bentness
    value ``gate`` is used when supplied, and a series is gated by the one
    it is given.  Each level's unit-tangent defect must stay within
    0.1 (ConstraintDriftError), and its residual (infinity norm) within
    ``tol`` times that level's data scale (NumericalSolveError); the
    residual is a number for a level and one per level for a series.
    The returned flux D u + f is the quantity downstream consumers need, so
    it is formed here rather than re-differenced.
    """
    drift = np.max(np.abs(dot(xi, xi) - 1.0), axis=-1)
    text = "unit-tangent defect {:.3e} exceeds 0.1; refusing tension solve"
    _refuse_first_failure(drift <= 0.1, ConstraintDriftError, text, drift)
    if gate is None and xi.ndim > 2:
        raise ValueError("a series solve needs the bentness value that gates it")
    if gate is None:
        gate = bentness(xi, samples, grid)
    if gate < b_floor:
        raise NearGeodesicError(
            f"bentness {gate:.3e} below floor {b_floor:.3e}; "
            "tension operator is (near) singular"
        )
    rhs = h + cov_dx(f, xi, samples, grid.dx)
    u = _solve_system(xi, samples, grid, "perp", rhs)
    flux = cov_dx(u, xi, samples, grid.dx) + f
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    # sup norms over each level's grid
    residual = np.max(row_norms(defect), axis=-1)
    scale = np.fmax(1.0, np.max(row_norms(h), axis=-1) + np.max(row_norms(f), axis=-1))
    text = f"tension solve residual {{:.3e}} exceeds tolerance {tol:.1e} * {{:.3e}}"
    _refuse_first_failure(residual <= tol * scale, NumericalSolveError, text, residual, scale)
    return FluxSolveResult(u=u, flux=flux, residual=residual[()], bentness=gate)
