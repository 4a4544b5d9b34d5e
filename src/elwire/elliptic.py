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

Each chart takes one route per problem:

* A flat chart (``samples.conn is None``) has D the plain centred
  difference, so D o D couples point k only to k +- 2 and -D o D + Z splits
  into independent periodic strands of step 2: two of N/2 points for even
  N, one of N points for odd N.  Each strand is periodic block-tridiagonal
  with n x n blocks, stored (n, n, strands, points) so that every block
  product is elementwise over the strands and points; periodic odd-even
  reduction with Gauss-Jordan on the blocks solves them down to one point
  (_strand_reduction).  The bentness operator -D o D + I is circulant
  there, so its value is one exact Fourier sum (see bentness).
* A curved chart couples each point to its two neighbours through the
  connection blocks too, so -D o D + Z is block-pentadiagonal with periodic
  corners.  Taking the points in the folded order 0, N-1, 1, N-2, ... puts
  points two apart on the circle at most four places apart, so grouping four
  consecutive places into one block row of size 4n gives a block-tridiagonal
  matrix with ceil(N/4) block rows (the unused places of the last one are
  identity rows).  One indexing step gathers its diagonal and upper blocks
  from a stack of couplings built from the connection blocks Gamma(xi_k, .),
  through an entry map that depends on the grid alone; block odd-even
  (cyclic) reduction in numpy solves it.  Each stage eliminates the odd
  block rows through one batched inverse of their diagonal blocks and
  leaves the even rows, updated by their Schur complements, as the next
  stage's system, down to one small dense solve; two block products per
  stage then recover the odd rows.

The block reduction finishes with a dense solve once the system has
DENSE_SIZE unknowns or fewer.  The tension solve takes a level (N, n) or a
window series (L, N, n), as the field helpers do: every step batches over the
levels yet solves each alone, to the bytes of a lone solve.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConstraintDriftError, NumericalSolveError
from .fields import Grid, cov_dx, l2_norm, perp, row_norms, shift
from .geometry import GeometrySamples, dot


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
#: largest order of the dense system that finishes the block reduction
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
    its curves on a curved chart (``samples.conn`` is sampled).  Returns the
    system (..., 2, B, m, m), B = ceil(N / SLOTS), m = SLOTS * n, gathered
    per level through the grid's entry map (see _layout): the diagonal
    blocks and the blocks coupling block row b to b + 1 (the last is zero);
    the blocks below the diagonal are their transposes.
    """
    if kind not in ("perp", "identity"):
        raise ValueError(f"unknown zeroth-order kind {kind!r}")
    *lead, npts, n = xi.shape
    dx = grid.dx
    # connection blocks B_k = Gamma(xi_k, .) = xi_k c_k^T - c_k xi_k^T
    conn = xi[..., :, None] * samples.conn[..., None, :]
    conn = conn - conn.swapaxes(-1, -2)
    eye = np.eye(n)
    # couplings: far (k to k +- 2), edge_k (k + 1 to k; k to k + 1 is -edge_k)
    # and centre_k (k to k), stacked per level as [far, edge, -edge, centre]
    # with a zero and an identity block for the entries no coupling fills
    edge = (conn + shift(conn, -1, axis=-3)) / (2.0 * dx)
    centre = (0.5 / (dx * dx) + 1.0) * eye - conn @ conn
    if kind == "perp":
        centre = centre - xi[..., :, None] * xi[..., None, :]
    stack = np.empty((*lead, 3 + 3 * npts, n, n))
    stack[..., 0, :, :] = -eye / (4.0 * dx * dx)
    stack[..., 1 : npts + 1, :, :] = edge
    stack[..., npts + 1 : 2 * npts + 1, :, :] = -edge
    stack[..., 2 * npts + 1 : -2, :, :] = centre
    stack[..., -2, :, :] = 0.0
    stack[..., -1, :, :] = eye
    entries = _layout(npts, n)[1]
    if not lead:  # a lone level takes numpy's faster one-dimensional gather
        return stack.reshape(-1)[entries]
    return stack.reshape(*lead, -1)[..., entries]


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


def _to_strands(field: np.ndarray) -> np.ndarray:
    """A level (N, n) or series (L, N, n) as (n, C, M): the C = L * strands
    periodic strands k -> k + 2 of M points each.  Each level's points run
    0, 2, 4, ..., then 1, 3, 5, ...: for even N two strands of N/2 points,
    for odd N one strand of N points that visits every point (N - 1 steps
    on to 1)."""
    npts, n = field.shape[-2:]
    length = npts if npts % 2 else npts // 2
    # component rows first, copied once: strided slices of them are cheap
    rows = np.ascontiguousarray(np.moveaxis(field, -1, 0).reshape(n, -1, npts))
    return np.concatenate([rows[..., 0::2], rows[..., 1::2]], axis=-1).reshape(n, -1, length)


def _strand_operator(xi, dx, kind):
    """-D o D + Z on a flat chart, as the blocks of periodic block-tridiagonal
    strands: ``(diag, upper)``, each (n, n, C, M) with the block row and
    column first (see _to_strands).

    D o D couples point k only to k +- 2, so each strand is a cycle whose
    point j has the diagonal block (1/(2 dx^2) + 1) I - xi_j xi_j^T (no
    xi xi^T for "identity") and couples to the next point of its strand
    (the last to the first) by upper = -I / (4 dx^2).  Both may be
    read-only broadcast views: _strand_reduction writes to neither.
    """
    if kind not in ("perp", "identity"):
        raise ValueError(f"unknown zeroth-order kind {kind!r}")
    strands = _to_strands(xi)
    n = strands.shape[0]
    eye = np.eye(n)[:, :, None, None]
    shape = (n, n) + strands.shape[1:]
    diag = np.broadcast_to((0.5 / (dx * dx) + 1.0) * eye, shape)
    if kind == "perp":
        diag = diag - strands[:, None] * strands[None]
    return diag, np.broadcast_to(-eye / (4.0 * dx * dx), shape)


def _times(a, b):
    """Block products a @ b of blocks stored (rows, cols, ...): each block
    entry is a sum of elementwise products over the shared index, in order."""
    out = a[:, :1] * b[:1]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1]
    return out


def _gauss_jordan(aug):
    """D^-1 R for the blocks [D | R] of ``aug`` (n, n + q, ...), by n
    unpivoted Gauss-Jordan steps in place; the diagonal blocks are symmetric
    positive definite.  A zero or non-finite pivot leaves a non-finite
    entry in the result, which the caller checks."""
    n = aug.shape[0]
    for p in range(n):
        aug[p] /= aug[p, p : p + 1]
        for i in range(n):
            if i != p:
                aug[i] -= aug[i, p : p + 1] * aug[p]
    return aug[:, n:]


def _strand_reduction(diag, upper, rhs):
    """Solve the periodic symmetric block-tridiagonal systems of C strands,
    blocks ``diag`` and ``upper`` (n, n, C, M; upper couples point j to
    j + 1 and the last to the first) and right-hand side (n, 1, C, M), for
    x (n, 1, C, M), by periodic odd-even reduction.

    A stage with an odd point count first eliminates its last point, which
    couples its two neighbours directly.  Then odd point j reads
    U_{2j}^T x_{2j} + D x_{2j+1} + U_{2j+1} x_{2j+2} = r, and Gauss-Jordan
    gives left = D^-1 U_{2j}^T, solved = D^-1 r and right = D^-1 U_{2j+1};
    the even points' Schur updates, with the wrap to point 0, make the next
    stage's strands of half the length.  The last stage leaves one point,
    coupled to itself, which Gauss-Jordan solves.  Every product is
    elementwise over (C, M), so each strand, and each level of a series, is
    solved to the bytes of a lone one.

    A zero or non-finite pivot anywhere makes the solution non-finite, which
    raises NumericalSolveError; numpy's warnings on the way are silenced.
    A row of zeros in both the last point's block and its right-hand side
    leaves its unknown free, and it is taken as zero: a curve at rest on a
    geodesic, whose tension operator is singular, has zero tension.
    """
    n = diag.shape[0]
    stages = []
    with np.errstate(all="ignore"):
        while diag.shape[-1] > 1:
            if diag.shape[-1] % 2:  # point M - 1 couples to M - 2 by lo and to 0 by up
                lo, up = upper[..., -2], upper[..., -1]
                aug = np.concatenate([diag[..., -1], lo.swapaxes(0, 1), rhs[..., -1], up], axis=1)
                out = _gauss_jordan(aug)
                diag, upper, rhs = diag[..., :-1].copy(), upper[..., :-1].copy(), rhs[..., :-1].copy()
                ahead = _times(lo, out)
                diag[..., -1] -= ahead[:, :n]
                rhs[..., -1] -= ahead[:, n : n + 1]
                upper[..., -1] = -ahead[:, n + 1 :]
                behind = _times(up.swapaxes(0, 1), out[:, n:])
                rhs[..., 0] -= behind[:, :1]
                diag[..., 0] -= behind[:, 1:]
                stages.append((False, out))
            up_even, up_odd = upper[..., 0::2], upper[..., 1::2]
            aug = np.concatenate([diag[..., 1::2], up_even.swapaxes(0, 1), rhs[..., 1::2], up_odd], axis=1)
            out = _gauss_jordan(aug)  # [left | solved | right]
            ahead = _times(up_even, out)
            # even point j + 1 meets odd point j through up_odd^T, point 0 the last
            behind = _times(up_odd.swapaxes(0, 1), out[:, n:])
            behind = np.concatenate([behind[..., -1:], behind[..., :-1]], axis=-1)
            diag = diag[..., 0::2] - ahead[:, :n]
            rhs = rhs[..., 0::2] - ahead[:, n : n + 1]
            upper = -ahead[:, n + 1 :]
            rhs -= behind[:, :1]
            diag -= behind[:, 1:]
            stages.append((True, out))

        # one point is left, coupled to itself by upper and upper^T
        aug = np.concatenate([diag + upper + upper.swapaxes(0, 1), rhs], axis=1)[..., 0]
        comp = np.arange(n)
        aug[comp, comp] += ~aug.any(axis=1)
        x = _gauss_jordan(aug)[..., None]
        for halved, out in reversed(stages):
            left, solved, right = out[:, :n], out[:, n : n + 1], out[:, n + 1 :]
            if not halved:
                last = solved - _times(left, x[..., -1]) - _times(right, x[..., 0])
                x = np.concatenate([x, last[..., None]], axis=-1)
                continue
            ahead = np.concatenate([x[..., 1:], x[..., :1]], axis=-1)
            odd = solved - _times(left, x) - _times(right, ahead)
            merged = np.empty(x.shape[:-1] + (2 * x.shape[-1],))
            merged[..., 0::2], merged[..., 1::2] = x, odd
            x = merged
    if not np.isfinite(x).all():
        raise NumericalSolveError("elliptic solve met a singular block (zero or non-finite pivot)")
    return x


def _solve_system(xi, samples, grid, kind, rhs_field):
    """Solve (-D o D + Z) u = rhs for a level (N, n) or each level of a
    window series (L, N, n).  A flat chart solves its step-2 strands by
    periodic reduction (_strand_reduction); a curved chart the block system
    in fold order by block cyclic reduction, where ``place`` folds each
    level's right-hand side and unfolds its solution."""
    if samples.conn is None:
        diag, upper = _strand_operator(xi, grid.dx, kind)
        x = _strand_reduction(diag, upper, _to_strands(rhs_field)[:, None])
        x = x[:, 0].transpose(1, 2, 0).reshape(xi.shape)
        evens = (xi.shape[-2] + 1) // 2
        u = np.empty(xi.shape)
        u[..., 0::2, :], u[..., 1::2, :] = x[..., :evens, :], x[..., evens:, :]
        return u
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

    On a flat chart D is the plain centred difference, so -DD + I is
    circulant and its symbol on mode j is 1 + s_j, s_j = sin^2(2 pi j / N) /
    dx^2.  By Parseval the minimum is then the exact sum
    dx / N * sum_j |xi^_j|^2 s_j / (1 + s_j) over the modes xi^ = fft(xi).
    A curved chart solves for phi by block cyclic reduction and evaluates
    the penalty there.
    """
    if samples.conn is None:
        npts = xi.shape[-2]
        symbol = (np.sin(2.0 * np.pi * np.arange(npts) / npts) / grid.dx) ** 2
        modes = np.fft.fft(xi, axis=-2)
        power = modes.real**2 + modes.imag**2
        return float(np.sqrt(grid.dx / npts * np.sum(power * (symbol / (1.0 + symbol))[:, None])))
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
    raise error(text.format(*(float(value[at]) for value in values)) + where)


def solve_flux_form(
    f: np.ndarray,
    h: np.ndarray,
    xi: np.ndarray,
    samples: GeometrySamples,
    grid: Grid,
    *,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve -D(Du + f) + perp(u) = h along the current curve, in one
    _solve_system call, and return ``(u, flux)``.

    The fields are a level (N, n) or a window series (L, N, n), each of
    whose levels is solved alone.  The caller gates the solve (see
    dynamics._gate); this keeps only the solver's own guards: each level's
    unit-tangent defect must stay within 0.1 (ConstraintDriftError), a
    singular block raises NumericalSolveError, and so does a level whose
    residual (infinity norm of the defect) exceeds ``tol`` times its data
    scale.  The flux D u + f is the quantity downstream consumers need, so
    it is formed here rather than re-differenced.
    """
    drift = np.max(np.abs(dot(xi, xi) - 1.0), axis=-1)
    guard = 0.1
    text = f"unit-tangent defect {{!r}} exceeds {guard!r}; refusing tension solve"
    _refuse_first_failure(drift <= guard, ConstraintDriftError, text, drift)
    rhs = h + cov_dx(f, xi, samples, grid.dx)
    u = _solve_system(xi, samples, grid, "perp", rhs)
    flux = cov_dx(u, xi, samples, grid.dx) + f
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    # sup norms over each level's grid
    residual = np.max(row_norms(defect), axis=-1)
    scale = np.fmax(1.0, np.max(row_norms(h), axis=-1) + np.max(row_norms(f), axis=-1))
    text = f"tension solve residual {{!r}} exceeds tolerance {tol!r} * {{!r}}"
    _refuse_first_failure(residual <= tol * scale, NumericalSolveError, text, residual, scale)
    return u, flux
