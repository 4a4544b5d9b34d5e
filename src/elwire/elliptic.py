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
order 0, N-1, 1, N-2, ... turns it into an ordinary band matrix of
half-bandwidth 5n - 1, which is assembled block by block from the connection
blocks Gamma(xi_k, .) and solved by banded LU at every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ConstraintDriftError, NearGeodesicError, NumericalSolveError
from .fields import Grid, constraint_drift, cov_dx, l2_norm, m0, perp
from .geometry import GeometrySamples

#: default residual tolerance (infinity norm, relative to the data scale)
DEFAULT_TOL = 1e-8
#: default bentness floor below which the tension solve refuses to run
DEFAULT_B_FLOOR = 1e-3


@dataclass(frozen=True)
class BentnessReport:
    """Result of the bentness minimisation.

    ``b_value`` is the square-root of the minimal penalty, in [0, 1]; ``phi``
    the minimiser; ``residual`` the infinity norm of the optimality system's
    defect.
    """

    b_value: float
    phi: np.ndarray
    residual: float


@dataclass(frozen=True)
class FluxSolveResult:
    u: np.ndarray          # the solution; the tension theta for solve_theta
    flux: np.ndarray       # D u + f, reused by the velocity update
    residual: float
    bentness: Optional[BentnessReport]


def _zeroth_blocks(xi: np.ndarray, kind: str) -> np.ndarray:
    npts, n = xi.shape
    eye = np.broadcast_to(np.eye(n), (npts, n, n))
    if kind == "identity":
        return eye.copy()
    if kind == "perp":
        return eye - xi[:, :, None] * xi[:, None, :]
    raise ValueError(f"unknown zeroth-order kind {kind!r}")


def _fold_order(npts: int) -> np.ndarray:
    """Points in the order 0, N-1, 1, N-2, 2, ...

    Points two apart on the circle, including across the wrap, end up at
    most four places apart in this order.
    """
    order = np.empty(npts, dtype=int)
    order[0::2] = np.arange((npts + 1) // 2)
    order[1::2] = npts - 1 - np.arange(npts // 2)
    return order


def _banded_operator(xi, samples, grid, kind: str):
    """-D o D + Z in fold order, in the band storage of solve_banded.

    Returns ``(ab, order)``: row ``bw + i - j`` of ``ab`` holds entry (i, j)
    of the folded matrix, whose half-bandwidth is bw = 5n - 1, and ``order``
    lists the grid point behind each block row.
    """
    npts, n = xi.shape
    dx = grid.dx
    conn = np.einsum("pikj,pi->pkj", samples.chris, xi)  # B_k = Gamma(xi_k, .)
    eye = np.eye(n)
    # blocks[2 + d, k] couples point k to point k + d
    blocks = np.empty((5, npts, n, n))
    blocks[0] = blocks[4] = -eye / (4.0 * dx * dx)
    blocks[1] = (conn + np.roll(conn, 1, axis=0)) / (2.0 * dx)
    blocks[3] = -(conn + np.roll(conn, -1, axis=0)) / (2.0 * dx)
    blocks[2] = eye / (2.0 * dx * dx) - conn @ conn + _zeroth_blocks(xi, kind)

    # folded row and column of entry (i, j) of blocks[2 + d, k]
    order = _fold_order(npts)
    slot = np.empty(npts, dtype=int)
    slot[order] = np.arange(npts)
    neighbour = (np.arange(npts) + np.arange(-2, 3)[:, None]) % npts
    comp = np.arange(n)
    rows = (n * slot)[None, :, None, None] + comp[:, None]
    cols = (n * slot[neighbour])[:, :, None, None] + comp
    bw = 5 * n - 1
    ab = np.zeros((2 * bw + 1, npts * n))
    ab[bw + rows - cols, cols] = blocks
    return ab, order


def _solve_system(xi, samples, grid, kind, rhs_field):
    """Solve (-D o D + Z) u = rhs by banded LU in fold order."""
    ab, order = _banded_operator(xi, samples, grid, kind)
    bw = (ab.shape[0] - 1) // 2
    try:
        folded = scipy.linalg.solve_banded(
            (bw, bw), ab, rhs_field[order].reshape(-1), overwrite_ab=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
        raise NumericalSolveError(f"banded elliptic solve failed ({exc})") from exc
    u = np.empty_like(rhs_field)
    u[order] = folded.reshape(rhs_field.shape)
    return u


def bentness(xi: np.ndarray, samples: GeometrySamples, grid: Grid) -> BentnessReport:
    """Distance of the tangent field from covariant constancy, in [0, 1].

    Minimises ||phi - xi||_L2^2 + ||D phi||_L2^2 over fields phi; the minimum
    is attained at the solution of (-DD + I) phi = xi and vanishes exactly
    when some covariantly constant field equals xi.
    """
    phi = _solve_system(xi, samples, grid, "identity", xi)
    dphi = cov_dx(phi, xi, samples, grid.dx)
    value_sq = l2_norm(phi - xi, grid.dx) ** 2 + l2_norm(dphi, grid.dx) ** 2
    defect = -cov_dx(dphi, xi, samples, grid.dx) + phi - xi
    return BentnessReport(
        b_value=float(np.sqrt(max(value_sq, 0.0))),
        phi=phi,
        residual=m0(defect),
    )


def solve_flux_form(
    f: np.ndarray,
    h: np.ndarray,
    xi: np.ndarray,
    samples: GeometrySamples,
    grid: Grid,
    *,
    tol: float = DEFAULT_TOL,
    b_floor: float = DEFAULT_B_FLOOR,
    bentness_report: Optional[BentnessReport] = None,
    check_bentness: bool = True,
) -> FluxSolveResult:
    """Solve -D(Du + f) + perp(u) = h along the current curve.

    Refuses to run (NearGeodesicError) when the bentness of ``xi`` is below
    ``b_floor``; a precomputed ``bentness_report`` is reused when supplied.
    The returned flux D u + f is the quantity downstream consumers need, so
    it is formed here rather than re-differenced.
    """
    drift = constraint_drift(xi)
    if not drift <= 0.1:
        raise ConstraintDriftError(
            f"unit-tangent defect {drift:.3e} exceeds 0.1; refusing tension solve"
        )
    report = bentness_report
    if check_bentness:
        if report is None:
            report = bentness(xi, samples, grid)
        if report.b_value < b_floor:
            raise NearGeodesicError(
                f"bentness {report.b_value:.3e} below floor {b_floor:.3e}; "
                "tension operator is (near) singular"
            )
    rhs = h + cov_dx(f, xi, samples, grid.dx)
    u = _solve_system(xi, samples, grid, "perp", rhs)
    flux = cov_dx(u, xi, samples, grid.dx) + f
    defect = -cov_dx(flux, xi, samples, grid.dx) + perp(u, xi) - h
    residual = m0(defect)
    scale = max(1.0, m0(h) + m0(f))
    if not residual <= tol * scale:
        raise NumericalSolveError(
            f"tension solve residual {residual:.3e} exceeds tolerance "
            f"{tol:.1e} * {scale:.3e}"
        )
    return FluxSolveResult(u=u, flux=flux, residual=residual, bentness=report)


def solve_theta(
    state,
    sources,
    samples: GeometrySamples,
    grid: Grid,
    **kwargs,
) -> FluxSolveResult:
    """Tension field of a wire state: flux form with f = psi, h = phi.

    ``sources`` carries the curvature source terms of the state (see
    dynamics.assemble_sources).  Returns the tension theta as ``u`` together
    with the flux D theta + psi consumed by the velocity update.
    """
    return solve_flux_form(sources.psi, sources.phi, state.xi, samples, grid, **kwargs)
