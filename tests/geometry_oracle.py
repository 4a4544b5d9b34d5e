"""Reference routes for the chart geometry and its pointwise actions.

Production samples a conformal chart as (scale, c, P) and acts on fields
with closed forms (see ``elwire.geometry``).  The tests rebuild from those
samples the dense frame coefficients

* ``chris[i, k, j]``, the e_k-component of the covariant derivative of e_j
  along e_i, and
* ``curv[i, j, k, l]``, the e_l-component of R(e_i, e_j) e_k,

and contract them with a single multi-operand einsum, which sums every
product in one loop.  A flat chart's samples are None; the dense tensors of
``dense_chris`` and ``dense_curv`` are then explicit zeros.  The metric
e^{2 lam} delta and the frame e^{-lam} delta that the finite-difference
oracle of ``test_geometry`` differentiates are built here from the lam of
the model's ``_jet`` alone (the identity on a flat chart).
"""

import numpy as np


def dense_chris(samples, shape):
    """Dense connection coefficients (..., N, n, n, n) for fields of ``shape``
    (..., N, n): chris[i, k, j] = delta_ik c_j - delta_ij c_k."""
    n = shape[-1]
    if samples.conn is None:
        return np.zeros(shape + (n, n))
    eye = np.eye(n)
    c = samples.conn
    return (
        np.einsum("ik,...j->...ikj", eye, c) - np.einsum("ij,...k->...ikj", eye, c)
    )


def dense_curv(samples, shape):
    """Dense curvature coefficients (..., N, n, n, n, n) for fields of
    ``shape``: curv[i, j, k, l] = P_ik d_jl - P_jk d_il + d_ik P_lj - d_jk P_li."""
    n = shape[-1]
    if samples.curv is None:
        return np.zeros(shape + (n, n, n))
    eye = np.eye(n)
    p = samples.curv
    return (
        np.einsum("...ik,jl->...ijkl", p, eye)
        - np.einsum("...jk,il->...ijkl", p, eye)
        + np.einsum("ik,...lj->...ijkl", eye, p)
        - np.einsum("jk,...li->...ijkl", eye, p)
    )


def metric(model, points):
    """Chart components of the metric e^{2 lam} delta at ``points`` (..., n)."""
    pts = np.asarray(points, dtype=float)
    factor = np.ones(pts.shape[:-1]) if model.is_flat else np.exp(2.0 * model._jet(pts)[0])
    return factor[..., None, None] * np.eye(model.dim)


def frame(model, points):
    """Frame-to-chart matrices e^{-lam} delta at ``points`` (..., n)."""
    pts = np.asarray(points, dtype=float)
    factor = np.ones(pts.shape[:-1]) if model.is_flat else np.exp(-model._jet(pts)[0])
    return factor[..., None, None] * np.eye(model.dim)


def apply_chris_einsum(chris, u, v):
    """Gamma(u, v) as one three-operand einsum."""
    return np.einsum("pikj,pi,pj->pk", chris, u, v)


def apply_curv_einsum(curv, u, v, w):
    """R(u, v) w as one four-operand einsum."""
    return np.einsum("pijkl,pi,pj,pk->pl", curv, u, v, w)


def chris_scale(conn, u, v):
    """Sum of the absolute terms of Gamma(u, v) = u <c, v> - <u, v> c, each
    product taken apart: the scale of the rounding of either route."""
    u, v, c = np.abs(u), np.abs(v), np.abs(conn)
    return u * np.sum(c * v, axis=-1, keepdims=True) + np.sum(u * v, axis=-1, keepdims=True) * c


def curv_scale(curv, u, v, w):
    """Sum of the absolute terms of R(u, v) w (see ``dense_curv``), each
    product taken apart: the scale of the rounding of either route."""
    u, v, w, p = np.abs(u), np.abs(v), np.abs(w), np.abs(curv)

    def dot(a, b):
        return np.sum(a * b, axis=-1, keepdims=True)

    pw = np.einsum("pij,pj->pi", p, w)
    turn = dot(u, w) * v + dot(v, w) * u
    return dot(u, pw) * v + dot(v, pw) * u + np.einsum("pij,pj->pi", p, turn)
