"""Reference routes for the pointwise geometric actions.

Production contracts the connection and curvature coefficients with one
vector at a time (chained two-operand einsums).  The tests compare that
with a single multi-operand einsum, which sums every product in one loop.
A flat chart's samples leave both coefficients out (None); an oracle that
contracts them itself takes the explicit zeros of ``with_connection``.
"""

import dataclasses

import numpy as np


def with_connection(samples):
    """``samples`` with a flat chart's left-out connection and curvature
    spelled out as the zero arrays the model evaluates there."""
    if samples.chris is not None:
        return samples
    lead, n = samples.frame.shape[:-2], samples.frame.shape[-1]
    return dataclasses.replace(
        samples, chris=np.zeros(lead + (n,) * 3), curv=np.zeros(lead + (n,) * 4)
    )


def apply_chris_einsum(chris, u, v):
    """Gamma(u, v) as one three-operand einsum."""
    return np.einsum("pikj,pi,pj->pk", chris, u, v)


def apply_curv_einsum(curv, u, v, w):
    """R(u, v) w as one four-operand einsum."""
    return np.einsum("pijkl,pi,pj,pk->pl", curv, u, v, w)


def chris_scale(chris, u, v):
    """Sum of the absolute products in Gamma(u, v): the scale of its rounding."""
    return apply_chris_einsum(np.abs(chris), np.abs(u), np.abs(v))


def curv_scale(curv, u, v, w):
    """Sum of the absolute products in R(u, v) w: the scale of its rounding."""
    return apply_curv_einsum(np.abs(curv), np.abs(u), np.abs(v), np.abs(w))

