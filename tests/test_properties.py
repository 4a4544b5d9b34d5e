"""Property tests on generated inputs (hypothesis).

* The pointwise actions Gamma(u, v) and R(u, v) w agree with the single
  multi-operand einsum of ``geometry_oracle`` on random tensors and on the
  geometry sampled along random closed curves in every chart; on the flat
  charts both are exactly +0.0.
* Sampled connection and curvature coefficients keep their antisymmetries.
* ``write_snapshot`` writes the bytes of ``json.dumps(indent=2,
  sort_keys=True)`` for any state, special floats included.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elwire.cli import write_snapshot
from elwire.fields import CurveState
from elwire.geometry import (
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    sample_geometry,
)
from geometry_oracle import apply_chris_einsum, apply_curv_einsum, chris_scale, curv_scale

#: relative to the sum of the absolute products, the scale of any rounding
REL_TOL = 1e-14
EXACT_TOL = 1e-12

#: chart name -> (model factory, centre of the random curves)
CHARTS = {
    "euclidean": (lambda: EuclideanModel(2), (0.0, 0.0)),
    "flat-torus": (lambda: FlatTorusModel(3), (0.5, 0.5, 0.5)),
    "hyperbolic": (HyperbolicHalfPlaneModel, (0.0, 1.2)),
    "sphere": (lambda: SphereChartModel(3), (0.1, -0.2, 0.3)),
    "conformal": (lambda: ConformalModel(2, "0.3*x**2 - 0.2*x*y + 0.1*sin(y)"), (0.1, 0.2)),
}

seeds = st.integers(0, 2**32 - 1)


@functools.cache
def chart_model(name):
    return CHARTS[name][0]()


def closed_curve(center, n_points, rng):
    """Samples of a random three-mode Fourier loop about ``center``.

    Its chart distance from the centre stays below 0.9, inside every chart
    of CHARTS.
    """
    t = 2.0 * np.pi * np.arange(n_points) / n_points
    coeffs = rng.uniform(-0.15, 0.15, (3, 2, len(center)))
    pts = np.array(center, dtype=float) + np.zeros((n_points, 1))
    for m in range(3):
        pts += np.cos((m + 1) * t)[:, None] * coeffs[m, 0]
        pts += np.sin((m + 1) * t)[:, None] * coeffs[m, 1]
    return pts


def assert_actions_match_oracle(chris, curv, u, v, w):
    gap = np.abs(apply_chris(chris, u, v) - apply_chris_einsum(chris, u, v))
    assert np.all(gap <= REL_TOL * chris_scale(chris, u, v))
    gap = np.abs(apply_curv(curv, u, v, w) - apply_curv_einsum(curv, u, v, w))
    assert np.all(gap <= REL_TOL * curv_scale(curv, u, v, w))


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 4),
    n_points=st.integers(1, 64),
    exponent=st.integers(-8, 8),
    seed=seeds,
)
def test_actions_match_einsum_oracle_on_random_tensors(dim, n_points, exponent, seed):
    rng = np.random.default_rng(seed)
    chris = 10.0**exponent * rng.standard_normal((n_points,) + (dim,) * 3)
    curv = 10.0**exponent * rng.standard_normal((n_points,) + (dim,) * 4)
    u, v, w = rng.standard_normal((3, n_points, dim))
    assert_actions_match_oracle(chris, curv, u, v, w)


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_actions_match_einsum_oracle_on_sampled_geometry(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    u, v, w = rng.standard_normal((3, n_points, model.dim))
    assert_actions_match_oracle(samples.chris, samples.curv, u, v, w)
    if model.is_flat:
        zeros = np.zeros((n_points, model.dim)).tobytes()
        assert apply_chris(samples.chris, u, v).tobytes() == zeros
        assert apply_curv(samples.curv, u, v, w).tobytes() == zeros


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_sampled_geometry_keeps_antisymmetries(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    chris, curv = samples.chris, samples.curv
    assert np.max(np.abs(chris + np.swapaxes(chris, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -2, -1))) < EXACT_TOL


# ---------------------------------------------------------------------------
# snapshot writer


def indented_json(state):
    """The snapshot as ``json.dumps(indent=2, sort_keys=True)`` writes it."""
    payload = {
        "time": state.time,
        "gamma": state.gamma.tolist(),
        "xi": state.xi.tolist(),
        "xi_t": state.xi_t.tolist(),
        "eta": state.eta.tolist(),
    }
    if state.theta is not None:
        payload["theta"] = state.theta.tolist()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def written(path, state):
    write_snapshot(path, state)
    return path.read_text()


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def states(draw):
    shape = (draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3])))
    field = hnp.arrays(np.float64, shape, elements=any_float)
    return CurveState(
        gamma=draw(field),
        xi=draw(field),
        xi_t=draw(field),
        eta=draw(field),
        theta=draw(st.none() | field),
        time=draw(any_float),
    )


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(state=states())
def test_snapshot_writer_matches_indented_json(tmp_path, state):
    assert written(tmp_path / "snapshot.json", state) == indented_json(state)


#: NaN, infinities, signed zeros, subnormals and extreme exponents
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e-300, 0.1]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_theta", [False, True])
def test_snapshot_writer_special_values(tmp_path, dim, with_theta):
    values = np.resize(np.array(SPECIAL), (len(SPECIAL), dim))
    for field in (values[:1], values):
        state = CurveState(
            gamma=field,
            xi=field[::-1].copy(),
            xi_t=-field,
            eta=field * 0.5,
            theta=field + 1.0 if with_theta else None,
            time=-0.0,
        )
        text = written(tmp_path / "snapshot.json", state)
        assert text == indented_json(state)
    for token in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324", "1e+300"):
        assert token in text
