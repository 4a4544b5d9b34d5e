"""Property tests on generated inputs (hypothesis).

* The pointwise actions Gamma(u, v) and R(u, v) w agree with the single
  multi-operand einsum of ``geometry_oracle`` on random tensors and on the
  geometry sampled along random closed curves in every chart; on the flat
  charts both are exactly +0.0, with the coefficients left out (None) as
  with their explicit zeros.
* Sampled connection and curvature coefficients keep their antisymmetries;
  flat charts sample none.
* Along random closed curves in every chart: cov_dx sums by parts, the
  unfolded production blocks of the elliptic operator are symmetric and
  equal the dense oracle, the production solve leaves a residual at rounding
  level, and the block cyclic reduction agrees with a dense solve of the
  oracle matrix.  A tension solve on a window series of such curves gives
  each level exactly the bytes of that level's own solve, and its drift and
  residual gates refuse the series as they refuse its first failing level.
* Every series-shaped helper gives on a random window series (M+1, N, n)
  exactly (==) the stack of its calls on the levels.
* ``write_snapshot`` writes any finite state in orjson's indented layout,
  from which ``json.loads`` reads every double back bit for bit: signed
  zeros, subnormals, the largest double, raw 64-bit patterns, non-contiguous
  fields and both neighbours of every magnitude where a float's spelling
  changes form included.  NaN or an infinity in any field or in the time
  aborts before a byte is written.
"""

import dataclasses
import functools
import json

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from elliptic_oracle import block_tridiagonal_to_dense, dense_operator
from elwire.cli import write_snapshot
from elwire.dynamics import frame_tangent
from elwire.elliptic import _block_operator, _solve_system, bentness, solve_flux_form
from elwire.errors import ConstraintDriftError, NumericalAbort, NumericalSolveError
from elwire.fields import (
    CurveState,
    Grid,
    circ_diff,
    compact_second,
    cov_dx,
    cov_dxx,
    l2_inner,
    l2_norm,
    m0,
    perp,
    row_norms,
    sided_grad_sq,
)
from elwire.geometry import (
    ConformalModel,
    EuclideanModel,
    FlatTorusModel,
    HyperbolicHalfPlaneModel,
    SphereChartModel,
    apply_chris,
    apply_curv,
    sample_geometry,
    stack_samples,
)
from geometry_oracle import (
    apply_chris_einsum,
    apply_curv_einsum,
    chris_scale,
    curv_scale,
    with_connection,
)
from run_config import SOLVE_DEFAULTS

#: relative to the sum of the absolute products, the scale of any rounding
REL_TOL = 1e-14
EXACT_TOL = 1e-12
#: elliptic solve defect relative to m0(u)/dx^2 + m0(f)/dx + m0(h); at most
#: 3e-16 was seen over 1000 random curves
RESIDUAL_TOL = 1e-13

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
    explicit = with_connection(samples)
    u, v, w = rng.standard_normal((3, n_points, model.dim))
    assert_actions_match_oracle(explicit.chris, explicit.curv, u, v, w)
    if model.is_flat:
        # the left-out coefficients act as the contraction of their zeros does
        zeros = np.zeros((n_points, model.dim)).tobytes()
        for sampled in (samples, explicit):
            assert apply_chris(sampled.chris, u, v).tobytes() == zeros
            assert apply_curv(sampled.curv, u, v, w).tobytes() == zeros


@settings(max_examples=60, deadline=None)
@given(chart=st.sampled_from(sorted(CHARTS)), n_points=st.integers(1, 64), seed=seeds)
def test_sampled_geometry_keeps_antisymmetries(chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    samples = sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
    chris, curv = samples.chris, samples.curv
    if model.is_flat:
        assert chris is None and curv is None
        return
    assert np.max(np.abs(chris + np.swapaxes(chris, -2, -1))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -4, -3))) < EXACT_TOL
    assert np.max(np.abs(curv + np.swapaxes(curv, -2, -1))) < EXACT_TOL


# ---------------------------------------------------------------------------
# covariant calculus and the elliptic band along random curves


def curve_setup(chart, n_points, seed):
    """Grid, samples and unit frame tangent of a random closed curve."""
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    grid = Grid(n_points)
    pts = closed_curve(CHARTS[chart][1], n_points, rng)
    samples = sample_geometry(model, pts)
    tangent = frame_tangent(pts, model, samples, grid)
    return grid, samples, tangent / row_norms(tangent)[:, None], rng


curves = {
    "chart": st.sampled_from(sorted(CHARTS)),
    "n_points": st.integers(8, 64),
    "seed": seeds,
}


@settings(max_examples=60, deadline=None)
@given(**curves)
def test_cov_dx_sums_by_parts(chart, n_points, seed):
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    p, q = rng.standard_normal((2,) + xi.shape)
    dp, dq = cov_dx(p, xi, samples, grid.dx), cov_dx(q, xi, samples, grid.dx)
    pairing = l2_inner(dp, q, grid.dx) + l2_inner(p, dq, grid.dx)
    scale = l2_norm(dp, grid.dx) * l2_norm(q, grid.dx) + l2_norm(p, grid.dx) * l2_norm(dq, grid.dx)
    assert abs(pairing) <= REL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["perp", "identity"]), **curves)
def test_production_band_is_symmetric(kind, chart, n_points, seed):
    grid, samples, xi, _ = curve_setup(chart, n_points, seed)
    system, order = _block_operator(xi, samples, grid, kind)
    matrix = block_tridiagonal_to_dense(system, order, xi.shape[1])
    scale = REL_TOL * np.max(np.abs(matrix))
    assert np.max(np.abs(matrix - matrix.T)) <= scale
    # the blocks below the diagonal are stored as transposes; the oracle
    # multiplies out the full matrix
    assert np.max(np.abs(matrix - dense_operator(xi, samples, grid, kind))) <= scale


@settings(max_examples=40, deadline=None)
@given(**curves)
def test_banded_solve_residual(chart, n_points, seed):
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    f, h = rng.standard_normal((2,) + xi.shape)
    solved = solve_flux_form(f, h, xi, samples, grid, tol=SOLVE_DEFAULTS["tol"], b_floor=0.0)
    defect = -cov_dx(solved.flux, xi, samples, grid.dx) + perp(solved.u, xi) - h
    scale = m0(solved.u) / grid.dx**2 + m0(f) / grid.dx + m0(h)
    assert m0(defect) <= RESIDUAL_TOL * scale


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["perp", "identity"]), **curves)
def test_cyclic_reduction_matches_dense_solve(kind, chart, n_points, seed):
    # N = 8 ... 64 gives 2 ... 16 block rows: odd and even row counts at
    # every level, a padded last block row when N % 4 != 0, and zero to two
    # reduction levels before the dense solve
    grid, samples, xi, rng = curve_setup(chart, n_points, seed)
    rhs = rng.standard_normal(xi.shape)
    matrix = dense_operator(xi, samples, grid, kind)
    dense = np.linalg.solve(matrix, rhs.reshape(-1)).reshape(xi.shape)
    reduced = _solve_system(xi, samples, grid, kind, rhs)
    gap = (matrix @ (reduced - dense).reshape(-1)).reshape(xi.shape)
    scale = m0(dense) / grid.dx**2 + m0(rhs)
    assert m0(gap) <= RESIDUAL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 4), **curves)
def test_series_solve_equals_its_level_solves(levels, chart, n_points, seed):
    setups = [curve_setup(chart, n_points, seed + m) for m in range(levels)]
    grid, rng = setups[0][0], setups[0][3]
    per_level = [samples for _, samples, _, _ in setups]
    xi = np.stack([tangent for _, _, tangent, _ in setups])
    series_samples = stack_samples(per_level)
    f, h = rng.standard_normal((2,) + xi.shape)
    gate = bentness(xi[0], per_level[0], grid)
    gated = {"b_floor": 0.0, "bentness_report": gate}
    tol = SOLVE_DEFAULTS["tol"]
    series = solve_flux_form(f, h, xi, series_samples, grid, tol=tol, **gated)
    assert series.residual.shape == (levels,) and series.bentness is gate
    for m in range(levels):
        level = solve_flux_form(f[m], h[m], xi[m], per_level[m], grid, tol=tol, **gated)
        assert series.u[m].tobytes() == level.u.tobytes()
        assert series.flux[m].tobytes() == level.flux.tobytes()
        assert series.residual[m].tobytes() == np.float64(level.residual).tobytes()
    with pytest.raises(ValueError, match="bentness report"):
        solve_flux_form(f, h, xi, series_samples, grid, tol=tol, b_floor=0.0)

    # each gate refuses the series at its first failing level, with the
    # message a lone solve of that level gives, followed by the level
    last = levels - 1
    drifted = xi.copy()
    drifted[last] *= 1.2
    defect = float(np.max(np.abs(np.sum(drifted[last] ** 2, axis=-1) - 1.0)))
    message = f"unit-tangent defect {defect:.3e} exceeds 0.1; refusing tension solve"
    with pytest.raises(ConstraintDriftError) as single:
        solve_flux_form(f[last], h[last], drifted[last], per_level[last], grid, tol=tol, **gated)
    assert str(single.value) == message
    with pytest.raises(ConstraintDriftError) as whole:
        solve_flux_form(f, h, drifted, series_samples, grid, tol=tol, **gated)
    assert str(whole.value) == message + f" at window level {last}"

    level = solve_flux_form(f[0], h[0], xi[0], per_level[0], grid, tol=tol, **gated)
    scale = max(1.0, m0(h[0]) + m0(f[0]))
    message = f"tension solve residual {level.residual:.3e} exceeds tolerance 1.0e-30 * {scale:.3e}"
    with pytest.raises(NumericalSolveError) as single:
        solve_flux_form(f[0], h[0], xi[0], per_level[0], grid, tol=1e-30, **gated)
    assert str(single.value) == message
    with pytest.raises(NumericalSolveError) as whole:
        solve_flux_form(f, h, xi, series_samples, grid, tol=1e-30, **gated)
    assert str(whole.value) == message + " at window level 0"


@settings(max_examples=40, deadline=None)
@given(levels=st.integers(1, 5), **curves)
def test_series_helpers_equal_their_stacked_levels(levels, chart, n_points, seed):
    model = chart_model(chart)
    rng = np.random.default_rng(seed)
    dx = Grid(n_points).dx
    per_level = [
        sample_geometry(model, closed_curve(CHARTS[chart][1], n_points, rng))
        for _ in range(levels)
    ]
    series = stack_samples(per_level)
    p, xi = rng.standard_normal((2, levels, n_points, model.dim))
    calls = {
        "circ_diff": lambda p, xi, s: circ_diff(p, dx),
        "compact_second": lambda p, xi, s: compact_second(p, dx),
        "cov_dx": lambda p, xi, s: cov_dx(p, xi, s, dx),
        "cov_dxx": lambda p, xi, s: cov_dxx(p, xi, s, dx),
        "sided_grad_sq": lambda p, xi, s: sided_grad_sq(p, xi, s, dx),
        "perp": lambda p, xi, s: perp(p, xi),
        "apply_chris": lambda p, xi, s: apply_chris(s.chris, xi, p),
        "apply_curv": lambda p, xi, s: apply_curv(s.curv, xi, p, xi),
    }
    for name, call in calls.items():
        stacked = np.stack([call(p[m], xi[m], per_level[m]) for m in range(levels)])
        assert np.array_equal(call(p, xi, series), stacked), name
    assert m0(p) == max(m0(level) for level in p)


# ---------------------------------------------------------------------------
# snapshot writer


#: the options ``write_snapshot`` passes to orjson
SNAPSHOT_OPTIONS = (
    orjson.OPT_INDENT_2
    | orjson.OPT_SORT_KEYS
    | orjson.OPT_SERIALIZE_NUMPY
    | orjson.OPT_APPEND_NEWLINE
)
FIELDS = ("gamma", "xi", "xi_t", "eta", "theta")


def written(path, state):
    write_snapshot(path, state)
    return path.read_bytes()


def assert_reads_back(text, state):
    """``json.loads`` gives back every array and the time bit for bit, and
    orjson re-encodes what it read to the same bytes."""
    loaded = json.loads(text)
    present = {key for key in FIELDS if getattr(state, key) is not None}
    assert set(loaded) == present | {"time"}
    for key in present:
        expected = np.ascontiguousarray(getattr(state, key)).tobytes()
        assert np.array(loaded[key], dtype=np.float64).tobytes() == expected, key
    assert np.float64(loaded["time"]).tobytes() == np.float64(state.time).tobytes()
    assert orjson.dumps(loaded, option=SNAPSHOT_OPTIONS) == text


finite_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def spelling_edges() -> list[float]:
    """Every magnitude where a JSON float token changes form (exponent width,
    positional or exponent form, exponent sign) with both its neighbours,
    plus the zeros and the extreme finite magnitudes."""
    edges = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max]
    for size in (1e-9, 1e-5, 1e-4, 1e16):
        for value in (size, -size):
            edges += [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)]
    return [float(value) for value in edges]


def finite_bits(raw: bytes, shape) -> np.ndarray:
    """Doubles from raw 64-bit patterns; a NaN or infinity pattern has its
    lowest exponent bit cleared, which leaves a finite double with the same
    sign and mantissa."""
    bits = np.frombuffer(raw, dtype="<u8").reshape(shape).copy()
    exponent = np.uint64(0x7FF << 52)
    bits[(bits & exponent) == exponent] ^= np.uint64(1 << 52)
    return bits.view("<f8")


def bit_pattern_arrays(shape):
    """Arrays of doubles drawn as raw 64-bit patterns (one draw per array:
    element-wise integer draws would make the test ten times slower)."""
    size = shape[0] * shape[1]
    return st.binary(min_size=8 * size, max_size=8 * size).map(lambda raw: finite_bits(raw, shape))


def strided(arr):
    """The same values as a view that is not C-contiguous (every second column)."""
    return np.repeat(arr, 2, axis=1)[:, ::2]


snapshot_float = finite_float | st.sampled_from(spelling_edges())


@st.composite
def states(draw):
    shape = (draw(st.integers(1, 64)), draw(st.sampled_from([1, 2, 3])))
    values = hnp.arrays(np.float64, shape, elements=snapshot_float) | bit_pattern_arrays(shape)
    field = values | values.map(strided)
    return CurveState(
        gamma=draw(field),
        xi=draw(field),
        xi_t=draw(field),
        eta=draw(field),
        theta=draw(st.none() | field),
        time=draw(snapshot_float),
    )


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(state=states())
def test_snapshot_round_trips_bit_for_bit(tmp_path, state):
    assert_reads_back(written(tmp_path / "snapshot.json", state), state)


#: signed zeros, subnormals, extreme exponents and a value with no exact double
SPECIAL = [-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e-300, 0.1]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_theta", [False, True])
def test_snapshot_writer_special_values(tmp_path, dim, with_theta):
    values = np.resize(np.array(SPECIAL), (len(SPECIAL), dim))
    for field in (values[:1], values):
        state = CurveState(
            gamma=field,
            xi=field[::-1],
            xi_t=-field,
            eta=field * 0.5,
            theta=field + 1.0 if with_theta else None,
            time=-0.0,
        )
        text = written(tmp_path / "snapshot.json", state)
        assert_reads_back(text, state)
    for token in (b"-0.0", b"5e-324", b"1e300", b"-1e-300"):
        assert token in text

    # JSON has no NaN or infinity: each aborts the run naming the field and
    # the first grid index that holds one, and no file is written
    row = len(SPECIAL) - 2
    present = [key for key in FIELDS if getattr(state, key) is not None]
    for bad in (np.nan, np.inf, -np.inf):
        for key in present:
            broken = getattr(state, key).copy()
            broken[row:, -1] = bad
            path = tmp_path / f"broken_{key}.json"
            message = f"field {key} is not finite at grid index {row}$"
            with pytest.raises(NumericalAbort, match=message):
                write_snapshot(path, dataclasses.replace(state, **{key: broken}))
            assert not path.exists()
        path = tmp_path / "broken_time.json"
        with pytest.raises(NumericalAbort, match="snapshot time .* is not finite"):
            write_snapshot(path, dataclasses.replace(state, time=float(bad)))
        assert not path.exists()
