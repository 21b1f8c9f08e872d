import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curstat import (
    METHODS,
    BasisModel,
    BenchConfig,
    CdfEstimate,
    LeastSquaresFit,
    ObservationSample,
    ProjectionEstimate,
    SimModel,
    StepCdf,
    birge_histogram,
    dyadic_family,
    estimate_sample,
    generate,
    haar_family,
    npmle_pava,
    poly_family,
    trig_family,
)
from curstat.estimates import _BUCKET_MIN_POINTS, _BUCKETS_MAX, _Clipped, _evaluate_each
from curstat.quotient import ClampedRatio

from conftest import TIMES
from dense_oracle import all_knots_step, dense_values

# a few fixed knots make ties likely; the floats reach everything else
knot = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 1.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
steps = st.lists(st.tuples(knot, st.floats(0.0, 1.0)), min_size=1, max_size=30)


# runs of equal values, 0.0 beside -0.0 and nans of other payloads
value = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, np.nan, -np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
queries = st.lists(
    st.one_of(
        st.sampled_from([-np.inf, np.inf, np.nan, -0.0, 0.0, 0.25, -0.5, 1.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=40,
)


def sorted_steps(pairs):
    """Sort by knot only, so tied knots keep their values in drawn order."""
    knots, values = zip(*sorted(pairs, key=lambda pair: pair[0]))
    return np.array(knots), np.array(values)


# knots that strain a bucket index: both zeros, subnormals, spans of the
# float range, infinities, and ties of all of these
unit_knot = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.5, 1.0]), st.floats(-1.0, 1.0)
)
finite_knot = st.one_of(
    unit_knot,
    st.sampled_from([1e-300, 1e10, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
any_knot = st.one_of(finite_knot, st.sampled_from([-np.inf, np.inf]))


@st.composite
def large_queries(draw):
    """A step function of up to 60 knots (or of one repeated knot) and points for it.

    The points hold nan, both infinities, every knot and its two
    neighbours, then random fill up to at least ``_BUCKET_MIN_POINTS``:
    points between the finite knots, and knots moved by a few ulps.
    """
    knot = draw(st.sampled_from([unit_knot, unit_knot, finite_knot, any_knot]))
    pairs = draw(st.lists(st.tuples(knot, value), min_size=1, max_size=60))
    if draw(st.integers(0, 7)) == 0:  # all knots equal
        pairs = [(pairs[0][0], v) for _, v in pairs]
    knots, values = sorted_steps(pairs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    finite = knots[np.isfinite(knots)]
    lo, hi = (finite.min(), finite.max()) if finite.size else (-1.0, 1.0)
    r = rng.random(_BUCKET_MIN_POINTS)
    between = lo * (1.0 - r) + hi * r  # stays finite where hi - lo does not
    moved = rng.choice(knots, 512).view(np.int64) + rng.integers(-3, 4, 512)
    with np.errstate(over="ignore"):  # the largest float's neighbour is inf
        neighbours = [np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)]
    x = np.concatenate(
        [[np.nan, np.inf, -np.inf, -0.0, 0.0], knots, *neighbours, between, moved.view(float)]
    )
    return knots, values, rng.permutation(x)


class TestStepCdf:
    @settings(max_examples=300, deadline=None, database=None)
    @given(steps)
    def test_right_continuous_and_last_value_at_ties(self, pairs):
        knots, values = sorted_steps(pairs)
        step = StepCdf(knots, values)
        distinct = np.unique(knots)
        # the value at a knot is the last one listed there, and it holds up
        # to the next distinct knot
        last = {k: v for k, v in zip(knots, values)}
        at_knots = step(distinct)
        assert np.array_equal(at_knots, [last[k] for k in distinct])
        mid = distinct[:-1] + np.diff(distinct) / 2
        # a midpoint of two adjacent floats may round up onto the next knot
        mid = np.minimum(mid, np.nextafter(distinct[1:], -np.inf))
        right = np.append(mid, distinct[-1] + 1.0)
        assert np.array_equal(step(right), at_knots)
        # inf and nan sort after every knot and read the last value
        assert np.array_equal(step([np.inf, np.nan, -np.inf]), [at_knots[-1], at_knots[-1], 0.0])
        for k in distinct:
            assert step(float(k)) == last[k]

    @settings(max_examples=300, deadline=None, database=None)
    @given(steps)
    def test_zero_left_of_first_knot(self, pairs):
        knots, values = sorted_steps(pairs)
        step = StepCdf(knots, values)
        left = [np.nextafter(knots[0], -np.inf), knots[0] - 1.0, -np.inf]
        assert np.array_equal(step(left), [0.0, 0.0, 0.0])

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(knot, st.just(np.nan)), min_size=1, max_size=30))
    @example([1.0, np.nan, 0.0])
    @example([np.nan])
    def test_unsorted_knots_rejected(self, knots):
        knots = np.array(knots)
        values = np.zeros(knots.size)
        if not np.isnan(knots).any() and np.all(knots[:-1] <= knots[1:]):
            StepCdf(knots, values)
        else:
            with pytest.raises(ValueError, match="sorted"):
                StepCdf(knots, values)

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.lists(st.tuples(knot, value), min_size=1, max_size=40), queries)
    @example([(0.0, 0.0), (0.0, -0.0), (0.5, -0.0), (1.0, np.nan)], [-0.0, 0.0, 0.5, np.nan])
    def test_runs_read_the_bits_of_the_all_knots_search(self, pairs, points):
        knots, values = sorted_steps(pairs)
        step = StepCdf(knots, values)
        # the knots themselves and their neighbours hit every tie and run edge
        x = np.concatenate(
            [points, knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)]
        )
        assert step(x).tobytes() == all_knots_step(step, x).tobytes()
        for point in points:
            expected = all_knots_step(step, np.array([point]))
            assert np.float64(step(point)).tobytes() == expected.tobytes()

    def test_evaluation_keeps_repr_fields_and_pickle(self):
        step = StepCdf([0.0, 0.5, 0.5, 1.0], [-0.0, 0.5, 0.25, 0.25])
        fresh = StepCdf(step.knots, step.values)
        before = repr(step)
        x = np.array([-1.0, 0.0, 0.5, 0.75, 1.0, np.nan])
        first = step(x)  # builds the cached run starts
        large = np.resize(x, _BUCKET_MIN_POINTS)
        first_large = step(large)  # and the bucket index
        assert step._buckets is not None
        assert repr(step) == before == repr(fresh)
        assert [f.name for f in dataclasses.fields(step)] == ["knots", "values"]
        assert step == fresh and fresh == step
        assert dataclasses.replace(step, values=step.values) == step
        again = pickle.loads(pickle.dumps(step))
        assert type(again) is StepCdf and repr(again) == before
        assert again.knots.tobytes() == step.knots.tobytes()
        assert again.values.tobytes() == step.values.tobytes()
        assert again(x).tobytes() == first.tobytes() == fresh(x).tobytes()
        assert again(large).tobytes() == first_large.tobytes() == fresh(large).tobytes()
        assert first_large.tobytes() == np.resize(first, large.size).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(large_queries())
    @example((np.array([0.5]), np.array([1.0]), np.full(_BUCKET_MIN_POINTS, 0.5)))
    def test_large_inputs_read_the_bits_of_the_all_knots_search(self, drawn):
        # at the size rule and above, the bucket index, its check and its
        # fallback search give the search's bits
        knots, values, x = drawn
        assert x.size >= _BUCKET_MIN_POINTS
        step = StepCdf(knots, values)
        assert step(x).tobytes() == all_knots_step(step, x).tobytes()
        # below it, the search alone gives them too
        assert step(x[:100]).tobytes() == all_knots_step(step, x[:100]).tobytes()

    def test_npmle_of_rounded_times_reads_the_search(self):
        sample = generate(SimModel(3), 20_000, 5)
        step = npmle_pava(ObservationSample(np.round(sample.u, 2), sample.delta))
        x = np.concatenate([sample.u, np.round(sample.u, 2), np.linspace(-0.1, 1.1, 4097)])
        assert step._runs[0].size > 20
        assert step(x).tobytes() == all_knots_step(step, x).tobytes()
        assert step._buckets is not None

    def test_bucket_table_is_capped(self):
        step = StepCdf(np.arange(1e6), np.arange(1e6))
        x = np.random.default_rng(3).uniform(-1.0, 1e6, _BUCKET_MIN_POINTS)
        assert step(x).tobytes() == all_knots_step(step, x).tobytes()
        assert step._buckets[2].size <= _BUCKETS_MAX + 2

    def test_equality_reads_the_bits(self):
        # == on equal but distinct arrays once raised "the truth value of an
        # array is ambiguous"
        knots, values = [0.0, 0.5, 1.0], [0.0, 0.2, 0.4]
        step = StepCdf(np.array(knots), np.array(values))
        same = StepCdf(np.array(knots), np.array(values))
        assert step.values is not same.values
        assert step == same and not step != same
        bit = np.array(values)
        bit.view(np.int64)[2] ^= 1
        assert step != StepCdf(knots, bit) and StepCdf(knots, bit) != step
        assert step != StepCdf(knots, [-0.0, 0.2, 0.4])
        assert step != StepCdf(knots[:2], values[:2])
        # the Birgé histogram's class evaluates by index: equal fields of
        # the two classes stay unequal, as the dataclass class check has it
        binned = birge_histogram(ObservationSample([0.2, 0.7, 0.9], [0, 1, 1]), 2)
        plain = StepCdf(binned.knots, binned.values)
        assert binned != plain and plain != binned
        assert binned == type(binned)(binned.knots.copy(), binned.values.copy())
        with pytest.raises(TypeError, match="unhashable"):
            hash(step)
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.values = bit
        step(0.5)  # the cached run starts are not a field
        assert pickle.loads(pickle.dumps(step)) == step == same


# few models, so that drawn evaluators often share one
MODELS = (
    BasisModel(dyadic_family(), 1, 0),
    BasisModel(dyadic_family(), 4, 2),
    BasisModel(haar_family(), 8, 0),
    BasisModel(poly_family(2), 3, 2),
    BasisModel(trig_family(), harmonics=3),
)


@st.composite
def projections(draw):
    """A projection estimate on one of ``MODELS``; a zero scale makes a zero denominator."""
    model = draw(st.sampled_from(MODELS))
    scale = draw(st.sampled_from([0.0, 1.0, -2.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return ProjectionEstimate(model, scale * rng.normal(size=model.dim))


least_squares = projections().map(
    lambda fit: LeastSquaresFit(fit.model, fit.coeffs, 0.5, fit.model.dim, 1.0)
)
ratios = st.builds(ClampedRatio, projections(), projections())
evaluators = st.one_of(
    projections(),
    least_squares,
    ratios,
    st.one_of(projections(), least_squares, ratios).map(_Clipped),
    steps.map(lambda pairs: StepCdf(*sorted_steps(pairs))),
)
# a CdfEstimate is evaluated through its evaluator
estimates = st.tuples(evaluators, st.booleans()).map(
    lambda drawn: CdfEstimate("drawn", drawn[0]) if drawn[1] else drawn[0]
)
# tied points, points outside [0, 1] and empty arrays
point_sets = st.lists(TIMES, max_size=12).map(lambda times: np.array(times, dtype=float))


class TestEvaluationRule:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(estimates, point_sets), max_size=8))
    def test_each_value_is_the_dense_one(self, drawn):
        # a step function among them is called in its place in the list
        values = _evaluate_each([e for e, _ in drawn], [x for _, x in drawn])
        assert len(values) == len(drawn)
        for (estimate, x), value in zip(drawn, values):
            assert value.shape == x.shape
            assert value.tobytes() == dense_values(estimate, x).tobytes()
            assert np.asarray(estimate(x)).tobytes() == value.tobytes()


def each_method(sample):
    """Every method's ``estimate_sample`` result, and the clamped regression's."""
    fits = [estimate_sample(method, sample) for method in METHODS]
    return fits + [estimate_sample("regression", sample, BenchConfig(clamp_regression=True))]


class TestEstimateCalls:
    SAMPLE = generate(SimModel(3), 200, 4)

    def test_the_input_shape_is_kept(self):
        # design_matrix takes 1-d points, so a call ravels an array of any shape
        x = np.linspace(-0.2, 1.2, 6).reshape(2, 3)
        for estimate in each_method(self.SAMPLE):
            values = estimate(x)
            assert values.shape == (2, 3)
            assert values.tobytes() == estimate(x.ravel()).tobytes()
            for point in (0.4, np.float64(0.4), np.array(0.4)):
                value = estimate(point)
                assert type(value) is float
                assert np.float64(value).tobytes() == estimate(np.array([0.4])).tobytes()

    def test_pickle_round_trip(self):
        # a clamp must be a module-level evaluator, since pickle refuses a local function
        grid = np.linspace(-0.25, 1.25, 301)
        for estimate in each_method(self.SAMPLE):
            again = pickle.loads(pickle.dumps(estimate))
            assert again.method == estimate.method
            assert repr(again.metadata) == repr(estimate.metadata)
            assert type(again.evaluator) is type(estimate.evaluator)
            assert again(grid).tobytes() == estimate(grid).tobytes()
