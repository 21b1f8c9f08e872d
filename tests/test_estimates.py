import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curstat import StepCdf

# a few fixed knots make ties likely; the floats reach everything else
knot = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 1.0]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
steps = st.lists(st.tuples(knot, st.floats(0.0, 1.0)), min_size=1, max_size=30)


def sorted_steps(pairs):
    """Sort by knot only, so tied knots keep their values in drawn order."""
    knots, values = zip(*sorted(pairs, key=lambda pair: pair[0]))
    return np.array(knots), np.array(values)


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
