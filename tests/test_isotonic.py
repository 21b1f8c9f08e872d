import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curstat import (
    ObservationSample,
    SimModel,
    StepCdf,
    birge_histogram,
    fit_least_squares,
    generate,
    haar_model,
    isotonic,
    npmle_maxmin,
    npmle_pava,
)
from curstat.data import _SortedStack

from conftest import random_sample, tied_samples
from dense_oracle import all_knots_step, two_bincount_birge

# queries beyond the knots: infinities, nan, signed zeros, huge and tiny
# floats, and the largest ones, whose products with a bin count overflow
SPECIAL_POINTS = np.array(
    [-np.inf, -1e300, -5e-324, -0.0, 0.0, 1.0, np.nextafter(1.0, 2.0), 1e300, np.inf, np.nan]
    + [np.finfo(float).max, -np.finfo(float).max]
)


def brute_force_maxmin(delta_sorted):
    """Literal double loop over (j, k) around each index."""
    n = len(delta_sorted)
    out = np.empty(n)
    for i in range(n):
        best = -np.inf
        for j in range(i + 1):
            inner = min(
                sum(delta_sorted[j : k + 1]) / (k - j + 1) for k in range(i, n)
            )
            best = max(best, inner)
        out[i] = best
    return out


def point_loop_pava(delta_sorted):
    """Stack PAVA one point at a time, with exact integer block sums."""
    sums, counts = [], []
    for d in delta_sorted:
        sums.append(int(d))
        counts.append(1)
        while len(sums) > 1 and sums[-2] * counts[-1] >= sums[-1] * counts[-2]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    return np.concatenate([np.full(c, s / c) for s, c in zip(sums, counts)])


def staircase(steps):
    """Statuses whose pooling rounds merge one block each: ``steps`` rounds.

    After the first round the blocks are ``1^i 0`` with increasing means
    i / (i + 1), followed by a run of zeros long enough that the tail
    block stays below each of them as it absorbs them one by one.
    """
    delta = [0]
    for i in range(1, steps + 1):
        delta += [1] * i + [0]
    delta += [0] * (steps * steps // 2)
    return np.array(delta, dtype=float)


def sample_with_sorted_delta(delta):
    u = (np.arange(len(delta)) + 1.0) / (len(delta) + 1.0)
    return ObservationSample(u, np.asarray(delta, dtype=float))


class TestMaxMin:
    def test_alternating_pattern(self):
        step = npmle_maxmin(sample_with_sorted_delta([1, 0, 1]))
        np.testing.assert_array_equal(step.values, [0.5, 0.5, 1.0])

    def test_already_isotonic(self):
        step = npmle_maxmin(sample_with_sorted_delta([0, 0, 1, 1]))
        np.testing.assert_array_equal(step.values, [0.0, 0.0, 1.0, 1.0])

    def test_all_ones(self):
        step = npmle_maxmin(sample_with_sorted_delta([1, 1, 1]))
        np.testing.assert_array_equal(step.values, [1.0, 1.0, 1.0])

    def test_unsorted_input_is_sorted_first(self, rng):
        u = rng.permutation(10) / 10.0
        delta = (rng.random(10) < 0.5).astype(float)
        sample = ObservationSample(u, delta)
        srt_delta = delta[np.argsort(u, kind="stable")]
        np.testing.assert_array_equal(
            npmle_maxmin(sample).values, brute_force_maxmin(list(srt_delta))
        )


class TestPava:
    def test_alternating_pattern(self):
        step = npmle_pava(sample_with_sorted_delta([1, 0, 1]))
        np.testing.assert_array_equal(step.values, [0.5, 0.5, 1.0])

    def test_single_pooled_block(self):
        step = npmle_pava(sample_with_sorted_delta([1, 1, 0, 0]))
        np.testing.assert_array_equal(step.values, [0.5, 0.5, 0.5, 0.5])

    def test_single_observation(self):
        step = npmle_pava(ObservationSample([0.4], [0.0]))
        np.testing.assert_array_equal(step.values, [0.0])

    def test_block_mean_property(self, rng):
        for _ in range(20):
            sample = random_sample(rng, int(rng.integers(2, 40)))
            srt_delta = sample.delta[np.argsort(sample.u, kind="stable")]
            values = npmle_pava(sample).values
            # on each constant block the value equals the mean of delta there
            edges = np.flatnonzero(np.diff(values) != 0)
            starts = np.concatenate([[0], edges + 1])
            ends = np.concatenate([edges + 1, [len(values)]])
            for a, b in zip(starts, ends):
                assert values[a] == pytest.approx(srt_delta[a:b].mean(), abs=0)

    def test_monotone_and_in_range(self, rng):
        for _ in range(50):
            sample = random_sample(rng, int(rng.integers(1, 60)))
            values = npmle_pava(sample).values
            assert np.all(np.diff(values) >= 0)
            assert values.min() >= 0.0 and values.max() <= 1.0


class TestRouteEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive_small_patterns(self, n, rng):
        u = np.sort(rng.random(n))
        for pattern in itertools.product([0, 1], repeat=n):
            sample = ObservationSample(u, np.array(pattern, dtype=float))
            brute = brute_force_maxmin(list(pattern))
            mm = npmle_maxmin(sample).values
            pv = npmle_pava(sample).values
            np.testing.assert_array_equal(mm, brute)
            np.testing.assert_array_equal(pv, brute)

    def test_tied_examination_times(self):
        sample = ObservationSample([0.5, 0.5, 0.5, 0.2], [1.0, 0.0, 1.0, 0.0])
        mm = npmle_maxmin(sample)
        pv = npmle_pava(sample)
        np.testing.assert_array_equal(mm.values, pv.values)
        np.testing.assert_array_equal(mm.knots, pv.knots)

    @pytest.mark.parametrize("n", [11, 12])
    def test_exhaustive_larger_patterns_single_draw(self, n, rng):
        # extends the exhaustive sweep to n = 12 with one u-configuration
        u = np.sort(rng.random(n))
        for code in range(2**n):
            pattern = [(code >> i) & 1 for i in range(n)]
            sample = ObservationSample(u, np.array(pattern, dtype=float))
            mm = npmle_maxmin(sample).values
            pv = npmle_pava(sample).values
            np.testing.assert_array_equal(mm, pv)
        # spot-check the slow brute force on a handful of codes
        for code in (0, 2**n - 1, 1365 % 2**n, 2731 % 2**n):
            pattern = [(code >> i) & 1 for i in range(n)]
            sample = ObservationSample(u, np.array(pattern, dtype=float))
            np.testing.assert_array_equal(
                npmle_maxmin(sample).values, brute_force_maxmin(pattern)
            )


def grouped_maxmin(sample):
    """Max-min over the distinct times, each weighted by its count, per observation.

    Exact integer sums and counts, one division per (j, k) pair, so the
    values are bitwise comparable with both NPMLE routes.
    """
    times, group = np.unique(sample.u, return_inverse=True)
    sums = np.bincount(group, weights=sample.delta, minlength=times.size).astype(int)
    counts = np.bincount(group, minlength=times.size)
    m = times.size
    by_time = [
        max(
            min(int(sums[j : k + 1].sum()) / int(counts[j : k + 1].sum()) for k in range(i, m))
            for j in range(i + 1)
        )
        for i in range(m)
    ]
    return np.repeat(by_time, counts)


class TestTiedTimes:
    @pytest.mark.parametrize("route", [npmle_maxmin, npmle_pava])
    def test_two_tied_observations_pool(self, route):
        # listed (1, 0) or (0, 1), the tied pair gets its mean, not its last status
        for delta in ([1.0, 0.0], [0.0, 1.0]):
            step = route(ObservationSample([0.5, 0.5], delta))
            np.testing.assert_array_equal(step.values, [0.5, 0.5])
            assert step(0.5) == 0.5

    @pytest.mark.parametrize("route", [npmle_maxmin, npmle_pava])
    @settings(max_examples=300, deadline=None, database=None)
    @given(sample=tied_samples(), data=st.data())
    def test_invariant_under_permutation(self, route, sample, data):
        order = np.array(data.draw(st.permutations(range(sample.n))), dtype=int)
        fit = route(sample)
        again = route(ObservationSample(sample.u[order], sample.delta[order]))
        assert again.values.tobytes() == fit.values.tobytes()
        # knots compare by bytes: ObservationSample stores -0.0 as 0.0
        assert again.knots.tobytes() == fit.knots.tobytes()

    @pytest.mark.parametrize("route", [npmle_maxmin, npmle_pava])
    def test_signed_zeros_give_identical_knots(self, route):
        times = np.array([0.0, -0.0, 0.5])
        first = route(ObservationSample(times, [1.0, 0.0, 1.0]))
        assert np.signbit(times[1])  # the caller's array is left as it was
        second = route(ObservationSample([-0.0, 0.0, 0.5], [1.0, 0.0, 1.0]))
        assert first.knots.tobytes() == second.knots.tobytes()
        assert not np.signbit(first.knots).any()

    @pytest.mark.parametrize("route", [npmle_maxmin, npmle_pava])
    @settings(max_examples=300, deadline=None, database=None)
    @given(tied_samples())
    def test_equals_grouped_maxmin(self, route, sample):
        assert route(sample).values.tobytes() == grouped_maxmin(sample).tobytes()


class TestPoolingRounds:
    @settings(max_examples=300, deadline=None, database=None)
    @given(tied_samples())
    def test_matches_maxmin_on_tied_and_outside_times(self, sample):
        mm = npmle_maxmin(sample)
        pv = npmle_pava(sample)
        assert np.array_equal(pv.values, mm.values)
        assert np.array_equal(pv.knots, mm.knots)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_stack_fallback_matches_maxmin(self, cap, monkeypatch):
        monkeypatch.setattr(isotonic, "MAX_POOLING_ROUNDS", cap)
        for model in range(1, 6):
            for n in (1, 2, 60, 200, 1000):
                sample = generate(SimModel(model), n, model * 7 + n)
                mm = npmle_maxmin(sample)
                pv = npmle_pava(sample)
                assert np.array_equal(pv.values, mm.values)
                assert np.array_equal(pv.knots, mm.knots)

    def test_staircase_reaches_stack_fallback(self, monkeypatch):
        delta = staircase(80)
        sums, counts = isotonic._status_runs(delta)
        *_, rounds = isotonic._pool_rounds(sums, counts, 10**6)
        assert rounds == 80 > isotonic.MAX_POOLING_ROUNDS
        fallbacks = []
        pool_stack = isotonic._pool_stack

        def counted_stack(sums, counts):
            fallbacks.append(sums.size)
            return pool_stack(sums, counts)

        monkeypatch.setattr(isotonic, "_pool_stack", counted_stack)
        values = npmle_pava(sample_with_sorted_delta(delta)).values
        # left for the loop: the leading zero block, the unabsorbed steps and the tail
        assert fallbacks == [80 - isotonic.MAX_POOLING_ROUNDS + 2]
        np.testing.assert_array_equal(values, point_loop_pava(delta))


class TestStackedPava:
    """One set of pooling rounds over a stack of samples gives each sample
    bitwise its own ``npmle_pava``: no run or block crosses a sample."""

    @staticmethod
    def stack():
        return [
            # equal statuses on both sides of each boundary: merged runs, or
            # a status-1 block pooled with the next sample's zeros, would move
            # the values of both neighbours
            sample_with_sorted_delta([1, 0, 1, 1]),
            sample_with_sorted_delta([1, 1, 0, 0]),
            sample_with_sorted_delta([0, 1, 0]),
            # needs the stack finish, which then runs over every sample's blocks
            sample_with_sorted_delta(staircase(80)),
            ObservationSample([0.5, 0.5, 0.5, 0.2, 0.2, 1.5], [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]),
            generate(SimModel(2), 200, 3),
            sample_with_sorted_delta([1]),
            sample_with_sorted_delta([0]),
            sample_with_sorted_delta([1, 1]),
        ]

    def test_each_sample_pools_alone(self, monkeypatch):
        samples = self.stack()
        alone = [npmle_pava(sample) for sample in samples]
        finishes = []
        pool_stack = isotonic._pool_stack

        def counted_stack(sums, counts):
            finishes.append(sums.size)
            return pool_stack(sums, counts)

        monkeypatch.setattr(isotonic, "_pool_stack", counted_stack)
        stacked = isotonic._npmle_pavas(_SortedStack(samples))
        assert len(finishes) == 1 and finishes[0] > 80 - isotonic.MAX_POOLING_ROUNDS + 2
        # npmle_pava pools each sample with no offset; max-min is an independent route
        assert stacked == alone == [npmle_maxmin(sample) for sample in samples]

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(tied_samples(max_size=12), min_size=1, max_size=6))
    def test_tied_and_outside_stacks_pool_alone(self, samples):
        stacked = isotonic._npmle_pavas(_SortedStack(samples))
        assert stacked == [npmle_pava(sample) for sample in samples]
        assert stacked == [npmle_maxmin(sample) for sample in samples]


class TestStepConvention:
    def test_zero_before_first_knot_and_right_continuity(self):
        step = npmle_pava(ObservationSample([0.4, 0.8], [1.0, 1.0]))
        assert step(0.1) == 0.0
        assert step(0.4) == 1.0  # value attained at the knot itself
        assert step(0.6) == 1.0  # carried forward

    def test_vector_evaluation(self):
        step = npmle_pava(ObservationSample([0.4, 0.8], [0.0, 1.0]))
        np.testing.assert_array_equal(
            step(np.array([0.0, 0.4, 0.79, 0.8, 1.0])), [0.0, 0.0, 0.0, 1.0, 1.0]
        )

    @settings(max_examples=150, deadline=None, database=None)
    @given(tied_samples(), st.lists(st.floats(allow_nan=True), max_size=20))
    def test_both_routes_read_the_bits_of_the_all_knots_search(self, sample, points):
        x = np.concatenate([points, SPECIAL_POINTS, sample.u, np.nextafter(sample.u, -np.inf)])
        for route in (npmle_pava, npmle_maxmin):
            step = route(sample)
            assert step(x).tobytes() == all_knots_step(step, x).tobytes()

    def test_npmle_searches_only_its_run_starts(self, monkeypatch):
        sample = generate(SimModel(3), 50000, 1)
        step = npmle_pava(sample)
        expected = all_knots_step(step, sample.u)
        searched = []
        search = np.searchsorted

        def counting(a, v, *args, **kwargs):
            searched.append(len(a))
            return search(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        values = step(sample.u)
        assert searched and max(searched) <= 200
        assert values.tobytes() == expected.tobytes()


class TestBirgeHistogram:
    def test_two_bin_means(self):
        sample = ObservationSample([0.1, 0.3, 0.6, 0.9], [0.0, 1.0, 1.0, 1.0])
        step = birge_histogram(sample, 2)
        np.testing.assert_array_equal(step.values, [0.5, 1.0])

    def test_empty_bin_is_zero(self):
        sample = ObservationSample([0.9, 0.95], [1.0, 1.0])
        step = birge_histogram(sample, 4)
        np.testing.assert_array_equal(step.values, [0.0, 0.0, 0.0, 1.0])

    def test_single_bin_is_overall_mean(self, rng):
        sample = random_sample(rng, 30)
        step = birge_histogram(sample, 1)
        assert step.values[0] == pytest.approx(sample.delta.mean(), abs=0)

    @pytest.mark.parametrize("bins", [3.0, 2.5, None, True, False])
    def test_bin_count_must_be_an_integer(self, bins):
        sample = ObservationSample([0.1, 0.3, 0.6, 0.9], [0.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            birge_histogram(sample, bins)
        assert birge_histogram(sample, np.int64(3)).values.tolist() == [0.5, 1.0, 1.0]

    def test_points_outside_interval_ignored(self):
        sample = ObservationSample([0.25, 1.5], [0.0, 1.0])
        step = birge_histogram(sample, 2)
        np.testing.assert_array_equal(step.values, [0.0, 0.0])

    @settings(max_examples=100, deadline=None, database=None)
    @given(tied_samples(), st.integers(1, 20))
    def test_range_on_tied_and_outside_times(self, sample, bins):
        values = birge_histogram(sample, bins)(np.linspace(0.0, 1.0, 512))
        assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize(
        "bins, u, other, expected",
        [
            # one ulp below the float 5 / 6, and times 6 it rounds to 5.0
            (6, 0.8333333333333333, 0.9, 0.5),
            # 0.6818181818181818 is the float 15 / 22, and times 22 it gives 14.999999999999998
            (22, 0.6818181818181818, 0.7, 1.0),
        ],
    )
    def test_point_an_ulp_from_a_knot_reads_its_own_bin(self, bins, u, other, expected):
        # ``other`` shares the bin of u for 6 bins and sits in the next bin for 22
        sample = ObservationSample([u, other], [1.0, 0.0])
        assert birge_histogram(sample, bins)(u) == expected

    def test_edges_are_the_smallest_floats_of_their_bins(self):
        for bins in range(1, 1001):
            edges = isotonic._bin_edges(bins)
            k = np.arange(bins)
            assert not edges.flags.writeable
            assert np.all(np.floor(edges * bins) >= k)
            assert np.all(np.floor(np.nextafter(edges, -np.inf) * bins) < k)
            np.testing.assert_allclose(edges, k / bins, rtol=0, atol=np.spacing(1.0))

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_each_point_reads_the_mean_of_its_bin(self, data):
        bins = data.draw(st.integers(1, 40))
        near_knot = st.builds(
            lambda k, steps: float(np.clip(k / bins + steps * np.spacing(k / bins), 0.0, 1.0)),
            st.integers(0, bins),
            st.integers(-2, 2),
        )
        times = data.draw(st.lists(st.one_of(st.floats(-0.5, 1.5), near_knot), min_size=1, max_size=30))
        status = data.draw(st.lists(st.integers(0, 1), min_size=len(times), max_size=len(times)))
        sample = ObservationSample(times, status)
        est = birge_histogram(sample, bins)
        inside = (sample.u >= 0.0) & (sample.u <= 1.0)
        u, d = sample.u[inside], sample.delta[inside]
        idx = np.minimum(np.floor(u * bins), bins - 1)
        for ui, i in zip(u, idx):
            assert est(ui) == d[idx == i].mean()

    def test_bin_index_equals_the_search_over_the_edges(self, rng):
        for bins in range(1, 1001):
            # every edge and the two floats on either side of it
            edges = isotonic._bin_edges(bins)
            near = [edges]
            below, above = edges, edges
            for _ in range(2):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                near += [below, above]
            x = np.concatenate(near + [SPECIAL_POINTS])
            est = birge_histogram(ObservationSample([0.5], [1.0]), bins)
            # a distinct value per bin, so a point read from a wrong bin shows
            est = dataclasses.replace(est, values=rng.permutation(bins) + 1.0)
            assert est(x).tobytes() == all_knots_step(est, x).tobytes()

    @pytest.mark.parametrize("bins", [1, 5, 10, 37, 1000])
    def test_still_a_step_cdf_with_the_same_fields(self, bins, rng):
        sample = random_sample(rng, 400, p_outside=0.1)
        est = birge_histogram(sample, bins)
        assert isinstance(est, StepCdf)
        assert est.knots.tobytes() == isotonic._bin_edges(bins).tobytes()
        inside = (sample.u >= 0.0) & (sample.u <= 1.0)
        u, d = sample.u[inside], sample.delta[inside]
        idx = np.minimum(np.floor(u * bins), bins - 1)
        means = [d[idx == k].mean() if (idx == k).any() else 0.0 for k in range(bins)]
        assert est.values.tobytes() == np.array(means).tobytes()
        x = np.concatenate([SPECIAL_POINTS, sample.u])
        again = pickle.loads(pickle.dumps(est))
        assert type(again) is type(est)
        assert again(x).tobytes() == est(x).tobytes() == all_knots_step(est, x).tobytes()

    def test_evaluation_runs_no_search(self, monkeypatch):
        sample = generate(SimModel(3), 50000, 1)
        est = birge_histogram(sample, 10)
        expected = all_knots_step(est, sample.u)

        def no_search(*args, **kwargs):
            raise AssertionError("searchsorted called")

        monkeypatch.setattr(np, "searchsorted", no_search)
        assert est(sample.u).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(st.data())
    def test_fits_equal_the_two_bincount_oracle(self, data):
        bins = data.draw(st.integers(1, 64))
        # 0, 1, every k / bins and their float neighbours, and times outside [0, 1]
        k = np.arange(bins + 1) / bins
        near = np.concatenate([k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf)])
        times = st.one_of(st.sampled_from([*near.tolist(), -0.5, 1.5]), st.floats(-0.5, 1.5))
        statuses = data.draw(st.sampled_from(["0", "1", "mixed"]))
        status = st.integers(0, 1) if statuses == "mixed" else st.just(int(statuses))
        pairs = st.lists(st.tuples(times, status), min_size=1, max_size=40)
        samples = [
            ObservationSample([u for u, _ in p], [d for _, d in p])
            for p in data.draw(st.lists(pairs, min_size=1, max_size=4))
        ]
        alone = [birge_histogram(sample, bins) for sample in samples]
        for est, sample in zip(alone, samples):
            oracle = two_bincount_birge(sample, bins)
            assert est.knots.tobytes() == oracle.knots.tobytes()
            assert est.values.tobytes() == oracle.values.tobytes()
        # one integer bincount over the stack gives each sample its own fit
        stacked = isotonic._birge_histograms(_SortedStack(samples), bins)
        assert stacked == alone

    def test_matches_histogram_least_squares(self, rng):
        for _ in range(20):
            sample = random_sample(rng, int(rng.integers(5, 100)), p_outside=0.1)
            level = int(rng.integers(0, 4))
            dim = 2**level
            fit = fit_least_squares(sample, haar_model(level))
            step = birge_histogram(sample, dim)
            centers = (np.arange(dim) + 0.5) / dim
            np.testing.assert_allclose(fit(centers), step(centers), atol=1e-10)
