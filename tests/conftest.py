import numpy as np
import pytest
from hypothesis import strategies as st

from curstat import ObservationSample

# a few fixed values make ties likely; the floats reach both sides of [0, 1]
TIMES = st.one_of(
    st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5]),
    st.floats(-1.0, 2.0, allow_nan=False),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_sample(rng, n, p_outside=0.0):
    """Random current-status sample with arbitrary status probabilities."""
    u = rng.random(n)
    if p_outside:
        mask = rng.random(n) < p_outside
        u = np.where(mask, 1.0 + rng.random(n), u)
    prob = rng.random(n)
    delta = (rng.random(n) < prob).astype(float)
    return ObservationSample(u, delta)


def tied_samples(min_size=1, max_size=40):
    """Strategy for samples with tied times and times outside [0, 1]."""
    pairs = st.lists(st.tuples(TIMES, st.integers(0, 1)), min_size=min_size, max_size=max_size)
    return pairs.map(lambda p: ObservationSample([u for u, _ in p], [d for _, d in p]))
