import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tv_distance
from crsim import kernels
from crsim.markov import OccupancyChain, noncompletion_probability, stationary

# recorded with the per-step walk below; the 200,003 steps cross three draw
# blocks and end inside a row
GOLDEN_HISTOGRAM = [38157, 33485, 29360, 25581, 21992, 19333, 17129, 14966]
ROW = kernels._ROW  # steps per row of a histogram block


def reference_histogram(chain: OccupancyChain, start: int, steps: int, seed: int) -> np.ndarray:
    """The per-step walk that ``kernels.occupancy_histogram`` must reproduce."""
    capacity, p, q = chain.capacity, chain.birth, chain.death
    rng = np.random.default_rng(seed)
    counts = np.zeros(capacity + 1, dtype=np.int64)
    k = start
    remaining = steps
    while remaining:
        block = min(remaining, 1 << 16)
        for u in rng.random(block):
            if u < p:
                if k < capacity:
                    k += 1
            elif u < p + q:
                if k > 0:
                    k -= 1
            counts[k] += 1
        remaining -= block
    return counts


@st.composite
def chains(draw) -> OccupancyChain:
    capacity = draw(st.integers(1, 12) | st.just(300))
    birth = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    death = draw(st.sampled_from([0.0, 1.0 - birth]) | st.floats(0.0, 1.0 - birth))
    return OccupancyChain(capacity, birth, death)


def test_mc_noncompletion_deterministic_per_seed():
    chain = OccupancyChain(4, 0.25, 0.4)
    a = kernels.mc_noncompletion(chain, 2, 0.1, 0.5, 50_000, seed=9)
    b = kernels.mc_noncompletion(chain, 2, 0.1, 0.5, 50_000, seed=9)
    c = kernels.mc_noncompletion(chain, 2, 0.1, 0.5, 50_000, seed=10)
    assert a == b
    assert a != c


def test_mc_matches_solve():
    chain = OccupancyChain(5, 0.2, 0.5)
    solve = noncompletion_probability(chain, 3, 0.15, 0.6)
    mc = kernels.mc_noncompletion(chain, 3, 0.15, 0.6, 300_000, seed=4)
    assert abs(mc - solve) < 0.005


def test_mc_validates_arguments():
    chain = OccupancyChain(4, 0.2, 0.3)
    with pytest.raises(ValueError):
        kernels.mc_noncompletion(chain, 0, 0.1, 0.5, 100, seed=1)
    with pytest.raises(ValueError):
        kernels.mc_noncompletion(chain, 2, 0.1, 0.5, 0, seed=1)
    with pytest.raises(ValueError):
        kernels.mc_noncompletion(chain, 2, 0.1, 0.5, 100, seed=1, start_state=5)
    for completion in (0.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError, match="completion"):
            kernels.mc_noncompletion(chain, 2, completion, 0.5, 100, seed=1)
    for grant in (-0.1, 7.0, math.nan):
        with pytest.raises(ValueError, match="grant"):
            kernels.mc_noncompletion(chain, 2, 0.1, grant, 100, seed=1)


def test_mc_noncompletion_golden():
    # recorded with int64 session arrays; the second case has boundary 0,
    # where every birth drops the session
    chain = OccupancyChain(7, 0.27, 0.31)
    assert kernels.mc_noncompletion(chain, 3, 0.12, 0.45, 50_000, seed=1404) == 0.2014
    assert kernels.mc_noncompletion(chain, 7, 0.12, 0.45, 50_000, seed=1404, start_state=0) == 0.66596


def test_histogram_tracks_stationary():
    chain = OccupancyChain(8, 0.2, 0.2)
    counts = kernels.occupancy_histogram(chain, start=4, steps=400_000, seed=3)
    assert counts.sum() == 400_000
    assert tv_distance(counts, stationary(chain).probabilities) < 0.02


def test_histogram_stays_in_range():
    chain = OccupancyChain(3, 0.5, 0.5)
    counts = kernels.occupancy_histogram(chain, start=0, steps=10_000, seed=7)
    assert counts.shape == (4,)
    assert np.all(counts >= 0)


def test_histogram_validates_arguments():
    chain = OccupancyChain(4, 0.2, 0.3)
    for start in (-1, 5):
        with pytest.raises(ValueError, match="start occupancy"):
            kernels.occupancy_histogram(chain, start=start, steps=10, seed=1)
    with pytest.raises(ValueError, match="steps"):
        kernels.occupancy_histogram(chain, start=0, steps=0, seed=1)


def test_histogram_golden():
    counts = kernels.occupancy_histogram(OccupancyChain(7, 0.27, 0.31), start=3, steps=200_003, seed=1404)
    assert counts.tolist() == GOLDEN_HISTOGRAM


@settings(max_examples=40, deadline=None)
@given(
    chain=chains(),
    start=st.floats(0.0, 1.0),
    steps=st.sampled_from([1, ROW - 1, ROW, ROW + 1, 65_535, 65_536, 65_537, 131_073]),
    seed=st.integers(0, 2**32 - 1),
)
def test_histogram_equals_per_step_walk(chain, start, steps, seed):
    start_state = round(start * chain.capacity)
    expected = reference_histogram(chain, start_state, steps, seed)
    assert np.array_equal(kernels.occupancy_histogram(chain, start_state, steps, seed), expected)
