import numpy as np
import pytest

from conftest import tv_distance
from crsim import kernels
from crsim.markov import OccupancyChain, noncompletion_probability, stationary


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
