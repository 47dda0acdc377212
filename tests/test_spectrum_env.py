import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Draws, tv_distance
from crsim.markov import OccupancyChain, stationary
from crsim.negotiation import PuDisposition, PuState
from crsim.simcore import chain_rows, step_chains
from crsim.spectrum_env import SpectrumBand, sense, step_band


def make_band(capacity=8, p=0.2, q=0.2, used=4) -> SpectrumBand:
    return SpectrumBand(
        band_id=0,
        chain=OccupancyChain(capacity, p, q),
        pu_used=used,
        disposition=PuDisposition(PuState.COOPERATIVE, 0.0, 0.0),
    )


def test_frozen_band_never_moves():
    band = make_band(p=0.0, q=0.0, used=3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        step_band(band, rng)
    assert band.pu_used == 3


def test_occupancy_never_negative_at_lower_boundary():
    band = make_band(p=0.0, q=0.9, used=0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        step_band(band, rng)
        assert band.pu_used == 0


def test_occupancy_capped_at_capacity():
    band = make_band(p=0.9, q=0.0, used=7)
    rng = np.random.default_rng(1)
    for _ in range(200):
        step_band(band, rng)
        assert band.pu_used <= band.capacity
    assert band.pu_used == band.capacity


def test_single_step_moves_at_most_one_channel():
    band = make_band(p=0.4, q=0.4, used=4)
    rng = np.random.default_rng(5)
    previous = band.pu_used
    for _ in range(2000):
        step_band(band, rng)
        assert abs(band.pu_used - previous) <= 1
        previous = band.pu_used


def test_step_band_deterministic_given_rng_state():
    trajectories = []
    for _ in range(2):
        band = make_band(used=4)
        rng = np.random.default_rng(123)
        trajectories.append([])
        for _ in range(500):
            step_band(band, rng)
            trajectories[-1].append(band.pu_used)
    assert trajectories[0] == trajectories[1]


def test_long_run_histogram_matches_stationary():
    # fixed-seed statistical test: TV within 0.02 after 1e5 steps
    band = make_band(p=0.2, q=0.2, used=4)
    rng = np.random.default_rng(2)
    counts = np.zeros(band.capacity + 1)
    for _ in range(100_000):
        step_band(band, rng)
        counts[band.pu_used] += 1
    pi = stationary(band.chain).probabilities
    assert tv_distance(counts, pi) < 0.02


def test_sense_reports_free_channels():
    band = make_band(used=3)
    assert sense(band) == 5
    assert sense(band) + band.pu_used == band.capacity


def test_sense_full_band():
    assert sense(make_band(used=8)) == 0


def test_band_state_validation():
    with pytest.raises(ValueError):
        SpectrumBand(0, OccupancyChain(4, 0.1, 0.1), 5, PuDisposition(PuState.COOPERATIVE, 0, 0))
    with pytest.raises(ValueError):
        SpectrumBand(-1, OccupancyChain(4, 0.1, 0.1), 2, PuDisposition(PuState.COOPERATIVE, 0, 0))


def test_step_band_boundary_draws():
    # p = 0.25, q = 0.5: [0, 0.25) raises, [0.25, 0.75) lowers, the rest holds
    cases = [
        (4, 0.0, 5),
        (4, 0.25, 3),  # exactly at birth: a lowering draw
        (4, 0.75, 4),  # exactly at birth + death: a holding draw
        (8, 0.0, 8),  # a raise at capacity is suppressed
        (0, 0.25, 0),  # a lowering at 0 is suppressed
    ]
    for used, u, expected in cases:
        band = make_band(p=0.25, q=0.5, used=used)
        step_band(band, Draws([u]))
        assert band.pu_used == expected


chains = st.tuples(
    st.integers(1, 8),
    st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.integers(0, 8),
)


@given(bands=st.lists(chains, min_size=1, max_size=6), steps=st.integers(1, 5), data=st.data())
def test_step_bands_matches_step_band_draw_for_draw(bands, steps, data):
    # the engine's one band pass, simcore.step_chains, moves occupancy as step_band does
    def build():
        return [make_band(c, p, q, min(used, c)) for c, p, q, used in bands]

    # draws at birth and at birth + death exactly, and at the ends of [0, 1)
    boundaries = sorted({v for _, p, q, _ in bands for v in (p, p + q)} | {0.0, 0.999})
    n = len(bands)
    size = n * steps
    draws = data.draw(st.lists(st.sampled_from(boundaries) | st.floats(0.0, 0.999), min_size=size, max_size=size))
    batched, single = build(), build()
    hists = [[0] * (b.capacity + 1) for b in batched]
    rows, since = chain_rows(batched, hists), [0] * n
    counted = [[0] * (b.capacity + 1) for b in single]
    for k in range(steps):
        occupancy = draws[k * n:(k + 1) * n]
        # n disposition draws (alpha = 0: never a switch), then an extra draw left unread
        step_chains(rows, occupancy + [0.0] * n + [0.0], k, since)
        rng = Draws(occupancy)
        for band, row in zip(single, counted):
            step_band(band, rng)
            row[band.pu_used] += 1
        assert [b.pu_used for b in batched] == [b.pu_used for b in single]
        # each band's histogram, with the steps at its occupancy since its
        # last move, counted its occupancy once a step
        through = [row.copy() for row in hists]
        for band, row, start in zip(batched, through, since):
            row[band.pu_used] += k + 1 - start
        assert through == counted
