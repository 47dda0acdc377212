import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import crsim
from conftest import Draws
from crsim.markov import OccupancyChain
from crsim.negotiation import (
    NegotiationOutcome,
    PuDisposition,
    PuState,
    negotiate,
    stationary_cooperative_probability,
    step_disposition,
)
from crsim.simcore import chain_rows, step_chains
from crsim.spectrum_env import SpectrumBand
from crsim.su_fsm import Mode, classify_mode


def band_with(disposition: PuDisposition, used=4, capacity=8) -> SpectrumBand:
    return SpectrumBand(0, OccupancyChain(capacity, 0.0, 0.0), used, disposition)


def test_cooperative_absorbing_when_alpha_zero():
    disp = PuDisposition(PuState.COOPERATIVE, 0.0, 0.7)
    rng = np.random.default_rng(0)
    for _ in range(500):
        step_disposition(disp, rng)
        assert disp.state is PuState.COOPERATIVE


def test_noncooperative_absorbing_when_beta_zero():
    disp = PuDisposition(PuState.NONCOOPERATIVE, 0.7, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(500):
        step_disposition(disp, rng)
        assert disp.state is PuState.NONCOOPERATIVE


def test_long_run_cooperative_fraction():
    # stationary cooperative probability beta/(alpha+beta) = 0.6, +/- 0.02
    disp = PuDisposition(PuState.COOPERATIVE, 0.2, 0.3)
    rng = np.random.default_rng(1)
    cooperative = 0
    steps = 100_000
    for _ in range(steps):
        step_disposition(disp, rng)
        cooperative += disp.state is PuState.COOPERATIVE
    assert abs(cooperative / steps - 0.6) < 0.02


def test_stationary_cooperative_probability_helper():
    assert stationary_cooperative_probability(PuDisposition(PuState.COOPERATIVE, 0.2, 0.3)) == pytest.approx(0.6)
    assert stationary_cooperative_probability(PuDisposition(PuState.COOPERATIVE, 0.0, 0.0)) == 1.0
    assert stationary_cooperative_probability(PuDisposition(PuState.NONCOOPERATIVE, 0.0, 0.0)) == 0.0


def test_cooperative_grant_updates_band():
    band = band_with(PuDisposition(PuState.COOPERATIVE, 0.0, 0.0), used=4)
    outcome = negotiate(band, 1)
    assert outcome == NegotiationOutcome(granted=True, channels=1)
    assert band.pu_used == 3
    # the paper's Warning case 1: a single yielded channel restores Normal
    assert classify_mode(band.pu_used, 4, band.capacity) is Mode.NORMAL


def test_noncooperative_refusal_leaves_band_untouched():
    band = band_with(PuDisposition(PuState.NONCOOPERATIVE, 0.0, 0.0), used=4)
    outcome = negotiate(band, 1)
    assert not outcome.granted
    assert band.pu_used == 4


def test_grant_clamped_to_current_usage():
    band = band_with(PuDisposition(PuState.COOPERATIVE, 0.0, 0.0), used=4)
    outcome = negotiate(band, 9)
    assert outcome.granted and outcome.channels == 4
    assert band.pu_used == 0


def test_idle_pu_with_cooperative_disposition_refuses(caplog):
    band = band_with(PuDisposition(PuState.COOPERATIVE, 0.0, 0.0), used=0)
    with caplog.at_level("WARNING"):
        outcome = negotiate(band, 1)
    assert not outcome.granted
    assert band.pu_used == 0
    assert [(r.name, r.levelname) for r in caplog.records] == [("crsim.negotiation", "WARNING")]
    assert "idle PU" in caplog.messages[0]


def test_importing_crsim_leaves_logging_unimported():
    # only the idle-PU refusal logs, so it imports logging itself: set-up
    # does not pay for the import
    code = "import sys, numpy; before = set(sys.modules); import crsim; print('logging' in set(sys.modules) - before)"
    src = str(Path(crsim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.split() == ["False"]


def test_negotiate_never_raises_occupancy():
    rng = np.random.default_rng(8)
    disp = PuDisposition(PuState.COOPERATIVE, 0.4, 0.4)
    band = band_with(disp, used=5)
    for _ in range(200):
        step_disposition(disp, rng)
        before = band.pu_used
        negotiate(band, 1)
        assert band.pu_used <= before
        band.pu_used = 5


def test_empirical_grant_rate_matches_disposition_stationary():
    # >= 1e4 independent Warning episodes, fixed seed
    disp = PuDisposition(PuState.COOPERATIVE, 0.2, 0.3)
    band = band_with(disp, used=4)
    rng = np.random.default_rng(2)
    grants = 0
    episodes = 20_000
    for _ in range(episodes):
        step_disposition(disp, rng)
        band.pu_used = 4
        grants += negotiate(band, 1).granted
    assert abs(grants / episodes - 0.6) < 0.02


@pytest.mark.parametrize(
    "state, used",
    [(PuState.COOPERATIVE, 4), (PuState.NONCOOPERATIVE, 4), (PuState.COOPERATIVE, 0)],
    ids=["cooperative", "noncooperative", "idle-pu"],
)
def test_negotiate_rejects_a_request_for_no_channels(state, used):
    # the request is checked before the disposition or the occupancy is read
    band = band_with(PuDisposition(state, 0.0, 0.0), used=used)
    for channels in (0, -1):
        with pytest.raises(ValueError, match="at least one channel"):
            negotiate(band, channels)
    assert band.pu_used == used


def test_request_and_outcome_validation():
    # requests are checked by test_negotiate_rejects_a_request_for_no_channels
    with pytest.raises(ValueError):
        NegotiationOutcome(granted=True, channels=0)
    with pytest.raises(ValueError):
        NegotiationOutcome(granted=False, channels=2)
    with pytest.raises(ValueError):
        PuDisposition(PuState.COOPERATIVE, 1.2, 0.0)
    with pytest.raises(ValueError, match="beta"):
        PuDisposition(PuState.COOPERATIVE, 0.0, 1.2)


@pytest.mark.parametrize(
    "state, u, expected",
    [
        (PuState.COOPERATIVE, 0.1, PuState.NONCOOPERATIVE),
        (PuState.COOPERATIVE, 0.2, PuState.COOPERATIVE),  # exactly at alpha: no switch
        (PuState.NONCOOPERATIVE, 0.29, PuState.COOPERATIVE),
        (PuState.NONCOOPERATIVE, 0.3, PuState.NONCOOPERATIVE),  # exactly at beta: no switch
    ],
)
def test_step_disposition_boundary_draws(state, u, expected):
    disp = PuDisposition(state, 0.2, 0.3)
    step_disposition(disp, Draws([u]))
    assert disp.state is expected


dispositions = st.tuples(
    st.booleans(), st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.sampled_from([0.0, 0.3, 0.5, 1.0])
)


@given(chains=st.lists(dispositions, min_size=1, max_size=6), steps=st.integers(1, 5), data=st.data())
def test_step_dispositions_matches_step_disposition_draw_for_draw(chains, steps, data):
    # the engine's one band pass, simcore.step_chains, moves dispositions as step_disposition does
    def build():
        return [
            PuDisposition(PuState.COOPERATIVE if coop else PuState.NONCOOPERATIVE, alpha, beta)
            for coop, alpha, beta in chains
        ]

    # draws at alpha and at beta exactly, and at the ends of [0, 1)
    boundaries = sorted({v for _, alpha, beta in chains for v in (alpha, beta)} | {0.0, 0.999})
    n = len(chains)
    size = n * steps
    draws = data.draw(st.lists(st.sampled_from(boundaries) | st.floats(0.0, 0.999), min_size=size, max_size=size))
    batched, single = build(), build()
    # frozen bands (birth = death = 0): their occupancy draws move nothing
    bands = [band_with(d) for d in batched]
    hists = [[0] * 9 for _ in batched]
    rows, since = chain_rows(bands, hists), [0] * n
    for k in range(steps):
        willingness = draws[k * n:(k + 1) * n]
        # n occupancy draws, then the dispositions' draws, then an extra draw left unread
        step_chains(rows, [0.0] * n + willingness + [0.0], k, since)
        rng = Draws(willingness)
        for disp in single:
            step_disposition(disp, rng)
        assert [d.state for d in batched] == [d.state for d in single]
        # a frozen band's occupancy never moves, so nothing is added to its histogram
        assert hists == [[0] * 9 for _ in bands] and since == [0] * n
