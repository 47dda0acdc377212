"""Engine tests: golden runs that pin behaviour bit for bit, plus invariants.

The golden values (trace hash, knowledge-base counters, metrics and
occupancy histograms) were recorded with earlier engines: most with one
that sensed every scanned band one report at a time and ranked rebuilt
band snapshots, ``wide_warm_start`` with one that drew every uniform and
stepped every band and session through its own call.  Any change to the
engine must reproduce them exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import differential
import numpy as np
import pytest
from conftest import Draws
from hypothesis import given, settings
from hypothesis import strategies as st

from crsim import simcore, su_fsm
from crsim.learning import BandRecord, KnowledgeBase
from crsim.markov import ChainError, OccupancyChain
from crsim.negotiation import PuDisposition, PuState, step_disposition
from crsim.qos import TrafficType
from crsim.scenario import (
    MAX_CAPACITY,
    BandDecl,
    DispositionDecl,
    HandoverParams,
    NegotiationParams,
    Scenario,
    SessionDecl,
    canonical_preset,
)
from crsim.simcore import (
    _EVENT_PACK,
    DROP_REPLANS_EXHAUSTED,
    WIDE_BANDS,
    ComparisonError,
    Engine,
    EngineError,
    EventKind,
    EventTrace,
    Metrics,
    RandomStream,
    analytic_figures,
    chain_rows,
    compare,
    run,
    step_chains,
    step_chains_wide,
    wide_chains,
)
from crsim.spectrum_env import SpectrumBand, step_band
from crsim.su_fsm import Mode, SessionStatus, mode_table

COOP = PuState.COOPERATIVE
NONCOOP = PuState.NONCOOPERATIVE
T = TrafficType


def canonical_short() -> Scenario:
    return dataclasses.replace(canonical_preset(), horizon=3_000)


def multiband_latency() -> Scenario:
    """Eight bands, four holding patterns and a probe, nonzero latencies, frequent scans."""
    return Scenario(
        name="multiband-latency",
        bands=(
            BandDecl(0, 8, 0.10, 0.30, 2, DispositionDecl(COOP, 0.05, 0.05)),
            BandDecl(1, 6, 0.20, 0.20, 3, DispositionDecl(NONCOOP, 0.10, 0.20)),
            BandDecl(2, 12, 0.05, 0.25, 0, DispositionDecl(COOP, 0.02, 0.10)),
            BandDecl(3, 8, 0.30, 0.30, 4, DispositionDecl(COOP, 0.30, 0.30)),
            BandDecl(4, 10, 0.15, 0.35, 5, DispositionDecl(NONCOOP, 0.05, 0.05)),
            BandDecl(5, 7, 0.20, 0.30, 1),
            BandDecl(6, 9, 0.25, 0.25, 4, DispositionDecl(COOP, 0.10, 0.10)),
            BandDecl(7, 5, 0.10, 0.20, 0, DispositionDecl(NONCOOP, 0.20, 0.20)),
        ),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.15, every=3),
            SessionDecl(T.VOICE, 0.20, every=2, start=1),
            SessionDecl(T.SERIOUS_BROWSING, 0.15, every=5, until=500),
            SessionDecl(T.EMAIL, 0.20, every=4, start=2),
            SessionDecl(T.CASUAL_BROWSING, 1.0, every=7, demand=0),
            SessionDecl(T.FILE_TRANSFERS, 0.01, arrival=10),
        ),
        horizon=600,
        seed=11,
        negotiation=NegotiationParams(grant_request=1, latency=1),
        handover=HandoverParams(latency=2, max_replans=3, scan_interval=3),
    )


def replan_exhaustion() -> Scenario:
    """Fast-churning bands and a long handover latency: targets fill while sessions travel."""
    return Scenario(
        name="replan-exhaustion",
        bands=tuple(
            BandDecl(i, 8, 0.40, 0.40, 2 * i, DispositionDecl(COOP if i % 2 else NONCOOP, 0.30, 0.30)) for i in range(4)
        ),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.10, every=2),
            SessionDecl(T.FILE_TRANSFERS, 0.10, every=3),
            SessionDecl(T.SERIOUS_BROWSING, 0.10, every=2, start=1),
        ),
        horizon=800,
        seed=5,
        negotiation=NegotiationParams(grant_request=1, latency=0),
        handover=HandoverParams(latency=3, max_replans=1, scan_interval=4),
    )


WARM_KB = {
    "0": {"attempts": 10, "grants": 1, "sensed": 40, "available": 5},
    "2": {"attempts": 4, "grants": 4, "sensed": 30, "available": 29},
    "3": {"attempts": 0, "grants": 0, "sensed": 12, "available": 12},
    "5": {"attempts": 7, "grants": 6, "sensed": 3, "available": 1},
}


def grant_after_scan() -> Scenario:
    """A grant lands on a band that an earlier session already scanned in the same step.

    Static bands (p = q = 0).  Session 0 (demand 3) sits on band 0 from step
    0.  At step 5, a scan step, session 1 (demand 2) is admitted to band 1
    (6 of 8 used: Warning), negotiates at once and is granted one channel.
    Session 0 scanned band 1 earlier in that step and saw 2 free channels,
    too few for its demand; only session 1's own sense sees band 1 available.
    """
    return Scenario(
        name="grant-after-scan",
        bands=(
            BandDecl(0, 8, 0.0, 0.0, 0),
            BandDecl(1, 8, 0.0, 0.0, 6),
        ),
        sessions=(
            SessionDecl(T.SERIOUS_BROWSING, 0.001, arrival=0),
            SessionDecl(T.EMAIL, 0.001, arrival=5),
        ),
        horizon=6,
        seed=2,
        negotiation=NegotiationParams(grant_request=1, latency=0),
        handover=HandoverParams(latency=0, max_replans=3, scan_interval=5),
    )


def wide_mixed() -> Scenario:
    """36 bands with id gaps, mixed dispositions, latencies 1-2, frequent scans, probes.

    Every kind of event occurs, both drop reasons included; run with
    ``WIDE_KB``, which also holds a band (29) that the scenario lacks.
    """
    bands = []
    for i in range(36):
        capacity = 5 + (i * 7) % 8
        bands.append(
            BandDecl(
                i + i // 5,  # ids skip one value after every fifth band
                capacity,
                round(0.04 + 0.03 * (i % 6), 2),
                round(0.12 + 0.04 * (i % 5), 2),
                (i * 3) % (capacity // 2 + 1),
                DispositionDecl(
                    COOP if i % 3 else NONCOOP,
                    0.0 if i % 7 == 0 else round(0.02 * (i % 4 + 1), 2),
                    0.0 if i % 7 == 0 else round(0.03 * (i % 3 + 1), 2),
                ),
            )
        )
    return Scenario(
        name="wide-mixed",
        bands=tuple(bands),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.02, every=2),
            SessionDecl(T.VOICE, 0.03, every=3, start=1),
            SessionDecl(T.FILE_TRANSFERS, 0.01, every=4, until=200),
            SessionDecl(T.SERIOUS_BROWSING, 0.04, every=5, start=2),
            SessionDecl(T.CASUAL_BROWSING, 0.5, every=6, demand=0),
            SessionDecl(T.MULTICASTING, 0.02, arrival=7),
            SessionDecl(T.EMAIL, 0.05, arrival=150),
        ),
        horizon=300,
        seed=91,
        negotiation=NegotiationParams(grant_request=1, latency=2),
        handover=HandoverParams(latency=1, max_replans=2, scan_interval=5),
    )


WIDE_KB = {
    "0": {"attempts": 6, "grants": 1, "sensed": 25, "available": 4},
    "8": {"attempts": 3, "grants": 3, "sensed": 10, "available": 10},
    "13": {"attempts": 0, "grants": 0, "sensed": 9, "available": 2},
    "29": {"attempts": 5, "grants": 4, "sensed": 2, "available": 2},
}


def golden_run(name: str):
    if name == "kb_warm_start":
        return run(multiband_latency(), seed=23, kb=KnowledgeBase.from_json_dict(WARM_KB))
    if name == "wide_warm_start":
        return run(wide_mixed(), kb=KnowledgeBase.from_json_dict(WIDE_KB))
    return run(SCENARIOS[name]())


SCENARIOS = {
    "canonical_short": canonical_short,
    "multiband_latency": multiband_latency,
    "replan_exhaustion": replan_exhaustion,
    "grant_after_scan": grant_after_scan,
}

GOLDEN: dict[str, dict] = {
    "canonical_short": {
        "trace_hash": "cf00617aeab575084ff1ff64e07da99d",
        "kb": {
            "0": {"attempts": 341, "available": 1598, "grants": 0, "sensed": 1598},
        },
        "metrics": {
            "admitted": 1598, "arrivals": 3000, "blocked": 1402, "completed": 1257, "dropped": 341,
            "empirical_blocking": 0.4673333333333333,
            "empirical_noncompletion": 0.21339173967459324, "failed_handovers": 341, "grants": 0,
            "handovers": 0, "interference_steps": 0,
            "mode_histogram": {"Failure": 0, "Normal": 1257, "Warning": 341}, "negotiations": 341,
            "refusals": 341, "still_active": 0,
        },
        "band_histograms": {
            "0": [279, 274, 333, 371, 341, 341, 291, 350, 420],
        },
    },
    "grant_after_scan": {
        "trace_hash": "755d1e3365bce270971f54243f642769",
        "kb": {
            "0": {"attempts": 0, "available": 7, "grants": 0, "sensed": 7},
            "1": {"attempts": 1, "available": 1, "grants": 1, "sensed": 3},
        },
        "metrics": {
            "admitted": 2, "arrivals": 2, "blocked": 0, "completed": 0, "dropped": 0,
            "empirical_blocking": 0.0, "empirical_noncompletion": 0.0, "failed_handovers": 0,
            "grants": 1, "handovers": 0, "interference_steps": 0,
            "mode_histogram": {"Failure": 0, "Normal": 6, "Warning": 1}, "negotiations": 1,
            "refusals": 0, "still_active": 2,
        },
        "band_histograms": {
            "0": [6, 0, 0, 0, 0, 0, 0, 0, 0], "1": [0, 0, 0, 0, 0, 1, 5, 0, 0],
        },
    },
    "kb_warm_start": {
        "trace_hash": "d374cd11fe4dd113f6b3cae10d0abaa6",
        "kb": {
            "0": {"attempts": 10, "available": 1517, "grants": 1, "sensed": 1552},
            "1": {"attempts": 50, "available": 1389, "grants": 42, "sensed": 1602},
            "2": {"attempts": 4, "available": 1710, "grants": 4, "sensed": 1711},
            "3": {"attempts": 21, "available": 1583, "grants": 11, "sensed": 1634},
            "4": {"attempts": 0, "available": 1616, "grants": 0, "sensed": 1616},
            "5": {"attempts": 26, "available": 1611, "grants": 25, "sensed": 1663},
            "6": {"attempts": 6, "available": 1329, "grants": 1, "sensed": 1518},
            "7": {"attempts": 16, "available": 1520, "grants": 8, "sensed": 1567},
        },
        "metrics": {
            "admitted": 749, "arrivals": 837, "blocked": 88, "completed": 722, "dropped": 23,
            "empirical_blocking": 0.10513739545997611,
            "empirical_noncompletion": 0.030707610146862484, "failed_handovers": 34, "grants": 81,
            "handovers": 12, "interference_steps": 4,
            "mode_histogram": {"Failure": 4, "Normal": 3583, "Warning": 112}, "negotiations": 112,
            "refusals": 31, "still_active": 4,
        },
        "band_histograms": {
            "0": [422, 126, 43, 8, 1, 0, 0, 0, 0], "1": [181, 151, 98, 65, 59, 26, 20],
            "2": [487, 102, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "3": [142, 137, 142, 71, 44, 25, 20, 6, 13],
            "4": [338, 155, 80, 11, 4, 6, 6, 0, 0, 0, 0], "5": [260, 150, 84, 48, 29, 18, 7, 4],
            "6": [87, 110, 74, 59, 49, 48, 50, 34, 49, 40], "7": [371, 177, 43, 9, 0, 0],
        },
    },
    "multiband_latency": {
        "trace_hash": "dfe4f76ae2f6c07063ecbda3d3402467",
        "kb": {
            "0": {"attempts": 6, "available": 1676, "grants": 4, "sensed": 1685},
            "1": {"attempts": 37, "available": 1485, "grants": 31, "sensed": 1657},
            "2": {"attempts": 0, "available": 1639, "grants": 0, "sensed": 1639},
            "3": {"attempts": 28, "available": 1558, "grants": 19, "sensed": 1661},
            "4": {"attempts": 1, "available": 1688, "grants": 1, "sensed": 1693},
            "5": {"attempts": 13, "available": 1681, "grants": 13, "sensed": 1699},
            "6": {"attempts": 13, "available": 1582, "grants": 7, "sensed": 1657},
            "7": {"attempts": 17, "available": 1371, "grants": 7, "sensed": 1529},
        },
        "metrics": {
            "admitted": 730, "arrivals": 837, "blocked": 107, "completed": 697, "dropped": 28,
            "empirical_blocking": 0.12783751493428913,
            "empirical_noncompletion": 0.038356164383561646, "failed_handovers": 49, "grants": 82,
            "handovers": 9, "interference_steps": 4,
            "mode_histogram": {"Failure": 4, "Normal": 3714, "Warning": 115}, "negotiations": 115,
            "refusals": 33, "still_active": 5,
        },
        "band_histograms": {
            "0": [282, 125, 94, 61, 30, 8, 0, 0, 0], "1": [210, 171, 88, 49, 42, 30, 10],
            "2": [490, 99, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "3": [120, 120, 103, 89, 71, 58, 35, 4, 0],
            "4": [310, 148, 76, 32, 12, 10, 3, 5, 3, 1, 0], "5": [259, 186, 99, 33, 11, 9, 3, 0],
            "6": [102, 102, 134, 105, 45, 47, 34, 19, 9, 3], "7": [276, 176, 125, 19, 4, 0],
        },
    },
    "replan_exhaustion": {
        "trace_hash": "178183c0ca8229bef0b8853b2bd7d6d6",
        "kb": {
            "0": {"attempts": 67, "available": 1017, "grants": 35, "sensed": 1108},
            "1": {"attempts": 87, "available": 1115, "grants": 57, "sensed": 1175},
            "2": {"attempts": 77, "available": 1070, "grants": 40, "sensed": 1143},
            "3": {"attempts": 69, "available": 930, "grants": 34, "sensed": 1060},
        },
        "metrics": {
            "admitted": 395, "arrivals": 1067, "blocked": 672, "completed": 260, "dropped": 132,
            "empirical_blocking": 0.6298031865042174,
            "empirical_noncompletion": 0.3341772151898734, "failed_handovers": 132, "grants": 166,
            "handovers": 2, "interference_steps": 0,
            "mode_histogram": {"Failure": 0, "Normal": 2287, "Warning": 300}, "negotiations": 300,
            "refusals": 134, "still_active": 3,
        },
        "band_histograms": {
            "0": [152, 133, 134, 141, 79, 34, 34, 46, 47],
            "1": [177, 137, 128, 145, 113, 34, 30, 19, 17],
            "2": [152, 147, 151, 155, 80, 29, 26, 33, 27],
            "3": [125, 132, 123, 116, 73, 50, 56, 62, 63],
        },
    },
    "wide_warm_start": {
        "trace_hash": "106c3fdf0b15710a1b0f5230f6c96b86",
        "kb": {
            "0": {"attempts": 14, "available": 1704, "grants": 1, "sensed": 1952},
            "1": {"attempts": 0, "available": 1997, "grants": 0, "sensed": 1997},
            "2": {"attempts": 0, "available": 1995, "grants": 0, "sensed": 1995},
            "3": {"attempts": 0, "available": 1998, "grants": 0, "sensed": 1998},
            "4": {"attempts": 8, "available": 1862, "grants": 7, "sensed": 1980},
            "6": {"attempts": 7, "available": 1025, "grants": 3, "sensed": 1890},
            "7": {"attempts": 3, "available": 1989, "grants": 3, "sensed": 1989},
            "8": {"attempts": 9, "available": 1916, "grants": 8, "sensed": 1999},
            "9": {"attempts": 5, "available": 1928, "grants": 1, "sensed": 1972},
            "10": {"attempts": 0, "available": 1992, "grants": 0, "sensed": 1992},
            "12": {"attempts": 17, "available": 979, "grants": 7, "sensed": 1910},
            "13": {"attempts": 20, "available": 1399, "grants": 13, "sensed": 1935},
            "14": {"attempts": 0, "available": 1991, "grants": 0, "sensed": 1991},
            "15": {"attempts": 0, "available": 1990, "grants": 0, "sensed": 1990},
            "16": {"attempts": 0, "available": 1989, "grants": 0, "sensed": 1989},
            "18": {"attempts": 12, "available": 353, "grants": 4, "sensed": 1838},
            "19": {"attempts": 22, "available": 1120, "grants": 9, "sensed": 1905},
            "20": {"attempts": 3, "available": 1982, "grants": 2, "sensed": 1982},
            "21": {"attempts": 0, "available": 1989, "grants": 0, "sensed": 1989},
            "22": {"attempts": 0, "available": 1989, "grants": 0, "sensed": 1989},
            "24": {"attempts": 7, "available": 1972, "grants": 7, "sensed": 1972},
            "25": {"attempts": 9, "available": 1396, "grants": 0, "sensed": 1896},
            "26": {"attempts": 16, "available": 1695, "grants": 10, "sensed": 1944},
            "27": {"attempts": 14, "available": 1443, "grants": 7, "sensed": 1898},
            "28": {"attempts": 10, "available": 1958, "grants": 3, "sensed": 1958},
            "29": {"attempts": 5, "available": 2, "grants": 4, "sensed": 2},
            "30": {"attempts": 0, "available": 1979, "grants": 0, "sensed": 1979},
            "31": {"attempts": 0, "available": 1978, "grants": 0, "sensed": 1978},
            "32": {"attempts": 3, "available": 1974, "grants": 3, "sensed": 1974},
            "33": {"attempts": 6, "available": 1965, "grants": 6, "sensed": 1965},
            "34": {"attempts": 18, "available": 1855, "grants": 15, "sensed": 1939},
            "36": {"attempts": 7, "available": 1911, "grants": 2, "sensed": 1956},
            "37": {"attempts": 3, "available": 1785, "grants": 1, "sensed": 1965},
            "38": {"attempts": 18, "available": 1936, "grants": 7, "sensed": 1936},
            "39": {"attempts": 0, "available": 1971, "grants": 0, "sensed": 1971},
            "40": {"attempts": 0, "available": 1972, "grants": 0, "sensed": 1972},
            "42": {"attempts": 22, "available": 512, "grants": 22, "sensed": 1858},
        },
        "metrics": {
            "admitted": 347, "arrivals": 412, "blocked": 65, "completed": 239, "dropped": 76,
            "empirical_blocking": 0.15776699029126215,
            "empirical_noncompletion": 0.21902017291066284, "failed_handovers": 113, "grants": 137,
            "handovers": 41, "interference_steps": 10,
            "mode_histogram": {"Failure": 10, "Normal": 8613, "Warning": 246}, "negotiations": 244,
            "refusals": 107, "still_active": 32,
        },
        "band_histograms": {
            "0": [201, 50, 32, 9, 8, 0], "1": [115, 65, 44, 42, 20, 13, 1, 0, 0, 0, 0, 0, 0],
            "2": [78, 77, 77, 61, 6, 1, 0, 0, 0, 0, 0, 0], "3": [162, 74, 35, 17, 8, 4, 0, 0, 0, 0, 0],
            "4": [79, 57, 37, 42, 29, 23, 20, 9, 4, 0], "6": [16, 45, 38, 35, 6, 5, 30, 38, 87],
            "7": [201, 81, 11, 7, 0, 0, 0, 0], "8": [177, 92, 19, 8, 3, 1, 0], "9": [253, 34, 9, 4, 0, 0],
            "10": [206, 60, 18, 5, 1, 2, 8, 0, 0, 0, 0, 0, 0], "12": [21, 30, 26, 9, 1, 6, 9, 10, 41, 44, 51, 52],
            "13": [39, 10, 39, 39, 20, 30, 15, 28, 38, 29, 13], "14": [237, 56, 7, 0, 0, 0, 0, 0, 0, 0],
            "15": [219, 55, 9, 13, 4, 0, 0, 0, 0], "16": [207, 83, 10, 0, 0, 0, 0, 0],
            "18": [4, 1, 7, 35, 84, 71, 98], "19": [95, 36, 35, 64, 46, 24],
            "20": [24, 22, 30, 30, 41, 68, 54, 24, 7, 0, 0, 0, 0], "21": [272, 27, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "22": [237, 53, 9, 1, 0, 0, 0, 0, 0, 0, 0], "24": [44, 37, 67, 86, 50, 16, 0, 0, 0, 0],
            "25": [4, 30, 55, 67, 37, 26, 27, 25, 29], "26": [101, 53, 43, 48, 29, 6, 11, 9],
            "27": [75, 61, 59, 44, 22, 28, 11], "28": [264, 32, 4, 0, 0, 0],
            "30": [65, 90, 47, 39, 51, 8, 0, 0, 0, 0, 0, 0, 0], "31": [100, 91, 61, 46, 2, 0, 0, 0, 0, 0, 0, 0],
            "32": [101, 60, 53, 36, 10, 26, 14, 0, 0, 0, 0], "33": [141, 58, 27, 29, 31, 12, 2, 0, 0, 0],
            "34": [55, 58, 68, 61, 41, 17, 0, 0, 0], "36": [133, 55, 73, 27, 12, 0, 0, 0],
            "37": [150, 88, 24, 18, 18, 2, 0], "38": [241, 56, 3, 0, 0, 0],
            "39": [150, 89, 27, 11, 13, 8, 2, 0, 0, 0, 0, 0, 0], "40": [77, 75, 52, 43, 31, 15, 7, 0, 0, 0, 0, 0],
            "42": [0, 0, 3, 2, 4, 5, 21, 37, 72, 73, 83],
        },
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run(name):
    result = golden_run(name)
    golden = GOLDEN[name]
    assert result.trace_hash == golden["trace_hash"]
    assert result.kb.to_json_dict() == golden["kb"]
    assert result.metrics.to_dict() == golden["metrics"]
    assert {str(b): h for b, h in result.band_histograms.items()} == golden["band_histograms"]


def test_grant_after_scan_counts_the_scan_before_the_grant():
    result = run(grant_after_scan())
    assert result.metrics.grants == 1
    # band 0: session 0 senses it in steps 0-5, session 1 scans it at step 5
    assert result.kb.to_json_dict()["0"] == {"attempts": 0, "grants": 0, "sensed": 7, "available": 7}
    # band 1: session 0 scans it at steps 0 and 5 (2 free < 3 both times),
    # session 1 senses it before its grant (2 free >= 2)
    assert result.kb.to_json_dict()["1"] == {"attempts": 1, "grants": 1, "sensed": 3, "available": 1}


def settle_table() -> Scenario:
    """Every step a scan step, grants with no latency, a probe and a band wider than any demand.

    Scans are settled from a table of this step's scans by demand: band 2
    (16 free at its emptiest) has more free channels than the top demand,
    band 3 at times none (only the probe's scans fit), and grants on bands
    0, 1 and 5 free channels in the middle of a step, so the scans counted
    before a grant are settled against the band as they saw it, before the
    grant, and the rest at the end of the step.
    """
    return Scenario(
        name="settle-table",
        bands=(
            BandDecl(0, 8, 0.30, 0.30, 5),
            BandDecl(1, 6, 0.25, 0.25, 2),
            BandDecl(2, 16, 0.05, 0.40, 0),
            BandDecl(3, 4, 0.30, 0.30, 4, DispositionDecl(NONCOOP, 0.2, 0.2)),
            BandDecl(5, 5, 0.20, 0.20, 1, DispositionDecl(COOP, 0.1, 0.3)),
        ),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.05, every=2),
            SessionDecl(T.SERIOUS_BROWSING, 0.08, every=3, start=1),
            SessionDecl(T.VOICE, 0.10, every=2),
            SessionDecl(T.CASUAL_BROWSING, 0.3, every=4, demand=0),
            SessionDecl(T.EMAIL, 0.02, arrival=3),
        ),
        horizon=400,
        seed=13,
        negotiation=NegotiationParams(grant_request=2, latency=0),
        handover=HandoverParams(latency=1, max_replans=2, scan_interval=1),
    )


def test_scans_settled_around_grants_keep_the_knowledge_base():
    # recorded with an engine that settled each band's scans demand by demand
    result = run(settle_table())
    assert result.metrics.grants == 101
    assert result.trace_hash == "6ee22ca7037c3d4f8039b3f502594bc3"
    assert result.kb.to_json_dict() == {
        "0": {"attempts": 7, "grants": 7, "sensed": 1912, "available": 1904},
        "1": {"attempts": 32, "grants": 32, "sensed": 1912, "available": 1903},
        "2": {"attempts": 0, "grants": 0, "sensed": 1912, "available": 1912},
        "3": {"attempts": 26, "grants": 16, "sensed": 1912, "available": 1182},
        "5": {"attempts": 67, "grants": 46, "sensed": 1912, "available": 1721},
    }


@pytest.mark.parametrize("scenario", [replan_exhaustion, multiband_latency])
def test_every_live_session_sits_in_the_place_of_its_band(scenario):
    engine = Engine(scenario())
    landed = False
    for _ in range(engine.scenario.horizon):
        engine.step()
        for session in engine.live:
            position, modes = session.place
            band = engine.bands[position]
            assert band.band_id == session.band_id
            assert modes == mode_table(band.capacity, session.demand)
            if band.su is not session:  # it has left the band to hand over
                assert session.status is not SessionStatus.ACTIVE
        # the vacant-band index holds exactly the bands with no resident session
        assert sorted(engine._vacant) == [b.band_id for b in engine.bands if b.su is None]
        assert all(engine._vacant[b.band_id] is b for b in engine.bands if b.su is None)
        landed = landed or engine.metrics.handovers > 0
    assert landed


def running_sessions(engine: Engine) -> int:
    """Check the run state of every live session after a step; the number of running sessions.

    A session runs (its ``since`` is set) exactly when it is active and its
    mode row at its band's occupancy says Normal; a running session is
    resident on its band.
    """
    running = 0
    for session in engine.live:
        position, modes = session.place
        band = engine.bands[position]
        transmits = session.status is SessionStatus.ACTIVE and modes[band.pu_used] is Mode.NORMAL
        assert (session.since is not None) == transmits
        if transmits:
            assert band.su is session
            running += 1
    return running


@pytest.mark.parametrize("scenario", [replan_exhaustion, multiband_latency])
def test_a_session_runs_exactly_while_its_mode_row_says_transmit(scenario):
    engine = Engine(scenario())
    running = 0
    for _ in range(engine.scenario.horizon):
        engine.step()
        running += running_sessions(engine)
    assert running > 0


def test_a_session_of_the_resident_family_runs_exactly_while_its_mode_row_says_transmit():
    running = 0
    for index in range(50):
        scenario, kb = differential.resident_scenario(2, index)
        engine = Engine(scenario, kb=None if kb is None else KnowledgeBase.from_json_dict(kb))
        for _ in range(scenario.horizon):
            engine.step()
            running += running_sessions(engine)
    assert running > 0


def one_band(band: BandDecl, completion: float, horizon: int, seed: int, arrival: int = 0) -> Scenario:
    """One VideoConferencing session (demand 4) arriving at ``arrival``, zero latencies, a scan every third step."""
    return Scenario(
        bands=(band,),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, completion, arrival=arrival),),
        horizon=horizon,
        seed=seed,
        negotiation=NegotiationParams(latency=0),
        handover=HandoverParams(latency=0, scan_interval=3),
    )


# (seed, arrival, completion step), with ids seed-completion step: completes
# on a scan step, on a step without one, and in the step its run starts, on
# a scan step and off one
SETTLE_CASES = [(3, 0, 6), (4, 0, 7), (5, 3, 3), (6, 4, 4)]


@pytest.mark.parametrize("seed, arrival, done", SETTLE_CASES, ids=[f"{seed}-{done}" for seed, _, done in SETTLE_CASES])
def test_a_running_session_that_completes_settles_every_step_it_sensed(seed, arrival, done):
    # a static band the session fills with slack: it runs from its arrival
    # until it completes, one own-band sense a step (a scan's record on
    # multiples of 3), and no sense after it leaves
    engine = run(one_band(BandDecl(0, 8, 0.0, 0.0, 0), 0.2, 12, seed, arrival), keep_trace=True)
    assert [(t, kind) for t, kind, *_ in engine.trace.records] == [
        (arrival, EventKind.ADMIT),
        (done, EventKind.COMPLETED),
    ]
    steps = done - arrival + 1
    assert engine.kb.to_json_dict() == {"0": {"attempts": 0, "grants": 0, "sensed": steps, "available": steps}}
    assert engine.metrics.mode_histogram == {"Normal": steps, "Warning": 0, "Failure": 0}


def test_a_run_ended_by_a_rise_settles_the_steps_before_it():
    # occupancy 3 of 8 and births only: the session runs from step 0 over the
    # scan step 3 until the rise of step 4 leaves it in Warning mode; that turn
    # senses once more (4 channels free fit its demand), is refused and drops
    engine = run(one_band(BandDecl(0, 8, 0.3, 0.0, 3, DispositionDecl(NONCOOP)), 0.001, 12, 8), keep_trace=True)
    assert [(t, kind) for t, kind, *_ in engine.trace.records] == [
        (0, EventKind.ADMIT),
        (4, EventKind.NEGOTIATION_REFUSED),
        (4, EventKind.HANDOVER_STARTED),
        (4, EventKind.DROPPED),
    ]
    assert engine.kb.to_json_dict() == {"0": {"attempts": 1, "grants": 0, "sensed": 5, "available": 5}}
    assert engine.metrics.mode_histogram == {"Normal": 4, "Warning": 1, "Failure": 0}


def test_a_grant_moves_its_band_histogram_count_and_is_not_a_normal_turn():
    # occupancy 4 of 8, demand 4: Warning at step 0, and the one-channel
    # grant leaves the static band at 3, where the session runs to the horizon
    engine = run(one_band(BandDecl(0, 8, 0.0, 0.0, 4), 0.01, 6, 1), keep_trace=True)
    assert [(t, kind, c) for t, kind, _, _, c in engine.trace.records] == [
        (0, EventKind.ADMIT, 4),
        (0, EventKind.NEGOTIATION_GRANTED, 1),
    ]
    assert engine.band_histograms == {0: [0, 0, 0, 6, 0, 0, 0, 0, 0]}
    assert engine.metrics.mode_histogram == {"Normal": 5, "Warning": 1, "Failure": 0}
    assert engine.kb.to_json_dict() == {"0": {"attempts": 1, "grants": 1, "sensed": 6, "available": 6}}


def test_a_caller_held_knowledge_base_is_current_after_every_step():
    # the completing run of seed 3 (step 6) on a warm-started band 0: each
    # step() returns with that step's own-band sense written
    kb = KnowledgeBase.from_json_dict({"0": {"attempts": 2, "grants": 1, "sensed": 10, "available": 7}})
    engine = Engine(one_band(BandDecl(0, 8, 0.0, 0.0, 0), 0.2, 12, 3), kb=kb)
    seen = []
    for _ in range(12):
        engine.step()
        seen.append((kb.counters(0).sensed, kb.counters(0).available))
    assert seen == [(11 + min(t, 6), 8 + min(t, 6)) for t in range(12)]


def test_a_grant_that_leaves_the_band_past_normal_senses_again_on_the_next_step():
    # demand 4 on an 8-channel cooperative band whose occupancy only rises:
    # admitted at occupancy 4 (Warning), the session waits out a latency of 2
    # while the band rises to 5, and the one-channel grant leaves it at 4,
    # still Warning; the band does not rise in step 3, where the session
    # must sense Warning mode again and negotiate once more
    scenario = Scenario(
        bands=(BandDecl(0, 8, 0.5, 0.0, 3),),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, 0.01, arrival=0),),
        horizon=4,
        seed=18,
        negotiation=NegotiationParams(grant_request=1, latency=2),
        handover=HandoverParams(latency=0),
    )
    engine = Engine(scenario, keep_trace=True)
    occupancy = []
    for _ in range(scenario.horizon):
        engine.step()
        occupancy.append(engine.bands[0].pu_used)
    assert occupancy == [4, 5, 4, 4]
    assert [(t, kind, c) for t, kind, _, _, c in engine.trace.records] == [
        (0, EventKind.ADMIT, 4),
        (0, EventKind.NEGOTIATION_STARTED, 2),
        (2, EventKind.NEGOTIATION_GRANTED, 1),
        (3, EventKind.NEGOTIATION_STARTED, 2),
    ]
    assert engine.metrics.mode_histogram == {"Normal": 0, "Warning": 2, "Failure": 0}


def test_arrivals_are_admitted_in_priority_order_singles_first_on_ties():
    # patterns declared lowest priority first, each tagged by its demand, and a
    # single arrival (ECommerce, priority 12 as Voice) on a pattern step
    scenario = Scenario(
        bands=(BandDecl(0, 8, 0.0, 0.0, 0), BandDecl(1, 8, 0.0, 0.0, 0)),
        sessions=(
            SessionDecl(T.EMAIL, 1.0, every=1, demand=1),  # priority 10
            SessionDecl(T.VOICE, 1.0, every=1, demand=2),  # 12
            SessionDecl(T.SERIOUS_BROWSING, 1.0, every=1, demand=3),  # 13
            SessionDecl(T.VIDEO_CONFERENCING, 1.0, every=1, demand=4),  # 15
            SessionDecl(T.ECOMMERCE, 1.0, arrival=2, demand=5),  # 12
        ),
        horizon=4,
        seed=1,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0),
    )
    engine = Engine(scenario, keep_trace=True).run()
    demands = {t: [] for t in range(scenario.horizon)}
    for t, kind, _, _, demand in engine.trace.records:
        if kind in (EventKind.ADMIT, EventKind.BLOCK):
            demands[t].append(demand)
    assert demands == {0: [4, 3, 2, 1], 1: [4, 3, 2, 1], 2: [4, 3, 5, 2, 1], 3: [4, 3, 2, 1]}
    assert engine.metrics.blocked > 0  # both kinds of event are in the order


# ECommerce and Voice share priority 12, SeriousBrowsing and Telnet 13
tied_traffic = st.sampled_from([T.ECOMMERCE, T.VOICE, T.SERIOUS_BROWSING, T.TELNET, T.VIDEO_CONFERENCING])
single_decl = st.builds(lambda traffic, at: ("single", traffic, at), tied_traffic, st.integers(0, 30))
pattern_decl = st.builds(
    lambda traffic, start, every, until: ("pattern", traffic, start, every, until),
    tied_traffic,
    st.integers(0, 8),
    st.integers(1, 6),
    st.none() | st.integers(1, 30),
)


@settings(max_examples=60, deadline=None)
@given(
    decls=st.lists(single_decl | pattern_decl, min_size=1, max_size=7),
    horizon=st.integers(1, 24),
    cut=st.integers(0, 24),
)
def test_the_arrival_schedule_admits_as_the_per_step_rule(decls, horizon, cut):
    # declaration i demands i + 1 channels, so the demand of an event names its declaration
    sessions = tuple(
        SessionDecl(d[1], 0.5, arrival=d[2], demand=i + 1)
        if d[0] == "single"
        else SessionDecl(d[1], 0.5, every=d[3], start=d[2], until=d[4], demand=i + 1)
        for i, d in enumerate(decls)
    )
    scenario = Scenario(
        bands=(
            BandDecl(0, 8, 0.2, 0.2, 2, DispositionDecl(COOP, 0.1, 0.1)),
            BandDecl(3, 8, 0.3, 0.1, 5, DispositionDecl(NONCOOP, 0.2, 0.1)),
        ),
        sessions=sessions,
        horizon=horizon,
        seed=9,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=1, scan_interval=3),
    )

    def due(decl, t):  # the per-step rule that the schedule must reproduce
        if decl.arrival is not None:
            return t == decl.arrival
        stop = horizon if decl.until is None else min(decl.until, horizon)
        return decl.start <= t < stop and (t - decl.start) % decl.every == 0

    expected = {}
    for t in range(horizon):
        singles = [d for d in sessions if d.arrival is not None and due(d, t)]
        patterns = [d for d in sessions if d.arrival is None and due(d, t)]
        expected[t] = [d.demand for d in su_fsm.order_arrivals(singles + patterns)]

    stepped = Engine(scenario, keep_trace=True)
    for _ in range(horizon):
        stepped.step()
    got = {t: [] for t in range(horizon)}
    for t, kind, _, _, demand in stepped.trace.records:
        if kind in (EventKind.ADMIT, EventKind.BLOCK):
            got[t].append(demand)
    assert got == expected

    # one step at a time, one run, and a few steps then a run give one result
    resumed = Engine(scenario, keep_trace=True)
    for _ in range(min(cut, horizon)):
        resumed.step()
    for engine in (run(scenario), resumed.run()):
        assert engine.trace_hash == stepped.trace_hash
        assert engine.kb.to_json_dict() == stepped.kb.to_json_dict()
        assert engine.band_histograms == stepped.band_histograms


def fast_wide() -> Scenario:
    """24 bands holding long sessions, few of them vacant, as in the wide64
    benchmark; occupancy rises fast enough that sessions in Failure leave
    their bands while other sessions hand over in the same step."""
    bands = tuple(
        BandDecl(i, 6 + (i * 5) % 11, round(0.2 + 0.02 * (i % 7), 2), round(0.1 + 0.05 * (i % 5), 2), i % 4,
                 DispositionDecl(COOP if i % 2 else NONCOOP, round(0.01 * (i % 10), 2), round(0.01 * (i % 9), 2)))
        for i in range(24)
    )
    sessions = tuple(
        SessionDecl(traffic, 0.02, every=every)
        for traffic, every in ((T.VIDEO_CONFERENCING, 3), (T.VOICE, 2), (T.FILE_TRANSFERS, 5), (T.SERIOUS_BROWSING, 4))
    )
    return Scenario(
        bands=bands, sessions=sessions, horizon=300, seed=5,
        negotiation=NegotiationParams(1, 1), handover=HandoverParams(latency=2, max_replans=3, scan_interval=10),
    )


def churning() -> Scenario:
    """Fast-churning bands and four patterns arriving together, as in the churn
    benchmark, with twelve bands and no negotiation latency: a refused session
    leaves its band in the step it sensed it, for later sessions to rank."""
    bands = tuple(
        BandDecl(i, 8, round(0.35 + 0.02 * i, 2), round(0.45 - 0.02 * i, 2), i % 9,
                 DispositionDecl(NONCOOP if i % 2 == 0 else COOP, 0.3, 0.3))
        for i in range(12)
    )
    sessions = tuple(
        SessionDecl(traffic, 0.1, every=2)
        for traffic in (T.VIDEO_CONFERENCING, T.VOICE, T.FILE_TRANSFERS, T.SERIOUS_BROWSING)
    )
    return Scenario(
        bands=bands, sessions=sessions, horizon=400, seed=3,
        negotiation=NegotiationParams(1, 0), handover=HandoverParams(latency=2, max_replans=2, scan_interval=10),
    )


def score_reads(scenario: Scenario, kb: KnowledgeBase | None = None) -> int:
    """Step an engine to the horizon, checking that every ``kb.score`` call sees
    the scored band's counters as they stood at the step's start; the number of calls."""
    engine = Engine(scenario, kb=kb)
    kb = engine.kb
    score = kb.score
    start: dict[str, dict[str, int]] = {}
    reads = 0

    def checked(band_id: int) -> float:
        nonlocal reads
        reads += 1
        assert dataclasses.asdict(kb.counters(band_id)) == start.get(str(band_id), dataclasses.asdict(BandRecord()))
        return score(band_id)

    kb.score = checked
    for _ in range(scenario.horizon):
        start = kb.to_json_dict()
        engine.step()
    return reads


@pytest.mark.parametrize("scenario", [fast_wide, churning])
def test_every_score_read_sees_the_counters_of_the_step_start(scenario):
    assert score_reads(scenario()) > 0


def test_every_score_read_of_the_differential_family_sees_the_counters_of_the_step_start():
    # the vacant_tier1 set: its refused sessions leave their bands in the step
    # they sensed them, for a later handover of that step to rank
    reads = 0
    for index in range(50):
        scenario, kb = differential.vacant_scenario(3, index)
        reads += score_reads(scenario, None if kb is None else KnowledgeBase.from_json_dict(kb))
    assert reads > 0


def test_a_band_left_earlier_in_the_step_is_ranked_by_the_counters_of_the_step_start():
    # Static bands; both sessions arrive at step 1, which has no scan.  Session
    # 0 (demand 4) is admitted to band 2, the only one it fits, and session 1
    # (demand 2) to band 0, which outscores band 1.  Both meet a
    # non-cooperative licensed user in Warning mode: session 0 is refused,
    # leaves band 2 with its sense buffered and finds no target; then session
    # 1 is refused and ranks band 2 against band 1, which tie at the step's
    # start, so the lower id wins
    scenario = Scenario(
        bands=(
            BandDecl(0, 4, 0.0, 0.0, 2, DispositionDecl(NONCOOP)),
            BandDecl(1, 8, 0.0, 0.0, 5),
            BandDecl(2, 8, 0.0, 0.0, 4, DispositionDecl(NONCOOP)),
        ),
        sessions=(SessionDecl(T.EMAIL, 0.5, arrival=1, demand=4), SessionDecl(T.EMAIL, 0.5, arrival=1, demand=2)),
        horizon=2,
        seed=1,
        negotiation=NegotiationParams(grant_request=1, latency=0),
        handover=HandoverParams(latency=0, max_replans=1, scan_interval=50),
    )
    tied = {"attempts": 2, "grants": 1, "sensed": 4, "available": 2}
    warm = {"0": {"attempts": 2, "grants": 2, "sensed": 4, "available": 4}, "1": tied, "2": tied}
    kb = KnowledgeBase.from_json_dict(warm)
    # session 0's Warning sense of band 2, written at once, would break the tie for band 2
    ahead = KnowledgeBase.from_json_dict(warm)
    ahead.record_sense(2, 1, 1)
    assert kb.score(1) == kb.score(2) and ahead.score(2) > ahead.score(1)
    engine = Engine(scenario, kb=kb, keep_trace=True).run()
    admits = [(a, b) for _, kind, a, b, _ in engine.trace.records if kind == EventKind.ADMIT]
    assert admits == [(0, 2), (1, 0)]
    started = [(t, a, b, c) for t, kind, a, b, c in engine.trace.records if kind == EventKind.HANDOVER_STARTED]
    assert started == [(1, 0, 2, -1), (1, 1, 0, 1)]


def test_replan_exhaustion_scenario_exhausts_replans():
    engine = Engine(replan_exhaustion(), keep_trace=True)
    engine.run()
    reasons = [c for _, kind, _, _, c in engine.trace.records if kind == EventKind.DROPPED]
    assert DROP_REPLANS_EXHAUSTED in reasons
    assert any(kind == EventKind.HANDOVER_REPLANNED for _, kind, *_ in engine.trace.records)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_runs_are_deterministic_per_seed(name):
    scenario = SCENARIOS[name]()
    a, b = run(scenario), run(scenario)
    assert a.trace_hash == b.trace_hash
    assert a.kb.to_json_dict() == b.kb.to_json_dict()
    assert a.band_histograms == b.band_histograms


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conservation_holds(name):
    m = run(SCENARIOS[name]()).metrics
    assert m.admitted + m.blocked == m.arrivals
    assert m.completed + m.dropped + m.still_active == m.admitted
    assert m.grants + m.refusals == m.negotiations


@pytest.mark.parametrize(
    "counter, message",
    [
        ("blocked", r"admitted \+ blocked != arrivals"),
        ("completed", r"completed \+ dropped \+ active != admitted"),
        ("grants", r"grants \+ refusals != negotiations"),
    ],
)
def test_a_broken_count_fails_the_next_step(counter, message):
    engine = Engine(multiband_latency())
    for _ in range(50):
        engine.step()
    setattr(engine.metrics, counter, getattr(engine.metrics, counter) + 1)
    with pytest.raises(EngineError, match=message):
        engine.step()


def test_a_run_returns_the_engine_that_ran_it():
    scenario = multiband_latency()
    engine = Engine(scenario, collect_timeseries=True)
    assert engine.run() is engine and engine.step_index == scenario.horizon
    other = run(scenario)
    assert isinstance(other, Engine) and other.trace_hash == engine.trace_hash == engine.trace.hash_hex()
    histograms = engine.band_histograms
    assert list(histograms) == sorted(b.band_id for b in scenario.bands)
    for row in histograms.values():
        row[0] += 1  # each reading is the caller's own copy
    assert all(sum(row) == scenario.horizon for row in engine.band_histograms.values())
    assert len(engine.timeseries_header()) == len(engine.timeseries[0])


def test_a_session_filling_a_band_with_an_idle_licensed_user_transmits(caplog):
    # demand 4 on a static, idle, cooperative 4-channel band: the session
    # fills the band with nothing to negotiate for, so it transmits
    scenario = Scenario(
        bands=(BandDecl(0, 4, 0.0, 0.0, 0),),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, 0.5, every=1),),
        horizon=100,
        seed=1,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0),
    )
    with caplog.at_level("WARNING"):
        m = run(scenario).metrics
    assert m.negotiations == m.dropped == 0
    assert m.completed == 55 and m.completed + m.still_active == m.admitted
    assert m.mode_histogram["Warning"] == m.mode_histogram["Failure"] == 0
    assert not any("idle PU" in message for message in caplog.messages)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2(b): a negotiation resolved after its latency does not classify the mode again",
)
def test_a_negotiation_resolved_after_its_wait_never_meets_an_idle_licensed_user(caplog):
    # band 7 (capacity 5) holds a demand-4 session that negotiates at
    # occupancy 1; during the wait the licensed user falls to 0 channels
    scenario = multiband_latency()
    completions = (0.08, 0.15, 0.10, 0.12)
    sessions = [dataclasses.replace(decl, completion=c) for decl, c in zip(scenario.sessions, completions)]
    with caplog.at_level("WARNING", logger="crsim.negotiation"):
        run(dataclasses.replace(scenario, sessions=(*sessions, *scenario.sessions[4:])))
    assert not any("idle PU" in message for message in caplog.messages)


@pytest.mark.parametrize("steps", [None, 5], ids=["run", "stepped"])
@pytest.mark.parametrize("make", [canonical_short, multiband_latency, wide_mixed])
def test_an_engine_is_freed_by_reference_counting_alone(make, steps):
    # nothing an engine holds refers back to it, so dropping the last
    # reference frees it without the cyclic garbage collector
    scenario = make()
    if make is wide_mixed:  # an engine that steps its chains with step_chains_wide
        assert len(scenario.bands) >= WIDE_BANDS
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = Engine(scenario, keep_trace=True, collect_timeseries=True)
        if steps is None:
            engine.run()
        else:
            for _ in range(steps):
                engine.step()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_compare_skips_the_row_of_a_figure_the_run_leaves_undefined():
    # one arrival onto a full band that frees at most one channel per step:
    # blocking is 1/1, but no session was admitted, so the simulated
    # non-completion is undefined
    scenario = Scenario(
        bands=(BandDecl(0, 8, 0.0, 0.2, 8, DispositionDecl(PuState.COOPERATIVE, 0.3, 0.3)),),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, 0.05, arrival=0),),
        horizon=5,
        seed=1,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0),
    )
    report = compare(scenario)
    assert [(r.metric, r.simulated) for r in report.rows] == [("blocking", 1.0)]
    assert report.notes == ("non-completion row skipped: no session admitted within the horizon",)


def test_a_two_band_compare_table_ends_in_the_note_of_its_missing_row():
    scenario = Scenario(
        bands=(
            BandDecl(0, 8, 0.2, 0.2, 2, DispositionDecl(COOP, 0.3, 0.3)),
            BandDecl(1, 6, 0.1, 0.3, 2, DispositionDecl(NONCOOP, 0.3, 0.3)),
        ),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, 0.1, every=2),),
        horizon=200,
        seed=7,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0),
    )
    report = compare(scenario)
    assert report.row("blocking") is report.rows[0]
    with pytest.raises(KeyError):
        report.row("non-completion")
    header, blocking, note = report.format_table().splitlines()
    assert header.split() == ["metric", "analytic", "simulated", "|diff|"]
    assert blocking.split()[0] == "blocking"
    assert note == "note: non-completion row skipped: analytic model covers a single band with no alternative"


def test_engine_set_up_classifies_once_per_band_width_and_demand(monkeypatch):
    # a mode row is three runs, so building one costs a single classify_mode
    # call whatever the band's width, not one per occupancy
    calls = []
    classify = su_fsm.classify_mode

    def counting(pu_used, demand, capacity):
        calls.append((capacity, demand))
        return classify(pu_used, demand, capacity)

    monkeypatch.setattr(su_fsm, "classify_mode", counting)
    scenario = Scenario(
        bands=(
            BandDecl(0, MAX_CAPACITY, 0.2, 0.2, 0, DispositionDecl(COOP, 0.1, 0.1)),
            BandDecl(1, 8, 0.2, 0.2, 0, DispositionDecl(COOP, 0.1, 0.1)),
            BandDecl(2, 8, 0.3, 0.1, 4, DispositionDecl(NONCOOP, 0.1, 0.1)),
        ),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.1, every=1),
            SessionDecl(T.EMAIL, 0.1, every=2, demand=1),
        ),
        horizon=10,
        seed=1,
    )
    engine = Engine(scenario)
    assert sorted(calls) == [(8, 1), (8, 4), (MAX_CAPACITY, 1), (MAX_CAPACITY, 4)]
    _, modes = engine._places[0][4]
    assert modes == mode_table(MAX_CAPACITY, 4)
    assert modes[MAX_CAPACITY - 5 : MAX_CAPACITY - 2] == (Mode.NORMAL, Mode.WARNING, Mode.FAILURE)


def test_analytic_figures_refuse_two_completion_probabilities():
    scenario = dataclasses.replace(
        canonical_preset(),
        sessions=(
            SessionDecl(T.VIDEO_CONFERENCING, 0.05, every=1),
            SessionDecl(T.VIDEO_CONFERENCING, 0.10, every=2),
        ),
    )
    with pytest.raises(ComparisonError, match="single completion probability"):
        analytic_figures(scenario)


EXTREME = (0.0, 5e-324, 1e-310, 0.1, 0.9, 1.0)


@pytest.mark.parametrize("capacity", [2, 8])
@pytest.mark.parametrize("c", [5e-324, 0.05, 1.0])
@pytest.mark.parametrize("p, q", [(p, q) for p in EXTREME for q in EXTREME if p + q <= 1.0])
def test_analytic_figures_are_json_numbers_or_a_chain_error(p, q, c, capacity):
    """A legal chain once gave NaN figures: p / q overflowing to infinity (p 0.9,
    q 5e-324) made the stationary law NaN, and a subnormal p, q and c left a
    negative pivot that the singularity check missed."""
    scenario = Scenario.from_dict(
        {
            "horizon": 1,
            "seed": 0,
            "bands": [{"id": 0, "capacity": capacity, "p": p, "q": q}],
            "sessions": [{"traffic": "Voice", "c": c, "every": 1}],
        }
    )
    try:
        figures = analytic_figures(scenario)
    except ChainError:
        return
    json.dumps(figures, allow_nan=False)


def test_stepping_past_the_horizon_raises():
    engine = Engine(dataclasses.replace(canonical_preset(), horizon=3))
    engine.run()
    assert engine.step_index == 3
    with pytest.raises(EngineError, match="past the scenario horizon"):
        engine.step()
    assert engine.step_index == 3


def test_ndjson_lines_need_a_kept_trace():
    result = run(dataclasses.replace(canonical_preset(), horizon=3))
    with pytest.raises(EngineError, match="keep_trace=True"):
        list(result.trace.ndjson_lines())


event_records = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 255),
        *[st.integers(-(2**63), 2**63 - 1)] * 3,
    ),
    max_size=20,
)


@given(records=event_records, seed=st.integers(-(2**63), 2**63 - 1))
def test_a_packed_write_and_an_add_hash_the_same_bytes(records, seed):
    scenario_hash = canonical_preset().sha256()
    hashes = set()
    for keep in (False, True):
        added, written = EventTrace(scenario_hash, seed, keep), EventTrace(scenario_hash, seed, keep)
        for record in records:
            added.add(*record)
            written.write(_EVENT_PACK(*record))
        hashes |= {added.hash_hex(), written.hash_hex()}
        assert added.records == written.records == (records if keep else [])
    assert len(hashes) == 1


def test_a_misspelled_metrics_counter_cannot_be_assigned():
    # a slotted Metrics has no room for a counter it does not declare
    m = Metrics()
    with pytest.raises(AttributeError):
        m.admited = 1
    m.admitted += 1
    assert m.to_dict()["admitted"] == 1 and not hasattr(m, "admited")


def test_both_chain_passes_read_a_disposition_state_set_between_steps(monkeypatch):
    # a caller may set a band's disposition state between steps (the engine's
    # contract), and the Python pass and the numpy pass then run alike
    assert len(wide_mixed().bands) >= WIDE_BANDS
    outcomes = []
    for wide in (1 << 30, WIDE_BANDS):
        monkeypatch.setattr(simcore, "WIDE_BANDS", wide)
        engine = Engine(wide_mixed())
        for t in range(200):
            if t == 3:
                for band in engine.bands:
                    disposition = band.disposition
                    disposition.state = NONCOOP if disposition.state is COOP else COOP
            engine.step()
        outcomes.append((engine.trace_hash, engine.kb.to_json_dict(), engine.band_histograms))
    assert outcomes[0] == outcomes[1]


def test_neither_chain_pass_sees_alpha_or_beta_set_after_construction(monkeypatch):
    # a disposition's alpha and beta are read once, when the engine is built:
    # set afterwards, they change the run on neither pass
    outcomes = []
    for wide, mutate in ((1 << 30, False), (1 << 30, True), (1, True)):
        monkeypatch.setattr(simcore, "WIDE_BANDS", wide)
        engine = Engine(wide_mixed())
        if mutate:
            for band in engine.bands:
                band.disposition.alpha = band.disposition.beta = 0.9
        for _ in range(100):
            engine.step()
        outcomes.append((engine.trace_hash, engine.kb.to_json_dict(), engine.band_histograms))
    assert outcomes[1] == outcomes[2] == outcomes[0]


def stream_stub(serve):
    """A ``RandomStream`` that serves ``serve`` of each array of real uniforms, from ``take`` and ``block`` alike."""

    class Stub(RandomStream):
        def take(self, n: int) -> list[float]:
            return serve(np.array(super().take(n))).tolist()

        def block(self, n: int) -> np.ndarray:
            return serve(super().block(n))

    return Stub


@pytest.mark.parametrize("name", ["canonical_short", "wide_warm_start"])
def test_a_stream_stub_goes_in_by_patching_the_class_before_construction(monkeypatch, name):
    # an engine holds its stream only through the draw functions it binds, so
    # a stub replaces simcore.RandomStream before the engine is built; the
    # canonical run steps its chains on the Python pass, the wide one on numpy's
    monkeypatch.setattr(simcore, "RandomStream", stream_stub(lambda u: u))
    result = golden_run(name)
    assert not hasattr(result, "stream")
    assert result.trace_hash == GOLDEN[name]["trace_hash"]
    monkeypatch.setattr(simcore, "RandomStream", stream_stub(lambda u: 1 - u))
    assert golden_run(name).trace_hash != GOLDEN[name]["trace_hash"]


chain_params = st.tuples(
    st.integers(1, 8),
    st.sampled_from([0.0, 0.1, 0.25, 0.5]),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.integers(0, 8),
    st.booleans(),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)


@given(params=st.lists(chain_params, min_size=1, max_size=6), steps=st.integers(1, 5), data=st.data())
def test_step_chains_matches_step_band_and_step_disposition_draw_for_draw(params, steps, data):
    # both chain passes move occupancy as spectrum_env.step_band does and
    # dispositions as negotiation.step_disposition does
    def build():
        return [
            SpectrumBand(i, OccupancyChain(c, p, q), min(used, c), PuDisposition(COOP if coop else NONCOOP, a, b))
            for i, (c, p, q, used, coop, a, b) in enumerate(params)
        ]

    # draws at birth, birth + death, alpha and beta exactly, and at the ends of [0, 1)
    edges = {v for _, p, q, _, _, alpha, beta in params for v in (p, p + q, alpha, beta)}
    boundaries = sorted(edges | {0.0, 0.999})
    n = len(params)
    draws = data.draw(
        st.lists(st.sampled_from(boundaries) | st.floats(0.0, 0.999), min_size=2 * n * steps, max_size=2 * n * steps)
    )
    single = build()
    counted = [[0] * (b.capacity + 1) for b in single]
    # the step each band's occupancy last moved in, 0 before its first move
    moved = [0] * n
    # the Python pass and the numpy pass on the same drawn rows, each moving its own bands
    passes = []
    for stepper, chains in ((step_chains, lambda rows: rows), (step_chains_wide, wide_chains)):
        bands = build()
        hists = [[0] * (b.capacity + 1) for b in bands]
        passes.append((stepper, chains(chain_rows(bands, hists)), bands, hists, [0] * n))
    # the numpy pass's threshold row is constant: a write to it raises
    thresholds, _ = passes[1][1]
    with pytest.raises(ValueError, match="read-only"):
        thresholds[0] = 0.0
    for k in range(steps):
        block = draws[2 * n * k:2 * n * (k + 1)]
        before = [b.pu_used for b in single]
        # every band's occupancy, then every disposition, one draw each
        occupancy, willingness = Draws(block[:n]), Draws(block[n:])
        for band in single:
            step_band(band, occupancy)
        for band in single:
            step_disposition(band.disposition, willingness)
        for i, (band, row) in enumerate(zip(single, counted)):
            row[band.pu_used] += 1
            if band.pu_used != before[i]:
                moved[i] = k
        for stepper, chains, bands, hists, since in passes:
            # step_chains leaves draws past the first 2n unread; step_chains_wide reads exactly 2n
            risen = stepper(chains, block + [0.0] if stepper is step_chains else np.array(block), k, since)
            assert [b.pu_used for b in bands] == [b.pu_used for b in single]
            assert [b.disposition.state for b in bands] == [b.disposition.state for b in single]
            # the bands reported are exactly those whose occupancy rose, in order
            assert [id(b) for b in risen] == [id(bands[i]) for i, b in enumerate(single) if b.pu_used > before[i]]
            # with the steps each band has held its occupancy since it last
            # moved, its histogram has counted every occupancy once a step
            through = [row.copy() for row in hists]
            for band, row, start in zip(bands, through, since):
                row[band.pu_used] += k + 1 - start
            assert through == counted
            # a band holds its occupancy since the step it last moved in, so
            # one whose occupancy has not moved keeps since at 0 and has
            # stored nothing in its histogram
            assert since == moved
            assert not any(any(row) for row, start in zip(hists, since) if start == 0)


BLOCK = RandomStream._BLOCK
# n = 0 and 1, sizes up to and across one block refill, and across several
take_sizes = st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]) | st.integers(0, 2 * BLOCK)
stream_ops = st.lists(
    st.one_of(st.tuples(st.sampled_from(["take", "block"]), take_sizes), st.tuples(st.just("random"), st.just(1))),
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(ops=stream_ops, seed=st.integers(0, 2**32 - 1))
def test_take_returns_what_scalar_draws_would(ops, seed):
    blocks, scalar = RandomStream(seed), RandomStream(seed)
    # the Generator's uniforms one at a time, as it fills the stream's blocks
    generator = np.random.default_rng(seed)
    drawn = sum(n for _, n in ops) + 3
    uniforms = np.concatenate([generator.random(BLOCK) for _ in range(drawn // BLOCK + 1)]).tolist()
    at = 0
    for op, n in ops:
        if op == "block":
            got = blocks.block(n)
            assert isinstance(got, np.ndarray)
            got = got.tolist()
        else:
            got = blocks.take(n) if op == "take" else [blocks.random()]
        assert got == [scalar.random() for _ in range(n)] == uniforms[at:at + n]
        at += n
    # both streams stand at the same place afterwards
    assert blocks.take(3) == [scalar.random() for _ in range(3)] == uniforms[at:at + 3]


def test_a_stub_of_take_and_block_transforms_a_read_across_a_refill_once():
    # neither method reads through the other, so a subclass that transforms
    # both serves each value transformed once, across a refill too
    real, stub = RandomStream(7), stream_stub(lambda u: 1 - u)(7)
    assert stub.take(BLOCK - 2) == [1 - u for u in real.take(BLOCK - 2)]
    assert stub.take(4) == [1 - u for u in real.take(4)]
    assert stub.block(BLOCK).tolist() == [1 - u for u in real.take(BLOCK)]
