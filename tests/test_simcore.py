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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsim.learning import KnowledgeBase
from crsim.negotiation import PuState
from crsim.qos import TrafficType
from crsim.simcore import (
    DROP_REPLANS_EXHAUSTED,
    BandDecl,
    Engine,
    EventKind,
    HandoverParams,
    NegotiationParams,
    RandomStream,
    Scenario,
    ScenarioError,
    SessionDecl,
    canonical_preset,
    compare,
    run,
)

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
            BandDecl(0, 8, 0.10, 0.30, 2, COOP, 0.05, 0.05),
            BandDecl(1, 6, 0.20, 0.20, 3, NONCOOP, 0.10, 0.20),
            BandDecl(2, 12, 0.05, 0.25, 0, COOP, 0.02, 0.10),
            BandDecl(3, 8, 0.30, 0.30, 4, COOP, 0.30, 0.30),
            BandDecl(4, 10, 0.15, 0.35, 5, NONCOOP, 0.05, 0.05),
            BandDecl(5, 7, 0.20, 0.30, 1, COOP, 0.00, 0.00),
            BandDecl(6, 9, 0.25, 0.25, 4, COOP, 0.10, 0.10),
            BandDecl(7, 5, 0.10, 0.20, 0, NONCOOP, 0.20, 0.20),
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
            BandDecl(i, 8, 0.40, 0.40, 2 * i, COOP if i % 2 else NONCOOP, 0.30, 0.30) for i in range(4)
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
            BandDecl(0, 8, 0.0, 0.0, 0, COOP, 0.0, 0.0),
            BandDecl(1, 8, 0.0, 0.0, 6, COOP, 0.0, 0.0),
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
                COOP if i % 3 else NONCOOP,
                0.0 if i % 7 == 0 else round(0.02 * (i % 4 + 1), 2),
                0.0 if i % 7 == 0 else round(0.03 * (i % 3 + 1), 2),
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


def test_a_session_filling_a_band_with_an_idle_licensed_user_transmits(caplog):
    # demand 4 on a static, idle, cooperative 4-channel band: the session
    # fills the band with nothing to negotiate for, so it transmits
    scenario = Scenario(
        bands=(BandDecl(0, 4, 0.0, 0.0, 0, COOP, 0.0, 0.0),),
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


def test_compare_skips_the_row_of_a_figure_the_run_leaves_undefined():
    # one arrival onto a full band that frees at most one channel per step:
    # blocking is 1/1, but no session was admitted, so the simulated
    # non-completion is undefined
    scenario = Scenario(
        bands=(BandDecl(0, 8, 0.0, 0.2, 8, PuState.COOPERATIVE, 0.3, 0.3),),
        sessions=(SessionDecl(T.VIDEO_CONFERENCING, 0.05, arrival=0),),
        horizon=5,
        seed=1,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0),
    )
    report = compare(scenario)
    assert [(r.metric, r.simulated) for r in report.rows] == [("blocking", 1.0)]
    assert report.notes == ("non-completion row skipped: no session admitted within the horizon",)


def test_scenario_round_trips_through_dict():
    scenario = multiband_latency()
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario
    assert again.sha256() == scenario.sha256()


def test_from_dict_reports_every_non_finite_number():
    nan = float("nan")
    data = multiband_latency().to_dict()
    data["bands"][1].update(p=nan, q=nan)
    data["bands"][2]["disposition"].update(alpha=nan, beta=nan)
    data["sessions"][0]["c"] = nan
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert exc.value.problems == [
        f"{path}: must be a finite number, got nan"
        for path in (
            "bands[1].p",
            "bands[1].q",
            "bands[2].disposition.alpha",
            "bands[2].disposition.beta",
            "sessions[0].c",
        )
    ]


# one document per group of rules that can break together; a rule whose
# input excludes another's (bands not a list vs. a bad band) gets its own
BROKEN_SCENARIOS = [
    (
        {
            "bogus": 1,
            "horizon": 0,
            "seed": "x",
            "name": 5,
            "bands": [
                7,
                {"id": -1, "capacity": 0, "p": "a", "q": 2.0},
                {
                    "id": 3,
                    "capacity": 4,
                    "p": 0.7,
                    "q": 0.6,
                    "initial_occupancy": 5,
                    "disposition": {"state": "grumpy", "alpha": 1.5},
                },
                {"id": 3, "capacity": 4, "p": 0.1, "q": 0.1, "disposition": []},
            ],
            "sessions": [
                "x",
                {"traffic": "Telepathy", "c": 0, "every": 1},
                {"traffic": 3, "c": 0.5, "arrival": 1, "every": 2},
                {"traffic": "Email", "c": 0.5},
                {"traffic": "Email", "c": 0.5, "arrival": -1, "demand": -2},
                {"traffic": "Email", "c": 0.5, "every": 0, "start": -1, "until": 0},
            ],
            "negotiation": [],
            "handover": "fast",
        },
        [
            "bogus: unknown top-level key",
            "horizon: must be >= 1, got 0",
            "seed: must be an integer, got 'x'",
            "name: must be a string",
            "bands[0]: must be an object",
            "bands[1].id: must be >= 0, got -1",
            "bands[1].capacity: must be >= 1, got 0",
            "bands[1].p: must be a number, got 'a'",
            "bands[1].q: must be within [0.0, 1.0], got 2.0",
            "bands[2]: p + q must not exceed 1, got 0.7 + 0.6",
            "bands[2].initial_occupancy: exceeds capacity 4",
            "bands[2].disposition.state: must be one of ['cooperative', 'noncooperative'], got 'grumpy'",
            "bands[2].disposition.alpha: must be within [0.0, 1.0], got 1.5",
            "bands[3].disposition: must be an object",
            "bands[3].id: duplicate band id 3",
            "sessions[0]: must be an object",
            "sessions[1].traffic: unknown traffic type 'Telepathy' (expected one of: Voice, ECommerce, "
            "Transactions, Email, Telnet, CasualBrowsing, SeriousBrowsing, FileTransfers, VideoConferencing, "
            "Multicasting)",
            "sessions[1].c: must be within (0.0, 1.0], got 0",
            "sessions[2].traffic: must be a traffic type name",
            "sessions[2]: exactly one of 'arrival' or 'every' is required",
            "sessions[3]: exactly one of 'arrival' or 'every' is required",
            "sessions[4].demand: must be >= 0, got -2",
            "sessions[4].arrival: must be >= 0, got -1",
            "sessions[5].every: must be >= 1, got 0",
            "sessions[5].start: must be >= 0, got -1",
            "sessions[5].until: must be >= 1, got 0",
            "negotiation: must be an object",
            "handover: must be an object",
        ],
    ),
    (
        {
            "bands": {},
            "sessions": {},
            "negotiation": {"grant_request": 0, "latency": -1},
            "handover": {"latency": True, "max_replans": -1, "scan_interval": 0},
        },
        [
            "horizon: must be an integer, got None",
            "seed: must be an integer, got None",
            "bands: must be a nonempty list",
            "sessions: must be a list",
            "negotiation.grant_request: must be >= 1, got 0",
            "negotiation.latency: must be >= 0, got -1",
            "handover.latency: must be an integer, got True",
            "handover.max_replans: must be >= 0, got -1",
            "handover.scan_interval: must be >= 1, got 0",
        ],
    ),
    ([], ["scenario: top level must be a JSON object"]),
]


@pytest.mark.parametrize("data, problems", BROKEN_SCENARIOS, ids=["fields", "sections", "top-level"])
def test_from_dict_reports_every_problem_in_one_error(data, problems):
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    assert exc.value.problems == problems


def test_from_dict_fills_omitted_fields_with_the_declared_defaults():
    minimal = {
        "bands": [{"id": 0, "capacity": 8, "p": 0.2, "q": 0.2}],
        "sessions": [{"traffic": "Email", "c": 0.5, "every": 2}],
        "horizon": 10,
        "seed": 1,
    }
    assert Scenario.from_dict(minimal) == Scenario(
        bands=(BandDecl(0, 8, 0.2, 0.2),),
        sessions=(SessionDecl(T.EMAIL, 0.5, every=2),),
        horizon=10,
        seed=1,
    )


BLOCK = RandomStream._BLOCK
# n = 0 and 1, sizes up to and across one block refill, and across several
take_sizes = st.sampled_from([0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]) | st.integers(0, 2 * BLOCK)
stream_ops = st.lists(
    st.one_of(st.tuples(st.just("take"), take_sizes), st.tuples(st.just("random"), st.just(1))), max_size=8
)


@settings(max_examples=40, deadline=None)
@given(ops=stream_ops, seed=st.integers(0, 2**32 - 1))
def test_take_returns_what_scalar_draws_would(ops, seed):
    blocks, scalar = RandomStream(seed), RandomStream(seed)
    for op, n in ops:
        got = blocks.take(n) if op == "take" else [blocks.random()]
        assert got == [scalar.random() for _ in range(n)]
    # both streams stand at the same place afterwards
    assert blocks.take(3) == [scalar.random() for _ in range(3)]
