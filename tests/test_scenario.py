"""Scenario tests: reading and writing the JSON format, and every rule it checks."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math

import pytest
from conftest import mutate
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simcore import multiband_latency

from crsim.negotiation import PuState
from crsim.qos import TrafficType
from crsim.scenario import (
    INT_MAX,
    MAX_CAPACITY,
    BandDecl,
    DispositionDecl,
    Scenario,
    ScenarioError,
    SessionDecl,
    canonical_preset,
)
from crsim.simcore import Engine

T = TrafficType


def test_scenario_round_trips_through_dict():
    scenario = multiband_latency()
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario
    assert again.sha256() == scenario.sha256()


def test_the_memoised_digest_is_the_digest_of_the_canonical_json():
    scenario, twin = multiband_latency(), multiband_latency()
    fresh = hashlib.sha256(scenario.canonical_json().encode()).hexdigest()
    assert scenario.sha256() == fresh and scenario.sha256() == fresh  # computed, then remembered
    # remembering the digest leaves equality, hashing and the written form as they were
    assert scenario == twin and hash(scenario) == hash(twin) and scenario.to_dict() == twin.to_dict()
    assert twin.sha256() == fresh
    shorter = dataclasses.replace(scenario, horizon=scenario.horizon - 1)
    assert shorter.sha256() == hashlib.sha256(shorter.canonical_json().encode()).hexdigest() != fresh


def test_a_negative_zero_probability_reads_as_zero():
    """-0.0 == 0.0, so a scenario giving it hashes and traces as one giving 0.0."""

    def with_zero(zero: float) -> Scenario:
        data = multiband_latency().to_dict()
        data["bands"][0].update(p=zero, q=zero)
        data["bands"][0]["disposition"].update(alpha=zero, beta=zero)
        return Scenario.from_dict(data)

    plus, minus = with_zero(0.0), with_zero(-0.0)
    written = minus.to_dict()["bands"][0]
    zeros = (written["p"], written["q"], written["disposition"]["alpha"], written["disposition"]["beta"])
    assert all(math.copysign(1.0, x) == 1.0 for x in zeros)
    assert minus == plus and minus.sha256() == plus.sha256()
    assert Engine(minus).run().trace_hash == Engine(plus).run().trace_hash


def test_a_negative_zero_declared_in_python_hashes_as_zero():
    """The writer drops the sign of zero, so a declaration built without the reader hashes as one giving 0.0."""

    def with_zero(zero: float) -> Scenario:
        scenario = multiband_latency()
        band = dataclasses.replace(
            scenario.bands[0], p=zero, disposition=DispositionDecl(PuState.COOPERATIVE, zero, zero)
        )
        return dataclasses.replace(scenario, bands=(band, *scenario.bands[1:]))

    plus, minus = with_zero(0.0), with_zero(-0.0)
    assert math.copysign(1.0, minus.bands[0].p) == -1.0  # no reader dropped the sign
    assert minus == plus and minus.canonical_json() == plus.canonical_json()
    assert minus.sha256() == plus.sha256()
    assert Engine(minus).run().trace_hash == Engine(plus).run().trace_hash


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
            "bands[2].disposition.state: must be one of ['cooperative', 'noncooperative'], got 'grumpy'",
            "bands[2].disposition.alpha: must be within [0.0, 1.0], got 1.5",
            "bands[2]: p + q must not exceed 1, got 0.7 + 0.6",
            "bands[2].initial_occupancy: exceeds capacity 4",
            "bands[3].disposition: must be an object",
            "bands[3].id: duplicate band id 3",
            "sessions[0]: must be an object",
            "sessions[1].traffic: must be one of ['CasualBrowsing', 'ECommerce', 'Email', 'FileTransfers', "
            "'Multicasting', 'SeriousBrowsing', 'Telnet', 'Transactions', 'VideoConferencing', 'Voice'], "
            "got 'Telepathy'",
            "sessions[1].c: must be within (0.0, 1.0], got 0",
            "sessions[2].traffic: must be one of ['CasualBrowsing', 'ECommerce', 'Email', 'FileTransfers', "
            "'Multicasting', 'SeriousBrowsing', 'Telnet', 'Transactions', 'VideoConferencing', 'Voice'], got 3",
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
    # values that once escaped as OverflowError and TypeError
    (
        {
            "bands": [
                {"id": 0, "capacity": 8, "p": 10**400, "q": 0.2, "disposition": {"state": ["cooperative"]}},
                {"id": 1, "capacity": 8, "p": 0.2, "q": 0.2, "disposition": {"state": {}, "beta": -(10**400)}},
            ],
            "sessions": [{"traffic": "Email", "c": 10**400, "every": 1}],
            "horizon": 10,
            "seed": 1,
        },
        [
            f"bands[0].p: must be within [0.0, 1.0], got {10**400}",
            "bands[0].disposition.state: must be one of ['cooperative', 'noncooperative'], got ['cooperative']",
            "bands[1].disposition.state: must be one of ['cooperative', 'noncooperative'], got {}",
            f"bands[1].disposition.beta: must be within [0.0, 1.0], got {-(10**400)}",
            f"sessions[0].c: must be within (0.0, 1.0], got {10**400}",
        ],
    ),
]


@pytest.mark.parametrize("data, problems", BROKEN_SCENARIOS, ids=["fields", "sections", "top-level", "outside-input"])
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


def minimal_document(**overrides) -> dict:
    return {
        "bands": [{"id": 0, "capacity": 8, "p": 0.2, "q": 0.2}],
        "sessions": [{"traffic": "Email", "c": 0.5, "every": 2}],
        "horizon": 10,
        "seed": 1,
        **overrides,
    }


def problems_of(data) -> list[str]:
    with pytest.raises(ScenarioError) as exc:
        Scenario.from_dict(data)
    return exc.value.problems


def test_from_dict_reports_unknown_keys_at_every_level():
    data = minimal_document(
        bands=[{"id": 0, "capacity": 8, "p": 0.2, "q": 0.2, "intial_occupancy": 5, "disposition": {"alfa": 0.1}}],
        sessions=[
            {"traffic": "Email", "c": 0.5, "arrival": 3, "until": 9, "start": 1},
            {"traffic": "Email", "c": 0.5, "every": 2, "dmand": 1},
        ],
        negotiation={"latncy": 0},
        handover={"scan": 3, "scan\ninterval": 3},
    )
    assert problems_of(data) == [
        "bands[0].intial_occupancy: unknown key",
        "bands[0].disposition.alfa: unknown key",
        "sessions[0].start: unknown key",
        "sessions[0].until: unknown key",
        "sessions[1].dmand: unknown key",
        "negotiation.latncy: unknown key",
        "handover.scan: unknown key",
        "handover.'scan\\ninterval': unknown key",  # quoted, so that the report stays on one line
    ]


def test_a_key_that_is_not_a_string_is_reported_as_unknown():
    data = minimal_document(bands=[{"id": 0, "capacity": 8, "p": 0.2, "q": 0.2, 7: 1, "disposition": {None: 0}}])
    data[("a", 1)] = 2
    assert problems_of(data) == [
        "('a', 1): unknown top-level key",
        "bands[0].7: unknown key",
        "bands[0].disposition.None: unknown key",
    ]


def test_null_is_checked_like_any_present_value():
    data = minimal_document(sessions=[{"traffic": "Email", "c": 0.5, "every": 2, "until": None, "demand": None}])
    assert problems_of(data) == [
        "sessions[0].demand: must be an integer, got None",
        "sessions[0].until: must be an integer, got None",
    ]


def test_integers_the_trace_packs_fit_64_bits():
    data = minimal_document(
        seed=INT_MAX + 1,
        bands=[{"id": INT_MAX + 1, "capacity": 8, "p": 0.2, "q": 0.2}],
        sessions=[{"traffic": "Email", "c": 0.5, "every": 2, "demand": 10**400}],
        negotiation={"latency": INT_MAX + 1},
    )
    assert problems_of(data) == [
        f"seed: must be <= {INT_MAX}, got {INT_MAX + 1}",
        f"bands[0].id: must be <= {INT_MAX}, got {INT_MAX + 1}",
        f"sessions[0].demand: must be <= {INT_MAX}, got {10**400}",
        f"negotiation.latency: must be <= {INT_MAX}, got {INT_MAX + 1}",
    ]
    assert Scenario.from_dict(minimal_document(seed=INT_MAX)).seed == INT_MAX


def test_band_capacity_is_bounded_by_the_histogram_row_the_engine_keeps():
    assert Scenario.from_dict(minimal_document(bands=[{"id": 0, "capacity": MAX_CAPACITY, "p": 0.2, "q": 0.2}]))
    too_wide = minimal_document(bands=[{"id": 0, "capacity": MAX_CAPACITY + 1, "p": 0.2, "q": 0.2}])
    assert problems_of(too_wide) == ["bands[0].capacity: must be <= 65536, got 65537"]


# documents that together give every field, both session kinds and the optional ones
VALID_DOCUMENTS = [canonical_preset().to_dict(), multiband_latency().to_dict(), minimal_document()]
JUNK = st.sampled_from(
    [None, True, False, "", "Email", "cooperative", [], [1], {}, {"id": 1}, 10**400, -(10**400), INT_MAX + 1]
    + [math.nan, math.inf, -math.inf, -1, 0, 1, 2, 0.5, 1.5, -0.5, 3.0]
).map(copy.deepcopy)
KEYS = st.sampled_from(["id", "p", "state", "arrival", "every", "start", "until", "demand", "latency", "bogus"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_from_dict_accepts_or_reports_any_mutated_document(data):
    doc = mutate(data.draw, data.draw(st.sampled_from(VALID_DOCUMENTS)), JUNK, KEYS)
    try:
        scenario = Scenario.from_dict(doc)
    except ScenarioError:
        return
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario
    assert again.sha256() == scenario.sha256()
