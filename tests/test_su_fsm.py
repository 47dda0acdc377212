from itertools import permutations

import pytest
from conftest import band

from crsim.learning import KnowledgeBase
from crsim.negotiation import NegotiationOutcome
from crsim.qos import TrafficType
from crsim.simcore import SessionDecl
from crsim.su_fsm import (
    Action,
    FsmError,
    Mode,
    SessionStatus,
    SuSession,
    admit,
    apply_outcome,
    classify_mode,
    decide,
    mode_table,
    order_arrivals,
)


@pytest.mark.parametrize(
    "pu_used, expected",
    [
        (0, Mode.NORMAL),
        (1, Mode.NORMAL),
        (2, Mode.NORMAL),
        (3, Mode.NORMAL),
        (4, Mode.WARNING),
        (5, Mode.FAILURE),
        (6, Mode.FAILURE),
        (7, Mode.FAILURE),
        (8, Mode.FAILURE),
    ],
)
def test_classify_mode_reproduces_eight_channel_table(pu_used, expected):
    assert classify_mode(pu_used, 4, 8) is expected


def test_classify_mode_monotone_in_occupancy():
    for capacity in (4, 8, 12):
        for demand in range(1, capacity + 1):
            previous = Mode.NORMAL
            for pu_used in range(capacity + 1):
                mode = classify_mode(pu_used, demand, capacity)
                assert mode >= previous
                previous = mode


def test_mode_table_equals_classify_mode_at_every_occupancy():
    for capacity in range(1, 17):
        for demand in range(capacity + 1):
            table = mode_table(capacity, demand)
            assert table == tuple(classify_mode(pu_used, demand, capacity) for pu_used in range(capacity + 1))
        with pytest.raises(ValueError, match="cannot ever satisfy"):
            mode_table(capacity, capacity + 1)


def test_classify_mode_rejects_bad_arguments():
    with pytest.raises(ValueError, match="cannot ever satisfy"):
        classify_mode(0, 9, 8)
    with pytest.raises(ValueError):
        classify_mode(9, 4, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        classify_mode(0, -1, 8)
    with pytest.raises(ValueError):
        classify_mode(9, 0, 8)


def test_a_probe_is_always_normal():
    for capacity in (1, 4, 8):
        for pu_used in range(capacity + 1):
            assert classify_mode(pu_used, 0, capacity) is Mode.NORMAL


def test_a_session_filling_a_band_with_an_idle_licensed_user_is_normal():
    # Warning needs something to yield: with the licensed user idle there is nothing to negotiate
    for capacity in (2, 4, 8):
        assert classify_mode(0, capacity, capacity) is Mode.NORMAL
        assert classify_mode(1, capacity - 1, capacity) is Mode.WARNING
    assert classify_mode(0, 1, 1) is Mode.NORMAL


def active_session() -> SuSession:
    return SuSession(
        session_id=1,
        demand=4,
        completion=0.2,
        status=SessionStatus.ACTIVE,
        band_id=0,
    )


def test_decide_maps_modes_to_actions():
    session = active_session()
    assert decide(session, Mode.NORMAL) is Action.CONTINUE_TRANSMIT
    assert decide(session, Mode.WARNING) is Action.START_NEGOTIATION
    assert decide(session, Mode.FAILURE) is Action.START_HANDOVER


def test_decide_is_pure():
    session = active_session()
    assert decide(session, Mode.WARNING) is decide(session, Mode.WARNING)


def test_decide_requires_active_session():
    for status in (SessionStatus.NEGOTIATING, SessionStatus.HANDING_OVER):
        session = active_session()
        session.status = status
        with pytest.raises(FsmError):
            decide(session, Mode.NORMAL)


def test_apply_outcome_granted_returns_to_normal():
    session = active_session()
    session.status = SessionStatus.NEGOTIATING
    apply_outcome(session, NegotiationOutcome(granted=True, channels=1))
    assert session.status is SessionStatus.ACTIVE
    assert session.band_id == 0


def test_apply_outcome_refused_enters_handover():
    session = active_session()
    session.status = SessionStatus.NEGOTIATING
    apply_outcome(session, NegotiationOutcome(granted=False))
    assert session.status is SessionStatus.HANDING_OVER
    assert session.band_id == 0


def test_apply_outcome_rejects_non_negotiating_sessions():
    for status in (SessionStatus.ACTIVE, SessionStatus.HANDING_OVER):
        session = active_session()
        session.status = status
        for outcome in (NegotiationOutcome(granted=False), NegotiationOutcome(granted=True, channels=1)):
            with pytest.raises(FsmError):
                apply_outcome(session, outcome)


def test_admit_single_qualifying_band():
    assert admit([band(0, 5)], 4, KnowledgeBase()) == 0


def test_admit_blocked_when_no_band_fits():
    bands = [band(0, 3), band(1, 2)]
    assert admit(bands, 4, KnowledgeBase()) is None


def test_admit_blocked_when_band_hosts_a_session():
    assert admit([band(0, 8, busy=True)], 4, KnowledgeBase()) is None


def test_admit_tie_breaks_to_lowest_id_over_all_permutations():
    bands = [band(2, 6), band(7, 6)]
    for perm in permutations(bands):
        assert admit(list(perm), 4, KnowledgeBase()) == 2


def test_admit_prefers_higher_knowledge_score():
    kb = KnowledgeBase()
    for _ in range(8):
        kb.record_negotiation(7, granted=True)
    bands = [band(2, 6), band(7, 6)]
    for perm in permutations(bands):
        assert admit(list(perm), 4, kb) == 7


def test_admit_demand_override_for_probes():
    # a zero-demand probe fits any band without a resident session
    assert admit([band(0, 0)], 0, KnowledgeBase()) == 0
    assert admit([band(0, 0), band(1, 8, busy=True)], 0, KnowledgeBase()) == 0


def test_order_arrivals_by_priority_then_sequence():
    requests = [
        SessionDecl(TrafficType.EMAIL, 0.5, arrival=0),  # priority 10
        SessionDecl(TrafficType.MULTICASTING, 0.5, arrival=0),  # priority 16
        SessionDecl(TrafficType.VOICE, 0.5, arrival=0),  # priority 12
        SessionDecl(TrafficType.ECOMMERCE, 0.5, arrival=0),  # priority 12
    ]
    ordered = order_arrivals(requests)
    assert [requests.index(r) for r in ordered] == [1, 2, 3, 0]
