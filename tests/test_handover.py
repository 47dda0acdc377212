from itertools import permutations

from conftest import band, select_target_by_scoring_every_candidate
from hypothesis import given, settings
from hypothesis import strategies as st

from crsim.handover import HandoverPlan, plan_handover, select_target
from crsim.learning import KnowledgeBase
from crsim.negotiation import PuState
from crsim.qos import TrafficType
from crsim.scenario import BandDecl, DispositionDecl, HandoverParams, NegotiationParams, Scenario, SessionDecl
from crsim.simcore import DROP_NO_TARGET, Engine, EventKind
from crsim.su_fsm import SessionStatus


def test_sole_candidate_selected():
    assert select_target([band(0, 2), band(1, 6)], current=0, demand=4, kb=KnowledgeBase()) == 1


def test_no_candidate_returns_none():
    assert select_target([band(0, 8), band(1, 3)], current=0, demand=4, kb=KnowledgeBase()) is None


def test_never_returns_current_band():
    bands = [band(0, 8), band(1, 8)]
    for current in (0, 1):
        assert select_target(bands, current=current, demand=4, kb=KnowledgeBase()) != current


def test_busy_bands_excluded():
    assert select_target([band(0, 2), band(1, 8, busy=True)], current=0, demand=4, kb=KnowledgeBase()) is None


def test_busy_band_skipped_even_when_it_would_rank_first():
    # band 1 has room, the lowest id and by far the best score, but holds a session
    kb = KnowledgeBase()
    for _ in range(8):
        kb.record_negotiation(1, granted=True)
        kb.record_sense(1, 1, 1)
    bands = [band(1, 8, busy=True), band(2, 4), band(3, 6)]
    for current in (-1, 0):
        assert select_target(bands, current=current, demand=4, kb=kb) == 2


def test_knowledge_scores_rank_candidates():
    kb = KnowledgeBase()
    for _ in range(8):  # score 0.81 on band 2 versus the 0.25 prior on band 1
        kb.record_negotiation(2, granted=True)
        kb.record_sense(2, 1, 1)
    bands = [band(0, 0), band(1, 6), band(2, 6)]
    assert select_target(bands, current=0, demand=4, kb=kb) == 2


def test_selection_order_independent():
    kb = KnowledgeBase()
    kb.record_negotiation(3, granted=True)
    bands = [band(0, 5), band(1, 5), band(3, 5), band(7, 5)]
    expected = select_target(bands, current=7, demand=4, kb=kb)
    for perm in permutations(bands):
        assert select_target(list(perm), current=7, demand=4, kb=kb) == expected


def test_equal_scores_tie_break_lowest_id():
    bands = [band(9, 5), band(4, 5), band(6, 5)]
    assert select_target(bands, current=9, demand=4, kb=KnowledgeBase()) == 4


class CountingKnowledgeBase(KnowledgeBase):
    def __init__(self) -> None:
        super().__init__()
        self.scored: list[int] = []

    def score(self, band_id: int) -> float:
        self.scored.append(band_id)
        return super().score(band_id)


def test_a_lone_candidate_is_chosen_without_a_score():
    kb = CountingKnowledgeBase()
    bands = [band(0, 2), band(1, 6), band(2, 8, busy=True), band(3, 8)]
    assert select_target(bands, current=3, demand=4, kb=kb) == 1
    assert kb.scored == []
    # a second candidate makes both count
    assert select_target(bands, current=-1, demand=4, kb=kb) == 1
    assert sorted(kb.scored) == [1, 3]


# small counter ranges, so that equal scores on different bands are common
band_counters = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).map(
    lambda c: {"attempts": c[0], "grants": min(c[1], c[0]), "sensed": c[2], "available": min(c[3], c[2])}
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.dictionaries(st.integers(0, 9), st.tuples(st.integers(0, 8), st.booleans()), max_size=8),
    counters=st.dictionaries(st.integers(0, 9).map(str), band_counters, max_size=10),
    current=st.integers(-1, 9),
    demand=st.integers(0, 8),
    data=st.data(),
)
def test_lazy_scoring_chooses_what_scoring_every_candidate_chooses(rows, counters, current, demand, data):
    bands = [band(band_id, free, busy) for band_id, (free, busy) in rows.items()]
    kb = KnowledgeBase.from_json_dict(counters)
    expected = select_target_by_scoring_every_candidate(bands, current, demand, kb)
    order = data.draw(st.permutations(bands))
    assert select_target(order, current=current, demand=demand, kb=kb) == expected


def test_plan_handover_builds_plan():
    plan = plan_handover([band(0, 2), band(1, 6)], current=0, demand=4, kb=KnowledgeBase())
    assert plan == HandoverPlan(source=0, target=1)
    assert plan_handover([band(0, 2), band(1, 3)], current=0, demand=4, kb=KnowledgeBase()) == HandoverPlan(0, None)


def test_target_filled_during_latency_triggers_replan():
    # source band rises every step and refuses negotiation; the first target
    # also rises (p=1) so it no longer fits on arrival; band 2 is stable
    scenario = Scenario(
        bands=(
            BandDecl(0, 8, 1.0, 0.0, 2, DispositionDecl(PuState.NONCOOPERATIVE)),
            BandDecl(1, 8, 1.0, 0.0, 1),
            BandDecl(2, 8, 0.0, 0.0, 0),
        ),
        sessions=(SessionDecl(TrafficType.VIDEO_CONFERENCING, 0.001, arrival=0),),
        horizon=8,
        seed=3,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=2, max_replans=3, scan_interval=10),
    )
    engine = Engine(scenario, keep_trace=True)
    for _ in range(scenario.horizon):
        engine.step()
    kinds = [record[1] for record in engine.trace.records]
    assert EventKind.HANDOVER_REPLANNED in kinds
    session = engine.live[0]
    assert session.status is SessionStatus.ACTIVE
    assert session.band_id == 2


def refusing_bands(count: int) -> tuple[BandDecl, ...]:
    """Static bands exactly at the Warning boundary for demand 4, all refusing."""
    return tuple(BandDecl(i, 8, 0.0, 0.0, 4, DispositionDecl(PuState.NONCOOPERATIVE)) for i in range(count))


def one_session_step(bands: tuple[BandDecl, ...]) -> Engine:
    scenario = Scenario(
        bands=bands,
        sessions=(SessionDecl(TrafficType.VIDEO_CONFERENCING, 0.001, arrival=0),),
        horizon=2,
        seed=3,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0, max_replans=3, scan_interval=10),
    )
    engine = Engine(scenario, keep_trace=True)
    engine.step()
    return engine


def test_two_refusing_bands_are_each_negotiated_once_then_no_target():
    # both bands sit exactly at the Warning boundary and always refuse: the
    # session is refused on band 0, hands over to band 1, is refused there,
    # and finds no band it has not left in this step
    engine = one_session_step(refusing_bands(2))
    records = engine.trace.records
    assert engine.metrics.admitted == 1
    assert engine.metrics.dropped == 1
    refused = [b for _, kind, _, b, _ in records if kind == EventKind.NEGOTIATION_REFUSED]
    assert refused == [0, 1]
    started = [(b, c) for _, kind, _, b, c in records if kind == EventKind.HANDOVER_STARTED]
    assert started == [(0, 1), (1, -1)]
    drops = [(b, c) for _, kind, _, b, c in records if kind == EventKind.DROPPED]
    assert drops == [(1, DROP_NO_TARGET)]


def test_a_turn_through_300_refusing_bands_ends_without_recursion():
    count = 300
    engine = one_session_step(refusing_bands(count))
    records = engine.trace.records
    refused = [b for _, kind, _, b, _ in records if kind == EventKind.NEGOTIATION_REFUSED]
    assert refused == list(range(count))
    assert engine.metrics.handovers == count - 1
    drops = [(b, c) for _, kind, _, b, c in records if kind == EventKind.DROPPED]
    assert drops == [(count - 1, DROP_NO_TARGET)]


band_decls = st.tuples(
    st.integers(4, 8),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.integers(0, 8),
    st.sampled_from(list(PuState)),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=80, deadline=None)
@given(
    bands=st.lists(band_decls, min_size=2, max_size=6),
    demands=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    horizon=st.integers(1, 60),
    seed=st.integers(0, 2**16),
)
def test_no_session_starts_two_handovers_from_one_band_in_a_step(bands, demands, horizon, seed):
    scenario = Scenario(
        bands=tuple(
            BandDecl(i, c, p, q, min(occ, c), DispositionDecl(state, alpha, beta))
            for i, (c, p, q, occ, state, alpha, beta) in enumerate(bands)
        ),
        sessions=tuple(
            SessionDecl(TrafficType.VIDEO_CONFERENCING, 0.1, every=1 + i % 2, demand=d) for i, d in enumerate(demands)
        ),
        horizon=horizon,
        seed=seed,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=0, max_replans=3, scan_interval=5),
    )
    engine = Engine(scenario, keep_trace=True)
    engine.run()
    records = engine.trace.records
    started = [(step, sid, source) for step, kind, sid, source, _ in records if kind == EventKind.HANDOVER_STARTED]
    assert len(started) == len(set(started))


def test_handover_sessions_do_not_transmit_during_latency():
    # Band 0 starts at 3 and p=1 adds one in sub-step (1) of step 0, so the
    # session admitted in sub-step (3) of that step senses 3 + 1 = 4: Warning
    # for demand 4 on capacity 8 (4 + 4 == 8).  It negotiates in its admission
    # step, the noncooperative user refuses, and it hands over to band 1.
    scenario = Scenario(
        bands=(
            BandDecl(0, 8, 1.0, 0.0, 3, DispositionDecl(PuState.NONCOOPERATIVE)),
            BandDecl(1, 8, 0.0, 0.0, 0),
        ),
        sessions=(SessionDecl(TrafficType.VIDEO_CONFERENCING, 1.0, arrival=0),),
        horizon=6,
        seed=3,
        negotiation=NegotiationParams(1, 0),
        handover=HandoverParams(latency=3, max_replans=3, scan_interval=10),
    )
    engine = Engine(scenario, keep_trace=True)
    for _ in range(scenario.horizon):
        engine.step()
    records = engine.trace.records

    def events(kind):  # (step, band or source, payload) of the one session
        return [(step, b, c) for step, k, _, b, c in records if k == kind]

    admitted_at = scenario.sessions[0].arrival
    landed_at = admitted_at + scenario.handover.latency
    refused = events(EventKind.NEGOTIATION_REFUSED)
    assert refused == [(admitted_at, 0, 0)], "no refusal on band 0 in the admission step"
    started = events(EventKind.HANDOVER_STARTED)
    assert started == [(admitted_at, 0, 1)], "handover 0 -> 1 did not start in the admission step"
    done = events(EventKind.HANDOVER_COMPLETED)  # payload: replans taken
    assert done == [(landed_at, 1, 0)], "handover did not land on band 1 after exactly the latency"
    # with completion probability 1 the session would have completed during
    # the waiting steps if it were transmitting; instead it completes exactly
    # when it lands on the target band
    completed = events(EventKind.COMPLETED)
    assert completed == [(landed_at, 1, 0)], "session completed before or apart from its landing"
