import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crsim.learning import KnowledgeBase


def sense(kb: KnowledgeBase, band_id: int, free: int, demand: int = 4) -> None:
    """Record one observation of ``free`` channels by a session needing ``demand``."""
    kb.record_sense(band_id, 1, free >= demand)


def test_negotiation_counters():
    kb = KnowledgeBase()
    kb.record_negotiation(0, granted=True)
    rec = kb.counters(0)
    assert (rec.attempts, rec.grants) == (1, 1)
    kb.record_negotiation(0, granted=False)
    rec = kb.counters(0)
    assert (rec.attempts, rec.grants) == (2, 1)


def test_sense_counters():
    kb = KnowledgeBase()
    sense(kb, 0, free=5)
    sense(kb, 0, free=3)
    rec = kb.counters(0)
    assert (rec.sensed, rec.available) == (2, 1)


def test_always_free_band_counts_every_sample():
    kb = KnowledgeBase()
    for _ in range(100):
        sense(kb, 1, free=8)
    rec = kb.counters(1)
    assert rec.sensed == rec.available == 100


def test_counters_never_decrease():
    kb = KnowledgeBase()
    rng = np.random.default_rng(0)
    last = (0, 0, 0, 0)
    for _ in range(500):
        if rng.random() < 0.5:
            kb.record_negotiation(0, granted=bool(rng.random() < 0.5))
        else:
            sense(kb, 0, free=int(rng.integers(0, 9)))
        rec = kb.counters(0)
        now = (rec.attempts, rec.grants, rec.sensed, rec.available)
        assert all(a >= b for a, b in zip(now, last))
        last = now


def laplace(kb: KnowledgeBase, band_id: int) -> tuple[float, float]:
    """The band's grant-rate and availability estimates, from its counters."""
    rec = kb.counters(band_id)
    return (rec.grants + 1) / (rec.attempts + 2), (rec.available + 1) / (rec.sensed + 2)


def test_smoothed_estimates_on_fresh_band():
    kb = KnowledgeBase()
    assert laplace(kb, 3) == (0.5, 0.5)
    assert kb.score(3) == 0.25
    assert kb.records == {}  # neither read creates a record


def test_score_example_values():
    kb = KnowledgeBase()
    for _ in range(8):
        kb.record_negotiation(0, granted=True)
        sense(kb, 0, free=8)
    assert kb.score(0) == pytest.approx(0.81)
    kb2 = KnowledgeBase()
    for _ in range(8):
        kb2.record_negotiation(0, granted=False)
    # a grant rate of 1/10 and no senses: availability at the 0.5 prior
    assert kb2.score(0) == pytest.approx(0.05)


def test_estimates_stay_strictly_inside_unit_interval():
    kb = KnowledgeBase()
    for _ in range(1000):
        kb.record_negotiation(0, granted=False)
        sense(kb, 0, free=0)
        kb.record_negotiation(1, granted=True)
        sense(kb, 1, free=8)
    for band_id in (0, 1):
        assert all(0.0 < estimate < 1.0 for estimate in laplace(kb, band_id))
        assert 0.0 < kb.score(band_id) < 1.0


def test_score_monotone_in_grants_and_availability():
    # band 0 gains grants over eight negotiations, band 1 available senses
    # over eight senses, the other counters held fixed
    by_grants = []
    by_available = []
    for hits in range(0, 9):
        kb = KnowledgeBase()
        for i in range(8):
            kb.record_negotiation(0, granted=i < hits)
            sense(kb, 1, free=8 if i < hits else 0)
        by_grants.append(kb.score(0))
        by_available.append(kb.score(1))
    assert all(a < b for a, b in zip(by_grants, by_grants[1:]))
    assert all(a < b for a, b in zip(by_available, by_available[1:]))


def test_two_band_ordering_after_fifty_negotiations():
    # grant probabilities 0.9 vs 0.1: the score should order the bands
    # correctly in essentially every replication
    rng = np.random.default_rng(7)
    correct = 0
    replications = 200
    for _ in range(replications):
        kb = KnowledgeBase()
        for _ in range(50):
            kb.record_negotiation(0, granted=bool(rng.random() < 0.9))
            kb.record_negotiation(1, granted=bool(rng.random() < 0.1))
        correct += kb.score(0) > kb.score(1)
    assert correct >= 0.99 * replications


def test_json_round_trip():
    kb = KnowledgeBase()
    kb.record_negotiation(0, granted=True)
    sense(kb, 2, free=8)
    data = kb.to_json_dict()
    clone = KnowledgeBase.from_json_dict(data)
    assert clone.to_json_dict() == data
    assert clone.score(0) == kb.score(0)


def test_json_rejects_inconsistent_counters():
    with pytest.raises(ValueError):
        KnowledgeBase.from_json_dict({"0": {"attempts": 1, "grants": 2, "sensed": 0, "available": 0}})
    with pytest.raises(ValueError, match="available must be within"):
        KnowledgeBase.from_json_dict({"0": {"attempts": 0, "grants": 0, "sensed": 1, "available": 2}})


def test_json_rejects_a_counter_that_to_json_dict_never_writes():
    # a misspelt counter must not warm-start the band from zeros
    with pytest.raises(ValueError, match="^band 0: unknown key 'attemps'$"):
        KnowledgeBase.from_json_dict({"0": {"attemps": 50, "grants": 0}})


@pytest.mark.parametrize(
    "snapshot",
    [
        # "01" would be read as band 1 and silently replace its counters
        {"1": {"attempts": 4, "grants": 4}, "01": {"attempts": 1, "grants": 0}},
        # band ids are nonnegative, as SpectrumBand requires
        {"-3": {"sensed": 2, "available": 1}},
    ],
    ids=["leading-zero", "negative"],
)
def test_json_rejects_band_ids_that_to_json_dict_never_writes(snapshot):
    with pytest.raises(ValueError, match="band id"):
        KnowledgeBase.from_json_dict(snapshot)


band_ids = st.integers(min_value=0, max_value=3)


@given(
    band_id=band_ids,
    observations=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    warm=st.integers(0, 5),
)
def test_bulk_senses_equal_single_senses(band_id, observations, warm):
    # n unit records equal one record_sense(b, n, k), k of them available
    single, bulk = KnowledgeBase(), KnowledgeBase()
    for kb in (single, bulk):  # same earlier history on both
        for _ in range(warm):
            sense(kb, band_id, free=8)
    for free, demand in observations:
        sense(single, band_id, free, demand)
    available = sum(free >= demand for free, demand in observations)
    bulk.record_sense(band_id, len(observations), available)
    assert bulk.to_json_dict() == single.to_json_dict()
    assert bulk.score(band_id) == single.score(band_id)


@pytest.mark.parametrize("sensed, available", [(-1, 0), (0, -1), (2, 3), (0, 1), (-2, -1)])
def test_bulk_senses_reject_inconsistent_counts(sensed, available):
    kb = KnowledgeBase()
    with pytest.raises(ValueError):
        kb.record_sense(0, sensed, available)
    assert kb.to_json_dict() == {}


# records as the engine's (8) hands them over, a few of them inconsistent
sense_records = st.lists(st.tuples(band_ids, st.integers(-1, 6), st.integers(-1, 6)), max_size=30)


def apply_one_at_a_time(kb: KnowledgeBase, records) -> str | None:
    """``record_sense`` per record, stopping at the first refused one; its message or None."""
    for record in records:
        try:
            kb.record_sense(*record)
        except ValueError as exc:
            return str(exc)
    return None


@given(records=sense_records, warm=st.dictionaries(band_ids, st.integers(1, 5), max_size=2))
def test_record_senses_equals_one_record_at_a_time(records, warm):
    bulk, single = KnowledgeBase(), KnowledgeBase()
    for kb in (bulk, single):  # same earlier history on both
        for band_id, n in warm.items():
            kb.record_sense(band_id, n, n - 1)
    expected = apply_one_at_a_time(single, records)
    if expected is None:
        bulk.record_senses(records)
    else:
        with pytest.raises(ValueError) as exc:
            bulk.record_senses(iter(records))
        assert str(exc.value) == expected
    assert bulk.to_json_dict() == single.to_json_dict()


def test_record_senses_creates_no_band_for_an_empty_record():
    kb = KnowledgeBase()
    kb.record_senses([(0, 0, 0), (1, 2, 1), (2, 0, 0)])
    assert kb.to_json_dict() == {"1": {"attempts": 0, "grants": 0, "sensed": 2, "available": 1}}


record_ops = st.one_of(
    st.tuples(st.just("negotiation"), band_ids, st.booleans()),
    st.tuples(st.just("sense"), band_ids, st.integers(0, 5)),
    st.tuples(st.just("score"), band_ids, st.none()),
)


@given(ops=st.lists(record_ops, max_size=60))
def test_score_is_the_product_of_both_estimates_after_any_writes(ops):
    """After any mix of negotiation and sense writes, and of score reads in
    between, each band scores its grant-rate estimate times its availability
    estimate, both from its counters, float for float."""
    kb = KnowledgeBase()
    for op, band_id, arg in ops:
        if op == "negotiation":
            kb.record_negotiation(band_id, granted=arg)
        elif op == "sense":
            kb.record_sense(band_id, arg, arg // 2)
        else:
            kb.score(band_id)
        for b in range(4):
            coop, availability = laplace(kb, b)
            assert kb.score(b) == coop * availability
