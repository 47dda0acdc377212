"""TDMA bootstrap tests: discovery against the brute-force oracles in conftest."""

from __future__ import annotations

from functools import reduce

import pytest
from conftest import components_oracle, diameter_oracle, pairwise_common_oracle, phase2_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from crsim.mac_tdma import NodeProfile, TdmaError, discover, restricted_links, run_phase1


@st.composite
def topologies(draw):
    """Distinct nonnegative node ids, nonempty channel sets, simple edges."""
    ids = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True))
    channels = {
        i: frozenset(draw(st.sets(st.integers(0, 6), min_size=1, max_size=5))) for i in ids
    }
    pairs = [(i, j) for i in ids for j in ids if i < j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]
    return channels, edges


def oracle_links(tables) -> dict[int, set[int]]:
    return {i: {j for j, common in table.items() if common} for i, table in tables.items()}


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_discovery_matches_oracles(topology):
    channels, edges = topology
    profiles = [NodeProfile(i, s) for i, s in channels.items()]
    result = discover(profiles, edges)
    expected_tables = pairwise_common_oracle(channels, edges)
    links = oracle_links(expected_tables)

    assert result.neighbor_tables == expected_tables
    assert restricted_links(result.neighbor_tables) == links
    assert result.connected == (len(components_oracle(channels, links)) == 1)
    assert result.rounds == max(1, diameter_oracle(links))
    if result.connected:
        assert result.global_common == reduce(frozenset.__and__, channels.values())
    else:
        assert result.global_common is None


@settings(max_examples=100, deadline=None)
@given(topologies())
def test_neighbor_tables_sorted_at_both_levels(topology):
    channels, edges = topology
    tables = run_phase1([NodeProfile(i, s) for i, s in channels.items()], edges)
    assert list(tables) == sorted(channels)
    for table in tables.values():
        assert list(table) == sorted(table)


def test_rounds_bound_how_far_candidates_spread():
    """A path 0-1-2: one round leaves node 0 unaware of node 2's set."""
    profiles = [NodeProfile(0, {1, 2}), NodeProfile(1, {1, 2, 3}), NodeProfile(2, {2, 3})]
    edges = [(0, 1), (1, 2)]
    assert discover(profiles, edges).rounds == 2
    assert discover(profiles, edges).global_common == frozenset({2})
    one = discover(profiles, edges, rounds=1)
    assert one.candidates[2] == frozenset({2})  # node 1 broadcast 0's set before 2's slot
    assert one.candidates[0] == frozenset({1, 2})


@settings(max_examples=200, deadline=None)
@given(topologies(), st.integers(0, 6))
def test_each_round_count_matches_the_round_by_round_reference(topology, rounds):
    channels, edges = topology
    result = discover([NodeProfile(i, s) for i, s in channels.items()], edges, rounds=rounds)
    expected = phase2_oracle(channels, oracle_links(pairwise_common_oracle(channels, edges)), rounds)
    assert result.rounds == rounds
    assert list(result.candidates.items()) == list(expected.items())


@settings(max_examples=100, deadline=None)
@given(topologies())
def test_rounds_past_the_fixed_point_change_nothing(topology):
    """The default round count already reaches the fixed point, so a round
    count no loop could finish gives its candidates, at once."""
    channels, edges = topology
    profiles = [NodeProfile(i, s) for i, s in channels.items()]
    default, huge = discover(profiles, edges), discover(profiles, edges, rounds=10**18)
    assert huge.rounds == 10**18
    assert list(huge.candidates.items()) == list(default.candidates.items())
    assert huge.global_common == default.global_common


def test_an_empty_topology_is_connected_with_no_common_set():
    result = discover([], [])
    assert (result.neighbor_tables, result.candidates, result.connected, result.rounds) == ({}, {}, True, 1)
    assert result.global_common is None


@pytest.mark.parametrize(
    "node_id, channels",
    [(-1, {0}), (0, {-1}), (3, {2, -4}), (0, set())],
    ids=["negative-id", "negative-channel", "mixed-channels", "empty"],
)
def test_node_profile_rejects_invalid(node_id, channels):
    with pytest.raises(TdmaError):
        NodeProfile(node_id, channels)


@pytest.mark.parametrize("rounds", ["2", 1.5, -1, True])
def test_discover_rejects_invalid_rounds(rounds):
    with pytest.raises(TdmaError, match="rounds"):
        discover([NodeProfile(0, {0}), NodeProfile(1, {0})], [(0, 1)], rounds=rounds)


@pytest.mark.parametrize(
    "edges, message",
    [([(0, 0)], "self-loop"), ([(0, 5)], "unknown node")],
)
def test_discover_rejects_bad_edges(edges, message):
    with pytest.raises(TdmaError, match=message):
        discover([NodeProfile(0, {0}), NodeProfile(1, {0})], edges)


def test_duplicate_node_ids_rejected():
    with pytest.raises(TdmaError, match="duplicate"):
        discover([NodeProfile(0, {0}), NodeProfile(0, {1})], [])
