"""Slotted layer-2 bootstrap: neighbor discovery and common channel set.

Time is organized in rounds of frames of N timeslots, node i owning slot i
of every frame.  Phase 1 is one round of M frames, frame m bound to
channel m: a node beacons in its slot on the frame's channel when that
channel is in its own set, and a neighbor listening on that channel hears
it.  A node therefore hears each neighbor exactly on the channels both can
use: whatever the slot order, phase 1 yields the per-edge intersection
common(i, j) = channels(i) & channels(j), and is computed as just that.
Phase 2 runs rounds of a single frame in which every node, in slot order,
broadcasts its current candidate set to each reachable neighbor (lowest
shared channel) and intersects what it receives; after as many rounds as
the network diameter, every node of a connected network holds the global
intersection.  With fewer rounds the slot order shows in the candidates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class TdmaError(ValueError):
    """Raised for negative ids or channels, bad round counts, or malformed topologies."""


@dataclass(frozen=True)
class NodeProfile:
    node_id: int
    channel_set: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "channel_set", frozenset(self.channel_set))
        if self.node_id < 0:
            raise TdmaError(f"node id must be nonnegative, got {self.node_id}")
        if not self.channel_set:
            raise TdmaError(f"node {self.node_id}: channel set must be nonempty")
        if min(self.channel_set) < 0:
            raise TdmaError(f"node {self.node_id}: channels must be nonnegative, got {min(self.channel_set)}")


@dataclass(frozen=True)
class DiscoveryResult:
    neighbor_tables: dict[int, dict[int, frozenset[int]]]
    candidates: dict[int, frozenset[int]]
    connected: bool
    rounds: int

    @property
    def global_common(self) -> frozenset[int] | None:
        """The network-wide common set, or None when discovery was split."""
        if not self.connected:
            return None
        values = set(self.candidates.values())
        return values.pop() if len(values) == 1 else None


def _build_adjacency(profiles: Sequence[NodeProfile], edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    ids = {p.node_id for p in profiles}
    if len(ids) != len(profiles):
        raise TdmaError("duplicate node ids in profiles")
    adjacency: dict[int, set[int]] = {p.node_id: set() for p in profiles}
    for i, j in edges:
        if i == j:
            raise TdmaError(f"self-loop on node {i}")
        if i not in ids or j not in ids:
            raise TdmaError(f"edge ({i}, {j}) references an unknown node")
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def run_phase1(
    profiles: Sequence[NodeProfile], edges: Iterable[tuple[int, int]]
) -> dict[int, dict[int, frozenset[int]]]:
    """Neighbor tables after one discovery round: common(i, j) per adjacent pair.

    Node ids are sorted at both levels.  The table keeps an (empty) entry
    for adjacent pairs that share no channel and so never heard each other.
    """
    adjacency = _build_adjacency(profiles, edges)
    channels = {p.node_id: p.channel_set for p in profiles}
    return {
        i: {j: channels[i] & channels[j] for j in sorted(adjacency[i])}
        for i in sorted(adjacency)
    }


def restricted_links(tables: Mapping[int, Mapping[int, frozenset[int]]]) -> dict[int, set[int]]:
    """Adjacency restricted to pairs that share at least one channel."""
    links: dict[int, set[int]] = {i: set() for i in tables}
    for i, table in tables.items():
        for j, common in table.items():
            if common:
                links[i].add(j)
                links.setdefault(j, set()).add(i)
    return links


def _bfs_distances(links: Mapping[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in links[node]:
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist


def discover(
    profiles: Sequence[NodeProfile],
    edges: Iterable[tuple[int, int]],
    rounds: int | None = None,
) -> DiscoveryResult:
    """Run both phases; rounds defaults to the restricted-graph diameter.

    Phase 2 links only the pairs where phase 1 found a common channel (see
    ``restricted_links``).  Each round applies the same map, which only
    shrinks the candidate sets, so once a round changes nothing no later
    round can: phase 2 stops there and reports ``rounds`` as given.
    """
    tables = run_phase1(profiles, edges)
    links = restricted_links(tables)
    connected, diameter = True, 0
    for node in links:  # one BFS per node; instances here stay tiny
        dist = _bfs_distances(links, node)
        connected = connected and len(dist) == len(links)  # a walk misses a node only on a split graph
        diameter = max(diameter, max(dist.values()))
    if rounds is None:
        rounds = max(1, diameter)
    elif isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 0:
        raise TdmaError(f"rounds must be a nonnegative integer, got {rounds!r}")
    candidates: dict[int, set[int]] = {p.node_id: set(p.channel_set) for p in profiles}
    order = sorted(candidates)
    for _ in range(rounds):
        size = sum(map(len, candidates.values()))
        for node in order:  # slot i of the frame
            payload = frozenset(candidates[node])
            for neighbor in links[node]:
                candidates[neighbor] &= payload
        if sum(map(len, candidates.values())) == size:  # sets only shrink, so nothing changed
            break
    frozen = {node: frozenset(c) for node, c in sorted(candidates.items())}
    return DiscoveryResult(neighbor_tables=tables, candidates=frozen, connected=connected, rounds=rounds)
