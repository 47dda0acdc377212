"""Shared test oracles: independent reference implementations."""

from __future__ import annotations

import copy
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from crsim.markov import OccupancyChain, transition_matrix
from crsim.negotiation import PuDisposition, PuState
from crsim.spectrum_env import SpectrumBand, sense
from crsim.su_fsm import SuSession


class Draws:
    """A stand-in generator that hands out fixed draws, one per ``random()``."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self) -> float:
        return next(self._values)


def band(band_id: int, free: int, busy: bool = False, capacity: int = 8) -> SpectrumBand:
    """A static band with ``free`` channels left free, holding a placeholder session when ``busy``."""
    disposition = PuDisposition(PuState.COOPERATIVE, 0.0, 0.0)
    out = SpectrumBand(band_id, OccupancyChain(capacity, 0.0, 0.0), capacity - free, disposition)
    if busy:
        out.su = SuSession(session_id=-1, demand=0, completion=1.0, band_id=band_id)
    return out


def select_target_by_scoring_every_candidate(bands, current: int, demand: int, kb) -> int | None:
    """Handover target selection as first written: every candidate is scored as
    it is met, and the best score wins, ties toward the lowest band id."""
    best = None
    best_score = -1.0
    for b in bands:
        if b.su is not None or b.band_id == current or sense(b) < demand:
            continue
        score = kb.score(b.band_id)
        if score > best_score or (score == best_score and (best is None or b.band_id < best)):
            best = b.band_id
            best_score = score
    return best


def stationary_by_linear_solve(matrix: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 directly (dense, no closed form)."""
    n = matrix.shape[0]
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def noncompletion_by_dense_solve(
    chain: OccupancyChain, demand: int, completion: float, grant_probability: float
) -> np.ndarray:
    """Per-state drop probabilities from the chain's own transition matrix,
    cut to the transient states 0..B (B = C - demand) and solved densely."""
    b_state = chain.capacity - demand
    moves = transition_matrix(chain)
    within = moves[: b_state + 1, : b_state + 1].copy()
    dropped = np.zeros(b_state + 1)
    dropped[b_state] = moves[b_state, b_state + 1]  # a rise from B exceeds capacity
    if b_state > 0:
        # a rise from B-1 into B is negotiated: a grant undoes it, a refusal drops
        rise = within[b_state - 1, b_state]
        within[b_state - 1, b_state] = 0.0
        within[b_state - 1, b_state - 1] += rise * grant_probability
        dropped[b_state - 1] = rise * (1.0 - grant_probability)
    survive = 1.0 - completion
    return np.linalg.solve(np.eye(b_state + 1) - survive * within, survive * dropped)


def tv_distance(counts, reference: np.ndarray) -> float:
    emp = np.asarray(counts, dtype=float)
    emp = emp / emp.sum()
    return 0.5 * float(np.abs(emp - np.asarray(reference, dtype=float)).sum())


def pairwise_common_oracle(channel_sets: dict[int, frozenset], edges) -> dict[int, dict[int, frozenset]]:
    """Brute-force neighbor tables: plain set intersection per adjacent pair."""
    tables: dict[int, dict[int, frozenset]] = {i: {} for i in channel_sets}
    for i, j in edges:
        tables[i][j] = frozenset(channel_sets[i] & channel_sets[j])
        tables[j][i] = frozenset(channel_sets[j] & channel_sets[i])
    return tables


def components_oracle(nodes, links: dict[int, set[int]]) -> list[set[int]]:
    """Connected components of the restricted graph via BFS."""
    remaining = set(nodes)
    out = []
    while remaining:
        source = min(remaining)
        seen = {source}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in links.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        out.append(seen)
        remaining -= seen
    return out


def phase2_oracle(channel_sets: dict[int, frozenset], links: dict[int, set[int]], rounds: int) -> dict:
    """Candidate sets after every one of ``rounds`` rounds, none skipped: in
    ascending node order each node's set, as it stands at its slot, is
    intersected into each neighbor's."""
    candidates = {i: set(s) for i, s in sorted(channel_sets.items())}
    for _ in range(rounds):
        for node in sorted(candidates):
            payload = frozenset(candidates[node])
            for other in links.get(node, ()):
                candidates[other] &= payload
    return {i: frozenset(c) for i, c in candidates.items()}


def diameter_oracle(links: dict[int, set[int]]) -> int:
    """Max BFS eccentricity within components (0 for isolated nodes)."""
    best = 0
    for source in links:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in links.get(node, ()):
                if other not in dist:
                    dist[other] = dist[node] + 1
                    queue.append(other)
        if dist:
            best = max(best, max(dist.values()))
    return best


def slots(value, found=None) -> list:
    """Every (container, key or index) pair in a JSON value."""
    found = [] if found is None else found
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        found.append((value, key))
        slots(item, found)
    return found


def containers(value) -> list[dict]:
    return [value] + [parent[key] for parent, key in slots(value) if isinstance(parent[key], dict)]


def mutate(draw, valid, values, keys):
    """A copy of ``valid``, a JSON object, after one to three drawn edits: a
    value replaced by one of ``values`` or deleted, or one of ``keys`` added."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if op == "add" or not slots(doc):
            draw(st.sampled_from(containers(doc)))[draw(keys)] = draw(values)
            continue
        parent, key = draw(st.sampled_from(slots(doc)))
        if op == "delete":
            del parent[key]
        else:
            parent[key] = draw(values)
    return doc


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
