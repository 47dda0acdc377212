"""Shared test oracles: independent reference implementations."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from crsim.markov import OccupancyChain
from crsim.negotiation import PuDisposition, PuState
from crsim.spectrum_env import SpectrumBand
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


def stationary_by_linear_solve(matrix: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 directly (dense, no closed form)."""
    n = matrix.shape[0]
    a = matrix.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
