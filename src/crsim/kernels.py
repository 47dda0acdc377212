"""Hot Monte Carlo kernels in numpy.

Two numerically heavy loops live here: the brute-force session-outcome
Monte Carlo used to cross-check the absorbing-chain solve, and long
occupancy-chain trajectories for empirical stationary histograms.
"""

from __future__ import annotations

import numpy as np

from .markov import OccupancyChain, stationary

__all__ = ["mc_noncompletion", "occupancy_histogram"]


# ---------------------------------------------------------------------------
# session-outcome Monte Carlo
# ---------------------------------------------------------------------------

def mc_noncompletion(
    chain: OccupancyChain,
    demand: int,
    completion: float,
    grant_probability: float,
    n_sessions: int,
    seed: int,
    start_state: int | None = None,
) -> float:
    """Estimate the session drop probability by direct simulation.

    Runs ``n_sessions`` independent sessions through the same process the
    absorbing-chain solve models: complete with probability ``completion``
    each step, otherwise take one occupancy move; a move into the boundary
    state is granted back with ``grant_probability`` or drops the session,
    and a move past it always drops.  ``start_state=None`` draws starting
    occupancies from the stationary law conditioned on admission.
    """
    if not 0 < demand <= chain.capacity:
        raise ValueError(f"demand must be in 1..capacity, got {demand}")
    if n_sessions < 1:
        raise ValueError("n_sessions must be positive")
    boundary = chain.capacity - demand
    if start_state is not None and not 0 <= start_state <= boundary:
        raise ValueError(f"start_state must be in 0..{boundary}, got {start_state}")
    p, q = chain.birth, chain.death
    rng = np.random.default_rng(seed)
    if start_state is None:
        pi = stationary(chain).probabilities[: boundary + 1]
        cum = np.cumsum(pi / pi.sum())
        k = np.searchsorted(cum, rng.random(n_sessions), side="right").astype(np.int64)
        np.clip(k, 0, boundary, out=k)
    else:
        k = np.full(n_sessions, start_state, dtype=np.int64)
    drops = 0
    while k.size:
        k = k[rng.random(k.size) >= completion]  # completions leave the pool
        if k.size == 0:
            break
        u = rng.random(k.size)
        birth = u < p
        death = ~birth & (u < p + q) & (k > 0)
        nk = k + birth - death
        dropped = birth & (nk > boundary)
        into = np.flatnonzero(birth & (nk == boundary))
        if into.size:
            refused = rng.random(into.size) >= grant_probability
            nk[into] = boundary - 1  # granted walkers resume just below the boundary
            dropped[into[refused]] = True
        drops += int(np.count_nonzero(dropped))
        k = nk[~dropped]
    return drops / n_sessions


# ---------------------------------------------------------------------------
# occupancy-chain trajectory histogram
# ---------------------------------------------------------------------------

def occupancy_histogram(chain: OccupancyChain, start: int, steps: int, seed: int) -> np.ndarray:
    """Visit counts per occupancy state along one simulated trajectory."""
    if not 0 <= start <= chain.capacity:
        raise ValueError(f"start occupancy must be in 0..{chain.capacity}, got {start}")
    if steps < 1:
        raise ValueError("steps must be positive")
    capacity, p, q = chain.capacity, chain.birth, chain.death
    rng = np.random.default_rng(seed)
    counts = np.zeros(capacity + 1, dtype=np.int64)
    k = start
    remaining = steps
    while remaining:
        block = min(remaining, 1 << 16)
        for u in rng.random(block):
            if u < p:
                if k < capacity:
                    k += 1
            elif u < p + q:
                if k > 0:
                    k -= 1
            counts[k] += 1
        remaining -= block
    return counts
