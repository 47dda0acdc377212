"""Hot Monte Carlo kernels in numpy.

Two numerically heavy loops live here: the brute-force session-outcome
Monte Carlo used to cross-check the absorbing-chain solve, and long
occupancy-chain trajectories for empirical stationary histograms.

Both are exact: they draw the same numbers in the same order as the plain
per-session and per-step walks they replace, and return the same results.
``tests/test_kernels.py`` keeps the per-step walk as the reference.
"""

from __future__ import annotations

import numpy as np

from .markov import OccupancyChain, stationary

__all__ = ["mc_noncompletion", "occupancy_histogram"]

# steps per histogram row: wider rows mean fewer scalar chain steps and
# narrower ones fewer column passes; 64 timed fastest of 24 to 128
_ROW = 64


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

    All live sessions step together.  Each step draws one completion
    number per live session, then one move number per session that did
    not complete, then one grant number per session that moved into the
    boundary, each in session order; the estimate depends on nothing else.
    """
    if not 0 < demand <= chain.capacity:
        raise ValueError(f"demand must be in 1..capacity, got {demand}")
    if not 0.0 < completion <= 1.0:
        raise ValueError(f"completion probability must be in (0, 1], got {completion}")
    if not 0.0 <= grant_probability <= 1.0:
        raise ValueError(f"grant probability must be in [0, 1], got {grant_probability}")
    if n_sessions < 1:
        raise ValueError("n_sessions must be positive")
    boundary = chain.capacity - demand
    if start_state is not None and not 0 <= start_state <= boundary:
        raise ValueError(f"start_state must be in 0..{boundary}, got {start_state}")
    p, q = chain.birth, chain.death
    # the smallest signed type that holds capacity + 1: a session lives in
    # 0..boundary and a move takes it at most one past the boundary
    dtype = next((t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max > chain.capacity), np.int64)
    rng = np.random.default_rng(seed)
    if start_state is None:
        pi = stationary(chain).probabilities[: boundary + 1]
        cum = np.cumsum(pi / pi.sum())
        k = np.searchsorted(cum, rng.random(n_sessions), side="right").astype(dtype)
        np.clip(k, 0, boundary, out=k)
    else:
        k = np.full(n_sessions, start_state, dtype=dtype)
    drops = 0
    while k.size:
        k = k[rng.random(k.size) >= completion]  # completions leave the pool
        if k.size == 0:
            break
        u = rng.random(k.size)
        birth = u < p
        death = u < p + q
        death ^= birth  # u in [p, p + q): birth implies u < p + q
        death &= k > 0
        nk = k + birth
        nk -= death
        into = np.flatnonzero(nk == boundary)
        into = into[birth[into]]  # a session that held at the boundary did not move into it
        if into.size:
            # granted walkers resume just below the boundary; refused ones drop
            refused = rng.random(into.size) >= grant_probability
            nk[into] = np.where(refused, boundary + 1, boundary - 1)
        live = nk <= boundary  # only a birth or a refusal passes the boundary
        k = nk[live]
        drops += live.size - k.size
    return drops / n_sessions


# ---------------------------------------------------------------------------
# occupancy-chain trajectory histogram
# ---------------------------------------------------------------------------

def _clamped_step(states: np.ndarray, moves: np.ndarray, capacity: int) -> None:
    """Move ``states`` in place by ``moves``, clamped to 0..capacity."""
    states += moves
    np.maximum(states, 0, out=states)
    np.minimum(states, capacity, out=states)


def occupancy_histogram(chain: OccupancyChain, start: int, steps: int, seed: int) -> np.ndarray:
    """Visit counts per occupancy state along one simulated trajectory.

    The walk starts at ``start`` and takes ``steps`` steps; the state after
    each step is counted.  Step ``i`` draws ``u``: below ``birth`` it moves
    up, below ``birth + death`` down, otherwise it holds, and a move never
    leaves 0..capacity.

    The result equals that of the per-step walk on the same draws, count
    for count, but is computed in blocks.  A step is the map
    ``k -> clamp(k + move, 0, capacity)``, and a run of such maps is
    ``k -> clamp(k + shift, lo, hi)``, where ``shift`` is the sum of the
    moves and ``lo`` and ``hi`` are where the run takes walks that start at
    0 and at ``capacity``.  Each block of draws is cut into rows of
    ``_ROW`` steps (the last row padded with holds); numpy walks every
    row's ``lo`` and ``hi`` a column at a time, a scalar loop chains the row
    maps to find each row's start state, and numpy replays the rows from
    those states a column at a time, counting the states.  The padding
    holds, all at the block's final state, are then taken off its count.
    """
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
        u = rng.random(block)
        rows = -(-block // _ROW)
        moves = np.zeros(rows * _ROW, dtype=np.int8)
        moves[:block] = 2 * (u < p).view(np.int8) - (u < p + q).view(np.int8)  # u < p implies u < p + q
        columns = moves.reshape(rows, _ROW).T.copy()  # columns[j][r] is step j of row r
        ends = np.zeros((2, rows), dtype=np.intp)
        ends[1] = capacity
        for column in columns:
            _clamped_step(ends, column, capacity)
        starts = []
        for shift, lo, hi in zip(columns.sum(axis=0).tolist(), *ends.tolist()):
            starts.append(k)
            k = min(max(k + shift, lo), hi)
        walk = np.array(starts, dtype=np.intp)
        for column in columns:
            _clamped_step(walk, column, capacity)
            seen = np.bincount(walk)
            counts[: seen.size] += seen
        counts[k] -= rows * _ROW - block
        remaining -= block
    return counts
