"""Analytic engine for channel-occupancy chains.

A band's licensed-user occupancy is modelled as a discrete-time birth-death
chain on {0..C}: each step the occupied-channel count rises by one with
probability ``birth`` (below capacity), falls by one with probability
``death`` (above zero), and otherwise stays.  This module provides the
closed-form stationary law, admission/blocking probabilities at
stationarity, and the absorbing-chain solve for the probability that an
admitted session is force-terminated before completing.

These values serve as the oracle against which the discrete-time simulator
is cross-validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ChainError",
    "OccupancyChain",
    "Distribution",
    "transition_matrix",
    "stationary",
    "prob_free_at_least",
    "blocking_probability",
    "noncompletion_probability",
    "noncompletion_by_state",
]


class ChainError(ValueError):
    """Raised for invalid chain parameters or undefined analytic quantities."""


@dataclass(frozen=True, slots=True)
class OccupancyChain:
    """Birth-death occupancy chain: capacity C, per-step birth/death probabilities."""

    capacity: int
    birth: float
    death: float

    def __post_init__(self) -> None:
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise ChainError(f"capacity must be an integer >= 1, got {self.capacity!r}")
        if not 0.0 <= self.birth <= 1.0:
            raise ChainError(f"birth probability must be in [0, 1], got {self.birth!r}")
        if not 0.0 <= self.death <= 1.0:
            raise ChainError(f"death probability must be in [0, 1], got {self.death!r}")
        if self.birth + self.death > 1.0 + 1e-12:
            raise ChainError(
                f"birth + death must not exceed 1 (stay probability would be negative), "
                f"got {self.birth} + {self.death}"
            )


@dataclass(frozen=True)
class Distribution:
    """Probability vector over occupancy states 0..C."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1:
            raise ChainError("distribution must be a 1-d probability vector")
        if np.any(p < -1e-15):
            raise ChainError("distribution entries must be nonnegative")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:  # written so that a NaN or infinite entry fails it
            raise ChainError(f"distribution entries must sum to 1, got {p.sum()!r}")


def transition_matrix(chain: OccupancyChain) -> np.ndarray:
    """Row-stochastic (C+1)x(C+1) one-step matrix of the occupancy chain.

    Row k puts mass ``birth`` on k+1 (when k < C), ``death`` on k-1
    (when k > 0) and the remainder on k.
    """
    c, p, q = chain.capacity, chain.birth, chain.death
    m = np.zeros((c + 1, c + 1), dtype=float)
    for k in range(c + 1):
        up = p if k < c else 0.0
        down = q if k > 0 else 0.0
        if k < c:
            m[k, k + 1] = up
        if k > 0:
            m[k, k - 1] = down
        m[k, k] = 1.0 - up - down
    return m


def stationary(chain: OccupancyChain) -> Distribution:
    """Stationary distribution of the occupancy chain.

    Detailed balance gives pi_k proportional to (birth/death)^k whenever
    death > 0; a pure-birth chain concentrates at capacity, and so does a
    chain whose ratio birth/death overflows to infinity (death a subnormal
    float), where every weight below capacity is zero in double precision.
    A frozen chain (birth == death == 0) has no unique stationary law and
    raises.
    """
    c, p, q = chain.capacity, chain.birth, chain.death
    if p == 0.0 and q == 0.0:
        raise ChainError("frozen chain (birth = death = 0): no unique stationary distribution")
    pi = np.zeros(c + 1, dtype=float)
    ratio = p / q if q else np.inf
    if ratio == np.inf:
        pi[c] = 1.0
    elif p == 0.0:
        pi[0] = 1.0
    else:
        # log-space geometric weights keep large capacities stable
        logs = np.arange(c + 1, dtype=float) * np.log(ratio)
        logs -= logs.max()
        w = np.exp(logs)
        pi = w / w.sum()
    return Distribution(pi)


def prob_free_at_least(chain: OccupancyChain, demand: int) -> float:
    """Stationary probability that at least ``demand`` channels are free."""
    if demand < 0:
        raise ChainError(f"demand must be nonnegative, got {demand}")
    if demand > chain.capacity:
        raise ChainError(f"demand exceeds capacity ({demand} > {chain.capacity})")
    if demand == 0:
        return 1.0
    pi = stationary(chain).probabilities
    return float(pi[: chain.capacity - demand + 1].sum())


def blocking_probability(bands: Sequence[OccupancyChain], demand: int) -> float:
    """Probability that no band can admit a demand of ``demand`` channels.

    Bands are treated as independent and at stationarity, so this is the
    product over bands of (1 - P[>= demand channels free]).  A band whose
    capacity is below the demand can never admit and contributes a factor 1.
    """
    if len(bands) == 0:
        raise ChainError("no spectrum configured: band list is empty")
    if demand < 0:
        raise ChainError(f"demand must be nonnegative, got {demand}")
    blocked = 1.0
    for band in bands:
        if demand > band.capacity:
            continue  # factor 1 - 0
        blocked *= 1.0 - prob_free_at_least(band, demand)
    return blocked


def noncompletion_by_state(
    chain: OccupancyChain, demand: int, completion: float, grant_probability: float
) -> np.ndarray:
    """Per-start-state drop probabilities x_k for k in {0..C-demand}.

    Transient states are occupancies k in {0..B} with B = C - demand.  Each
    step the session first completes with probability ``completion``;
    otherwise the occupancy takes one birth-death move.  A move into the
    boundary B (total usage would exactly reach capacity) is resolved by an
    instantaneous negotiation: with ``grant_probability`` one channel is
    yielded back (the move is undone), otherwise the session is dropped.
    A move past the boundary drops the session outright.

    Row k ties x_k only to x_{k-1} and x_{k+1}, and completion > 0 makes
    every row strictly diagonally dominant, so one elimination sweep up the
    rows and one back-substitution down them solve it without pivoting.
    """
    if not 0 < demand <= chain.capacity:
        raise ChainError(f"demand must be in 1..capacity, got {demand}")
    if completion == 0.0:
        raise ChainError("session never completes (completion = 0); absorption against Completed undefined")
    if not 0.0 < completion <= 1.0:
        raise ChainError(f"completion probability must be in (0, 1], got {completion}")
    if not 0.0 <= grant_probability <= 1.0:
        raise ChainError(f"grant probability must be in [0, 1], got {grant_probability}")
    p, q = chain.birth, chain.death
    b_state = chain.capacity - demand
    s = 1.0 - completion
    # elimination up the rows leaves row k as pivot[k] * x_k = y[k] + upper[k] * x_{k+1}
    pivot, upper, y = [0.0] * (b_state + 1), [0.0] * (b_state + 1), [0.0] * (b_state + 1)
    for k in range(b_state + 1):
        down = q if k > 0 else 0.0
        diag, up, rhs = 1.0 - s * (1.0 - p - down), s * p, 0.0
        if k == b_state:
            up, rhs = 0.0, s * p  # any further rise exceeds capacity and drops the session
        elif k + 1 == b_state:
            # negotiated entry: grant returns the walker to B-1, refusal drops
            diag, up, rhs = diag - s * p * grant_probability, 0.0, s * p * (1.0 - grant_probability)
        if k > 0:
            factor = s * down * (1.0 / pivot[k - 1])
            diag -= factor * upper[k - 1]
            rhs += factor * y[k - 1]
        # a completion lost in rounding (1 - completion == 1) can leave the rows
        # singular: a pivot of zero, one rounded below it, or NaN past its inverse
        if not diag > 0.0:
            raise ChainError(f"absorption equations are singular in double precision (completion {completion!r})")
        pivot[k], upper[k], y[k] = diag, up, rhs
    x = 0.0  # back-substitution down the rows; row B has no x_{B+1} term
    for k in range(b_state, -1, -1):
        x = y[k] = (y[k] + upper[k] * x) / pivot[k]
    return np.array(y)


def noncompletion_probability(
    chain: OccupancyChain, demand: int, completion: float, grant_probability: float
) -> float:
    """Probability an admitted session is dropped before completing.

    Single band, no alternative band: a refused negotiation or an occupancy
    rise past the boundary terminates the session.  The start state is the
    stationary occupancy conditioned on admission (at least ``demand``
    channels free, states {0..C-demand}).
    """
    x = noncompletion_by_state(chain, demand, completion, grant_probability)
    pi = stationary(chain).probabilities[: chain.capacity - demand + 1]
    weight = float(pi.sum())
    if weight <= 0.0:
        raise ChainError("admission has probability zero under the stationary law")
    return float(pi @ x / weight)
