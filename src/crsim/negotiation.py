"""Channel negotiation between the secondary user and the licensed user.

The licensed user's willingness to yield channels is a two-state Markov
chain (cooperative / non-cooperative) that evolves every simulation step,
independently of any ongoing negotiation.  A negotiation itself is a single
atomic request/response: a cooperative licensed user yields the requested
number of channels (clamped to what it currently uses, never less than
one), a non-cooperative one refuses outright.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .spectrum_env import SpectrumBand, grant_channels

log = logging.getLogger(__name__)


class PuState(Enum):
    COOPERATIVE = "cooperative"
    NONCOOPERATIVE = "noncooperative"


@dataclass(slots=True)
class PuDisposition:
    """Two-state willingness chain with switch probabilities alpha and beta."""

    state: PuState
    alpha: float  # cooperative -> non-cooperative
    beta: float  # non-cooperative -> cooperative

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


@dataclass(frozen=True, slots=True)
class NegotiationOutcome:
    """Granted(channels >= 1) or Refused (channels == 0)."""

    granted: bool
    channels: int = 0

    def __post_init__(self) -> None:
        if self.granted and self.channels < 1:
            raise ValueError("a granted negotiation yields at least one channel")
        if not self.granted and self.channels != 0:
            raise ValueError("a refused negotiation yields no channels")


REFUSED = NegotiationOutcome(granted=False)

# bound once: before Python 3.12 reading an Enum member off its class costs a
# descriptor call, and step_dispositions runs every engine step
_COOPERATIVE, _NONCOOPERATIVE = PuState.COOPERATIVE, PuState.NONCOOPERATIVE


def step_dispositions(dispositions: Iterable[PuDisposition], draws: Iterable[float]) -> None:
    """Advance each willingness chain one step (in place), one draw per chain, in order.

    Draws beyond the last chain are left unread.
    """
    for disposition, u in zip(dispositions, draws):
        if disposition.state is _COOPERATIVE:
            if u < disposition.alpha:
                disposition.state = _NONCOOPERATIVE
        elif u < disposition.beta:
            disposition.state = _COOPERATIVE


def step_disposition(disposition: PuDisposition, rng) -> None:
    """Advance one willingness chain one step (in place, one uniform draw)."""
    step_dispositions((disposition,), (rng.random(),))


def stationary_cooperative_probability(disposition: PuDisposition) -> float:
    """Long-run probability of the cooperative state (the grant rate)."""
    if disposition.alpha == 0.0 and disposition.beta == 0.0:
        return 1.0 if disposition.state is PuState.COOPERATIVE else 0.0
    return disposition.beta / (disposition.alpha + disposition.beta)


def negotiate(band: SpectrumBand, channels: int) -> NegotiationOutcome:
    """Resolve one request for ``channels`` against the band's current disposition.

    A cooperative licensed user yields min(channels, pu_used) channels and
    the band is updated in place; a non-cooperative one refuses and the
    band is left untouched.  Outcome depends only on the disposition state
    at this step (plus the clamp).  A request for fewer than one channel is
    an error, whatever the disposition.
    """
    if channels < 1:
        raise ValueError(f"a negotiation requests at least one channel, got {channels}")
    if band.disposition.state is _NONCOOPERATIVE:
        return REFUSED
    if band.pu_used == 0:
        # Warning mode needs the licensed user on at least one channel, so an
        # idle user here means it released its channels while a negotiation
        # waited out its latency: the engine does not classify the mode again
        # before negotiating.
        log.warning("negotiation on band %d with idle PU: nothing to yield, refusing", band.band_id)
        return REFUSED
    yielded = min(channels, band.pu_used)
    grant_channels(band, yielded)
    return NegotiationOutcome(granted=True, channels=yielded)
