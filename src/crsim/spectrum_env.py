"""Live spectrum-band state: licensed-user occupancy and sensing.

Bands are owned and mutated by the simulation engine (single writer per
run).  Of the functions here only ``step_band`` changes band state, in
place, with exactly one uniform draw per band stepped; a negotiation grant
(``negotiation.negotiate``) is the other writer of a band's occupancy.
Sensing is noise-free and reads one number, the band's free channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .markov import OccupancyChain

if TYPE_CHECKING:
    from .negotiation import PuDisposition
    from .su_fsm import SuSession


@dataclass(slots=True)
class SpectrumBand:
    """One spectrum band: occupancy chain parameters plus current state.

    Admission and handover rank these live bands directly: a band holding a
    session (``su``) never qualifies, any other one needs enough channels
    free (``sense``).
    """

    band_id: int
    chain: OccupancyChain
    pu_used: int
    disposition: "PuDisposition"
    su: "SuSession | None" = None  # resident secondary session, if any

    @property
    def capacity(self) -> int:
        return self.chain.capacity

    def __post_init__(self) -> None:
        if self.band_id < 0:
            raise ValueError(f"band id must be nonnegative, got {self.band_id}")
        if not 0 <= self.pu_used <= self.chain.capacity:
            raise ValueError(
                f"occupancy {self.pu_used} outside 0..{self.chain.capacity} on band {self.band_id}"
            )


def step_band(band: SpectrumBand, rng) -> None:
    """Advance one band's occupancy by one chain step (in place, one uniform draw).

    A draw in [0, birth) raises occupancy, [birth, birth+death) lowers it,
    the rest holds, with moves off the 0..capacity range suppressed.  The
    engine steps every band at once by this rule, in either of its passes
    (``simcore.step_chains``, or ``simcore.step_chains_wide`` for a wide
    band set).
    """
    u = rng.random()
    chain = band.chain
    if u < chain.birth:
        band.pu_used = min(band.pu_used + 1, chain.capacity)
    elif u < chain.birth + chain.death:
        band.pu_used = max(band.pu_used - 1, 0)


def sense(band: SpectrumBand) -> int:
    """Sense the band without noise: the channels its licensed user leaves free."""
    return band.chain.capacity - band.pu_used
