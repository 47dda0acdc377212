"""Live spectrum-band state: licensed-user occupancy and sensing.

Bands are owned and mutated by the simulation engine (single writer per
run); the functions here change band state in place and consume exactly
one uniform draw per band stepped.  Sensing is noise-free and reads one
number, the band's free channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .markov import OccupancyChain

if TYPE_CHECKING:
    from .negotiation import PuDisposition
    from .su_fsm import SuSession


class GrantError(ValueError):
    """Raised when the licensed user is asked to yield more than it occupies."""


@dataclass(slots=True)
class SpectrumBand:
    """One spectrum band: occupancy chain parameters plus current state.

    Admission and handover rank these live bands directly: a band holding a
    session (``su``) never qualifies, any other one needs ``free`` channels.
    """

    band_id: int
    chain: OccupancyChain
    pu_used: int
    disposition: "PuDisposition"
    su: "SuSession | None" = None  # resident secondary session, if any

    @property
    def capacity(self) -> int:
        return self.chain.capacity

    @property
    def free(self) -> int:
        return self.chain.capacity - self.pu_used

    def __post_init__(self) -> None:
        if self.band_id < 0:
            raise ValueError(f"band id must be nonnegative, got {self.band_id}")
        if not 0 <= self.pu_used <= self.chain.capacity:
            raise ValueError(
                f"occupancy {self.pu_used} outside 0..{self.chain.capacity} on band {self.band_id}"
            )


# (band, birth, birth + death, capacity): what one occupancy step reads
ChainRow = tuple[SpectrumBand, float, float, int]


def chain_rows(bands: Iterable[SpectrumBand]) -> list[ChainRow]:
    """The ``step_bands`` rows of ``bands``, in the order given."""
    return [(b, b.chain.birth, b.chain.birth + b.chain.death, b.chain.capacity) for b in bands]


def step_bands(rows: Iterable[ChainRow], draws: Iterable[float]) -> None:
    """Advance each row's band by one chain step (in place), one draw per band, in order.

    A draw in [0, birth) raises occupancy, [birth, birth+death) lowers it,
    the rest holds, with moves off the 0..capacity range suppressed.
    Draws beyond the last row are left unread.
    """
    for (band, birth, birth_death, capacity), u in zip(rows, draws):
        if u < birth:
            if band.pu_used < capacity:
                band.pu_used += 1
        elif u < birth_death:
            if band.pu_used > 0:
                band.pu_used -= 1


def step_band(band: SpectrumBand, rng) -> None:
    """Advance one band's occupancy by one chain step (in place, one uniform draw)."""
    step_bands(chain_rows((band,)), (rng.random(),))


def sense(band: SpectrumBand) -> int:
    """Sense the band without noise: the channels its licensed user leaves free."""
    return band.chain.capacity - band.pu_used


def grant_channels(band: SpectrumBand, channels: int) -> None:
    """The licensed user defers ``channels`` of its current usage (in place)."""
    if channels < 1:
        raise GrantError(f"grant must yield at least one channel, got {channels}")
    if channels > band.pu_used:
        raise GrantError(
            f"PU cannot yield more than it uses ({channels} > {band.pu_used} on band {band.band_id})"
        )
    band.pu_used -= channels
