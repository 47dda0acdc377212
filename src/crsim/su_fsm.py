"""Secondary-user session lifecycle: mode classification and decisions.

The three occupancy regimes generalize the worked 8-channel example: with
the licensed user on ``pu_used`` channels and a session demanding
``demand`` of ``capacity``, the session is in Normal mode while everything
fits with slack, Warning mode when usage would exactly reach capacity
with both the licensed user and the session on at least one channel
(negotiate: there is something to yield), and Failure mode when the
demand no longer fits (handover, no negotiation).  A zero-demand probe
claims no channels, and a session alone on a band it fills leaves nothing
to negotiate, so both are in Normal mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterable, Sequence, TypeVar

from .handover import select_target
from .learning import KnowledgeBase
from .negotiation import NegotiationOutcome
from .qos import priority
from .spectrum_env import SpectrumBand


_T = TypeVar("_T")


class FsmError(RuntimeError):
    """Raised on transitions that the session lifecycle does not allow."""


class Mode(IntEnum):
    NORMAL = 0
    WARNING = 1
    FAILURE = 2


# display names, indexed by Mode
MODE_NAMES = ("Normal", "Warning", "Failure")


class Action(Enum):
    CONTINUE_TRANSMIT = "continue_transmit"
    START_NEGOTIATION = "start_negotiation"
    START_HANDOVER = "start_handover"


# the action of an active session in each mode, indexed by Mode
MODE_ACTIONS = (Action.CONTINUE_TRANSMIT, Action.START_NEGOTIATION, Action.START_HANDOVER)


class SessionStatus(Enum):
    ACTIVE = "active"
    NEGOTIATING = "negotiating"
    HANDING_OVER = "handing_over"


def classify_mode(pu_used: int, demand: int, capacity: int) -> Mode:
    """Classify the occupancy regime for an active session.

    Normal while pu_used + demand < capacity, Warning at exact equality
    when the licensed user and the session each hold at least one channel,
    Failure beyond.  For capacity 8 and demand 4 this maps occupancies
    0..3 / 4 / 5..8 respectively.  A probe (demand 0) is always Normal, and
    so is a session filling a band whose licensed user is idle.
    """
    if demand < 0:
        raise ValueError(f"demand must be nonnegative, got {demand}")
    if demand > capacity:
        raise ValueError(f"band cannot ever satisfy demand ({demand} > capacity {capacity})")
    if not 0 <= pu_used <= capacity:
        raise ValueError(f"occupancy {pu_used} outside 0..{capacity}")
    total = pu_used + demand
    if total < capacity:
        return Mode.NORMAL
    if total == capacity:
        return Mode.WARNING if pu_used and demand else Mode.NORMAL
    return Mode.FAILURE


def mode_table(capacity: int, demand: int) -> tuple[Mode, ...]:
    """``classify_mode`` at every occupancy 0..capacity, indexed by occupancy.

    Raises as ``classify_mode`` does when the band can never hold ``demand``.
    """
    return tuple(classify_mode(pu_used, demand, capacity) for pu_used in range(capacity + 1))


@dataclass(slots=True, eq=False)
class SuSession:
    """One secondary-user session; owned and mutated by the engine.

    Sessions compare by identity: two sessions are never the same session
    because their fields happen to match.
    """

    session_id: int
    demand: int
    completion: float  # per-step completion probability
    band_id: int
    status: SessionStatus = SessionStatus.ACTIVE
    wait: int = 0  # steps left in the negotiation or handover that ``status`` names
    handover_target: int | None = None
    replans: int = 0


def decide(session: SuSession, mode: Mode) -> Action:
    """Pick the action for an active session in the given mode."""
    if session.status is not SessionStatus.ACTIVE:
        raise FsmError(f"decide() needs an active session, session {session.session_id} is {session.status.value}")
    return MODE_ACTIONS[mode]


def apply_outcome(session: SuSession, outcome: NegotiationOutcome) -> SuSession:
    """Fold a negotiation outcome into the session (in place).

    Granted returns the session to Active on its band; Refused sends it
    into handover (target to be planned).
    """
    if session.status is not SessionStatus.NEGOTIATING:
        raise FsmError(
            f"apply_outcome() needs a negotiating session, session {session.session_id} is {session.status.value}"
        )
    session.status = SessionStatus.ACTIVE if outcome.granted else SessionStatus.HANDING_OVER
    return session


def order_arrivals(requests: Sequence[_T]) -> list[_T]:
    """Sort same-step requests (anything with a ``traffic``) by QoS priority.

    Higher priority goes first; the sort is stable, so ties keep the
    listed (arrival) order.
    """
    return sorted(requests, key=lambda r: -priority(r.traffic))


def admit(bands: Iterable[SpectrumBand], demand: int, kb: KnowledgeBase) -> int | None:
    """Admit a session to the best qualifying band, or return None (blocked).

    A band qualifies when it has at least ``demand`` free channels and no
    resident secondary session.  Among qualifying bands the one with the
    highest knowledge-base score wins; ties break toward the lowest id.
    This is handover target selection with no current band.
    """
    return select_target(bands, current=-1, demand=demand, kb=kb)
