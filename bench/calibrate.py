"""Host-speed calibration: fixed pure-Python loops timed around every measurement.

The benchmark shares a small machine whose speed drifts between and
within processes.  A raw time is therefore divided by the time of a
fixed loop measured right before and right after it, and multiplied by
the loop's reference duration so the result reads as seconds on the
reference host.  Slices must be long enough to average over the host's
bursts of contention, so each lasts about 0.1-0.2 s.

Each kind of measurement has its own loop, because a loop with another
instruction mix was seen to slow down by a different factor when the
host got slower:

- ``engine_work`` times jobs.  It is a miniature of the engine's step loop
  (bands stepped by uniform draws, named-tuple views ranked by score,
  short-lived slotted session objects, struct packing and hash updates).
- ``import_work`` times set-up.  It compiles and executes a module body
  that defines dataclasses, an enum and a named tuple, as importing crsim
  does.
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
import time
from typing import Callable, NamedTuple

# Rounds per slice, and the nominal duration of one slice on the reference
# host, a 2-core x86-64 machine running CPython 3.11, where slice times
# drifted by up to 2x around these values.  A reference duration only sets
# the scale: changing it rescales every timing made with that loop.
ENGINE_ROUNDS = 16000
ENGINE_REFERENCE_S = 0.2
IMPORT_ROUNDS = 40
IMPORT_REFERENCE_S = 0.1
_PACK = struct.Struct("<IBqqq").pack


class _State(enum.Enum):
    ACTIVE = "active"
    DONE = "done"


class _Band:
    __slots__ = ("band_id", "capacity", "used", "busy")

    def __init__(self, band_id: int, capacity: int) -> None:
        self.band_id = band_id
        self.capacity = capacity
        self.used = capacity // 2
        self.busy = False


class _Session:
    __slots__ = ("session_id", "band_id", "demand", "status", "age")

    def __init__(self, session_id: int, band_id: int, demand: int) -> None:
        self.session_id = session_id
        self.band_id = band_id
        self.demand = demand
        self.status = _State.ACTIVE
        self.age = 0


class _View(NamedTuple):
    band_id: int
    capacity: int
    free: int
    busy: bool


def _step_band(band: _Band, u: float) -> None:
    if u < 0.3:
        if band.used < band.capacity:
            band.used += 1
    elif u < 0.6:
        if band.used > 0:
            band.used -= 1


def _pick(views: list[_View], need: int, scores: dict[int, float]) -> int | None:
    best, best_score = None, -1.0
    for view in views:
        if view.busy or view.free < need:
            continue
        score = scores.get(view.band_id, 0.25)
        if score > best_score:
            best, best_score = view.band_id, score
    return best


def engine_work(rounds: int = ENGINE_ROUNDS) -> str:
    """The calibration loop for jobs, a miniature of the engine's step loop.

    Returns a digest so that none of the work can be skipped.
    """
    uniforms = random.Random(7).random
    bands = [_Band(i, 6 + i % 5) for i in range(8)]
    scores: dict[int, float] = {}
    hasher = hashlib.blake2b(digest_size=16)
    pack = _PACK
    live: list[_Session] = []
    next_id = 0
    for t in range(rounds):
        for band in bands:
            _step_band(band, uniforms())
        views = [_View(b.band_id, b.capacity, b.capacity - b.used, b.busy) for b in bands]
        chosen = _pick(views, 1 + t % 4, scores)
        if chosen is not None:
            session = _Session(next_id, chosen, 1 + t % 4)
            next_id += 1
            live.append(session)
            scores[chosen] = scores.get(chosen, 0.25) * 0.9 + 0.1
            hasher.update(pack(t, 1, session.session_id, chosen, session.demand))
        for session in tuple(live):
            session.age += 1
            if session.age > 6:
                session.status = _State.DONE
                live.remove(session)
                hasher.update(pack(t, 10, session.session_id, session.band_id, 0))
    return hasher.hexdigest()


_MODULE_BODY = """
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple


class Kind(Enum):
    A = "a"
    B = "b"
    C = "c"


@dataclass(frozen=True)
class Decl:
    band_id: int
    capacity: int
    p: float
    q: float
    occupancy: int = 0

    def to_dict(self):
        return {"id": self.band_id, "capacity": self.capacity, "p": self.p, "q": self.q}


@dataclass(slots=True)
class State:
    band_id: int
    used: int
    hist: list = field(default_factory=list)


class View(NamedTuple):
    band_id: int
    free: int
"""


def import_work(rounds: int = IMPORT_ROUNDS) -> int:
    """The calibration loop for set-up: compile and run a small module body."""
    names = 0
    for i in range(rounds):
        namespace: dict = {}
        exec(compile(_MODULE_BODY, f"<calibration-{i}>", "exec"), namespace)
        names += len(namespace)
    return names


def time_slice(work: Callable[[], object] = engine_work) -> float:
    """Wall seconds of one calibration slice of ``work`` on this host, now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def normalise(
    raw_s: float, slice_before_s: float, slice_after_s: float, reference_s: float = ENGINE_REFERENCE_S
) -> float:
    """Raw seconds rescaled to the reference host, using the adjacent slices."""
    return raw_s * reference_s / ((slice_before_s + slice_after_s) / 2.0)
