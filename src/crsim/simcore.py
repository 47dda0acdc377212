"""Deterministic discrete-time engine orchestrating bands, sessions, learning.

Each step applies a fixed sub-step order: (1) every band's occupancy
evolves, (2) every licensed-user disposition evolves, (3) due arrivals are
admitted in priority order, (4-6) each live session senses, classifies its
mode and acts (transmit / negotiate / hand over), (7) transmitting sessions
draw completion, (8) buffered knowledge-base updates apply, (9) metrics,
histograms and invariant checks.

Sensing in (4-6) only buffers knowledge-base counters; (8) applies them, so
every score read during a step sees the counters as of the step's start.
Each time an active session senses and classifies its mode it observes
every band once on a scan step (step index a multiple of the handover scan
interval), its own band included, and only its own band on any other step.
Every observation reaches (8) as one (band, sensed, available) record: an
own-band sense is buffered at once as (band, 1, free >= demand).  A scan is
counted by the session's demand alone, not sensed band by band, and each
band's share of those counts is settled into one record at the band's
current occupancy: sensed is the number of scans, available those with
free >= demand.  (8) settles every pending share, then applies the records.
Within (4-6) only a negotiation grant changes a band's occupancy, so the
engine settles that band's pending scans right before the grant; scans
counted earlier in the step thus see the occupancy before the grant, later
ones the occupancy after it, exactly as a band-by-band sense would.  The
knowledge base's counters are sums, so the order of the records within (8)
does not matter.

Sessions admitted in (3) take part in (4-6) and (7) of the same step: they
sense the occupancy that (1) has just produced and act on it at once.  A
session admitted onto a band at the Warning boundary (occupancy + demand ==
capacity) therefore negotiates in its admission step, and one admitted in
Normal mode may complete in that step.

A session's turn in (4-6) senses and acts on its band (written inline in
the turn loop, which every active session runs each step) or runs the
handlers (negotiate, hand over, arrive) one after another, each returning
what is due next in this step: another handler, sensing again (a handover
that lands), or nothing.  Within one step a session is never handed
back to a band it has already left in that step, so a turn visits each band
at most once and ends by itself; a session that every band it can still
reach refuses is dropped for want of a target.

Determinism contract: a single uniform stream seeded from the scenario
seed is consumed in a documented order — bands by ascending id, then
dispositions by ascending id, then completion draws by ascending session
id.  Admission, negotiation outcomes and handover selection consume no
extra randomness, so identical (scenario, seed) pairs reproduce the event
trace bit for bit.  The chain draws of (1) and (2) are taken as one block
per step, and the completion draws of (7) as another, one per session that
transmits in the step; a block holds exactly the values that one draw at a
time would give, in the same order.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import handover as ho
from . import markov, negotiation, spectrum_env, su_fsm
from .learning import KnowledgeBase
from .markov import OccupancyChain
from .negotiation import PuDisposition, PuState
from .qos import TrafficType, channel_demand
from .spectrum_env import BandView, SpectrumBand
from .su_fsm import MODE_NAMES, Action, Mode, SessionStatus, SuSession

__all__ = [
    "ScenarioError",
    "EngineError",
    "ComparisonError",
    "BandDecl",
    "SessionDecl",
    "Scenario",
    "Metrics",
    "EventTrace",
    "RunResult",
    "Engine",
    "run",
    "compare",
    "analytic_figures",
    "CompareReport",
    "canonical_preset",
    "PRESETS",
]


class ScenarioError(ValueError):
    """Malformed scenario; ``problems`` lists every violated field."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario: " + "; ".join(problems))


class EngineError(RuntimeError):
    """An engine invariant (conservation, state consistency) was violated."""


class ComparisonError(ValueError):
    """The scenario cannot be reduced to the analytic model's assumptions."""


# ---------------------------------------------------------------------------
# scenario declarations
# ---------------------------------------------------------------------------

_DISPOSITION_STATES = {s.value: s for s in PuState}


@dataclass(frozen=True)
class BandDecl:
    band_id: int
    capacity: int
    p: float
    q: float
    initial_occupancy: int = 0
    disposition_state: PuState = PuState.COOPERATIVE
    alpha: float = 0.0
    beta: float = 0.0

    def build(self) -> SpectrumBand:
        return SpectrumBand(
            band_id=self.band_id,
            chain=OccupancyChain(self.capacity, self.p, self.q),
            pu_used=self.initial_occupancy,
            disposition=PuDisposition(self.disposition_state, self.alpha, self.beta),
        )

    def to_dict(self) -> dict:
        return {
            "id": self.band_id,
            "capacity": self.capacity,
            "p": self.p,
            "q": self.q,
            "initial_occupancy": self.initial_occupancy,
            "disposition": {
                "state": self.disposition_state.value,
                "alpha": self.alpha,
                "beta": self.beta,
            },
        }


@dataclass(frozen=True)
class SessionDecl:
    """One arrival ("arrival": step) or a repeating pattern ("every": k)."""

    traffic: TrafficType
    completion: float
    arrival: int | None = None
    every: int | None = None
    start: int = 0
    until: int | None = None
    demand: int | None = None  # override; 0 declares a pure probe

    def effective_demand(self) -> int:
        return channel_demand(self.traffic) if self.demand is None else self.demand

    def to_dict(self) -> dict:
        out: dict = {"traffic": self.traffic.value, "c": self.completion}
        if self.arrival is not None:
            out["arrival"] = self.arrival
        else:
            out["every"] = self.every
            out["start"] = self.start
            if self.until is not None:
                out["until"] = self.until
        if self.demand is not None:
            out["demand"] = self.demand
        return out


@dataclass(frozen=True)
class NegotiationParams:
    grant_request: int = 1
    latency: int = 1

    def to_dict(self) -> dict:
        return {"grant_request": self.grant_request, "latency": self.latency}


@dataclass(frozen=True)
class HandoverParams:
    latency: int = 1
    max_replans: int = 3
    scan_interval: int = 10

    def to_dict(self) -> dict:
        return {
            "latency": self.latency,
            "max_replans": self.max_replans,
            "scan_interval": self.scan_interval,
        }


@dataclass(frozen=True)
class Scenario:
    bands: tuple[BandDecl, ...]
    sessions: tuple[SessionDecl, ...]
    horizon: int
    seed: int
    negotiation: NegotiationParams = NegotiationParams()
    handover: HandoverParams = HandoverParams()
    name: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "bands": [b.to_dict() for b in self.bands],
            "sessions": [s.to_dict() for s in self.sessions],
            "negotiation": self.negotiation.to_dict(),
            "handover": self.handover.to_dict(),
            "horizon": self.horizon,
            "seed": self.seed,
        }
        if self.name:
            out["name"] = self.name
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        problems: list[str] = []

        def intval(value, path, minimum=None):
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{path}: must be an integer, got {value!r}")
                return None
            if minimum is not None and value < minimum:
                problems.append(f"{path}: must be >= {minimum}, got {value}")
                return None
            return value

        def floatval(value, path, lo, hi, lo_open=False):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"{path}: must be a number, got {value!r}")
                return None
            v = float(value)
            if not math.isfinite(v):
                problems.append(f"{path}: must be a finite number, got {value!r}")
                return None
            if v < lo or v > hi or (lo_open and v <= lo):
                bound = f"({lo}, {hi}]" if lo_open else f"[{lo}, {hi}]"
                problems.append(f"{path}: must be within {bound}, got {value}")
                return None
            return v

        if not isinstance(data, dict):
            raise ScenarioError(["scenario: top level must be a JSON object"])

        known = {"bands", "sessions", "negotiation", "handover", "horizon", "seed", "name"}
        for key in sorted(set(data) - known):
            problems.append(f"{key}: unknown top-level key")

        horizon = intval(data.get("horizon"), "horizon", 1)
        seed = intval(data.get("seed"), "seed", 0)
        name = data.get("name", cls.name)
        if not isinstance(name, str):
            problems.append("name: must be a string")

        bands: list[BandDecl] = []
        raw_bands = data.get("bands")
        if not isinstance(raw_bands, list) or not raw_bands:
            problems.append("bands: must be a nonempty list")
            raw_bands = []
        seen_ids: set[int] = set()
        for i, raw in enumerate(raw_bands):
            path = f"bands[{i}]"
            if not isinstance(raw, dict):
                problems.append(f"{path}: must be an object")
                continue
            band_id = intval(raw.get("id"), f"{path}.id", 0)
            capacity = intval(raw.get("capacity"), f"{path}.capacity", 1)
            p = floatval(raw.get("p"), f"{path}.p", 0.0, 1.0)
            q = floatval(raw.get("q"), f"{path}.q", 0.0, 1.0)
            if p is not None and q is not None and p + q > 1.0 + 1e-12:
                problems.append(f"{path}: p + q must not exceed 1, got {p} + {q}")
            occ = intval(raw.get("initial_occupancy", BandDecl.initial_occupancy), f"{path}.initial_occupancy", 0)
            if capacity is not None and occ is not None and occ > capacity:
                problems.append(f"{path}.initial_occupancy: exceeds capacity {capacity}")
            disp = raw.get("disposition", {})
            if not isinstance(disp, dict):
                problems.append(f"{path}.disposition: must be an object")
                disp = {}
            state_name = disp.get("state", BandDecl.disposition_state.value)
            state = _DISPOSITION_STATES.get(state_name)
            if state is None:
                problems.append(
                    f"{path}.disposition.state: must be one of {sorted(_DISPOSITION_STATES)}, got {state_name!r}"
                )
            alpha = floatval(disp.get("alpha", BandDecl.alpha), f"{path}.disposition.alpha", 0.0, 1.0)
            beta = floatval(disp.get("beta", BandDecl.beta), f"{path}.disposition.beta", 0.0, 1.0)
            if band_id is not None:
                if band_id in seen_ids:
                    problems.append(f"{path}.id: duplicate band id {band_id}")
                seen_ids.add(band_id)
            if None not in (band_id, capacity, p, q, occ, alpha, beta) and state is not None:
                bands.append(
                    BandDecl(band_id, capacity, p, q, occ, state, alpha, beta)
                )

        sessions: list[SessionDecl] = []
        raw_sessions = data.get("sessions", [])
        if not isinstance(raw_sessions, list):
            problems.append("sessions: must be a list")
            raw_sessions = []
        for i, raw in enumerate(raw_sessions):
            path = f"sessions[{i}]"
            if not isinstance(raw, dict):
                problems.append(f"{path}: must be an object")
                continue
            traffic_name = raw.get("traffic")
            try:
                traffic = TrafficType.from_name(traffic_name) if isinstance(traffic_name, str) else None
            except KeyError as exc:
                problems.append(f"{path}.traffic: {exc.args[0]}")
                traffic = None
            if traffic is None and not isinstance(traffic_name, str):
                problems.append(f"{path}.traffic: must be a traffic type name")
            completion = floatval(raw.get("c"), f"{path}.c", 0.0, 1.0, lo_open=True)
            demand = raw.get("demand")
            if demand is not None:
                demand = intval(demand, f"{path}.demand", 0)
            has_arrival = "arrival" in raw
            has_every = "every" in raw
            if has_arrival == has_every:
                problems.append(f"{path}: exactly one of 'arrival' or 'every' is required")
                continue
            if has_arrival:
                arrival = intval(raw.get("arrival"), f"{path}.arrival", 0)
                if traffic is not None and completion is not None and arrival is not None:
                    sessions.append(SessionDecl(traffic, completion, arrival=arrival, demand=demand))
            else:
                every = intval(raw.get("every"), f"{path}.every", 1)
                start = intval(raw.get("start", SessionDecl.start), f"{path}.start", 0)
                until = raw.get("until")
                if until is not None:
                    until = intval(until, f"{path}.until", 1)
                if traffic is not None and completion is not None and every is not None and start is not None:
                    sessions.append(
                        SessionDecl(traffic, completion, every=every, start=start, until=until, demand=demand)
                    )

        raw_neg = data.get("negotiation", {})
        if not isinstance(raw_neg, dict):
            problems.append("negotiation: must be an object")
            raw_neg = {}
        neg = NegotiationParams(
            grant_request=intval(
                raw_neg.get("grant_request", NegotiationParams.grant_request), "negotiation.grant_request", 1
            ),
            latency=intval(raw_neg.get("latency", NegotiationParams.latency), "negotiation.latency", 0),
        )
        raw_ho = data.get("handover", {})
        if not isinstance(raw_ho, dict):
            problems.append("handover: must be an object")
            raw_ho = {}
        hop = HandoverParams(
            latency=intval(raw_ho.get("latency", HandoverParams.latency), "handover.latency", 0),
            max_replans=intval(raw_ho.get("max_replans", HandoverParams.max_replans), "handover.max_replans", 0),
            scan_interval=intval(
                raw_ho.get("scan_interval", HandoverParams.scan_interval), "handover.scan_interval", 1
            ),
        )

        if problems:
            raise ScenarioError(problems)
        return cls(
            bands=tuple(bands),
            sessions=tuple(sessions),
            horizon=horizon,
            seed=seed,
            negotiation=neg,
            handover=hop,
            name=name,
        )


def canonical_preset() -> Scenario:
    """The worked single-band example: 8 channels, video conferencing demand 4.

    Probe sessions (instant completion) arrive every step against a
    never-cooperative licensed user, so admissions sample the stationary
    occupancy and the blocked fraction estimates the analytic blocking
    probability.
    """
    return Scenario(
        name="canonical",
        bands=(
            BandDecl(
                band_id=0,
                capacity=8,
                p=0.2,
                q=0.2,
                initial_occupancy=4,
                disposition_state=PuState.NONCOOPERATIVE,
                alpha=0.0,
                beta=0.0,
            ),
        ),
        sessions=(SessionDecl(TrafficType.VIDEO_CONFERENCING, completion=1.0, every=1),),
        horizon=400_000,
        seed=42,
        negotiation=NegotiationParams(grant_request=1, latency=0),
        handover=HandoverParams(latency=0, max_replans=3, scan_interval=10),
    )


PRESETS = {"canonical": canonical_preset}


# ---------------------------------------------------------------------------
# metrics and trace
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """Run counters; see module docstring for when each one moves.

    ``failed_handovers`` counts planning attempts that did not land a
    session (no qualifying target, or an arrival that found the target
    filled), while ``handovers`` counts completed migrations.
    """

    arrivals: int = 0
    admitted: int = 0
    blocked: int = 0
    completed: int = 0
    dropped: int = 0
    still_active: int = 0
    negotiations: int = 0
    grants: int = 0
    refusals: int = 0
    handovers: int = 0
    failed_handovers: int = 0
    mode_histogram: dict[str, int] = field(default_factory=lambda: dict.fromkeys(MODE_NAMES, 0))

    @property
    def interference_steps(self) -> int:
        """Session steps spent in Failure mode, where the demand no longer fits."""
        return self.mode_histogram[MODE_NAMES[Mode.FAILURE]]

    @property
    def empirical_blocking(self) -> float | None:
        return self.blocked / self.arrivals if self.arrivals else None

    @property
    def empirical_noncompletion(self) -> float | None:
        return self.dropped / self.admitted if self.admitted else None

    def to_dict(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "completed": self.completed,
            "dropped": self.dropped,
            "still_active": self.still_active,
            "negotiations": self.negotiations,
            "grants": self.grants,
            "refusals": self.refusals,
            "handovers": self.handovers,
            "failed_handovers": self.failed_handovers,
            "interference_steps": self.interference_steps,
            "mode_histogram": dict(self.mode_histogram),
            "empirical_blocking": self.empirical_blocking,
            "empirical_noncompletion": self.empirical_noncompletion,
        }


class EventKind:
    ADMIT = 1
    BLOCK = 2
    NEGOTIATION_STARTED = 3
    NEGOTIATION_GRANTED = 4
    NEGOTIATION_REFUSED = 5
    HANDOVER_STARTED = 6
    HANDOVER_COMPLETED = 7
    HANDOVER_REPLANNED = 8
    DROPPED = 9
    COMPLETED = 10


# NDJSON export per kind: (event name, key of b, key of c or None when c is not exported)
_KINDS = {
    EventKind.ADMIT: ("admit", "band", "demand"),
    EventKind.BLOCK: ("block", "band", "demand"),
    EventKind.NEGOTIATION_STARTED: ("negotiation_started", "band", "latency"),
    EventKind.NEGOTIATION_GRANTED: ("negotiation_granted", "band", "channels"),
    EventKind.NEGOTIATION_REFUSED: ("negotiation_refused", "band", "channels"),
    EventKind.HANDOVER_STARTED: ("handover_started", "source", "target"),
    EventKind.HANDOVER_COMPLETED: ("handover_completed", "band", "replans"),
    EventKind.HANDOVER_REPLANNED: ("handover_replanned", "band", "replans"),
    EventKind.DROPPED: ("dropped", "band", "reason"),
    EventKind.COMPLETED: ("completed", "band", None),
}

DROP_NO_TARGET = 1
DROP_REPLANS_EXHAUSTED = 2

_DROP_REASONS = {
    DROP_NO_TARGET: "no_target",
    DROP_REPLANS_EXHAUSTED: "replans_exhausted",
}

_EVENT_PACK = struct.Struct("<IBqqq").pack


class EventTrace:
    """Hash-accumulating event log; full records kept only on request.

    The trace hash is a blake2b-128 over a fixed little-endian packing of
    (scenario hash, seed) followed by every (step, kind, a, b, c) record,
    so it is stable across platforms and runs.
    """

    def __init__(self, scenario_hash_hex: str, seed: int, keep_records: bool = False):
        self._hasher = hashlib.blake2b(digest_size=16)
        self._hasher.update(b"crsim-trace-v1")
        self._hasher.update(bytes.fromhex(scenario_hash_hex))
        self._hasher.update(struct.pack("<q", seed))
        self.keep_records = keep_records
        self.records: list[tuple[int, int, int, int, int]] = []

    def add(self, step: int, kind: int, a: int, b: int, c: int) -> None:
        self._hasher.update(_EVENT_PACK(step, kind, a, b, c))
        if self.keep_records:
            self.records.append((step, kind, a, b, c))

    def hash_hex(self) -> str:
        return self._hasher.hexdigest()

    def ndjson_lines(self) -> Iterable[str]:
        if not self.keep_records:
            raise EngineError("trace records were not retained; run with keep_trace=True")
        for step, kind, a, b, c in self.records:
            name, key_b, key_c = _KINDS[kind]
            row = {"step": step, "event": name, "session": a}
            row[key_b] = b if b >= 0 else None
            if kind == EventKind.DROPPED:
                row[key_c] = _DROP_REASONS.get(c, str(c))
            elif key_c is not None:
                row[key_c] = c if c >= 0 else None
            yield json.dumps(row, separators=(",", ":"))


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    metrics: Metrics
    trace: EventTrace
    kb: KnowledgeBase
    band_histograms: dict[int, list[int]]
    timeseries: list[tuple] | None = None

    @property
    def trace_hash(self) -> str:
        return self.trace.hash_hex()


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class RandomStream:
    """Buffered uniform stream over one numpy Generator.

    Block draws produce the same values as repeated scalar draws, so this
    only amortizes call overhead; consumption order is unchanged.
    """

    __slots__ = ("_rng", "_buf", "_idx", "_len")
    _BLOCK = 8192

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._buf = self._rng.random(self._BLOCK).tolist()
        self._idx = 0
        self._len = self._BLOCK

    def random(self) -> float:
        i = self._idx
        if i >= self._len:
            self._buf = self._rng.random(self._BLOCK).tolist()
            i = 0
        self._idx = i + 1
        return self._buf[i]

    def take(self, n: int) -> list[float]:
        """The next ``n`` uniforms: exactly what ``n`` calls of ``random`` would return."""
        i = self._idx
        j = i + n
        if j <= self._len:
            self._idx = j
            return self._buf[i:j]
        out = self._buf[i:]
        n -= len(out)
        while n > 0:
            self._buf = self._rng.random(self._BLOCK).tolist()
            k = min(n, self._BLOCK)
            out += self._buf[:k]
            self._idx = k
            n -= k
        return out


# one step of a session's turn in (4-6): it returns the next handler due in
# this step, _SENSE when the session senses and acts on its band next, or
# None when the turn is over
_Handler = Callable[[SuSession, int], "_Handler | object | None"]
_SENSE = object()

# Enum members read in every step, bound once: before Python 3.12 reading a
# member off its class costs a descriptor call
_ACTIVE = SessionStatus.ACTIVE
_NEGOTIATING = SessionStatus.NEGOTIATING
_HANDING_OVER = SessionStatus.HANDING_OVER
_TRANSMIT = Action.CONTINUE_TRANSMIT
_NEGOTIATE = Action.START_NEGOTIATION


class _Arrival(NamedTuple):
    """One due arrival of a declaration, demand resolved once per run."""

    traffic: TrafficType
    demand: int
    completion: float


class Engine:
    """Owns all mutable world state for one run."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        keep_trace: bool = False,
        collect_timeseries: bool = False,
        kb: KnowledgeBase | None = None,
    ):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.stream = RandomStream(self.seed)
        self.bands: list[SpectrumBand] = sorted(
            (decl.build() for decl in scenario.bands), key=lambda b: b.band_id
        )
        self.band_by_id = {b.band_id: b for b in self.bands}
        self.kb = kb if kb is not None else KnowledgeBase()
        self.metrics = Metrics()
        self.trace = EventTrace(scenario.sha256(), self.seed, keep_records=keep_trace)
        self.live: list[SuSession] = []
        self.step_index = 0
        self._arrival_seq = 0
        self._hist = {b.band_id: [0] * (b.capacity + 1) for b in self.bands}
        # rows that (1), (2) and (9) walk, aligned with self.bands
        self._chain_rows = spectrum_env.chain_rows(self.bands)
        self._dispositions = [b.disposition for b in self.bands]
        self._hist_rows = [self._hist[b.band_id] for b in self.bands]
        self._neg_events: list[tuple[int, bool]] = []
        # the (band id, sensed, available) records that (8) applies
        self._senses: list[tuple[int, int, int]] = []
        # scans of this step by demand, and per band the scan counts
        # already settled into its records
        self._scan_counts: dict[int, int] = {}
        self._scan_settled: dict[int, dict[int, int]] = {}
        # sessions that transmit in this step, in ascending session id
        self._transmitters: list[SuSession] = []
        self._single_arrivals: dict[int, list[_Arrival]] = {}
        # (arrival, start, stop, every) of each repeating declaration
        self._patterns: list[tuple[_Arrival, int, int, int]] = []
        for decl in scenario.sessions:
            arrival = _Arrival(decl.traffic, decl.effective_demand(), decl.completion)
            if decl.arrival is not None:
                self._single_arrivals.setdefault(decl.arrival, []).append(arrival)
            else:
                stop = scenario.horizon if decl.until is None else min(decl.until, scenario.horizon)
                self._patterns.append((arrival, decl.start, stop, decl.every))
        # per band id: the band and, per demand it can hold, the (mode name,
        # action) of an active session at each occupancy
        demands = {decl.effective_demand() for decl in scenario.sessions}
        capacities = {b.capacity for b in self.bands}
        tables = {
            (c, d): tuple((MODE_NAMES[mode], su_fsm.MODE_ACTIONS[mode]) for mode in su_fsm.mode_table(c, d))
            for c in capacities
            for d in demands
            if d <= c
        }
        self._mode_rows = {
            b.band_id: (b, {d: tables[b.capacity, d] for d in demands if d <= b.capacity}) for b in self.bands
        }
        # bands the acting session has left in its current turn of (4-6)
        self._left: set[int] = set()
        self.timeseries: list[tuple] | None = [] if collect_timeseries else None

    # -- views ------------------------------------------------------------

    def band_views(self) -> list[BandView]:
        """Snapshots of the live bands; the engine itself ranks ``self.bands``."""
        return [BandView(b.band_id, b.capacity, b.free, b.su_busy) for b in self.bands]

    # -- per-step machinery -------------------------------------------------

    def step(self) -> None:
        """Advance the world one step (sub-steps 1-9, fixed order)."""
        if self.step_index >= self.scenario.horizon:
            raise EngineError("stepping past the scenario horizon")
        t = self.step_index
        stream = self.stream
        m = self.metrics
        bands = self.bands
        n_bands = len(bands)

        # (1) occupancy chains, then (2) disposition chains, ascending band id
        draws = stream.take(2 * n_bands)
        spectrum_env.step_bands(self._chain_rows, draws)
        negotiation.step_dispositions(self._dispositions, draws[n_bands:])

        # (3) arrivals in priority order
        due = self._single_arrivals.pop(t, [])
        due += [a for a, start, stop, every in self._patterns if start <= t < stop and (t - start) % every == 0]
        if due:
            if len(due) > 1:
                due = su_fsm.order_arrivals(due)
            for arrival in due:
                self._admit_one(t, arrival)

        # (4-6) sense, classify, decide, act: one turn per live session
        mode_rows = self._mode_rows
        mode_histogram = m.mode_histogram
        scan = t % self.scenario.handover.scan_interval == 0
        scans = self._scan_counts
        senses = self._senses
        sense = spectrum_env.sense
        transmitters = self._transmitters
        left = self._left
        for session in tuple(self.live):
            status = session.status
            if status is _ACTIVE:
                action = _SENSE
            else:
                session.wait -= 1
                if session.wait > 0:
                    continue
                action = self._resolve_negotiation if status is _NEGOTIATING else self._arrive
            while action is not None:
                if action is _SENSE:
                    # sense the own band, classify the mode and act on it
                    band, modes = mode_rows[session.band_id]
                    demand = session.demand
                    if scan:
                        scans[demand] = scans.get(demand, 0) + 1
                    else:
                        senses.append((band.band_id, 1, sense(band) >= demand))
                    mode_name, action = modes[demand][band.pu_used]
                    mode_histogram[mode_name] += 1
                    if action is _TRANSMIT:
                        transmitters.append(session)
                        break
                    if action is _NEGOTIATE:
                        action = self._begin_negotiation
                    else:  # START_HANDOVER (Failure: no negotiation phase)
                        session.status = _HANDING_OVER
                        action = self._start_handover
                action = action(session, t)
            if left:
                left.clear()

        # (7) completion draws, ascending session id
        if transmitters:
            for session, u in zip(transmitters, stream.take(len(transmitters))):
                if u < session.completion:
                    self._complete(session, t)
            transmitters.clear()

        # (8) knowledge-base updates buffered during this step
        if self._neg_events:
            for band_id, granted in self._neg_events:
                self.kb.record_negotiation(band_id, granted)
            self._neg_events.clear()
        if scans:
            self._settle_scans(bands)
            scans.clear()
            self._scan_settled.clear()
        if senses:
            record_sense = self.kb.record_sense
            for band_id, sensed, available in senses:
                record_sense(band_id, sensed, available)
            senses.clear()

        # (9) metrics, histograms, invariants
        for band, row in zip(bands, self._hist_rows):
            row[band.pu_used] += 1
        m.still_active = len(self.live)
        if m.admitted + m.blocked != m.arrivals:
            raise EngineError("conservation violated: admitted + blocked != arrivals")
        if m.completed + m.dropped + m.still_active != m.admitted:
            raise EngineError("conservation violated: completed + dropped + active != admitted")
        if m.grants + m.refusals != m.negotiations:
            raise EngineError("conservation violated: grants + refusals != negotiations")
        if self.timeseries is not None:
            self.timeseries.append(
                (t, *(b.pu_used for b in bands), m.still_active, m.arrivals, m.blocked, m.completed, m.dropped)
            )
        self.step_index = t + 1

    def _admit_one(self, t: int, arrival: _Arrival) -> None:
        demand = arrival.demand
        m = self.metrics
        sid = self._arrival_seq
        self._arrival_seq += 1
        m.arrivals += 1
        band_id = su_fsm.admit(self.bands, demand, self.kb)
        if band_id is None:
            m.blocked += 1
            self.trace.add(t, EventKind.BLOCK, sid, -1, demand)
            return
        m.admitted += 1
        session = SuSession(
            session_id=sid,
            demand=demand,
            completion=arrival.completion,
            band_id=band_id,
        )
        self.band_by_id[band_id].su = session
        self.live.append(session)
        self.trace.add(t, EventKind.ADMIT, sid, band_id, demand)

    def _begin_negotiation(self, session: SuSession, t: int) -> _Handler | None:
        session.status = _NEGOTIATING
        latency = self.scenario.negotiation.latency
        if latency == 0:
            return self._resolve_negotiation
        session.wait = latency
        self.trace.add(t, EventKind.NEGOTIATION_STARTED, session.session_id, session.band_id, latency)
        return None

    def _resolve_negotiation(self, session: SuSession, t: int) -> _Handler | None:
        band = self.band_by_id[session.band_id]
        if self._scan_counts:  # a grant would change what later scans see
            self._settle_scans((band,))
        outcome = negotiation.negotiate(band, self.scenario.negotiation.grant_request)
        m = self.metrics
        m.negotiations += 1
        self._neg_events.append((band.band_id, outcome.granted))
        su_fsm.apply_outcome(session, outcome)
        if outcome.granted:
            m.grants += 1
            self.trace.add(t, EventKind.NEGOTIATION_GRANTED, session.session_id, band.band_id, outcome.channels)
            self._transmitters.append(session)
            return None
        m.refusals += 1
        self.trace.add(t, EventKind.NEGOTIATION_REFUSED, session.session_id, band.band_id, 0)
        return self._start_handover

    def _start_handover(self, session: SuSession, t: int) -> _Handler | None:
        source = session.band_id
        self._vacate(session)
        # never hand the session back to a band it has left in this step
        left = self._left
        left.add(source)
        bands = self.bands if len(left) == 1 else [b for b in self.bands if b.band_id not in left]
        plan = ho.plan_handover(bands, current=source, demand=session.demand, kb=self.kb)
        self.trace.add(
            t,
            EventKind.HANDOVER_STARTED,
            session.session_id,
            source,
            plan.target if plan.target is not None else -1,
        )
        if plan.target is None:
            self.metrics.failed_handovers += 1
            self._drop(session, t, DROP_NO_TARGET)
            return None
        latency = self.scenario.handover.latency
        session.handover_target = plan.target
        session.wait = latency
        return self._arrive if latency == 0 else None

    def _arrive(self, session: SuSession, t: int) -> _Handler | object | None:
        target = self.band_by_id[session.handover_target]
        if target.su is None and target.free >= session.demand:
            replans_taken = session.replans
            session.band_id = target.band_id
            session.status = _ACTIVE
            session.replans = 0
            target.su = session
            self.metrics.handovers += 1
            self.trace.add(t, EventKind.HANDOVER_COMPLETED, session.session_id, target.band_id, replans_taken)
            return _SENSE  # fresh sensing, mode, action
        # target filled up during the latency window: plan again
        session.replans += 1
        self.metrics.failed_handovers += 1
        self.trace.add(t, EventKind.HANDOVER_REPLANNED, session.session_id, target.band_id, session.replans)
        if session.replans >= self.scenario.handover.max_replans:
            self._drop(session, t, DROP_REPLANS_EXHAUSTED)
            return None
        return self._start_handover

    def _settle_scans(self, bands: Iterable[SpectrumBand]) -> None:
        """Settle each band's scans counted since it was last settled, at its current occupancy."""
        counts = self._scan_counts
        settled = self._scan_settled
        senses = self._senses
        for band in bands:
            done = settled.get(band.band_id)
            free = band.free
            sensed = available = 0
            for demand, n in counts.items():
                if done:
                    n -= done.get(demand, 0)
                sensed += n
                if free >= demand:
                    available += n
            if sensed:
                senses.append((band.band_id, sensed, available))
            settled[band.band_id] = counts.copy()

    def _vacate(self, session: SuSession) -> None:
        """Clear the session's band of it, if it is resident there."""
        band = self.band_by_id[session.band_id]
        if band.su is session:
            band.su = None

    def _drop(self, session: SuSession, t: int, reason: int) -> None:
        # a session is dropped only while handing over, when no band holds it
        self.metrics.dropped += 1
        self.trace.add(t, EventKind.DROPPED, session.session_id, session.band_id, reason)
        self.live.remove(session)

    def _complete(self, session: SuSession, t: int) -> None:
        self._vacate(session)
        self.metrics.completed += 1
        self.trace.add(t, EventKind.COMPLETED, session.session_id, session.band_id, 0)
        self.live.remove(session)

    def run(self) -> RunResult:
        for _ in range(self.scenario.horizon - self.step_index):
            self.step()
        return RunResult(
            scenario=self.scenario,
            seed=self.seed,
            metrics=self.metrics,
            trace=self.trace,
            kb=self.kb,
            band_histograms=dict(self._hist),
            timeseries=self.timeseries,
        )


def run(
    scenario: Scenario,
    seed: int | None = None,
    keep_trace: bool = False,
    collect_timeseries: bool = False,
    kb: KnowledgeBase | None = None,
) -> RunResult:
    """Execute a scenario to its horizon and return metrics plus trace."""
    return Engine(
        scenario,
        seed=seed,
        keep_trace=keep_trace,
        collect_timeseries=collect_timeseries,
        kb=kb,
    ).run()


# ---------------------------------------------------------------------------
# analytic comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    metric: str
    analytic: float
    simulated: float

    @property
    def abs_diff(self) -> float:
        return abs(self.analytic - self.simulated)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "analytic": self.analytic,
            "simulated": self.simulated,
            "abs_diff": self.abs_diff,
        }


@dataclass(frozen=True)
class CompareReport:
    rows: tuple[CompareRow, ...]
    notes: tuple[str, ...]
    seed: int
    scenario_sha256: str

    def row(self, metric: str) -> CompareRow:
        for r in self.rows:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "notes": list(self.notes),
            "seed": self.seed,
            "scenario_sha256": self.scenario_sha256,
        }

    def format_table(self) -> str:
        lines = [f"{'metric':<16}{'analytic':>12}{'simulated':>12}{'|diff|':>12}"]
        for r in self.rows:
            lines.append(f"{r.metric:<16}{r.analytic:>12.6f}{r.simulated:>12.6f}{r.abs_diff:>12.6f}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def analytic_figures(scenario: Scenario) -> dict:
    """The analytic model's figures for a scenario, and which of them apply.

    The model has one session type: every declaration must share one demand
    and one completion probability, else ``ComparisonError``.  ``blocking``
    and, per band, the ``stationary`` occupancy law and ``admit_probability``
    always apply; a static band (p = q = 0) has no stationary law and raises
    ``ChainError``.  ``noncompletion`` (with the ``grant_probability`` it
    uses) applies only to sessions that hold spectrum (demand > 0) on a
    single band with no alternative and that do not complete instantly
    (completion < 1); otherwise it is None and ``skipped`` says why.
    """
    demands = {decl.effective_demand() for decl in scenario.sessions}
    traffics = {decl.traffic for decl in scenario.sessions}
    completions = {decl.completion for decl in scenario.sessions}
    if not scenario.sessions:
        raise ComparisonError("analytic comparison needs at least one session declaration")
    if len(traffics) > 1 or len(demands) > 1:
        raise ComparisonError("analytic comparison assumes a single traffic type (one demand value)")
    if len(completions) > 1:
        raise ComparisonError("analytic comparison assumes a single completion probability")
    demand, completion = demands.pop(), completions.pop()

    chains = [OccupancyChain(b.capacity, b.p, b.q) for b in scenario.bands]
    bands = [
        {
            "id": decl.band_id,
            "capacity": decl.capacity,
            "stationary": list(markov.stationary(chain).probabilities),
            "admit_probability": (
                markov.prob_free_at_least(chain, demand) if demand <= decl.capacity else 0.0
            ),
        }
        for decl, chain in zip(scenario.bands, chains)
    ]
    figures: dict = {
        "demand": demand,
        "completion": completion,
        "blocking": markov.blocking_probability(chains, demand),
        "noncompletion": None,
    }
    if demand == 0:
        figures["skipped"] = "zero-demand probe sessions never hold spectrum"
    elif len(scenario.bands) != 1:
        figures["skipped"] = "analytic model covers a single band with no alternative"
    elif completion >= 1.0:
        figures["skipped"] = "instant-completion probes never race the occupancy chain"
    else:
        band = scenario.bands[0]
        gamma = negotiation.stationary_cooperative_probability(
            PuDisposition(band.disposition_state, band.alpha, band.beta)
        )
        figures["noncompletion"] = markov.noncompletion_probability(chains[0], demand, completion, gamma)
        figures["grant_probability"] = gamma
    figures["bands"] = bands
    return figures


def compare(scenario: Scenario, seed: int | None = None) -> CompareReport:
    """Run the scenario and set empirical figures against the analytic ones.

    Requires zero negotiation and handover latency; ``analytic_figures``
    decides which rows apply.  A row is also left out when the run leaves
    its empirical figure undefined: blocking without arrivals,
    non-completion without admissions.  Each skipped row leaves a note.
    """
    if scenario.negotiation.latency != 0:
        raise ComparisonError(
            f"non-completion analytic assumes zero latency (negotiation latency {scenario.negotiation.latency})"
        )
    if scenario.handover.latency != 0:
        raise ComparisonError(
            f"non-completion analytic assumes zero latency (handover latency {scenario.handover.latency})"
        )
    figures = analytic_figures(scenario)
    result = run(scenario, seed=seed)
    m = result.metrics
    rows: list[CompareRow] = []
    notes: list[str] = []
    if m.arrivals:
        rows.append(CompareRow("blocking", figures["blocking"], m.empirical_blocking))
    else:
        notes.append("blocking row skipped: no arrivals within the horizon")
    if "skipped" in figures:
        notes.append(f"non-completion row skipped: {figures['skipped']}")
    elif m.admitted:
        rows.append(CompareRow("non-completion", figures["noncompletion"], m.empirical_noncompletion))
    else:
        notes.append("non-completion row skipped: no session admitted within the horizon")
    return CompareReport(
        rows=tuple(rows),
        notes=tuple(notes),
        seed=result.seed,
        scenario_sha256=scenario.sha256(),
    )
