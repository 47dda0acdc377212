"""Deterministic discrete-time engine orchestrating bands, sessions, learning.

Each step applies a fixed sub-step order: (1) every band's occupancy
evolves, (2) every licensed-user disposition evolves, both in one pass over
the bands (``step_chains``), (3) due arrivals are admitted in priority
order, (4-6) each live session senses, classifies its mode and acts
(transmit / negotiate / hand over), (7) transmitting sessions draw
completion, (8) buffered knowledge-base updates apply, (9) metrics and
invariant checks.  Only (1) and negotiation grants write a band's
occupancy (``pu_used``), so the occupancy histograms are counted in
``step_chains``, each band at its occupancy after (1), and a grant moves
its band's count to the granted occupancy.

(3) reads a schedule built once per run, from step to the admission ranks
of the arrivals due then: ``su_fsm.order_arrivals`` ranks every declaration
once (priority first; on ties single arrivals, then patterns, each as
declared), and a due pattern files itself again at ``t + every`` while that
step is before its stop.  A single arrival is a pattern of one step.

Every score read during a step sees the knowledge-base counters as of the
step's start.  Each time an active session senses and classifies its mode
it observes every band once on a scan step (step index a multiple of the
handover scan interval), its own band included, and only its own band on
any other step.  An own-band sense reads the session's mode row
(``su_fsm.mode_table``), and the demand fits the band's free channels in
every mode but Failure.  On a step without a scan, a Normal sense
(sensed 1, available 1) starts or continues a run and is not buffered but
written when its session settles (see below), and this is exact:
admission and handover score only bands with no resident session, and a
session settles before it leaves its band.  A session that goes on to
negotiate or hand over may leave its band vacant for a later ranking in
the same step, so its sense is buffered as (band, 1, 1) in Warning mode,
where the demand fits exactly, or (band, 1, 0) in Failure mode, and (8)
applies it.  A scan is only counted by demand, and (8) senses every band
(``spectrum_env.sense``) and writes one record per band for all of the
step's scans, available being those whose demand fits the band's free
channels.  Within (4-6) only a negotiation grant changes a band's
occupancy, so a negotiation first writes the records of the scans counted
before it, each band as those scans saw it; (8) writes the rest.  The
knowledge base's counters are sums, so (8) applies all of the step's
buffered records in one call.

Sessions admitted in (3) take part in (4-6) and (7) of the same step: they
sense the occupancy that (1) has just produced and act on it at once.  A
session admitted onto a band at the Warning boundary (occupancy + demand ==
capacity) therefore negotiates in its admission step, and one admitted in
Normal mode may complete in that step.

In (4-6) an active session goes straight to the turn loop's one sense
block: it reads its band and its mode row for its demand through its
``place``, which the engine writes wherever it writes ``band_id``, and acts
on the mode.  A handler (negotiate, hand over, arrive) calls the one due
next in this step itself and returns True when a handover landed, so that
the loop senses the new band, or False when the turn is over.  A landing
returns to the loop, and at handover latency 0 a planned handover lands at
once (its target was just seen vacant and fitting), so the calls nest at
most four deep: negotiate, resolve, hand over, arrive.  Within one step a
session is never handed back to a band it has already left in that step,
so a turn visits each band at most once and ends by itself; a session that
every band it can still reach refuses is dropped for want of a target.

A session whose turn ends in transmitting is *running* until (1) raises
its band past the Normal rows of its demand.  At its place in the
session-id loop, (4-6) takes a running session's turn without reading its
band: one Normal sense, its scan counted on a scan step, and a transmit.
This is exact.  A running session's band changes in (4-6) only through its
own grant, and (3) admits only onto vacant bands, so between two of its
turns only (1) moves the band's occupancy, by at most one.  The Normal
occupancies of a mode row run from 0 to a boundary (``su_fsm.mode_table``),
so a band that did not rise keeps its running session in Normal mode;
``step_chains`` reports the bands that rose, and a running session on one
of them whose mode row no longer says Normal stops running and takes a
full turn.  A grant may leave the band past Normal (the licensed user can
take channels during the wait), so it makes the session running only when
the mode row at the granted occupancy says Normal.  Running sessions keep
their session-id place in the loop, so a running session's scan is
written against the bands as they are at that place.

A running session's senses have one writer.  The session keeps the step
its unwritten senses start at (``SuSession.since``): the step of the turn
that sensed Normal mode and started its run, or the step after a grant,
whose own sense (8) applies.  Each step without a scan from there on is
one (1, 1) sense, added to the record of the session's band, which a
running session never leaves, when the session *settles*.  No score reads
a band its session holds, so a session settles before its band turns
vacant and before any caller can read the record: when a rise in (1) ends
its run at step t (through t - 1), when it completes in (7) (through t),
and when ``step`` or ``run`` returns.

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
import struct
from dataclasses import dataclass, field, fields
from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import handover as ho
from . import markov, negotiation, spectrum_env, su_fsm
from .learning import KnowledgeBase
from .negotiation import PuState
from .qos import TrafficType
from .scenario import Scenario  # also reached as simcore.Scenario by the benchmark
from .spectrum_env import SpectrumBand
from .su_fsm import MODE_NAMES, Mode, SessionStatus, SuSession

__all__ = [
    "EngineError",
    "ComparisonError",
    "Metrics",
    "EventTrace",
    "Engine",
    "run",
    "compare",
    "analytic_figures",
    "CompareReport",
]


class EngineError(RuntimeError):
    """An engine invariant (conservation, state consistency) was violated."""


class ComparisonError(ValueError):
    """The scenario cannot be reduced to the analytic model's assumptions."""


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
            **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "mode_histogram"},
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


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class RandomStream:
    """Buffered uniform stream over one numpy Generator.

    Block draws produce the same values as repeated scalar draws, so this
    only amortizes call overhead; consumption order is unchanged.
    """

    __slots__ = ("_rng", "_buf", "_idx")
    _BLOCK = 8192

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self._buf = self._rng.random(self._BLOCK).tolist()
        self._idx = 0

    def random(self) -> float:
        i = self._idx
        if i >= self._BLOCK:
            self._buf = self._rng.random(self._BLOCK).tolist()
            i = 0
        self._idx = i + 1
        return self._buf[i]

    def take(self, n: int) -> list[float]:
        """The next ``n`` uniforms: exactly what ``n`` calls of ``random`` would return."""
        i = self._idx
        j = i + n
        if j <= self._BLOCK:
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


# Enum members read in every step, bound once: before Python 3.12 reading a
# member off its class costs a descriptor call
_ACTIVE = SessionStatus.ACTIVE
_NEGOTIATING = SessionStatus.NEGOTIATING
_HANDING_OVER = SessionStatus.HANDING_OVER
_NORMAL = Mode.NORMAL
_WARNING = Mode.WARNING
_COOPERATIVE = PuState.COOPERATIVE
_NONCOOPERATIVE = PuState.NONCOOPERATIVE
# the mode-histogram key that a running session's turn counts
_NORMAL_NAME = MODE_NAMES[Mode.NORMAL]


def step_chains(rows: Sequence[tuple], draws: Sequence[float]) -> list[SpectrumBand]:
    """(1) and (2) in one pass, by the rules of ``spectrum_env.step_band`` and ``negotiation.step_disposition``.

    Of n rows, row i is (i, n + i, band, birth, birth + death, capacity,
    disposition, histogram): its occupancy reads ``draws[i]`` and its
    disposition ``draws[n + i]``, and draws past the first 2n go unread.
    Each band's new occupancy is counted once in its histogram.  Returns
    the bands whose occupancy rose, in row order.
    """
    risen = []
    for i, j, band, birth, birth_death, capacity, disposition, histogram in rows:
        u = draws[i]
        if u < birth:
            if band.pu_used < capacity:
                band.pu_used += 1
                risen.append(band)
        elif u < birth_death:
            if band.pu_used > 0:
                band.pu_used -= 1
        histogram[band.pu_used] += 1
        if disposition.state is _COOPERATIVE:
            if draws[j] < disposition.alpha:
                disposition.state = _NONCOOPERATIVE
        elif draws[j] < disposition.beta:
            disposition.state = _COOPERATIVE
    return risen


class _Arrival(NamedTuple):
    """A declaration's arrivals, demand resolved once: due at start, start + every, ... before stop."""

    traffic: TrafficType
    demand: int
    completion: float
    start: int
    stop: int
    every: int


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
        self.kb = kb if kb is not None else KnowledgeBase()
        # band id -> band, for every band with no resident session: the only
        # bands admission and handover can choose
        self._vacant: dict[int, SpectrumBand] = {b.band_id: b for b in self.bands}
        self.metrics = Metrics()
        self.trace = EventTrace(scenario.sha256(), self.seed, keep_records=keep_trace)
        self.live: list[SuSession] = []
        self.step_index = 0
        self._horizon = scenario.horizon
        self._scan_interval = scenario.handover.scan_interval
        # each band's occupancy histogram, in self.bands order, and step_chains'
        # rows, which count every band's occupancy after (1) in its histogram
        n = len(self.bands)
        self._hists = [[0] * (b.capacity + 1) for b in self.bands]
        self._chain_rows = [
            (i, n + i, b, b.chain.birth, b.chain.birth + b.chain.death, b.chain.capacity, b.disposition, self._hists[i])
            for i, b in enumerate(self.bands)
        ]
        self._neg_events: list[tuple[int, bool]] = []
        # the (band id, sensed, available) records that (8) applies
        self._senses: list[tuple[int, int, int]] = []
        # scans by demand not yet written to self._senses
        self._scan_counts: dict[int, int] = {}
        # sessions that transmit in this step, in ascending session id
        self._transmitters: list[SuSession] = []
        arrivals = []
        for decl in sorted(scenario.sessions, key=lambda decl: decl.arrival is None):  # singles first
            if decl.arrival is not None:
                start, stop, every = decl.arrival, decl.arrival + 1, 1
            else:
                start, every = decl.start, decl.every
                stop = scenario.horizon if decl.until is None else min(decl.until, scenario.horizon)
            arrivals.append(_Arrival(decl.traffic, decl.effective_demand(), decl.completion, start, stop, every))
        # in admission order (see the module docstring); an arrival's rank is its index
        self._arrivals = su_fsm.order_arrivals(arrivals)
        # step -> ranks of the arrivals due then; a due pattern files its next step
        self._schedule: dict[int, list[int]] = {}
        for rank, arrival in enumerate(self._arrivals):
            if arrival.start < arrival.stop:
                self._schedule.setdefault(arrival.start, []).append(rank)
        # per band id and demand the band can hold: the ``place`` of a session
        # of that demand on that band, the band's position in self.bands and
        # its ``su_fsm.mode_table`` row, built once per band width and demand.
        # A position, not the band: the band holds the session, and a cycle
        # between them would leave each run's last bands and sessions to the
        # cyclic garbage collector
        demands = {decl.effective_demand() for decl in scenario.sessions}
        capacities = {b.capacity for b in self.bands}
        tables = {(c, d): su_fsm.mode_table(c, d) for c in capacities for d in demands if d <= c}
        self._places = {
            b.band_id: {d: (position, tables[b.capacity, d]) for d in demands if d <= b.capacity}
            for position, b in enumerate(self.bands)
        }
        # bands the acting session has left in its current turn of (4-6)
        self._left: set[int] = set()
        self.timeseries: list[tuple] | None = [] if collect_timeseries else None

    # -- views ------------------------------------------------------------

    @property
    def trace_hash(self) -> str:
        return self.trace.hash_hex()

    @property
    def band_histograms(self) -> dict[int, list[int]]:
        """Per band id, in ascending order, the steps (9) counted at each occupancy."""
        return {b.band_id: row for b, row in zip(self.bands, self._hists)}

    def timeseries_header(self) -> list[str]:
        """Column names of the ``timeseries`` rows that ``Engine.step`` appends."""
        bands = [f"band{b.band_id}_pu_used" for b in self.bands]
        return ["step", *bands, "active_sessions", "arrivals", "blocked", "completed", "dropped"]

    def band_views(self) -> list[SpectrumBand]:
        """The live bands in ascending id order: ``list(self.bands)``.

        The engine ranks its vacant bands itself and never calls this; it stays
        while the benchmark's tracer wraps it, and goes with the benchmark
        change of ROADMAP item 3.
        """
        return list(self.bands)

    # -- per-step machinery -------------------------------------------------

    def step(self, settle: bool = True) -> None:
        """Advance the world one step (sub-steps 1-9, fixed order).

        ``settle=False`` leaves running sessions' senses unwritten: ``run`` settles once, at the end.
        """
        if self.step_index >= self._horizon:
            raise EngineError("stepping past the scenario horizon")
        t = self.step_index
        stream = self.stream
        m = self.metrics
        bands = self.bands

        # (1) occupancy chains and (2) disposition chains, ascending band id;
        # a running session on a band that rose past its Normal rows writes its
        # senses up to this step and senses again
        for band in step_chains(self._chain_rows, stream.take(2 * len(bands))):
            session = band.su
            if session is not None and session.running and session.place[1][band.pu_used] is not _NORMAL:
                session.running = False
                self._settle(session, t)

        # (3) arrivals due now, in admission order
        schedule = self._schedule
        ranks = schedule.pop(t, None)
        if ranks is not None:
            ranks.sort()
            add = self.trace.add
            vacant = self._vacant
            places = self._places
            for rank in ranks:
                _, demand, completion, _, stop, every = self._arrivals[rank]
                if t + every < stop:
                    schedule.setdefault(t + every, []).append(rank)
                sid = m.arrivals
                m.arrivals += 1
                band_id = su_fsm.admit(vacant.values(), demand, self.kb)
                if band_id is None:
                    m.blocked += 1
                    add(t, EventKind.BLOCK, sid, -1, demand)
                    continue
                m.admitted += 1
                session = SuSession(sid, demand, completion, band_id, _ACTIVE, 0, None, 0, places[band_id][demand])
                vacant.pop(band_id).su = session
                self.live.append(session)
                add(t, EventKind.ADMIT, sid, band_id, demand)

        # (4-6) sense, classify, decide, act: one turn per live session
        mode_histogram = m.mode_histogram
        scan = t % self._scan_interval == 0
        scans = self._scan_counts
        senses = self._senses
        transmitters = self._transmitters
        left = self._left
        grants = m.grants
        for session in tuple(self.live):
            if not session.running:
                if session.status is _ACTIVE:
                    landed = True
                else:
                    session.wait -= 1
                    if session.wait > 0:
                        continue
                    if session.status is _NEGOTIATING:
                        landed = self._resolve_negotiation(session, t)
                    else:
                        landed = self._arrive(session, t)
                while landed:
                    # sense the own band, classify the mode and act on it
                    position, modes = session.place
                    band = bands[position]
                    mode = modes[band.pu_used]
                    if mode is _NORMAL:
                        # Normal mode, which only a rise in (1) can end: the run
                        # and its unwritten senses start with this turn
                        session.running = True
                        session.since = t
                        break
                    mode_histogram[MODE_NAMES[mode]] += 1
                    if scan:
                        demand = session.demand
                        scans[demand] = scans.get(demand, 0) + 1
                    else:  # a Warning demand fits exactly, a Failure one does not
                        senses.append((band.band_id, 1, 1 if mode is _WARNING else 0))
                    if mode is _WARNING:
                        landed = self._begin_negotiation(session, t)
                    else:  # Failure: hand over, no negotiation phase
                        landed = self._start_handover(session, t)
                if left:
                    left.clear()
                if not landed:  # the turn ended without a transmitting sense
                    continue
            # a Normal sense, counted as a scan or written when the session
            # settles, and a transmit
            if scan:
                demand = session.demand
                scans[demand] = scans.get(demand, 0) + 1
            transmitters.append(session)

        # (7) completion draws, ascending session id; every transmitter but
        # the step's grants sensed Normal mode
        if transmitters:
            mode_histogram[_NORMAL_NAME] += len(transmitters) - (m.grants - grants)
            draws = stream.take(len(transmitters))
            for i, session in enumerate(transmitters):
                if draws[i] < session.completion:
                    if session.running:  # before its band turns vacant and can be scored
                        self._settle(session, t + 1)
                    self._vacate(session)
                    m.completed += 1
                    self.trace.add(t, EventKind.COMPLETED, session.session_id, session.band_id, 0)
                    self.live.remove(session)
            transmitters.clear()

        # (8) knowledge-base updates buffered during this step
        if self._neg_events:
            for band_id, granted in self._neg_events:
                self.kb.record_negotiation(band_id, granted)
            self._neg_events.clear()
        if scans:
            self._settle_scans()
        if senses:
            self.kb.record_senses(senses)
            senses.clear()

        # (9) metrics and invariants; step_chains and grants counted the histograms
        m.still_active = len(self.live)
        if m.admitted + m.blocked != m.arrivals:
            raise EngineError("conservation violated: admitted + blocked != arrivals")
        if m.completed + m.dropped + m.still_active != m.admitted:
            raise EngineError("conservation violated: completed + dropped + active != admitted")
        if m.grants + m.refusals != m.negotiations:
            raise EngineError("conservation violated: grants + refusals != negotiations")
        if self.timeseries is not None:  # columns: timeseries_header
            self.timeseries.append(
                (t, *(b.pu_used for b in bands), m.still_active, m.arrivals, m.blocked, m.completed, m.dropped)
            )
        self.step_index = t + 1
        if settle:
            self._settle_running()

    # a turn's handlers: True when a handover landed, False when the turn is over

    def _begin_negotiation(self, session: SuSession, t: int) -> bool:
        session.status = _NEGOTIATING
        latency = self.scenario.negotiation.latency
        if latency == 0:
            return self._resolve_negotiation(session, t)
        session.wait = latency
        self.trace.add(t, EventKind.NEGOTIATION_STARTED, session.session_id, session.band_id, latency)
        return False

    def _resolve_negotiation(self, session: SuSession, t: int) -> bool:
        if self._scan_counts:  # written against the band before a grant changes it
            self._settle_scans()
        position = session.place[0]
        band = self.bands[position]
        used = band.pu_used
        outcome = negotiation.negotiate(band, self.scenario.negotiation.grant_request)
        m = self.metrics
        m.negotiations += 1
        self._neg_events.append((band.band_id, outcome.granted))
        su_fsm.apply_outcome(session, outcome)
        if outcome.granted:
            m.grants += 1
            # the histogram counted the occupancy before the grant
            histogram = self._hists[position]
            histogram[used] -= 1
            histogram[band.pu_used] += 1
            self.trace.add(t, EventKind.NEGOTIATION_GRANTED, session.session_id, band.band_id, outcome.channels)
            # a grant can leave the band past Normal: the mode row decides
            if session.place[1][band.pu_used] is _NORMAL:
                session.running = True
                session.since = t + 1  # (8) applies this step's sense
            self._transmitters.append(session)
            return False
        m.refusals += 1
        self.trace.add(t, EventKind.NEGOTIATION_REFUSED, session.session_id, band.band_id, 0)
        return self._start_handover(session, t)

    def _start_handover(self, session: SuSession, t: int) -> bool:
        session.status = _HANDING_OVER
        source = session.band_id
        self._vacate(session)
        # never hand the session back to a band it has left in this step
        left = self._left
        left.add(source)
        vacant = self._vacant.values()
        bands = vacant if len(left) == 1 else [b for b in vacant if b.band_id not in left]
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
            return False
        latency = self.scenario.handover.latency
        session.handover_target = plan.target
        session.wait = latency
        return latency == 0 and self._arrive(session, t)

    def _arrive(self, session: SuSession, t: int) -> bool:
        place = self._places[session.handover_target][session.demand]
        target = self.bands[place[0]]
        if target.su is None and spectrum_env.sense(target) >= session.demand:
            replans_taken = session.replans
            session.band_id = target.band_id
            session.place = place
            session.status = _ACTIVE
            session.replans = 0
            target.su = session
            del self._vacant[target.band_id]
            self.metrics.handovers += 1
            self.trace.add(t, EventKind.HANDOVER_COMPLETED, session.session_id, target.band_id, replans_taken)
            return True  # fresh sensing, mode, action
        # target filled up during the latency window: plan again
        session.replans += 1
        self.metrics.failed_handovers += 1
        self.trace.add(t, EventKind.HANDOVER_REPLANNED, session.session_id, target.band_id, session.replans)
        if session.replans >= self.scenario.handover.max_replans:
            self._drop(session, t, DROP_REPLANS_EXHAUSTED)
            return False
        return self._start_handover(session, t)

    def _settle_scans(self) -> None:
        """Write each band's record of the scans counted so far and clear the counts.

        ``demands`` holds the scanned demands in ascending order and
        ``fits[i]`` the scans of the first ``i`` of them, so the scans that
        fit in ``free`` channels are ``fits[bisect_right(demands, free)]``:
        all of them once ``free`` reaches the top demand.
        """
        counts = self._scan_counts
        demands = sorted(counts)
        fits = [0]
        for demand in demands:
            fits.append(fits[-1] + counts[demand])
        total, top = fits[-1], demands[-1]
        senses = self._senses
        sense = spectrum_env.sense
        for band in self.bands:
            free = sense(band)
            available = total if free >= top else fits[bisect_right(demands, free)]
            senses.append((band.band_id, total, available))
        counts.clear()

    def _settle(self, session: SuSession, end: int) -> None:
        """Add a running session's senses, one per step without a scan in [since, end), to its band's record."""
        since, interval = session.since, self._scan_interval
        # the steps less the scan steps (multiples of the interval) among them
        n = end - since - (-since // interval - -end // interval)
        if n:
            rec = self.kb.records[session.band_id]  # a running session never leaves its band
            rec.sensed += n
            rec.available += n
        session.since = end

    def _settle_running(self) -> None:
        """Settle every running session up to the current step."""
        for session in self.live:
            if session.running:
                self._settle(session, self.step_index)

    def _vacate(self, session: SuSession) -> None:
        """Clear the session's band of it, if it is resident there; the band is then vacant."""
        band = self.bands[session.place[0]]
        if band.su is session:
            band.su = None
            self._vacant[band.band_id] = band

    def _drop(self, session: SuSession, t: int, reason: int) -> None:
        # a session is dropped only while handing over, when no band holds it
        self.metrics.dropped += 1
        self.trace.add(t, EventKind.DROPPED, session.session_id, session.band_id, reason)
        self.live.remove(session)

    def run(self) -> Engine:
        """Step to the horizon and return this engine, which holds the run's results."""
        for _ in range(self._horizon - self.step_index):
            self.step(False)
        self._settle_running()
        return self


def run(
    scenario: Scenario,
    seed: int | None = None,
    keep_trace: bool = False,
    collect_timeseries: bool = False,
    kb: KnowledgeBase | None = None,
) -> Engine:
    """Execute a scenario to its horizon and return the engine that ran it."""
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
    single band with no alternative, that do not complete instantly
    (completion < 1) and that the band can admit (demand <= capacity);
    otherwise it is None and ``skipped`` says why.
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

    built = [decl.build() for decl in scenario.bands]
    bands = [
        {
            "id": band.band_id,
            "capacity": band.capacity,
            "stationary": list(markov.stationary(band.chain).probabilities),
            "admit_probability": markov.prob_free_at_least(band.chain, demand) if demand <= band.capacity else 0.0,
        }
        for band in built
    ]
    figures: dict = {
        "demand": demand,
        "completion": completion,
        "blocking": markov.blocking_probability([band.chain for band in built], demand),
        "noncompletion": None,
    }
    if demand == 0:
        figures["skipped"] = "zero-demand probe sessions never hold spectrum"
    elif len(scenario.bands) != 1:
        figures["skipped"] = "analytic model covers a single band with no alternative"
    elif completion >= 1.0:
        figures["skipped"] = "instant-completion probes never race the occupancy chain"
    elif demand > built[0].capacity:
        figures["skipped"] = "demand exceeds the band's capacity: no session is ever admitted"
    else:
        gamma = negotiation.stationary_cooperative_probability(built[0].disposition)
        figures["noncompletion"] = markov.noncompletion_probability(built[0].chain, demand, completion, gamma)
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
    for what, params in (("negotiation", scenario.negotiation), ("handover", scenario.handover)):
        if params.latency != 0:
            raise ComparisonError(f"non-completion analytic assumes zero latency ({what} latency {params.latency})")
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
