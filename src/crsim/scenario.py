"""The declared world: bands, licensed-user dispositions and session traffic.

Each declaration field states once, in ``_field``, its JSON key, value kind,
default and record kind, if any: a session arrives once (``arrival``) or
repeats (``every``).  A nested object (a band's ``disposition``, a
scenario's ``negotiation``) is a declaration of its own, read by ``_record``.
``_read`` and ``_write`` follow those fields for every record.  An absent
field takes its default; a present one is checked, ``null`` included.  Keys
no field declares are reported, as are the other kind's keys.  All problems
go into one ``ScenarioError``, per record in this order: unknown keys, the
fields without a kind (a nested record's problems among them), the rules
between those fields, then the kind.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .markov import OccupancyChain
from .negotiation import PuDisposition, PuState
from .qos import TrafficType, channel_demand
from .spectrum_env import SpectrumBand

INT_MAX = 2**63 - 1
# the engine keeps a histogram row of capacity + 1 counters per band
MAX_CAPACITY = 65536


class ScenarioError(ValueError):
    """Malformed scenario; ``problems`` lists every violated field."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario: " + "; ".join(problems))


# value kinds: each reads the JSON value at ``path`` and returns what it
# declares, or None after appending the problem

def _integer(minimum: int, maximum: int | None = None):
    def read(value, path: str, problems: list[str]):
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{path}: must be an integer, got {value!r}")
        elif value < minimum:
            problems.append(f"{path}: must be >= {minimum}, got {value}")
        elif maximum is not None and value > maximum:
            problems.append(f"{path}: must be <= {maximum}, got {value}")
        else:
            return value
        return None

    return read


def _unit(open_low: bool = False):
    """A finite number in [0, 1], or (0, 1] when ``open_low``, compared with its bounds before ``float``."""
    def read(value, path: str, problems: list[str]):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{path}: must be a number, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{path}: must be a finite number, got {value!r}")
        elif value < 0 or value > 1 or (open_low and value == 0):
            problems.append(f"{path}: must be within {'(0.0' if open_low else '[0.0'}, 1.0], got {value}")
        else:
            return float(value)
        return None

    return read


def _string(value, path: str, problems: list[str]):
    if isinstance(value, str):
        return value
    problems.append(f"{path}: must be a string")
    return None


def _name(enum: type[Enum]):
    names = sorted(member.value for member in enum)

    def read(value, path: str, problems: list[str]):
        if value in names:
            return enum(value)
        problems.append(f"{path}: must be one of {names}, got {value!r}")
        return None

    return read


def _record(cls):
    def read(value, path: str, problems: list[str]):
        if isinstance(value, dict):
            return _read(cls, value, path, problems)
        problems.append(f"{path}: must be an object")
        return None

    return read


def _records(cls, nonempty: bool = False, unique: str | None = None):
    """A JSON list of ``cls`` declarations, no two of which share the field named ``unique``."""
    item = _record(cls)

    def read(value, path: str, problems: list[str]):
        if not isinstance(value, list) or (nonempty and not value):
            problems.append(f"{path}: must be a {'nonempty ' if nonempty else ''}list")
            return None
        out, seen = [], set()
        for i, raw in enumerate(value):
            decl = item(raw, f"{path}[{i}]", problems)
            if decl is None:
                continue
            out.append(decl)
            shared = getattr(decl, unique) if unique else None
            if shared in seen:
                problems.append(f"{path}[{i}].{_key(cls, unique)}: duplicate {unique.replace('_', ' ')} {shared}")
            if shared is not None:
                seen.add(shared)
        return tuple(out)

    return read


def _field(key: str, kind, default=MISSING, group: str | None = None):
    return field(default=default, metadata={"key": key, "kind": kind, "group": group})


def _key(cls, name: str) -> str:
    return cls.__dataclass_fields__[name].metadata["key"]


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@functools.cache
def _layout(cls) -> tuple:
    """What ``_read`` and ``_write`` need of ``cls``, worked out once per class.

    (every field in declaration order; per record kind, and None for the
    fields without one, its fields as (name, key, ".key", kind, default,
    required); per kind given, None when not exactly one, the keys allowed).

    A kind is named after one of its fields, whose name and key it is: a
    record is of that kind when it gives that field.
    """
    decls = fields(cls)
    groups: dict = {None: []}
    for f in decls:
        key = f.metadata["key"]
        slot = (f.name, key, f".{key}", f.metadata["kind"], f.default, f.default is MISSING)
        groups.setdefault(f.metadata["group"], []).append(slot)

    def keys(*names) -> frozenset:
        return frozenset(slot[1] for name in names for slot in groups[name])

    known = {kind: keys(None, kind) if kind else keys(*groups) for kind in groups}
    return decls, groups, known


def _report_unknown(source: dict, known: frozenset, base: str, problems: list[str]) -> None:
    for key in sorted(set(source) - known, key=str):
        # a line break in a key must not split the report, and a key built in Python need not be a string
        shown = key if isinstance(key, str) and key.isprintable() else repr(key)
        problems.append(f"{_at(base, shown)}: unknown {'key' if base else 'top-level key'}")


def _take(group: list, source: dict, base: str, values: dict, problems: list[str]) -> None:
    for name, key, suffix, kind, _, required in group:
        if required or key in source:
            values[name] = kind(source.get(key), base + suffix if base else key, problems)


def _read(cls, raw: dict, path: str, problems: list[str]):
    """A ``cls`` read from ``raw``, usable only if no problem was appended: a field that fails holds None."""
    _, groups, known = _layout(cls)
    given = [kind for kind in groups if kind is not None and kind in raw]
    chosen = given[0] if len(given) == 1 else None
    values: dict = {}
    plain = groups[None]
    _report_unknown(raw, known[chosen], path, problems)
    _take(plain, raw, path, values, problems)
    for name, problem in cls._rules({name: values.get(name, default) for name, _, _, _, default, _ in plain}):
        problems.append(f"{_at(path, _key(cls, name)) if name else path}: {problem}")
    if chosen is not None:
        _take(groups[chosen], raw, path, values, problems)
    elif len(groups) > 1:
        problems.append(f"{path}: exactly one of {' or '.join(repr(kind) for kind in groups if kind)} is required")
    return cls(**values)


def _write(decl) -> dict:
    """The JSON object of a declaration, leaving out unset fields (None or "") and fields of other kinds."""
    decls, _, _ = _layout(type(decl))
    out: dict = {}
    for f in decls:
        value, group = getattr(decl, f.name), f.metadata["group"]
        if value is None or value == "" or (group is not None and getattr(decl, group) is None):
            continue
        out[f.metadata["key"]] = _json(value)
    return out


def _json(value):
    """A declared value as JSON: enum members by value, declarations as objects, tuples as lists.

    A float is written with the sign of zero dropped: -0.0 equals 0.0, so
    both write and hash alike.
    """
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json(item) for item in value]
    if isinstance(value, float):
        return value + 0.0
    return _write(value) if isinstance(value, _Decl) else value


class _Decl:
    @staticmethod
    def _rules(values: dict):  # (field name or None, problem) of each broken rule between fields without a kind
        return ()

    def to_dict(self) -> dict:
        return _write(self)


_UNIT = _unit()
_TRACED = _integer(0, INT_MAX)  # the event trace packs these as signed 64-bit integers


@dataclass(frozen=True)
class DispositionDecl(_Decl):
    state: PuState = _field("state", _name(PuState), PuState.COOPERATIVE)
    alpha: float = _field("alpha", _UNIT, 0.0)
    beta: float = _field("beta", _UNIT, 0.0)


@dataclass(frozen=True)
class BandDecl(_Decl):
    band_id: int = _field("id", _TRACED)
    capacity: int = _field("capacity", _integer(1, MAX_CAPACITY))
    p: float = _field("p", _UNIT)
    q: float = _field("q", _UNIT)
    initial_occupancy: int = _field("initial_occupancy", _integer(0), 0)
    disposition: DispositionDecl = _field("disposition", _record(DispositionDecl), DispositionDecl())

    @staticmethod
    def _rules(v: dict):
        p, q, capacity, occupancy = v["p"], v["q"], v["capacity"], v["initial_occupancy"]
        if p is not None and q is not None and p + q > 1.0 + 1e-12:
            yield None, f"p + q must not exceed 1, got {p} + {q}"
        if capacity is not None and occupancy is not None and occupancy > capacity:
            yield "initial_occupancy", f"exceeds capacity {capacity}"

    def build(self) -> SpectrumBand:
        chain = OccupancyChain(self.capacity, self.p, self.q)
        d = self.disposition
        return SpectrumBand(self.band_id, chain, self.initial_occupancy, PuDisposition(d.state, d.alpha, d.beta))


@dataclass(frozen=True)
class SessionDecl(_Decl):
    """One arrival ("arrival": step) or a repeating pattern ("every": k)."""

    traffic: TrafficType = _field("traffic", _name(TrafficType))
    completion: float = _field("c", _unit(open_low=True))
    arrival: int | None = _field("arrival", _integer(0), None, "arrival")
    every: int | None = _field("every", _integer(1), None, "every")
    start: int = _field("start", _integer(0), 0, "every")
    until: int | None = _field("until", _integer(1), None, "every")
    demand: int | None = _field("demand", _TRACED, None)  # override; 0 declares a pure probe

    def effective_demand(self) -> int:
        return channel_demand(self.traffic) if self.demand is None else self.demand


@dataclass(frozen=True)
class NegotiationParams(_Decl):
    grant_request: int = _field("grant_request", _integer(1), 1)
    latency: int = _field("latency", _TRACED, 1)


@dataclass(frozen=True)
class HandoverParams(_Decl):
    latency: int = _field("latency", _integer(0), 1)
    max_replans: int = _field("max_replans", _integer(0), 3)
    scan_interval: int = _field("scan_interval", _integer(1), 10)


@dataclass(frozen=True, kw_only=True)
class Scenario(_Decl):
    horizon: int = _field("horizon", _integer(1))
    seed: int = _field("seed", _TRACED)
    name: str = _field("name", _string, "")
    bands: tuple[BandDecl, ...] = _field("bands", _records(BandDecl, nonempty=True, unique="band_id"))
    sessions: tuple[SessionDecl, ...] = _field("sessions", _records(SessionDecl), ())
    negotiation: NegotiationParams = _field("negotiation", _record(NegotiationParams), NegotiationParams())
    handover: HandoverParams = _field("handover", _record(HandoverParams), HandoverParams())

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        """The SHA-256 of ``canonical_json()``, computed once: the scenario is frozen."""
        digest = self.__dict__.get("_sha256")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_sha256", digest)
        return digest

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError(["scenario: top level must be a JSON object"])
        problems: list[str] = []
        scenario = _read(cls, data, "", problems)
        if problems:
            raise ScenarioError(problems)
        return scenario


def canonical_preset() -> Scenario:
    """The worked single-band example: 8 channels, video conferencing demand 4.

    Probe sessions (instant completion) arrive every step against a
    never-cooperative licensed user, so admissions sample the stationary
    occupancy and the blocked fraction estimates the analytic blocking
    probability.
    """
    return Scenario(
        name="canonical",
        bands=(BandDecl(0, 8, p=0.2, q=0.2, initial_occupancy=4, disposition=DispositionDecl(PuState.NONCOOPERATIVE)),),
        sessions=(SessionDecl(TrafficType.VIDEO_CONFERENCING, completion=1.0, every=1),),
        horizon=400_000,
        seed=42,
        negotiation=NegotiationParams(grant_request=1, latency=0),
        handover=HandoverParams(latency=0, max_replans=3, scan_interval=10),
    )


PRESETS = {"canonical": canonical_preset}
