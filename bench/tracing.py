"""Per-layer tracing from outside the program: wrap public functions.

Each wrapped function records its call count and its self time: the
time between entry and exit minus the time spent in wrapped functions it
called, tracked with a stack of child-time accumulators.  Optional outcome
predicates count "useful" returns for hit and grant ratios.  Nothing in
``crsim`` is edited; the wrappers are installed into the loaded modules
and removed again on exit.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

PACKAGE = "crsim"

# layer (crsim module) -> public functions and methods that are wrapped
TRACED: dict[str, tuple[str, ...]] = {
    "simcore": ("Engine.step", "Engine.band_views", "EventTrace.add", "RandomStream.random"),
    "spectrum_env": ("step_band", "sense"),
    "negotiation": ("step_disposition", "negotiate"),
    "su_fsm": ("admit", "classify_mode", "decide", "order_arrivals", "apply_outcome"),
    "handover": ("plan_handover",),
    "learning": ("KnowledgeBase.record_sense", "KnowledgeBase.record_negotiation", "KnowledgeBase.score"),
    "markov": ("stationary", "blocking_probability", "noncompletion_probability"),
    "kernels": ("mc_noncompletion", "occupancy_histogram"),
}

# wrapped name -> (ratio label, predicate on the return value counted as a hit)
OUTCOMES: dict[str, tuple[str, Callable[[object], bool]]] = {
    "su_fsm.admit": ("hit_ratio", lambda band_id: band_id is not None),
    "handover.plan_handover": ("hit_ratio", lambda plan: getattr(plan, "target", None) is not None),
    "negotiation.negotiate": ("grant_ratio", lambda outcome: bool(getattr(outcome, "granted", False))),
}


def traced_names() -> list[str]:
    """Every wrapped name, as ``<module>.<function>``."""
    return [f"{module}.{func}" for module, funcs in TRACED.items() for func in funcs]


def _predicate(name: str) -> Callable[[object], bool] | None:
    return OUTCOMES[name][1] if name in OUTCOMES else None


class Tracer:
    """Call counts, self times and outcome hits of wrapped functions.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        # child time accumulated by each open span; the bottom entry
        # collects the time of top-level calls
        self._stack: list[int] = [0]

    def wrap(self, name: str, fn: Callable, outcome: Callable[[object], bool] | None = None) -> Callable:
        clock = self.clock
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        hits = self.hits

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
            if outcome is not None and outcome(result):
                hits[name] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def snapshot(self) -> dict[str, tuple[int, int, int]]:
        """(calls, self_ns, hits) per name seen so far."""
        return {name: (self.calls[name], self.self_ns[name], self.hits[name]) for name in list(self.calls)}


class Installed:
    """Context manager that installs a tracer's wrappers into loaded crsim modules.

    Names that no longer exist in the program are skipped and listed in
    ``missing``, so a benchmark built for an older layout keeps running.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.present: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        self.present, self.missing = [], []
        for module_name, funcs in TRACED.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            for func in funcs:
                name = f"{module_name}.{func}"
                if module is None or not self._install(module, func, name):
                    self.missing.append(name)
                else:
                    self.present.append(name)
        return self

    def _install(self, module, func: str, name: str) -> bool:
        owner_name, _, attr = func.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if not callable(original):
                return False
            self._set(owner, attr, self.tracer.wrap(name, original, _predicate(name)))
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapper = self.tracer.wrap(name, original, _predicate(name))
        # rebind every crsim namespace that imported the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
