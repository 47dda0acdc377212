"""Workload jobs: set-up, the timed call, and the checks on its outputs.

``set_up`` is the timed set-up (import crsim, build the scenarios,
construct the first Engine), so crsim is imported inside it and nowhere
at module level.  A runner's ``job`` is the timed call; ``outcome`` turns
its return value into a record and is not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

Z_LIMIT = 4.0
TV_LIMIT = 0.02


def set_up(workload: str, data: dict):
    """Import crsim, build the workload's inputs and return its runner."""
    import crsim  # noqa: F401  (part of the measured set-up)
    from crsim import markov, simcore

    if workload == "crosscheck":
        from crsim import kernels

        return CrossCheckRunner(data, markov, kernels)
    scenario = simcore.Scenario.from_dict(data)
    simcore.Engine(scenario)
    return EngineRunner(workload, scenario, simcore)


class _RunCapture:
    """Stands in for ``simcore.run`` to keep the RunResult that ``compare`` discards."""

    def __init__(self, run) -> None:
        self._run = run
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self._run(*args, **kwargs)
        return self.last


class EngineRunner:
    """``canonical`` runs ``simcore.compare``; ``wide64`` and ``churn`` run ``simcore.run``."""

    def __init__(self, workload: str, scenario, simcore) -> None:
        self.workload = workload
        self.scenario = scenario
        self.simcore = simcore
        self.steps = scenario.horizon
        self._capture = _RunCapture(simcore.run)
        simcore.run = self._capture

    def close(self) -> None:
        self.simcore.run = self._capture._run

    def job(self, seed: int):
        if self.workload == "canonical":
            return self.simcore.compare(self.scenario, seed=seed)
        return self.simcore.run(self.scenario, seed=seed)

    def outcome(self, raw, seed: int) -> dict:
        result, self._capture.last = self._capture.last, None
        if result is None:  # compare no longer goes through simcore.run
            result = self._capture._run(self.scenario, seed=seed)
        record = {"seed": seed, "trace_hash": result.trace_hash, "metrics": result.metrics.to_dict()}
        if self.workload == "canonical":
            record["analytic_blocking"] = raw.row("blocking").analytic
        return record

    @staticmethod
    def digest(record: dict) -> str:
        return record["trace_hash"]

    @staticmethod
    def checks(record: dict) -> list[tuple[str, bool]]:
        m = record["metrics"]
        return [
            ("conservation.arrivals", m["arrivals"] == m["admitted"] + m["blocked"]),
            ("conservation.admitted", m["admitted"] == m["completed"] + m["dropped"] + m["still_active"]),
        ]

    def pooled_checks(self, records: list[dict]) -> list[tuple[str, bool]]:
        if self.workload != "canonical":
            return []
        return [("canonical.blocking_z", abs(blocking_z(records)) <= Z_LIMIT)]


def blocking_z(records: list[dict]) -> float:
    """z of the pooled simulated blocking against the analytic value.

    Per-step blocking samples are autocorrelated, so the standard error
    comes from the spread between independent replications.
    """
    per_rep = [r["metrics"]["blocked"] / r["metrics"]["arrivals"] for r in records]
    pooled = sum(r["metrics"]["blocked"] for r in records) / sum(r["metrics"]["arrivals"] for r in records)
    if len(per_rep) < 2:
        return math.inf
    se = statistics.stdev(per_rep) / math.sqrt(len(per_rep))
    diff = pooled - records[0]["analytic_blocking"]
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def tv_distance(counts, reference) -> float:
    total = float(sum(counts))
    return 0.5 * sum(abs(c / total - float(r)) for c, r in zip(counts, reference))


class CrossCheckRunner:
    """Analytic sweep, Monte Carlo non-completion and occupancy histogram; no engine."""

    def __init__(self, data: dict, markov, kernels) -> None:
        self.data = data
        self.markov = markov
        self.kernels = kernels
        self.chains = [markov.OccupancyChain(c, data["birth"], data["death"]) for c in data["capacities"]]
        self.main = markov.OccupancyChain(data["capacity"], data["birth"], data["death"])
        self.steps = data["hist_steps"]

    def close(self) -> None:
        pass

    def job(self, seed: int):
        d = self.data
        markov = self.markov
        args = (d["demand"], d["completion"], d["grant_probability"])
        sweep = [
            (markov.noncompletion_probability(chain, *args), markov.blocking_probability([chain], d["demand"]))
            for chain in self.chains
        ]
        mc = self.kernels.mc_noncompletion(self.main, *args, d["mc_sessions"], seed)
        hist = self.kernels.occupancy_histogram(self.main, 0, d["hist_steps"], seed)
        return sweep, mc, hist

    def outcome(self, raw, seed: int) -> dict:
        sweep, mc, hist = raw
        d = self.data
        analytic = sweep[d["capacities"].index(d["capacity"])][0]
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / d["mc_sessions"])
        counts = [int(c) for c in hist]
        stationary = self.markov.stationary(self.main).probabilities
        outputs = {"sweep": sweep, "mc": mc, "hist": counts}
        return {
            "seed": seed,
            "output_hash": hashlib.sha256(json.dumps(outputs).encode()).hexdigest(),
            "analytic_noncompletion": analytic,
            "mc_noncompletion": mc,
            "z": (mc - analytic) / se,
            "tv": tv_distance(counts, stationary),
            "sweep_in_range": all(0.0 <= x <= 1.0 and 0.0 <= b <= 1.0 for x, b in sweep),
            "hist_total": sum(counts),
        }

    @staticmethod
    def digest(record: dict) -> str:
        return record["output_hash"]

    def checks(self, record: dict) -> list[tuple[str, bool]]:
        return [
            ("crosscheck.mc_z", abs(record["z"]) <= Z_LIMIT),
            ("crosscheck.hist_tv", record["tv"] <= TV_LIMIT and record["hist_total"] == self.steps),
            ("crosscheck.sweep_range", record["sweep_in_range"]),
        ]

    @staticmethod
    def pooled_checks(records: list[dict]) -> list[tuple[str, bool]]:
        return []
