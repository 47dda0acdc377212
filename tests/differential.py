"""Differential harness: seeded families of short scenarios and one digest each.

Each scenario is drawn from ``(seed, index)`` alone.  The ``mixed`` family
covers 1-8 bands with gaps between their ids, negotiation and handover
latencies 0-3, scan intervals 1-6, zero-demand probes, patterns that stop
(``until``), single arrivals, demands equal to a band's capacity and
warm-started knowledge bases.  The ``vacant`` family holds 6-12 fast
bands, mostly with refusing licensed users, and 1-2 patterns arriving
every step, so bands stand vacant, with no negotiation latency and scan
intervals of 10-30: a refused session leaves its band in the step it
sensed it, and a later handover of that step may rank that band.  Unlike
the ``mixed`` family's, its digest changes when such a ranking reads the
leaving session's sense, which belongs to the step's end.  The ``resident``
family holds 2-8 bands whose births push transmitting sessions past their
Normal boundary, mostly cooperative licensed users, negotiation latencies
of 1-3, scan intervals of 1-5 and long-lived sessions (completion
0.005-0.05): sessions stay on their bands for tens of steps, and a grant
after a wait often leaves a band still past Normal.  The ``wide`` family
holds 16-96 bands, so its band sets fall on both sides of
``simcore.WIDE_BANDS``, with slow chains, some static ones, dispositions
that switch often or never, and 1-4 long-lived arrival patterns, so tens of
bands hold a session that scans, negotiates after latencies of 0-2 and is
granted channels.  A scenario's digest covers everything a run reports: the
trace hash, the knowledge base, the metrics, the band histograms, the time
series and the NDJSON trace.  With
``--stepped`` the harness drives each run one ``Engine.step()`` at a time
and also folds the knowledge base and the band histograms after every step
into the digest, so it sees a write that lands late between steps, which
the end-of-run outputs cannot.

Two engines agree on a family when their manifests are equal:

    PYTHONPATH=src python tests/differential.py --count 2000 --seed 7 > a.txt
    PYTHONPATH=src python tests/differential.py --family vacant --count 2000 --seed 5 > b.txt
    PYTHONPATH=src python tests/differential.py --family resident --count 2000 --seed 9 > c.txt
    PYTHONPATH=src python tests/differential.py --family resident --stepped --count 2000 --seed 9 > d.txt
    PYTHONPATH=src python tests/differential.py --family wide --count 2000 --seed 6 > e.txt
    PYTHONPATH=src python tests/differential.py --family wide --stepped --count 2000 --seed 6 > f.txt

prints one line per scenario (index, scenario hash prefix, digest) and a
last line ``combined <digest>`` over all of them.

``tests/data/differential.json`` lists the pinned runs: per key its family
(``mixed`` when absent), count, seed, whether it is stepped, and the
combined digest.  Tier-1 checks every ``tier1`` key (50 scenarios each,
``tests/test_differential.py``) and CI every ``ci`` key (2,000 each, the
runs above), each once per chain pass: in-process through ``manifest``,
with ``simcore.WIDE_BANDS`` at 1 (every engine on the numpy pass) and at
``1 << 30`` (every one on the Python pass).  The default width only picks
one of these two passes per scenario, so it is not run again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import random
import sys

from crsim.learning import KnowledgeBase
from crsim.qos import TrafficType
from crsim.scenario import Scenario
from crsim.simcore import Engine

TRAFFIC = [t.value for t in TrafficType]


def _band(rng: random.Random, band_id: int) -> dict:
    capacity = rng.randint(1, 12)
    static = rng.random() < 0.15
    p = 0.0 if static else round(rng.uniform(0.0, 0.4), 3)
    q = 0.0 if static else round(rng.uniform(0.0, 0.4), 3)
    still = rng.random() < 0.2  # a disposition that never switches
    return {
        "id": band_id,
        "capacity": capacity,
        "p": p,
        "q": q,
        "initial_occupancy": rng.randint(0, capacity),
        "disposition": {
            "state": rng.choice(("cooperative", "noncooperative")),
            "alpha": 0.0 if still else round(rng.uniform(0.0, 0.3), 3),
            "beta": 0.0 if still else round(rng.uniform(0.0, 0.3), 3),
        },
    }


def _warm_start(rng: random.Random, band_ids: list[int]) -> dict | None:
    """A knowledge-base snapshot for some runs, None (a fresh one) for the others."""
    if rng.random() >= 0.3:
        return None
    n_bands = len(band_ids)
    kb = {}
    # some of the scenario's bands, and sometimes one it lacks
    warm = rng.sample(band_ids, rng.randint(0, n_bands))
    if rng.random() < 0.5:
        warm.append(3 * n_bands + 2)
    for band_id in warm:
        sensed, attempts = rng.randint(0, 40), rng.randint(0, 10)
        kb[str(band_id)] = {
            "attempts": attempts,
            "grants": rng.randint(0, attempts),
            "sensed": sensed,
            "available": rng.randint(0, sensed),
        }
    return kb


def scenario(seed: int, index: int) -> tuple[Scenario, dict | None]:
    """The ``mixed`` scenario of ``(seed, index)`` and its warm-start snapshot, or None for a fresh knowledge base."""
    rng = random.Random(seed * 1_000_003 + index)
    horizon = rng.randint(20, 160)
    n_bands = rng.randint(1, 8)
    band_ids = sorted(rng.sample(range(3 * n_bands + 2), n_bands))
    bands = [_band(rng, band_id) for band_id in band_ids]
    rng.shuffle(bands)  # the engine orders bands by id, whatever the declaration order
    sessions = []
    for _ in range(rng.randint(1, 5)):
        session = {"traffic": rng.choice(TRAFFIC)}
        session["c"] = 1.0 if rng.random() < 0.15 else round(rng.uniform(0.01, 0.5), 3)
        roll = rng.random()
        if roll < 0.15:
            session["demand"] = 0  # a probe
        elif roll < 0.3:
            session["demand"] = rng.choice(bands)["capacity"]
        if rng.random() < 0.25:
            session["arrival"] = rng.randint(0, horizon - 1)
        else:
            session["every"] = rng.randint(1, 6)
            session["start"] = rng.randint(0, 5)
            if rng.random() < 0.3:
                session["until"] = rng.randint(1, horizon)
        sessions.append(session)
    doc = {
        "name": f"differential-{seed}-{index}",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": rng.randint(1, 3), "latency": rng.randint(0, 3)},
        "handover": {
            "latency": rng.randint(0, 3),
            "max_replans": rng.randint(0, 3),
            "scan_interval": rng.randint(1, 6),
        },
        "horizon": horizon,
        "seed": rng.randint(0, 2**31 - 1),
    }
    return Scenario.from_dict(doc), _warm_start(rng, band_ids)


def vacant_scenario(seed: int, index: int) -> tuple[Scenario, dict | None]:
    """The ``vacant`` scenario of ``(seed, index)`` and its warm-start snapshot, as ``scenario`` gives."""
    rng = random.Random(seed * 1_000_003 + index)
    horizon = rng.randint(40, 200)
    n_bands = rng.randint(6, 12)
    band_ids = sorted(rng.sample(range(3 * n_bands + 2), n_bands))
    bands = []
    for band_id in band_ids:
        # fast chains and mostly refusing licensed users: sessions leave often
        capacity = rng.randint(1, 12)
        bands.append({
            "id": band_id,
            "capacity": capacity,
            "p": round(rng.uniform(0.3, 0.5), 3),
            "q": round(rng.uniform(0.3, 0.5), 3),
            "initial_occupancy": rng.randint(0, capacity),
            "disposition": {
                "state": "cooperative" if rng.random() < 1 / 3 else "noncooperative",
                "alpha": round(rng.uniform(0.0, 0.1), 3),
                "beta": round(rng.uniform(0.0, 0.1), 3),
            },
        })
    rng.shuffle(bands)
    sessions = [
        {"traffic": rng.choice(TRAFFIC), "c": round(rng.uniform(0.02, 0.2), 3), "every": 1, "start": rng.randint(0, 3)}
        for _ in range(rng.randint(1, 2))
    ]
    doc = {
        "name": f"vacant-{seed}-{index}",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": rng.randint(1, 3), "latency": 0},
        "handover": {
            "latency": rng.randint(0, 2),
            "max_replans": rng.randint(0, 3),
            "scan_interval": rng.randint(10, 30),
        },
        "horizon": horizon,
        "seed": rng.randint(0, 2**31 - 1),
    }
    return Scenario.from_dict(doc), _warm_start(rng, band_ids)


def resident_scenario(seed: int, index: int) -> tuple[Scenario, dict | None]:
    """The ``resident`` scenario of ``(seed, index)`` and its warm-start snapshot, as ``scenario`` gives."""
    rng = random.Random(seed * 1_000_003 + index)
    horizon = rng.randint(60, 200)
    n_bands = rng.randint(2, 8)
    band_ids = sorted(rng.sample(range(3 * n_bands + 2), n_bands))
    bands = []
    for band_id in band_ids:
        # births that push a transmitting session over its Normal boundary,
        # and licensed users that mostly cooperate
        capacity = rng.randint(2, 12)
        bands.append({
            "id": band_id,
            "capacity": capacity,
            "p": round(rng.uniform(0.15, 0.45), 3),
            "q": round(rng.uniform(0.05, 0.35), 3),
            "initial_occupancy": rng.randint(0, capacity),
            "disposition": {
                "state": "cooperative" if rng.random() < 0.8 else "noncooperative",
                "alpha": round(rng.uniform(0.0, 0.1), 3),
                "beta": round(rng.uniform(0.1, 0.5), 3),
            },
        })
    rng.shuffle(bands)
    sessions = []
    for _ in range(rng.randint(1, 3)):
        # long-lived sessions that stay resident for tens of steps
        session = {"traffic": rng.choice(TRAFFIC), "c": round(rng.uniform(0.005, 0.05), 3)}
        if rng.random() < 0.2:
            session["arrival"] = rng.randint(0, horizon - 1)
        else:
            session["every"] = rng.randint(1, 5)
            session["start"] = rng.randint(0, 3)
        sessions.append(session)
    doc = {
        "name": f"resident-{seed}-{index}",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": rng.randint(1, 3), "latency": rng.randint(1, 3)},
        "handover": {
            "latency": rng.randint(0, 2),
            "max_replans": rng.randint(0, 3),
            "scan_interval": rng.randint(1, 5),
        },
        "horizon": horizon,
        "seed": rng.randint(0, 2**31 - 1),
    }
    return Scenario.from_dict(doc), _warm_start(rng, band_ids)


def wide_scenario(seed: int, index: int) -> tuple[Scenario, dict | None]:
    """The ``wide`` scenario of ``(seed, index)`` and its warm-start snapshot, as ``scenario`` gives."""
    rng = random.Random(seed * 1_000_003 + index)
    horizon = rng.randint(30, 100)
    n_bands = rng.randint(16, 96)
    band_ids = sorted(rng.sample(range(3 * n_bands + 2), n_bands))
    bands = []
    for band_id in band_ids:
        # mostly slow chains under holding sessions, some static ones, and
        # dispositions that flip every few steps or never
        capacity = rng.randint(2, 16)
        static = rng.random() < 0.1
        still = rng.random() < 0.1
        bands.append({
            "id": band_id,
            "capacity": capacity,
            "p": 0.0 if static else round(rng.uniform(0.02, 0.3), 3),
            "q": 0.0 if static else round(rng.uniform(0.05, 0.4), 3),
            "initial_occupancy": rng.randint(0, capacity),
            "disposition": {
                "state": "cooperative" if rng.random() < 0.7 else "noncooperative",
                "alpha": 0.0 if still else round(rng.uniform(0.0, 0.3), 3),
                "beta": 0.0 if still else round(rng.uniform(0.0, 0.5), 3),
            },
        })
    rng.shuffle(bands)
    sessions = []
    for _ in range(rng.randint(1, 4)):
        # long-lived sessions, so tens of bands hold one
        session = {"traffic": rng.choice(TRAFFIC), "c": round(rng.uniform(0.005, 0.1), 3)}
        if rng.random() < 0.2:
            session["arrival"] = rng.randint(0, horizon - 1)
        else:
            session["every"] = rng.randint(1, 4)
            session["start"] = rng.randint(0, 3)
        sessions.append(session)
    doc = {
        "name": f"wide-{seed}-{index}",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": rng.randint(1, 3), "latency": rng.randint(0, 2)},
        "handover": {
            "latency": rng.randint(0, 2),
            "max_replans": rng.randint(0, 3),
            "scan_interval": rng.randint(1, 10),
        },
        "horizon": horizon,
        "seed": rng.randint(0, 2**31 - 1),
    }
    return Scenario.from_dict(doc), _warm_start(rng, band_ids)


FAMILIES = {"mixed": scenario, "vacant": vacant_scenario, "resident": resident_scenario, "wide": wide_scenario}


def outputs(scenario: Scenario, kb: dict | None, stepped: bool = False) -> dict:
    """Everything one run reports, as plain JSON values.

    ``stepped`` runs the engine one ``step()`` at a time and adds ``steps``,
    a digest of the knowledge base and the band histograms after each step.
    """
    engine = Engine(
        scenario,
        keep_trace=True,
        collect_timeseries=True,
        kb=None if kb is None else KnowledgeBase.from_json_dict(kb),
    )
    steps = hashlib.sha256()
    if stepped:
        for _ in range(scenario.horizon):
            engine.step()
            steps.update(json.dumps([engine.kb.to_json_dict(), engine.band_histograms], sort_keys=True).encode())
    result = engine.run()
    out = {
        "trace_hash": result.trace_hash,
        "kb": result.kb.to_json_dict(),
        "metrics": result.metrics.to_dict(),
        "band_histograms": {str(b): h for b, h in sorted(result.band_histograms.items())},
        "timeseries": [result.timeseries_header(), *result.timeseries],
        "ndjson": list(result.trace.ndjson_lines()),
    }
    if stepped:
        out["steps"] = steps.hexdigest()
    return out


def digest(scenario: Scenario, kb: dict | None, stepped: bool = False) -> str:
    return hashlib.sha256(json.dumps(outputs(scenario, kb, stepped), sort_keys=True).encode()).hexdigest()


def manifest(count: int, seed: int, family: str = "mixed", stepped: bool = False) -> list[str]:
    """One line per scenario of ``family``, then ``combined <sha256 of the lines before it>``."""
    lines = []
    for index in range(count):
        sc, kb = FAMILIES[family](seed, index)
        lines.append(f"{index} {sc.sha256()[:12]} {digest(sc, kb, stepped)}")
    combined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return [*lines, f"combined {combined}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True, help="number of scenarios")
    parser.add_argument("--seed", type=int, required=True, help="seed of the family")
    parser.add_argument("--family", choices=sorted(FAMILIES), default="mixed", help="family of scenarios")
    parser.add_argument("--stepped", action="store_true", help="step singly; digest each step's KB and histograms")
    args = parser.parse_args(argv)
    # the engine logs a warning on each negotiation with an idle licensed user
    logging.basicConfig(level=logging.ERROR)
    for line in manifest(args.count, args.seed, args.family, args.stepped):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
