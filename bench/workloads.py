"""Seeded workload generators for the crsim benchmark.

Every generator returns plain JSON-style dicts built only from the
workload seed, so the program under test receives nothing but generated
inputs.  This module does not import crsim: the set-up timing imports it
afterwards, and the generators keep working if crsim's internals change.

Workloads (see README.md for why each one exists):

- ``canonical``: the worked single-band example, run through ``compare``.
- ``wide64``: 64 bands, four holding-session patterns; sensing-heavy.
- ``churn``: 7 fast-churning bands, four patterns arriving together;
  admission, negotiation and handover heavy.
- ``crosscheck``: no engine; the analytic solve against the Monte Carlo
  kernels.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("canonical", "wide64", "churn", "crosscheck")
ENGINE_WORKLOADS = ("canonical", "wide64", "churn")

# (traffic type, arrival period) of the holding-session patterns
WIDE64_PATTERNS = (
    ("VideoConferencing", 3),
    ("Voice", 2),
    ("FileTransfers", 5),
    ("SeriousBrowsing", 4),
)
CHURN_TRAFFIC = ("VideoConferencing", "Voice", "FileTransfers", "SeriousBrowsing")

CANONICAL_STEPS = 40_000
WIDE64_STEPS = 500
CHURN_STEPS = 6_000
# Per-step cost grows with the band count, so it is fixed rather than drawn
# from the seed: every seed then asks for the same amount of work.
CHURN_BANDS = 7

CROSSCHECK_CAPACITIES = tuple(range(4, 33))
CROSSCHECK_SESSIONS = 400_000
CROSSCHECK_HIST_STEPS = 1_000_000


def job_seed(seed: int, index: int) -> int:
    """Replication seed of job ``index``; stable across runs and platforms."""
    digest = hashlib.sha256(f"crsim-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _band(band_id, capacity, p, q, occupancy, state="cooperative", alpha=0.0, beta=0.0) -> dict:
    return {
        "id": band_id,
        "capacity": capacity,
        "p": p,
        "q": q,
        "initial_occupancy": occupancy,
        "disposition": {"state": state, "alpha": alpha, "beta": beta},
    }


def canonical(seed: int) -> dict:
    """The worked example: C=8, p=q=0.2, demand 4, one probe per step."""
    return {
        "name": "canonical",
        "bands": [_band(0, 8, 0.2, 0.2, 4, "noncooperative")],
        "sessions": [{"traffic": "VideoConferencing", "c": 1.0, "every": 1}],
        "negotiation": {"grant_request": 1, "latency": 0},
        "handover": {"latency": 0, "max_replans": 3, "scan_interval": 10},
        "horizon": CANONICAL_STEPS,
        "seed": job_seed(seed, -1),
    }


def wide64(seed: int) -> dict:
    """64 bands of capacity 6-16 with tens of resident holding sessions."""
    rng = _rng("wide64", seed)
    bands = []
    for band_id in range(64):
        capacity = rng.randint(6, 16)
        bands.append(
            _band(
                band_id,
                capacity,
                round(rng.uniform(0.02, 0.2), 4),
                round(rng.uniform(0.1, 0.4), 4),
                rng.randint(0, capacity // 2),
                rng.choice(("cooperative", "noncooperative")),
                round(rng.uniform(0.0, 0.1), 4),
                round(rng.uniform(0.0, 0.1), 4),
            )
        )
    sessions = [
        {"traffic": traffic, "c": round(rng.uniform(0.005, 0.02), 4), "every": every, "start": 0}
        for traffic, every in WIDE64_PATTERNS
    ]
    return {
        "name": "wide64",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": 1, "latency": 1},
        "handover": {"latency": 2, "max_replans": 3, "scan_interval": 10},
        "horizon": WIDE64_STEPS,
        "seed": job_seed(seed, -1),
    }


def churn(seed: int) -> dict:
    """Seven fast-churning bands of capacity 8; four patterns arrive together."""
    rng = _rng("churn", seed)
    bands = []
    for band_id in range(CHURN_BANDS):
        bands.append(
            _band(
                band_id,
                8,
                round(rng.uniform(0.3, 0.45), 4),
                round(rng.uniform(0.3, 0.45), 4),
                rng.randint(0, 8),
                rng.choice(("cooperative", "noncooperative")),
                0.3,
                0.3,
            )
        )
    sessions = [
        {"traffic": traffic, "c": round(rng.uniform(0.08, 0.12), 4), "every": 2, "start": 0}
        for traffic in CHURN_TRAFFIC
    ]
    return {
        "name": "churn",
        "bands": bands,
        "sessions": sessions,
        "negotiation": {"grant_request": 1, "latency": 2},
        "handover": {"latency": 2, "max_replans": 2, "scan_interval": 10},
        "horizon": CHURN_STEPS,
        "seed": job_seed(seed, -1),
    }


def crosscheck(seed: int) -> dict:
    """Chain parameters for the analytic sweep and the two Monte Carlo kernels.

    The Monte Carlo and histogram checks use ``capacity``; the analytic
    sweep covers every capacity in ``capacities``.
    """
    rng = _rng("crosscheck", seed)
    return {
        "capacities": list(CROSSCHECK_CAPACITIES),
        "capacity": rng.randint(6, 10),
        "birth": round(rng.uniform(0.15, 0.3), 4),
        "death": round(rng.uniform(0.25, 0.45), 4),
        "demand": rng.randint(2, 4),
        "completion": round(rng.uniform(0.1, 0.12), 4),
        "grant_probability": round(rng.uniform(0.3, 0.7), 4),
        "mc_sessions": CROSSCHECK_SESSIONS,
        "hist_steps": CROSSCHECK_HIST_STEPS,
        "seed": job_seed(seed, -1),
    }


GENERATORS = {"canonical": canonical, "wide64": wide64, "churn": churn, "crosscheck": crosscheck}


def generate(workload: str, seed: int) -> dict:
    """The generated input of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed)
