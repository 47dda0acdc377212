"""crsim benchmark: seeded workloads through the public crsim API.

Usage (from the repository root):

    python3 bench/run.py --workload canonical --seed 1 --seconds 20 --trace 0

``--trace 0`` times jobs with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced runs of the same
jobs and reports the per-layer metrics.  Every job's outputs are checked;
the last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (checks) and ``metrics``.  A full record of
the run, raw host timings included, is written under ``.bench_runs/``.
See README.md for the workloads, metrics and calibration method.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import jobs
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".bench_runs"

MIN_JOBS = 3  # fewest timed jobs (and traced jobs) in any run
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60

# kernel -> (metric label, input key holding the work done per call)
KERNEL_RATES = {
    "kernels.mc_noncompletion": ("sessions_per_s", "mc_sessions"),
    "kernels.occupancy_histogram": ("steps_per_s", "hist_steps"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's crsim first on the path; refuse any other copy."""
    if not (SRC / "crsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no crsim package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import crsim

    if Path(crsim.__file__).resolve().parent != (SRC / "crsim").resolve():
        raise SystemExit(f"error: imported crsim from {crsim.__file__}, not from {SRC}")


def setup_samples(workload: str, seed: int) -> list[dict]:
    """Set-up timings, each in a fresh interpreter, with its calibration slices."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
            check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["norm_s"] = calibrate.normalise(
            sample["raw_s"], sample["slice_before_s"], sample["slice_after_s"], calibrate.IMPORT_REFERENCE_S
        )
        samples.append(sample)
    return samples


class Timer:
    """Times jobs between calibration slices; each slice is shared by its neighbours."""

    def __init__(self) -> None:
        self.last_slice = calibrate.time_slice()

    def time(self, fn, *args):
        start = time.perf_counter()
        raw = fn(*args)
        elapsed = time.perf_counter() - start
        before, self.last_slice = self.last_slice, calibrate.time_slice()
        timing = {
            "raw_s": elapsed,
            "slice_before_s": before,
            "slice_after_s": self.last_slice,
            "norm_s": calibrate.normalise(elapsed, before, self.last_slice),
        }
        return raw, timing


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results: list[tuple[str, bool]], context: str = "") -> None:
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(f"{name}{context}")


def run_job(runner, timer: Timer, index: int, seed: int, checks: Checks, wrappers=None):
    """Time job ``index`` and check its outputs; returns (record, timing).

    ``wrappers`` (a ``tracing.Installed``) is active during the job only.
    """
    job_seed = workloads.job_seed(seed, index)
    try:
        with wrappers or contextlib.nullcontext():
            raw, timing = timer.time(runner.job, job_seed)
        record = runner.outcome(raw, job_seed)
    except Exception as exc:  # a failing job is a failed check, not a crash
        checks.add([(f"job_raised:{type(exc).__name__}:{exc}", False)], f"[job {index}]")
        return None, None
    checks.add(runner.checks(record), f"[job {index}]")
    return record, timing


def measure_untraced(runner, seed: int, seconds: float, checks: Checks) -> tuple[list, list]:
    records, timings = [], []
    timer = Timer()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_JOBS or time.perf_counter() < deadline:
        record, timing = run_job(runner, timer, index, seed, checks)
        if record is not None:
            records.append(record)
            timings.append(timing)
        index += 1
    return records, timings


def check_replay(runner, seed: int, records: list, checks: Checks) -> None:
    """Determinism: job 0 replayed with the tracer installed gives the same digest."""
    replay, _ = run_job(runner, Timer(), 0, seed, checks, tracing.Installed(tracing.Tracer()))
    same = bool(records) and replay is not None and runner.digest(replay) == runner.digest(records[0])
    checks.add([("determinism.traced_replay", same)])


def end_to_end(runner, workload: str, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    setups = setup_samples(workload, seed)
    records, timings = measure_untraced(runner, seed, seconds, checks)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_replay(runner, seed, records, checks)
    checks.add(runner.pooled_checks(records))
    metrics = {}
    if timings:
        job_s = statistics.median(t["norm_s"] for t in timings)
        metrics["steps_per_s"] = {"value": runner.steps / job_s, "unit": "1/s"}
        metrics["job_s"] = {"value": job_s, "unit": "s"}
    metrics["setup_s"] = {"value": statistics.median(s["norm_s"] for s in setups), "unit": "s"}
    metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    record = {"jobs": [dict(r, timing=t) for r, t in zip(records, timings)], "setup": setups}
    return metrics, record


def per_layer(runner, data: dict, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of the same jobs.

    Counts and self times come from the first ``MIN_JOBS`` traced jobs, so
    ``.calls`` repeat exactly per seed; overhead uses every pair.
    """
    tracer = tracing.Tracer()
    wrappers = tracing.Installed(tracer)
    timer = Timer()
    layer_ns: dict[str, float] = {}
    layer_counts: dict[str, tuple[int, int]] = {}
    pairs, untraced_records = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_JOBS or time.perf_counter() < deadline:
        plain, plain_t = run_job(runner, timer, index, seed, checks)
        before = tracer.snapshot()
        traced, traced_t = run_job(runner, timer, index, seed, checks, wrappers)
        if plain is None or traced is None:
            index += 1
            continue
        untraced_records.append(plain)
        checks.add([("determinism.traced_equals_untraced", runner.digest(plain) == runner.digest(traced))],
                   f"[job {index}]")
        pairs.append({"index": index, "untraced": plain_t, "traced": traced_t})
        if index < MIN_JOBS:
            scale = traced_t["norm_s"] / traced_t["raw_s"]
            for name, (calls, self_ns, hits) in tracer.snapshot().items():
                c0, n0, h0 = before.get(name, (0, 0, 0))
                layer_ns[name] = layer_ns.get(name, 0.0) + (self_ns - n0) * scale
                calls_sum, hits_sum = layer_counts.get(name, (0, 0))
                layer_counts[name] = (calls_sum + calls - c0, hits_sum + hits - h0)
        index += 1
    checks.add(runner.pooled_checks(untraced_records))

    metrics: dict[str, dict] = {}
    for name in wrappers.present:
        calls, hits = layer_counts.get(name, (0, 0))
        self_s = layer_ns.get(name, 0.0) / 1e9
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        if name in tracing.OUTCOMES:
            label = tracing.OUTCOMES[name][0]
            metrics[f"{name}.{label}"] = {"value": hits / calls if calls else 0.0, "unit": "ratio"}
        if name in KERNEL_RATES:
            label, key = KERNEL_RATES[name]
            work = calls * data[key] if calls else 0
            metrics[f"{name}.{label}"] = {"value": work / self_s if self_s else 0.0, "unit": "1/s"}
    if pairs:
        metrics["trace.overhead"] = {
            "value": statistics.median(p["traced"]["norm_s"] / p["untraced"]["norm_s"] for p in pairs),
            "unit": "ratio",
        }
    record = {"pairs": pairs, "missing": wrappers.missing, "jobs": untraced_records}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    data = workloads.generate(args.workload, args.seed)
    runner = jobs.set_up(args.workload, data)
    checks = Checks()
    try:
        if args.trace:
            metrics, record = per_layer(runner, data, args.seed, args.seconds, checks)
        else:
            metrics, record = end_to_end(runner, args.workload, args.seed, args.seconds, checks)
    finally:
        runner.close()

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=sys.version,
        engine_reference_s=calibrate.ENGINE_REFERENCE_S,
        import_reference_s=calibrate.IMPORT_REFERENCE_S,
        checks_attempted=checks.attempted,
        checks_failed=checks.failed,
        metrics=metrics,
    )
    RECORD_DIR.mkdir(exist_ok=True)
    out = RECORD_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:<11}{name:<48}{metric['value']:>16.6g} {metric['unit']}")
    error_rate = len(checks.failed) / checks.attempted if checks.attempted else 1.0
    print(f"{args.workload:<11}{'error_rate':<48}{error_rate:>16.6g} failed/attempted checks")
    for failure in checks.failed:
        print(f"failed check: {failure}")
    print(
        json.dumps(
            {
                "correct": not checks.failed and checks.attempted > 0,
                "attempted": checks.attempted,
                "failed": len(checks.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
