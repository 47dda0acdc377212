"""Command-line front end: simulate, analyze, compare, tdma, qos list."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from statistics import mean, stdev

from . import __version__, qos
from .learning import KnowledgeBase
from .mac_tdma import NodeProfile, TdmaError, discover
from .simcore import (
    PRESETS,
    Scenario,
    ScenarioError,
    analytic_figures,
    compare,
    run,
)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    raw = os.environ.get("CRSIM_LOG", "error").strip().lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.ERROR
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.preset:
        return PRESETS[args.preset]()
    path = args.scenario
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError([f"scenario file not found: {path}"]) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"scenario file {path} is not valid JSON: {exc}"]) from None
    return Scenario.from_dict(data)


def _provenance(scenario: Scenario, seed: int) -> dict:
    return {
        "tool": "crsim",
        "version": __version__,
        "scenario_name": scenario.name or None,
        "scenario_sha256": scenario.sha256(),
        "seed": seed,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _add_scenario_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="path to a scenario JSON file")
    group.add_argument("--preset", choices=sorted(PRESETS), help="use a built-in scenario")


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = args.seed if args.seed is not None else scenario.seed
    replications = args.replications
    if replications < 1:
        raise ScenarioError(["--replications must be >= 1"])
    if replications > 1 and (args.trace or args.timeseries or args.kb_out):
        raise ScenarioError(["--trace/--timeseries/--kb-out need a single run (replications 1)"])

    kb_template = None
    if args.kb_in:
        with open(args.kb_in, "r", encoding="utf-8") as fh:
            kb_template = json.load(fh)

    if replications == 1:
        kb = KnowledgeBase.from_json_dict(kb_template) if args.kb_in else None
        result = run(
            scenario,
            seed=seed,
            keep_trace=bool(args.trace),
            collect_timeseries=bool(args.timeseries),
            kb=kb,
        )
        payload = {
            "provenance": _provenance(scenario, seed),
            "metrics": result.metrics.to_dict(),
            "trace_hash": result.trace_hash,
            "bands": [
                {"id": band_id, "occupancy_histogram": hist}
                for band_id, hist in sorted(result.band_histograms.items())
            ],
        }
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                for line in result.trace.ndjson_lines():
                    fh.write(line + "\n")
        if args.timeseries:
            with open(args.timeseries, "w", encoding="utf-8") as fh:
                fh.write(",".join(result.timeseries_header()) + "\n")
                for row in result.timeseries or []:
                    fh.write(",".join(str(v) for v in row) + "\n")
        if args.kb_out:
            with open(args.kb_out, "w", encoding="utf-8") as fh:
                json.dump(result.kb.to_json_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        _emit(json.dumps(payload, indent=2), args.out)
        return 0

    seeds = [seed + i for i in range(replications)]
    runs = []
    for s in seeds:
        kb = KnowledgeBase.from_json_dict(kb_template) if args.kb_in else None
        runs.append(run(scenario, seed=s, kb=kb))
    metric_dicts = [r.metrics.to_dict() for r in runs]
    numeric_keys = [
        k for k, v in metric_dicts[0].items() if isinstance(v, (int, float)) and v is not None
    ]
    merged_mean = {}
    merged_std = {}
    for key in numeric_keys:
        values = [d[key] for d in metric_dicts if d[key] is not None]
        merged_mean[key] = mean(values)
        merged_std[key] = stdev(values) if len(values) > 1 else 0.0
    payload = {
        "provenance": _provenance(scenario, seed),
        "replications": {
            "count": replications,
            "seeds": seeds,
            "metrics_mean": merged_mean,
            "metrics_stddev": merged_std,
            "trace_hashes": [r.trace_hash for r in runs],
        },
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = args.seed if args.seed is not None else scenario.seed
    payload = {"provenance": _provenance(scenario, seed), **analytic_figures(scenario)}
    skipped = payload.pop("skipped", None)
    if skipped:
        payload["notes"] = [f"non-completion skipped: {skipped}"]
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = args.seed if args.seed is not None else scenario.seed
    report = compare(scenario, seed=seed)
    if args.json:
        payload = {"provenance": _provenance(scenario, seed), **report.to_dict()}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(report.format_table() + "\n", args.out)
    return 0


def _json_int(value) -> int:
    """``value`` itself if it is a JSON integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not a JSON integer: {value!r}")
    return value


def _cmd_tdma(args: argparse.Namespace) -> int:
    path = args.topology
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise TdmaError(f"topology file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise TdmaError(f"topology file {path} is not valid JSON: {exc}") from None
    try:
        profiles = [
            NodeProfile(_json_int(node["id"]), frozenset(_json_int(c) for c in node["channels"]))
            for node in data["nodes"]
        ]
        edges = [(_json_int(i), _json_int(j)) for i, j in data.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise TdmaError(f"topology file {path}: expected nodes[].id, nodes[].channels, edges[][2] ({exc})")
    rounds = args.rounds if args.rounds is not None else data.get("rounds")
    result = discover(profiles, edges, rounds=rounds)
    payload = {
        "provenance": {"tool": "crsim", "version": __version__},
        "nodes": len(profiles),
        "rounds": result.rounds,
        "connected": result.connected,
        "neighbor_tables": {
            str(i): {str(j): sorted(common) for j, common in table.items()}
            for i, table in result.neighbor_tables.items()
        },
        "candidates": {str(i): sorted(c) for i, c in result.candidates.items()},
        "global_common": sorted(result.global_common) if result.global_common is not None else None,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_qos_list(args: argparse.Namespace) -> int:
    _emit(qos.table_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crsim",
        description="Spectrum-sharing simulator with a Markov-chain analytic cross-check.",
    )
    parser.add_argument("--version", action="version", version=f"crsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and emit metrics JSON")
    _add_scenario_source(p_sim)
    p_sim.add_argument("--seed", type=int, help="override the scenario seed")
    p_sim.add_argument("--out", help="write the primary JSON output to a file")
    p_sim.add_argument("--trace", help="write the event trace as newline-delimited JSON")
    p_sim.add_argument("--timeseries", help="write a per-step CSV time series")
    p_sim.add_argument("--replications", type=int, default=1, help="independent seeded runs to merge")
    p_sim.add_argument("--kb-in", help="warm-start the knowledge base from a JSON snapshot")
    p_sim.add_argument("--kb-out", help="write the final knowledge base as JSON")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="print analytic figures for a scenario")
    _add_scenario_source(p_an)
    p_an.add_argument("--seed", type=int, help="seed recorded in the provenance block")
    p_an.add_argument("--out", help="write JSON output to a file")
    p_an.set_defaults(func=_cmd_analyze)

    p_cmp = sub.add_parser("compare", help="run a scenario and compare against the analytic model")
    _add_scenario_source(p_cmp)
    p_cmp.add_argument("--seed", type=int, help="override the scenario seed")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of a text table")
    p_cmp.add_argument("--out", help="write output to a file")
    p_cmp.set_defaults(func=_cmd_compare)

    p_tdma = sub.add_parser("tdma", help="run slotted neighbor/channel discovery on a topology")
    p_tdma.add_argument("--topology", required=True, help="topology JSON (nodes, edges)")
    p_tdma.add_argument("--rounds", type=int, help="dissemination rounds (default: graph diameter)")
    p_tdma.add_argument("--out", help="write JSON output to a file")
    p_tdma.set_defaults(func=_cmd_tdma)

    p_qos = sub.add_parser("qos", help="QoS table utilities")
    qos_sub = p_qos.add_subparsers(dest="qos_command", required=True)
    p_qos_list = qos_sub.add_parser("list", help="print the traffic sensitivity table as CSV")
    p_qos_list.add_argument("--out", help="write CSV output to a file")
    p_qos_list.set_defaults(func=_cmd_qos_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
