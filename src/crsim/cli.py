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
from .scenario import INT_MAX, PRESETS, Scenario, ScenarioError
from .simcore import analytic_figures, compare, run


def _read_json(path: str, what: str, error) -> object:
    """The JSON value in the file at ``path``; a missing file, bad JSON or deep nesting raises ``error(message)``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except ValueError as exc:  # undecodable bytes, bad syntax, or an integer past the digit limit
        raise error(f"{what} file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{what} file nested too deeply to read: {path}") from None


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.preset:
        return PRESETS[args.preset]()
    return Scenario.from_dict(_read_json(args.scenario, "scenario", lambda message: ScenarioError([message])))


def _seed(args: argparse.Namespace, scenario: Scenario, runs: int = 1) -> int:
    """The first run seed, ``--seed`` or the scenario's; the trace needs all ``runs`` seeds within [0, INT_MAX]."""
    seed = args.seed if args.seed is not None else scenario.seed
    got = f"{seed} to {seed + runs - 1}" if runs > 1 else seed
    if seed < 0 or seed + runs - 1 > INT_MAX:
        raise ScenarioError([f"run seeds must lie within [0, {INT_MAX}], got {got}"])
    return seed


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
    replications = args.replications
    if replications < 1:
        raise ScenarioError(["--replications must be >= 1"])
    seed = _seed(args, scenario, replications)
    if replications > 1 and (args.trace or args.timeseries or args.kb_out):
        raise ScenarioError(["--trace/--timeseries/--kb-out need a single run (replications 1)"])

    kb_template = _read_json(args.kb_in, "knowledge-base", ValueError) if args.kb_in else None
    seeds = [seed + i for i in range(replications)]
    # one run at a time: the runs are not kept, only what the output needs of each
    runs = (
        run(
            scenario,
            seed=s,
            keep_trace=bool(args.trace),
            collect_timeseries=bool(args.timeseries),
            kb=KnowledgeBase.from_json_dict(kb_template) if args.kb_in else None,
        )
        for s in seeds
    )
    if replications == 1:
        (result,) = runs
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
    else:
        metric_dicts, trace_hashes = zip(*((r.metrics.to_dict(), r.trace_hash) for r in runs))
        # every scalar figure, over the runs that define it (null where none does)
        defined = {
            key: [d[key] for d in metric_dicts if d[key] is not None]
            for key in metric_dicts[0]
            if key != "mode_histogram"
        }
        payload = {
            "provenance": _provenance(scenario, seed),
            "replications": {
                "count": replications,
                "seeds": seeds,
                "metrics_mean": {key: mean(values) if values else None for key, values in defined.items()},
                "metrics_stddev": {
                    key: (stdev(values) if len(values) > 1 else 0.0) if values else None
                    for key, values in defined.items()
                },
                "trace_hashes": trace_hashes,
            },
        }
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = _seed(args, scenario)
    payload = {"provenance": _provenance(scenario, seed), **analytic_figures(scenario)}
    skipped = payload.pop("skipped", None)
    if skipped:
        payload["notes"] = [f"non-completion skipped: {skipped}"]
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args)
    seed = _seed(args, scenario)
    report = compare(scenario, seed=seed)
    if args.json:
        payload = {"provenance": _provenance(scenario, seed), **report.to_dict()}
        _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
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
    data = _read_json(path, "topology", TdmaError)
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
    _emit(json.dumps(payload, indent=2, allow_nan=False), args.out)
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
    logging.basicConfig(level=logging.ERROR, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader has gone (``crsim ... | head``): send what is still buffered
        # to the null device, so shutdown reports nothing, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
