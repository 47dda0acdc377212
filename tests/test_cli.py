"""Command-line tests: ``main(argv)`` for every subcommand and error exit.

``tests/data/cli_golden.json`` holds the exact stdout, stderr and exit
code of ``analyze``, ``compare``, ``compare --json``, ``simulate``,
``tdma`` and ``qos list`` on the canonical preset and on one scenario per
analytic regime: a single band with holding sessions (the non-completion
row applies), several bands and zero-demand probes (skipped with a note),
mixed traffic and no sessions (refused), negotiation or handover
latency (analyze only), and a run with no arrival within its horizon
(both rows skipped with a note).  For ``simulate --trace`` and
``--timeseries`` it also holds the line count, SHA-256 and first lines of
the exported file.  Any change to the CLI, the analytic path or the
engine's event export must reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from conftest import mutate
from hypothesis import given, settings
from hypothesis import strategies as st

import crsim
from crsim import __version__, qos
from crsim.cli import main
from crsim.scenario import INT_MAX

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))


def band(band_id: int = 0, capacity: int = 8, p: float = 0.2, q: float = 0.2, **disposition) -> dict:
    return {
        "id": band_id,
        "capacity": capacity,
        "p": p,
        "q": q,
        "initial_occupancy": 2,
        "disposition": {"state": "cooperative", "alpha": 0.3, "beta": 0.3, **disposition},
    }


def scenario(sessions: list[dict], bands: list[dict] | None = None, **overrides) -> dict:
    out = {
        "bands": bands if bands is not None else [band()],
        "sessions": sessions,
        "negotiation": {"grant_request": 1, "latency": 0},
        "handover": {"latency": 0, "max_replans": 3, "scan_interval": 10},
        "horizon": 3_000,
        "seed": 7,
    }
    out.update(overrides)
    return out


VIDEO_HOLDING = {"traffic": "VideoConferencing", "c": 0.05, "every": 1}

SCENARIOS = {
    # single band, holding sessions: the non-completion row applies
    "holding": scenario([VIDEO_HOLDING]),
    # two bands: non-completion is skipped (the model has no alternative band)
    "multiband": scenario(
        [{"traffic": "VideoConferencing", "c": 0.1, "every": 2}],
        bands=[band(0), band(1, capacity=6, p=0.1, q=0.3, state="noncooperative")],
    ),
    # two bands and instant completion: the single-band rule is checked first
    "multiband_instant": scenario(
        [{"traffic": "VideoConferencing", "c": 1.0, "every": 1}], bands=[band(0), band(1, capacity=6)]
    ),
    # zero-demand probes: non-completion is skipped, blocking is 0
    "probe": scenario([{"traffic": "VideoConferencing", "c": 0.5, "every": 1, "demand": 0}]),
    # two traffic types: no single demand, both commands refuse
    "mixed": scenario([VIDEO_HOLDING, {"traffic": "Email", "c": 0.05, "every": 3}]),
    # nothing to compare: both commands refuse
    "empty": scenario([]),
    # negotiation latency: analyze answers, compare refuses
    "latency": scenario([VIDEO_HOLDING], negotiation={"grant_request": 1, "latency": 2}),
    # handover latency: analyze answers, compare refuses; sessions that find
    # their target filled on arrival are dropped after one replan
    "handover_latency": scenario(
        [VIDEO_HOLDING],
        bands=[band(0), band(1, capacity=6)],
        handover={"latency": 2, "max_replans": 1, "scan_interval": 10},
    ),
    # the only arrival falls after the horizon: neither simulated figure is
    # defined, so compare prints no row and a note for each
    "late_arrival": scenario([{"traffic": "VideoConferencing", "c": 0.05, "arrival": 50}], horizon=10),
}

TOPOLOGY = {
    "nodes": [
        {"id": 0, "channels": [0, 1, 2]},
        {"id": 1, "channels": [1, 2, 3]},
        {"id": 2, "channels": [2, 3]},
        {"id": 3, "channels": [0, 4]},
        {"id": 4, "channels": [2, 4]},
    ],
    "edges": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]],
}

# golden key -> argv (a "{scenario}" / "{topology}" placeholder becomes a file path)
GOLDEN_ARGV = {
    "analyze canonical": ["analyze", "--preset", "canonical"],
    "compare --json canonical": ["compare", "--json", "--preset", "canonical"],
    **{f"analyze {name}": ["analyze", "--scenario", "{scenario}"] for name in SCENARIOS},
    **{f"compare --json {name}": ["compare", "--json", "--scenario", "{scenario}"] for name in SCENARIOS},
    "compare holding": ["compare", "--scenario", "{scenario}"],
    "simulate holding": ["simulate", "--scenario", "{scenario}"],
    "simulate --replications 3 multiband": ["simulate", "--replications", "3", "--scenario", "{scenario}"],
    # between them the traces hold every event kind and both drop reasons
    **{
        f"simulate --trace {name}": ["simulate", "--scenario", "{scenario}", "--trace", "{export}"]
        for name in ("multiband", "probe", "latency", "handover_latency")
    },
    **{
        f"simulate --timeseries {name}": ["simulate", "--scenario", "{scenario}", "--timeseries", "{export}"]
        for name in ("multiband", "probe")
    },
    "tdma topology": ["tdma", "--topology", "{topology}"],
    "tdma --rounds 1 topology": ["tdma", "--rounds", "1", "--topology", "{topology}"],
    "qos list": ["qos", "list"],
}


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def resolve(key: str, tmp_path: Path) -> list[str]:
    subject = key.rsplit(" ", 1)[1]
    argv = []
    for arg in GOLDEN_ARGV[key]:
        if arg == "{scenario}":
            arg = write_json(tmp_path / f"{subject}.json", SCENARIOS[subject])
        elif arg == "{topology}":
            arg = write_json(tmp_path / "topology.json", TOPOLOGY)
        elif arg == "{export}":
            arg = str(tmp_path / "export")
        argv.append(arg)
    return argv


def export_digest(path: Path) -> dict:
    """What a golden pins of an exported file: its length, hash and first lines."""
    text = path.read_text(encoding="utf-8")
    return {
        "lines": text.count("\n"),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "head": text.splitlines()[:3],
    }


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(GOLDEN_ARGV)


@pytest.mark.parametrize("key", sorted(GOLDEN_ARGV))
def test_golden_output(key, tmp_path, capsys):
    code, out, err = run_cli(capsys, resolve(key, tmp_path))
    golden = GOLDEN[key]
    assert code == golden["exit"], err
    assert out == golden["stdout"]
    assert err == golden["stderr"]
    if "export" in golden:
        assert export_digest(tmp_path / "export") == golden["export"]


def test_goldens_cover_each_regime():
    """Each scenario's goldens show the regime it was written for."""

    def payload(key):
        return json.loads(GOLDEN[key]["stdout"])

    assert payload("analyze holding")["noncompletion"] is not None
    assert [r["metric"] for r in payload("compare --json holding")["rows"]] == ["blocking", "non-completion"]
    for name, reason in (("multiband", "single band"), ("multiband_instant", "single band"), ("probe", "zero-demand")):
        assert payload(f"analyze {name}")["noncompletion"] is None
        (analyze_note,) = payload(f"analyze {name}")["notes"]
        (compare_note,) = payload(f"compare --json {name}")["notes"]
        assert analyze_note.startswith("non-completion skipped: ") and reason in analyze_note
        assert compare_note.startswith("non-completion row skipped: ") and reason in compare_note
    for key in (
        "analyze mixed",
        "compare --json mixed",
        "analyze empty",
        "compare --json empty",
        "compare --json latency",
        "compare --json handover_latency",
    ):
        assert (GOLDEN[key]["exit"], GOLDEN[key]["stdout"]) == (1, "")
        assert GOLDEN[key]["stderr"].startswith("error: ")
    assert payload("compare --json late_arrival")["rows"] == []
    assert payload("compare --json late_arrival")["notes"] == [
        "blocking row skipped: no arrivals within the horizon",
        "non-completion row skipped: no session admitted within the horizon",
    ]
    assert "negotiation latency 2" in GOLDEN["compare --json latency"]["stderr"]
    assert "handover latency 2" in GOLDEN["compare --json handover_latency"]["stderr"]
    assert GOLDEN["analyze latency"]["exit"] == 0
    assert GOLDEN["analyze handover_latency"]["exit"] == 0
    timeseries = GOLDEN["simulate --timeseries multiband"]["export"]
    assert timeseries["lines"] == 1 + SCENARIOS["multiband"]["horizon"]
    assert timeseries["head"][0] == "step,band0_pu_used,band1_pu_used,active_sessions,arrivals,blocked,completed,dropped"


def test_analyze_and_compare_agree_on_a_static_band(tmp_path, capsys):
    """A static band (p = q = 0) has no stationary law, so both commands refuse
    it, also where the blocking product skips it (demand above its capacity)."""
    static = scenario([VIDEO_HOLDING], bands=[band(0), band(1, capacity=3, p=0.0, q=0.0)])
    path = write_json(tmp_path / "static.json", static)
    for argv in (["analyze", "--scenario", path], ["compare", "--json", "--scenario", path]):
        assert run_cli(capsys, argv) == (
            1,
            "",
            "error: frozen chain (birth = death = 0): no unique stationary distribution\n",
        )


def test_a_demand_wider_than_the_only_band_is_always_blocked(tmp_path, capsys):
    """Demand 4 on a lone band of 3 channels: blocking is 1 and non-completion
    is undefined, because no session is ever admitted; both commands say so."""
    path = write_json(tmp_path / "narrow.json", scenario([VIDEO_HOLDING], bands=[band(0, capacity=3)], horizon=50))
    note = "demand exceeds the band's capacity: no session is ever admitted"
    code, out, err = run_cli(capsys, ["analyze", "--scenario", path])
    analyzed = json.loads(out)
    assert (code, err) == (0, "")
    assert (analyzed["blocking"], analyzed["noncompletion"]) == (1.0, None)
    assert analyzed["notes"] == [f"non-completion skipped: {note}"]
    code, out, err = run_cli(capsys, ["compare", "--json", "--scenario", path])
    compared = json.loads(out)
    assert (code, err) == (0, "")
    assert compared["rows"] == [{"metric": "blocking", "analytic": 1.0, "simulated": 1.0, "abs_diff": 0.0}]
    assert compared["notes"] == [f"non-completion row skipped: {note}"]


def test_qos_list_is_the_table(capsys):
    assert run_cli(capsys, ["qos", "list"]) == (0, qos.table_csv(), "")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"crsim {__version__}\n"


def test_out_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "holding.json", SCENARIOS["holding"])
    out_path = tmp_path / "analyze.json"
    assert run_cli(capsys, ["analyze", "--scenario", path, "--out", str(out_path)]) == (0, "", "")
    assert out_path.read_text(encoding="utf-8") + "\n" == GOLDEN["analyze holding"]["stdout"]


def test_kb_snapshot_round_trip(tmp_path, capsys):
    """--kb-in warm-starts from a --kb-out snapshot.

    With a single band the knowledge base ranks nothing, so the warm run
    repeats the cold one and every counter of its snapshot doubles.
    """
    path = write_json(tmp_path / "holding.json", SCENARIOS["holding"])
    cold_kb, warm_kb = tmp_path / "cold.json", tmp_path / "warm.json"
    code, cold, _ = run_cli(capsys, ["simulate", "--scenario", path, "--kb-out", str(cold_kb)])
    assert (code, cold) == (0, GOLDEN["simulate holding"]["stdout"])
    argv = ["simulate", "--scenario", path, "--kb-in", str(cold_kb), "--kb-out", str(warm_kb)]
    assert run_cli(capsys, argv) == (0, cold, "")
    cold_counters = json.loads(cold_kb.read_text(encoding="utf-8"))
    warm_counters = json.loads(warm_kb.read_text(encoding="utf-8"))
    assert cold_counters["0"]["sensed"] > 0
    assert warm_counters == {
        band_id: {key: 2 * value for key, value in counters.items()}
        for band_id, counters in cold_counters.items()
    }


@pytest.mark.parametrize(
    "argv, files",
    [
        # a topology whose "rounds" is not a nonnegative integer
        (["tdma", "--topology", "{t}"], {"t": {**TOPOLOGY, "rounds": "2"}}),
        (["tdma", "--topology", "{t}"], {"t": {**TOPOLOGY, "rounds": 1.5}}),
        (["tdma", "--topology", "{t}"], {"t": {**TOPOLOGY, "rounds": -1}}),
        # negative node ids and channels
        (["tdma", "--topology", "{t}"], {"t": {"nodes": [{"id": 0, "channels": [-1, 2]}], "edges": []}}),
        (["tdma", "--topology", "{t}"], {"t": {"nodes": [{"id": -1, "channels": [2]}], "edges": []}}),
        # node ids, channels and edge endpoints that are not JSON integers
        (["tdma", "--topology", "{t}"], {"t": {"nodes": [{"id": 2.7, "channels": [2]}], "edges": []}}),
        (["tdma", "--topology", "{t}"], {"t": {"nodes": [{"id": True, "channels": [2]}], "edges": []}}),
        (["tdma", "--topology", "{t}"], {"t": {"nodes": [{"id": 0, "channels": ["2", 1.9]}], "edges": []}}),
        (["tdma", "--topology", "{t}"], {"t": {**TOPOLOGY, "edges": [[0, 1.0]]}}),
        # a knowledge-base snapshot that is not an object of objects
        (["simulate", "--scenario", "{s}", "--kb-in", "{t}"], {"s": SCENARIOS["holding"], "t": [1, 2]}),
        (["simulate", "--scenario", "{s}", "--kb-in", "{t}"], {"s": SCENARIOS["holding"], "t": {"0": 3}}),
        (["simulate", "--scenario", "{s}", "--kb-in", "{t}"], {"s": SCENARIOS["holding"], "t": []}),
        # counters that are not nonnegative JSON integers
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"0": {"attempts": [1]}}},
        ),
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"0": {"attempts": 2.7}}},
        ),
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"0": {"sensed": True}}},
        ),
        # band ids that are not canonical nonnegative integers
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"1": {"attempts": 4, "grants": 4}, "01": {"attempts": 1}}},
        ),
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"-3": {"sensed": 2, "available": 1}}},
        ),
        # a counter the snapshot format does not have, plainly misspelt or holding a line break
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"0": {"attemps": 50, "grants": 0}}},
        ),
        (
            ["simulate", "--scenario", "{s}", "--kb-in", "{t}"],
            {"s": SCENARIOS["holding"], "t": {"0": {"line\nbreak": 1}}},
        ),
        # a non-finite completion probability
        (["simulate", "--scenario", "{s}"], {"s": scenario([{**VIDEO_HOLDING, "c": float("nan")}])}),
        # an unknown key holding a line break
        (["simulate", "--scenario", "{s}"], {"s": {**SCENARIOS["holding"], "line\nbreak": 1}}),
        # a missing file
        (["analyze", "--scenario", "{missing}"], {}),
        # replication counts and single-run exports
        (["simulate", "--scenario", "{s}", "--replications", "0"], {"s": SCENARIOS["holding"]}),
        (["simulate", "--scenario", "{s}", "--replications", "2", "--trace", "{x}"], {"s": SCENARIOS["holding"]}),
        (["simulate", "--scenario", "{s}", "--replications", "2", "--timeseries", "{x}"], {"s": SCENARIOS["holding"]}),
        (["simulate", "--scenario", "{s}", "--replications", "2", "--kb-out", "{x}"], {"s": SCENARIOS["holding"]}),
        # files that are missing or not JSON, for every JSON file the CLI reads
        (["simulate", "--scenario", "{broken}"], {}),
        (["tdma", "--topology", "{missing}"], {}),
        (["tdma", "--topology", "{broken}"], {}),
        (["simulate", "--scenario", "{s}", "--kb-in", "{missing}"], {"s": SCENARIOS["holding"]}),
        (["simulate", "--scenario", "{s}", "--kb-in", "{broken}"], {"s": SCENARIOS["holding"]}),
        # files nested deeper than the JSON reader can follow
        (["simulate", "--scenario", "{deep}"], {}),
        (["tdma", "--topology", "{deep}"], {}),
        (["simulate", "--scenario", "{s}", "--kb-in", "{deep}"], {"s": SCENARIOS["holding"]}),
    ],
    ids=[
        "rounds-string",
        "rounds-float",
        "rounds-negative",
        "negative-channel",
        "negative-node",
        "float-node",
        "bool-node",
        "string-and-float-channels",
        "float-edge-endpoint",
        "kb-list",
        "kb-scalar-counters",
        "kb-empty-list",
        "kb-list-counter",
        "kb-float-counter",
        "kb-bool-counter",
        "kb-leading-zero-id",
        "kb-negative-id",
        "kb-unknown-counter",
        "kb-key-with-line-break",
        "nan-completion",
        "key-with-line-break",
        "missing-scenario",
        "replications-zero",
        "replications-trace",
        "replications-timeseries",
        "replications-kb-out",
        "broken-scenario",
        "missing-topology",
        "broken-topology",
        "missing-kb",
        "broken-kb",
        "deep-scenario",
        "deep-topology",
        "deep-kb",
    ],
)
def test_malformed_input_exits_1_with_error_line(argv, files, tmp_path, capsys):
    code, out, err = run_cli(capsys, [arg.format(**input_paths(tmp_path, files)) for arg in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def input_paths(tmp_path: Path, files: dict) -> dict:
    """``files`` written as JSON, plus a ``missing`` path, an ``x`` export path and
    three files that cannot be read as JSON: ``broken`` holds ``{``, ``latin1`` a
    byte that is not UTF-8 and ``deep`` 100,000 ``[``."""
    paths = {name: write_json(tmp_path / f"{name}.json", data) for name, data in files.items()}
    paths["missing"] = str(tmp_path / "missing.json")
    paths["x"] = str(tmp_path / "x")
    for name, text in (("broken", b"{"), ("latin1", b'{"nodes": "\xe9"}'), ("deep", b"[" * 100_000)):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_bytes(text)
    return paths


BROKEN = "is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
LATIN1 = "is not valid JSON: 'utf-8' codec can't decode byte 0xe9 in position 11: invalid continuation byte"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--scenario", "{missing}"], "invalid scenario: scenario file not found: {missing}"),
        (["simulate", "--scenario", "{broken}"], f"invalid scenario: scenario file {{broken}} {BROKEN}"),
        (["tdma", "--topology", "{missing}"], "topology file not found: {missing}"),
        (["tdma", "--topology", "{broken}"], f"topology file {{broken}} {BROKEN}"),
        (["simulate", "--preset", "canonical", "--kb-in", "{missing}"], "knowledge-base file not found: {missing}"),
        (["simulate", "--preset", "canonical", "--kb-in", "{broken}"], f"knowledge-base file {{broken}} {BROKEN}"),
        (["tdma", "--topology", "{latin1}"], f"topology file {{latin1}} {LATIN1}"),
        (["simulate", "--scenario", "{deep}"], "invalid scenario: scenario file nested too deeply to read: {deep}"),
        (["tdma", "--topology", "{deep}"], "topology file nested too deeply to read: {deep}"),
        (
            ["simulate", "--preset", "canonical", "--kb-in", "{deep}"],
            "knowledge-base file nested too deeply to read: {deep}",
        ),
    ],
    ids=[
        "missing-scenario",
        "broken-scenario",
        "missing-topology",
        "broken-topology",
        "missing-kb",
        "broken-kb",
        "latin1-topology",
        "deep-scenario",
        "deep-topology",
        "deep-kb",
    ],
)
def test_a_file_that_is_missing_or_not_json_is_named_in_the_error(argv, message, tmp_path, capsys):
    paths = input_paths(tmp_path, {})
    code, out, err = run_cli(capsys, [arg.format(**paths) for arg in argv])
    assert (code, out, err) == (1, "", f"error: {message.format(**paths)}\n")


def test_replications_report_every_figure_whatever_the_first_run(tmp_path, capsys):
    """A figure that no run defines is null; one that some run defines is
    their mean, even when the first run leaves it undefined.

    The band starts full and never gains a user (p = 0): the single
    arrival at step 0 is admitted only if the user shrinks first, so
    whether run 1 defines non-completion depends on the seed.
    """
    full = {"id": 0, "capacity": 8, "p": 0.0, "q": 0.5, "initial_occupancy": 8}
    voice = {"traffic": "Voice", "c": 0.5, "arrival": 0}
    path = write_json(tmp_path / "s.json", scenario([voice], bands=[full], horizon=3))
    reports = []
    for seed in ("1", "2"):
        code, out, err = run_cli(capsys, ["simulate", "--scenario", path, "--replications", "3", "--seed", seed])
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["replications"])
    single = json.loads(GOLDEN["simulate holding"]["stdout"])["metrics"]
    keys = [key for key in single if key != "mode_histogram"]
    for report in reports:
        assert list(report["metrics_mean"]) == list(report["metrics_stddev"]) == keys
    assert reports[0]["metrics_mean"]["empirical_noncompletion"] == 0.0
    assert reports[1]["metrics_mean"]["empirical_noncompletion"] == 0.0
    # no run of late_arrival has an arrival within its horizon
    path = write_json(tmp_path / "late.json", SCENARIOS["late_arrival"])
    code, out, _ = run_cli(capsys, ["simulate", "--scenario", path, "--replications", "2"])
    report = json.loads(out)["replications"]
    assert code == 0 and list(report["metrics_mean"]) == keys
    assert report["metrics_mean"]["empirical_blocking"] is report["metrics_stddev"]["empirical_blocking"] is None


def test_replications_take_memory_of_one_run_not_of_every_run(tmp_path, capsys):
    """Each run's figures are taken as it finishes, so the peak traced memory
    of 40 replications stays near that of 2.  Runs on the widest band hold
    their occupancy histogram and mode rows, about 1 MiB each: keeping every
    run once made 40 of them peak near 50 MiB."""
    widest = [{"id": 0, "capacity": 65_536, "p": 0.2, "q": 0.2}]
    voice = {"traffic": "Voice", "c": 0.05, "every": 1}
    path = write_json(tmp_path / "wide.json", scenario([voice], bands=widest, horizon=10))
    peaks = []
    for replications in ("2", "40"):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, ["simulate", "--scenario", path, "--replications", replications])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
    assert peaks[1] < peaks[0] + 3 * 2**20


@pytest.mark.parametrize("argv", [["analyze", "--scenario", "{s}"], ["qos", "list"]], ids=["analyze", "qos"])
def test_a_closed_pipe_ends_quietly_with_status_141(argv, tmp_path):
    """``crsim analyze | head -c 1`` once ended in ``error: [Errno 32] Broken
    pipe`` and exit 1.  The widest band's analysis is over 1 MB, far more than
    a pipe holds, so its write meets the closed pipe; the QoS table fits in
    the output buffer, so only the flush before ``main`` returns meets it.
    The child runs with Python's default buffered stdout."""
    widest = [{"id": 0, "capacity": 65_536, "p": 0.2, "q": 0.2}]
    voice = {"traffic": "Voice", "c": 0.05, "every": 1}
    path = write_json(tmp_path / "wide.json", scenario([voice], bands=widest, horizon=10))
    src = str(Path(crsim.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "crsim.cli", *(arg.format(s=path) for arg in argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["simulate", "--scenario", "{s}"], INT_MAX + 1),
        (["simulate", "--scenario", "{s}", "--seed", str(INT_MAX + 1)], 7),
        (["simulate", "--scenario", "{s}", "--replications", "2"], INT_MAX),
    ],
    ids=["scenario-seed", "seed-option", "replications"],
)
def test_a_seed_beyond_64_bits_exits_1_with_one_error_line(argv, seed, tmp_path, capsys):
    path = write_json(tmp_path / "s.json", scenario([VIDEO_HOLDING], horizon=10, seed=seed))
    code, out, err = run_cli(capsys, [arg.format(s=path) for arg in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid scenario: ") and err.count("\n") == 1


def test_a_band_wider_than_the_capacity_bound_exits_1_with_one_error_line(tmp_path, capsys):
    # a capacity of 2**40 once passed the reader and ended the run in a MemoryError
    wide = [{"id": 0, "capacity": 2**40, "p": 0.2, "q": 0.2}]
    path = write_json(tmp_path / "s.json", scenario([VIDEO_HOLDING], bands=wide, horizon=10))
    code, out, err = run_cli(capsys, ["simulate", "--scenario", path])
    assert (code, out) == (1, "")
    assert err == f"error: invalid scenario: bands[0].capacity: must be <= 65536, got {2**40}\n"


def test_the_checked_in_malformed_scenario_exits_1_with_one_error_line(capsys):
    path = Path(__file__).parent / "data" / "bad_scenario.json"
    code, out, err = run_cli(capsys, ["simulate", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid scenario: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, topology",
    [
        (["tdma", "--rounds", "100000000000", "--topology", "{t}"], TOPOLOGY),
        (["tdma", "--topology", "{t}"], {**TOPOLOGY, "rounds": 100_000_000_000}),
    ],
    ids=["option", "file"],
)
def test_tdma_rounds_past_the_fixed_point_finish(argv, topology, tmp_path, capsys):
    """Phase 2 stops once a round changes nothing: a round count no loop could
    finish gives the default run's candidates and reports the count given."""
    path = write_json(tmp_path / "topology.json", topology)
    code, out, err = run_cli(capsys, [arg.format(t=path) for arg in argv])
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(GOLDEN["tdma topology"]["stdout"]), "rounds": 100_000_000_000}


# a valid document per file option, each small: the scenarios run 60 steps, and
# analyze and compare get one band with zero latency, so they reach the
# non-completion solve
SMALL_SCENARIO = scenario(
    [VIDEO_HOLDING, {"traffic": "Voice", "c": 0.5, "arrival": 3}],
    bands=[band(0), band(1, capacity=6, state="noncooperative")],
    horizon=60,
)
ONE_BAND_SCENARIO = scenario([VIDEO_HOLDING], horizon=60)
KB_SNAPSHOT = {
    "0": {"attempts": 4, "grants": 2, "sensed": 9, "available": 3},
    "1": {"attempts": 1, "grants": 0, "sensed": 2, "available": 2},
}
FILE_OPTIONS = {
    "simulate --scenario": (SMALL_SCENARIO, ["simulate", "--scenario", "{f}"]),
    "analyze --scenario": (ONE_BAND_SCENARIO, ["analyze", "--scenario", "{f}"]),
    "compare --json --scenario": (ONE_BAND_SCENARIO, ["compare", "--json", "--scenario", "{f}"]),
    "tdma --topology": ({**TOPOLOGY, "rounds": 2}, ["tdma", "--topology", "{f}"]),
    "simulate --kb-in": (KB_SNAPSHOT, ["simulate", "--scenario", "{s}", "--kb-in", "{f}"]),
}
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([65_536, 100_000_000_000, 10**18, INT_MAX + 1])
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
JSON_KEYS = st.text(max_size=6) | st.sampled_from(
    ["nodes", "edges", "id", "channels", "rounds", "bands", "capacity", "sessions", "sensed"]
)


@st.composite
def file_contents(draw, valid: dict) -> bytes:
    """Arbitrary bytes, any JSON value, deep nesting or ``valid`` mutated up to three times."""
    kind = draw(st.sampled_from(["bytes", "value", "deep", "mutated"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES)).encode()
    if kind == "deep":
        opening, inner, closing = draw(st.sampled_from([("[", "", "]"), ('{"a":', "1", "}")]))
        depth = draw(st.integers(1, 2_000) | st.just(100_000))
        tail = inner + closing * depth if draw(st.booleans()) else ""
        return (opening * depth + tail).encode()
    doc = mutate(draw, valid, JSON_VALUES, JSON_KEYS)
    horizon = doc.get("horizon")
    if isinstance(horizon, int) and not isinstance(horizon, bool) and horizon > 100:
        doc["horizon"] = 100  # a longer run only takes longer; the reader's bounds have their own tests
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_input_file_exits_0_or_1_with_one_error_line(data):
    """Whatever a ``--scenario`` (to ``simulate``, ``analyze`` or ``compare``),
    ``--topology`` or ``--kb-in`` file holds, the CLI exits 0, or 1 with one
    ``error:`` line.  ``--kb-in`` goes with the small scenario, never the
    canonical preset and its 400,000 steps."""
    valid, argv = FILE_OPTIONS[data.draw(st.sampled_from(sorted(FILE_OPTIONS)))]
    contents = data.draw(file_contents(valid))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"f": str(Path(tmp) / "input.json"), "s": write_json(Path(tmp) / "scenario.json", SMALL_SCENARIO)}
        Path(paths["f"]).write_bytes(contents)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
