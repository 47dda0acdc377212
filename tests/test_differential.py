"""The differential family: its pinned digest and what it reaches.

The ``tier1`` digest was recorded with an engine that applied each sensing
record to the knowledge base through its own call and settled scans band by
band over every demand; the ``ci`` digest, over 2,000 scenarios, with one
that settled a band's pending scans right before each grant.  The
``vacant_tier1`` and ``vacant_ci`` digests of the ``vacant`` family were
recorded with an engine that scanned every arrival pattern each step and
ran each transmitting session through its handler loop, and the
``resident_tier1`` and ``resident_ci`` digests of the ``resident`` family
with one that sensed every active session in every step.  The
``resident_stepped_tier1`` and ``resident_stepped_ci`` digests step the
``resident`` family one ``step()`` at a time and fold the knowledge base and
the band histograms after every step; they were recorded with an engine
that wrote a running session's sense in every step and counted histograms
in a pass of their own.  The ``wide_tier1``, ``wide_stepped_tier1`` and
``wide_ci`` digests of the ``wide`` family were recorded with an engine that
stepped every band's chains in one Python pass and counted every band's
occupancy in its histogram in every step, and ``wide_stepped_ci`` with one
whose step read its state through the engine's attributes.

Each pinned key is checked once per chain pass: every engine stepping its
chains on the numpy pass (``simcore.WIDE_BANDS`` 1) and every one on the
Python pass (``1 << 30``).  ``WIDE_BANDS`` only picks the pass an engine
takes, so a run at its default width checks nothing these two do not.
Here every ``tier1`` key (``tier1`` or ending in ``_tier1``) is checked;
CI checks every larger ``ci`` key the same way, in-process.  The harness's
command line is checked here too: it prints the manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

import differential
import pytest

from crsim import simcore
from crsim.learning import KnowledgeBase
from crsim.simcore import _DROP_REASONS, _KINDS

PINNED = json.loads((Path(__file__).parent / "data" / "differential.json").read_text(encoding="utf-8"))
TIER1 = [key for key in PINNED if key.split("_")[-1] == "tier1"]


def combined(key: str) -> str:
    run = PINNED[key]
    return differential.manifest(run["count"], run["seed"], run.get("family", "mixed"), run.get("stepped", False))[-1]


@pytest.mark.parametrize("wide", [1, 1 << 30], ids=["numpy_pass", "python_pass"])
@pytest.mark.parametrize("key", TIER1)
def test_the_pinned_digest_is_the_same_on_either_chain_pass(key, wide, monkeypatch):
    # which pass steps (1) and (2) is a matter of speed alone: every engine,
    # one-band ones included, on the numpy pass, or every one on the Python pass
    monkeypatch.setattr(simcore, "WIDE_BANDS", wide)
    assert combined(key) == f"combined {PINNED[key]['combined']}"


@pytest.mark.parametrize("wide", [1, 1 << 30], ids=["numpy_pass", "python_pass"])
def test_a_kept_trace_hashes_as_the_plain_run(wide, monkeypatch):
    # keep_trace binds another EventTrace.write; the hashed bytes stay the same
    monkeypatch.setattr(simcore, "WIDE_BANDS", wide)
    family = PINNED["vacant_tier1"]
    for index in range(family["count"]):
        scenario, kb = differential.vacant_scenario(family["seed"], index)
        hashes = {
            simcore.run(scenario, keep_trace=keep, kb=None if kb is None else KnowledgeBase.from_json_dict(kb)).trace_hash
            for keep in (False, True)
        }
        assert len(hashes) == 1


def test_the_family_reaches_every_event_kind_and_both_drop_reasons():
    family = PINNED["tier1"]
    events, reasons = set(), set()
    for index in range(family["count"]):
        for line in differential.outputs(*differential.scenario(family["seed"], index))["ndjson"]:
            row = json.loads(line)
            events.add(row["event"])
            if row["event"] == "dropped":
                reasons.add(row["reason"])
    assert events == {name for name, _, _ in _KINDS.values()}
    assert reasons == set(_DROP_REASONS.values())


def test_the_command_line_prints_the_manifest(capsys):
    assert differential.main(["--family", "wide", "--stepped", "--count", "2", "--seed", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == differential.manifest(2, 4, "wide", True)
