"""Trace bytes are a contract: JSONL traces of a fixed corpus of runtime
scenarios, in memory and streamed, hash to recorded digests.

The corpus drives the shipped ``byzantine``, ``byzantine_storm``,
``chaos``, ``partition`` and ``hot_spot`` scenarios in batch mode with a
listening recorder; together their traces hold every event kind.  The
digests were recorded before the recorder's per-kind hooks were folded
into one ``Recorder.event``, so header (``summary()`` values included),
cycle samples and events are all pinned byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.trace_report import load_trace
from repro.obs import TraceRecorder
from repro.service import Scenario
from repro.service.scenario import drive_runtime

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

KINDS = (
    "inject", "hop", "queued", "delivered", "fault", "reroute", "dropped",
    "corrupt", "retransmit", "quarantine", "repair", "migrate", "batch_fallback",
)

#: sha256 of each trace file: ``<scenario>/mem`` is ``to_jsonl`` of an
#: in-memory recorder, ``<scenario>/stream`` a ``TraceRecorder(path=...,
#: flush_every=64)`` closed after the run
DIGESTS = {
    "byzantine/mem": "8432757402047ff4483fbf2cfcb50616873603fb8bec4e172130db1bd776083f",
    "byzantine/stream": "78455df02c7b3d6158d4dc59c88d871d7f06d1c190bdcd2ec8a09cbf93603087",
    "byzantine_storm/mem": "9567ee4cbd4eb81d01c1bc4c843d558e73ca52710312d49551ebb61a554339f2",
    "byzantine_storm/stream": "ba83dbfd52f37ebf2b05e6f5f96724821d47c3f1c20b05c9d9fdfc27ad1b558d",
    "chaos/mem": "2bfeda151d66bac6683012814965cda5268cd80163810bdb5588b5b288198556",
    "chaos/stream": "7b32cb1e4e4c8d6ea29f209d7f0d8bb67a6f772a1661c2668d13935407465e74",
    "partition/mem": "e66cc2b6270374abcd11fa72cb3cccf43892c7dfb858d16e231e44e574f4b6f1",
    "partition/stream": "fcecff682f2c11daf42f2b545cedcec1cdc7805406d8db0753f603fe22dcccf1",
    "hot_spot/mem": "19e1be963cfdeb2731675bd864064ea0d91aa4c6de3bdd7bf6c762be53c85513",
    "hot_spot/stream": "069fd036a4e595d8ee55e7695965b3221b0d6865667b6ad0b95c9f8eabe48f28",
}

CORPUS = sorted({key.split("/")[0] for key in DIGESTS})


def _run(name: str, recorder: TraceRecorder) -> None:
    scenario = dataclasses.replace(Scenario.from_json(SCENARIOS / f"{name}.json"), batch=True)
    drive_runtime(scenario.build_runtime(recorder=recorder), batch=True)


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, Path]:
    """Every corpus trace, written once for the whole module."""
    out = tmp_path_factory.mktemp("traces")
    files = {}
    for name in CORPUS:
        rec = TraceRecorder()
        _run(name, rec)
        files[f"{name}/mem"] = out / f"{name}.mem.jsonl"
        rec.to_jsonl(files[f"{name}/mem"])
        files[f"{name}/stream"] = out / f"{name}.stream.jsonl"
        with TraceRecorder(path=files[f"{name}/stream"], flush_every=64) as streamed:
            _run(name, streamed)
    return files


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_trace_bytes_match_recorded_digest(traces, key):
    assert hashlib.sha256(traces[key].read_bytes()).hexdigest() == DIGESTS[key]


def test_corpus_covers_every_event_kind(traces):
    seen: Counter = Counter()
    for name in CORPUS:
        seen.update(e["kind"] for e in load_trace(traces[f"{name}/mem"])["events"])
    assert set(seen) == set(KINDS)


@pytest.mark.parametrize("name", CORPUS)
def test_summary_counts_match_the_events(traces, name):
    trace = load_trace(traces[f"{name}/stream"])
    kinds = Counter(e["kind"] for e in trace["events"])
    header = trace["header"]
    assert header["events"] == len(trace["events"])
    assert header["messages_injected"] == kinds["inject"]
    assert header["messages_delivered"] == kinds["delivered"]
    for key, kind in (("fault_events", "fault"), ("retransmits", "retransmit"),
                      ("repairs", "repair"), ("batch_fallbacks", "batch_fallback")):
        assert header.get(key, 0) == kinds[kind]
    # one migrate event re-sends a batch: the header counts messages
    migrated = sum(int(e["detail"].split("=")[1]) for e in trace["events"]
                   if e["kind"] == "migrate")
    assert header.get("messages_migrated", 0) == migrated


def test_summary_reads_the_one_counter():
    rec = TraceRecorder()
    rec.event(3, "migrate", node="job", detail="messages=2")
    rec.event(4, "repair", node="job", detail="moved=1")
    assert rec.counts == Counter({"migrate": 1, "migrated_messages": 2, "repair": 1})
    summary = rec.summary()
    assert (summary["events"], summary["repairs"], summary["messages_migrated"]) == (2, 1, 2)
    assert "fault_events" not in summary and "batch_fallbacks" not in summary
    assert json.loads(json.dumps(summary)) == summary
