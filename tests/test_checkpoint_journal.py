"""Checkpoint files as snapshot + journal: the file always encodes exactly
the ``checkpoint()`` dict of its last write, a torn or corrupted tail is
dropped, and foreign files are rejected or replaced, never appended to."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.runtime import JobSpec, Runtime
from repro.runtime.journal import read_checkpoint
from repro.service import Scenario, run_scenario
from repro.service.scenario import drive_runtime

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
TREE_ROUTER = json.loads((REPO / "policies" / "hot_spot_router.json").read_text())
#: a mid-run checkpoint of chaos.json written by the build before the
#: journal: one ``json.dumps(..., indent=2)`` document
PARENT_FORMAT = Path(__file__).parent / "data" / "chaos_mid_run_indent2.json"


def wire(state: dict) -> dict:
    return json.loads(json.dumps(state))


def journal_records() -> int:
    return obs.counters().get("runtime.checkpoint.journal_records", 0)


def snapshots() -> int:
    return obs.counters().get("runtime.checkpoint.snapshots", 0)


def drive_restoring(rt: Runtime, path: Path, **kwargs) -> int:
    """Drive ``rt`` with checkpoints at ``path``; after every write the
    file must restore to the live ``checkpoint()``.  Returns the number of
    writes."""
    write, writes = rt.checkpoint_json, []

    def checked(p):
        write(p)
        want = wire(rt.checkpoint())
        assert wire(Runtime.restore_json(p).checkpoint()) == want, f"write {len(writes)}"
        writes.append(p)

    rt.checkpoint_json = checked
    drive_runtime(rt, checkpoint_path=path, **kwargs)
    return len(writes)


def scenario_cases():
    cases = [(p.stem, Scenario.from_json(p)) for p in sorted(SCENARIOS.glob("*.json"))]
    chaos = Scenario.from_json(SCENARIOS / "chaos.json")
    cases.append(("chaos+adaptive", dataclasses.replace(chaos, router="adaptive")))
    cases.append(("chaos+tree", dataclasses.replace(chaos, router=TREE_ROUTER)))
    return cases


CASES = scenario_cases()


@pytest.mark.parametrize("sc", [sc for _n, sc in CASES], ids=[n for n, _sc in CASES])
def test_journal_equals_the_checkpoint_after_every_write(sc, tmp_path):
    assert drive_restoring(sc.build_runtime(), tmp_path / "c.ckpt", batch=sc.batch,
                           checkpoint_every=sc.checkpoint_every)


def carries(rt: Runtime, path: Path, *changes, admit_at=None) -> bool:
    """Checkpoint ``rt`` before its first superstep and after every one
    until each of ``changes`` (a predicate on the wire dicts before and
    after a write) has been carried by an appended record; every write
    must read back as the live ``checkpoint()``.  ``admit_at=(k, spec)``
    admits ``spec`` after superstep ``k``."""
    rt.checkpoint_json(path)
    prev, pending, k = wire(rt.checkpoint()), list(changes), 0
    while pending and rt.step() is not None:
        k += 1
        if admit_at is not None and k == admit_at[0]:
            rt.admit(admit_at[1])
        before = journal_records()
        rt.checkpoint_json(path)
        new = wire(rt.checkpoint())
        assert read_checkpoint(path) == new, f"superstep {k}"
        if journal_records() > before:
            pending = [c for c in pending if not c(prev, new)]
        prev = new
    return not pending


class TestRecordsCarryTheHardChanges:
    """Each kind of change a diff could miss is carried by a journal
    record, not only by a fresh snapshot."""

    def test_repair_changes_phi(self, tmp_path):
        rt = Scenario.from_json(SCENARIOS / "chaos.json").build_runtime()
        assert carries(rt, tmp_path / "c.ckpt", lambda old, new: any(
            a["phi"] != b["phi"] for a, b in zip(old["jobs"], new["jobs"])))

    def test_mid_run_admission_extends_jobs(self, tmp_path):
        rt = Scenario.from_json(SCENARIOS / "chaos.json").build_runtime()
        late = JobSpec.from_obj({"name": "late", "program": "broadcast",
                                 "tree_n": 15, "capacity": 4, "height": 4})
        assert carries(rt, tmp_path / "c.ckpt",
                       lambda old, new: len(new["jobs"]) > len(old["jobs"]),
                       admit_at=(5, late))

    def test_integrity_appears_and_disappears(self, tmp_path):
        rt = Scenario.from_json(SCENARIOS / "byzantine.json").build_runtime()
        assert carries(
            rt, tmp_path / "c.ckpt",
            lambda old, new: "integrity" in new and "integrity" not in old,
            lambda old, new: "integrity" in old and "integrity" not in new,
        )

    def test_adaptive_router_state_changes(self, tmp_path):
        sc = dataclasses.replace(
            Scenario.from_json(SCENARIOS / "chaos.json"), router="adaptive")
        assert carries(sc.build_runtime(), tmp_path / "c.ckpt",
                       lambda old, new: old["router"]["state"] != new["router"]["state"])


def journaled_file(tmp_path, n_records: int = 4):
    """A chaos.json checkpoint file holding one snapshot and ``n_records``
    records; returns the path, the record boundaries (byte offsets where
    each record starts, plus the file size) and the state after each."""
    sc = Scenario.from_json(SCENARIOS / "chaos.json")
    rt = sc.build_runtime()
    path = tmp_path / "c.ckpt"
    bounds, states = [], []
    while len(states) <= n_records:
        assert rt.step() is not None
        rt.checkpoint_json(path)
        bounds.append(path.stat().st_size)
        states.append(wire(rt.checkpoint()))
    data = path.read_bytes()
    # every write after the first appended exactly one line
    assert data.count(b"\n") == n_records + 1
    return path, data, bounds, states


class TestTornAndCorrupted:
    def test_truncation_inside_the_last_record_restores_the_previous_state(self, tmp_path):
        path, data, bounds, states = journaled_file(tmp_path)
        for size in range(bounds[-2], bounds[-1]):
            path.write_bytes(data[:size])
            assert read_checkpoint(path) == states[-2], f"size={size}"
        path.write_bytes(data[: bounds[-1] - 1])  # only the newline missing
        assert wire(Runtime.restore_json(path).checkpoint()) == states[-2]
        path.write_bytes(data)
        assert read_checkpoint(path) == states[-1]

    @pytest.mark.parametrize("mask", [0x01, 0x80])
    def test_flipped_byte_drops_that_record_and_every_later_one(self, tmp_path, mask):
        path, data, bounds, states = journaled_file(tmp_path)
        k = 2  # the second record: its successors must go too
        start, end = bounds[k - 1], bounds[k] - 1  # the line, without "\n"
        body = start + data[start:end].index(b" ", data[start:end].index(b" ") + 1) + 1
        for i in range(body, end):
            torn = bytearray(data)
            torn[i] ^= mask
            path.write_bytes(bytes(torn))
            assert read_checkpoint(path) == states[k - 1], f"offset={i}"

    def test_parent_format_restores_and_finishes_bit_identically(self):
        sc = Scenario.from_json(SCENARIOS / "chaos.json")
        assert read_checkpoint(PARENT_FORMAT) == json.loads(PARENT_FORMAT.read_text())
        rt = Runtime.restore_json(PARENT_FORMAT)
        assert rt.cycle > 0 and rt.active_jobs()
        assert sum(j.n_repairs for j in rt.jobs) >= 1
        resumed = drive_runtime(rt, checkpoint_every=sc.checkpoint_every)
        assert resumed.as_dict() == run_scenario(sc).as_dict()

    @pytest.mark.parametrize("junk", [
        b"", b"garbage", b"\x00\xff\xfe", b"[1, 2]\n", b"42\n",
        b'{"version": 1}\n{"extra": 1}\n',
    ], ids=["empty", "text", "binary", "list", "number", "two-documents"])
    def test_garbage_raises_value_error(self, tmp_path, junk):
        path = tmp_path / "c.ckpt"
        path.write_bytes(junk)
        with pytest.raises(ValueError):
            Runtime.restore_json(path)

    def test_cli_exits_1_on_a_garbage_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"\x00not a checkpoint")
        assert main(["runtime", str(SCENARIOS / "partition.json"),
                     "--checkpoint", str(path)]) == 1
        assert "cannot restore checkpoint" in capsys.readouterr().err


class TestWriters:
    def test_second_runtime_gets_a_fresh_snapshot(self, tmp_path):
        path = tmp_path / "c.ckpt"
        a = Scenario.from_json(SCENARIOS / "chaos.json").build_runtime()
        b = Scenario.from_json(SCENARIOS / "long_run.json").build_runtime()
        for rt, expect_snapshot in [(a, True), (a, False), (b, True), (a, True),
                                    (a, False), (b, True), (b, False)]:
            rt.step()
            before = snapshots()
            rt.checkpoint_json(path)
            assert (snapshots() > before) == expect_snapshot
            assert read_checkpoint(path) == wire(rt.checkpoint())

    def test_foreign_append_forces_a_fresh_snapshot(self, tmp_path):
        path = tmp_path / "c.ckpt"
        rt = Scenario.from_json(SCENARIOS / "chaos.json").build_runtime()
        rt.step()
        rt.checkpoint_json(path)
        with open(path, "ab") as fh:
            fh.write(b"junk\n")
        rt.step()
        before = snapshots()
        rt.checkpoint_json(path)
        assert snapshots() == before + 1
        assert read_checkpoint(path) == wire(rt.checkpoint())

    def test_journal_is_compacted_once_it_outgrows_the_snapshot(self, tmp_path):
        path = tmp_path / "c.ckpt"
        sc = Scenario.from_json(SCENARIOS / "long_run.json")
        before = snapshots()
        drive_runtime(sc.build_runtime(), checkpoint_path=path, checkpoint_every=1)
        assert snapshots() - before > 1
        snapshot_size = len(path.read_bytes().split(b"\n", 1)[0]) + 1
        # the journal stops growing one record past the snapshot's size
        assert path.stat().st_size - snapshot_size <= 2 * snapshot_size
