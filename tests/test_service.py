"""The PR-7 service layer: scenarios, store, fleet, API, and the CLI.

The load-bearing guarantees:

* a scenario document is validated strictly (versioned, unknown keys
  rejected) and round-trips through JSON;
* the store's rename-based queues claim each job exactly once, in
  priority-then-submission order, and requeue a dead worker's job —
  possibly onto a different shard — without losing the checkpoint;
* N concurrent submissions across >= 2 worker shards, *including
  node-death fault scenarios*, produce per-job results **bit-identical**
  to direct in-process ``run_scenario`` runs;
* SIGKILLing a worker mid-job loses nothing: recovery requeues the job,
  another worker resumes from the checkpoint, and the final result is
  still bit-identical to an uninterrupted run;
* the REST API speaks the documented routes and error contract.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.service import (
    Fleet,
    Scenario,
    ServiceClient,
    run_load,
    run_scenario,
    scenario_variants,
)
from repro.service.api import ApiServer
from repro.service.client import ServiceError
from repro.service.store import JobRecord, Store
from repro.service.worker import worker_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE_DOC = {
    "version": 1,
    "name": "base",
    "host": {"name": "xtree", "args": [3]},
    "jobs": [
        {"name": "a", "program": "reduction", "tree_n": 15,
         "capacity": 4, "height": 3},
    ],
}

FAULT_DOC = {
    "version": 1,
    "name": "faulty",
    "host": {"name": "xtree", "args": [4]},
    "jobs": [
        {"name": "a", "program": "prefix_sum", "tree_n": 15,
         "capacity": 4, "height": 4},
        {"name": "b", "program": "broadcast", "tree_n": 15,
         "capacity": 4, "height": 4},
    ],
    "faults": {"events": [
        {"cycle": 1, "action": "fail_node", "u": [2, 1]},
        {"cycle": 8, "action": "fail_node", "u": [3, 2]},
    ]},
}


def doc(**overrides) -> dict:
    d = dict(BASE_DOC)
    d.update(overrides)
    return d


def json_roundtrip(obj):
    return json.loads(json.dumps(obj))


#: host args each registry constructor rejects, wrong type, arity or value
BAD_HOST_ARGS = (["x"], [], [1, 2, 3, 4], [7, "bogus"])


def bad_host_doc(args) -> dict:
    return doc(host={"name": "universal", "args": args})


class TestScenario:
    def test_roundtrip_identity(self):
        sc = Scenario.from_obj(FAULT_DOC)
        assert Scenario.from_obj(json_roundtrip(sc.as_dict())) == sc

    def test_defaults_omitted(self):
        d = Scenario.from_obj(BASE_DOC).as_dict()
        for key in ("router", "policy", "engine", "max_load", "batch",
                    "trace", "priority", "checkpoint_every"):
            assert key not in d

    def test_version_required_and_checked(self):
        with pytest.raises(ValueError, match="version"):
            Scenario.from_obj(doc(version=99))
        with pytest.raises(ValueError, match="version"):
            Scenario.from_obj({k: v for k, v in BASE_DOC.items() if k != "version"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_obj(doc(colour="red"))

    def test_missing_required_fields(self):
        for key in ("name", "host", "jobs"):
            bad = {k: v for k, v in BASE_DOC.items() if k != key}
            with pytest.raises(ValueError, match=key):
                Scenario.from_obj(bad)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            Scenario.from_obj(doc(router="psychic"))
        with pytest.raises(ValueError, match="unknown engine"):
            Scenario.from_obj(doc(engine="warp"))
        with pytest.raises(ValueError, match="unknown.*policy"):
            Scenario.from_obj(doc(policy="chaotic"))
        with pytest.raises(ValueError, match="unknown host topology"):
            Scenario.from_obj(doc(host={"name": "torus", "args": [3]}))
        with pytest.raises(ValueError, match="priority"):
            Scenario.from_obj(doc(priority=0))
        with pytest.raises(ValueError, match="checkpoint_every"):
            Scenario.from_obj(doc(checkpoint_every=0))

    @pytest.mark.parametrize("args", BAD_HOST_ARGS)
    def test_bad_host_args_rejected(self, args):
        with pytest.raises(ValueError, match=r"^host\.args: "):
            Scenario.from_obj(bad_host_doc(args))

    def test_duplicate_job_names_rejected(self):
        jobs = [dict(BASE_DOC["jobs"][0]), dict(BASE_DOC["jobs"][0])]
        with pytest.raises(ValueError, match="duplicate job names"):
            Scenario.from_obj(doc(jobs=jobs))

    def test_weight_sums_job_capacities(self):
        assert Scenario.from_obj(FAULT_DOC).weight == 8

    def test_variants_distinct_names_same_workload(self):
        base = Scenario.from_obj(BASE_DOC)
        variants = scenario_variants(base, 3)
        assert [v.name for v in variants] == ["base-000", "base-001", "base-002"]
        assert all(v.jobs == base.jobs for v in variants)


class TestRunScenario:
    def test_matches_plain_runtime_run(self):
        sc = Scenario.from_obj(FAULT_DOC)
        via_scenario = run_scenario(sc).as_dict()
        rt = sc.build_runtime()
        assert via_scenario == rt.run().as_dict()

    def test_resume_from_checkpoint_bit_identical(self, tmp_path):
        sc = Scenario.from_obj(FAULT_DOC)
        ref = run_scenario(sc).as_dict()
        # run halfway, checkpointing, then "crash" and resume from disk
        ckpt = tmp_path / "c.json"
        rt = sc.build_runtime()
        for _ in range(7):
            rt.step()
        ckpt.write_text(json.dumps(rt.checkpoint()))
        assert run_scenario(sc, checkpoint_path=ckpt).as_dict() == ref


class TestStore:
    def rec(self, job_id, *, shard=0, priority=1, seq=1, weight=4):
        return JobRecord(id=job_id, name=job_id, status="queued", shard=shard,
                         priority=priority, weight=weight, seq=seq)

    def test_claim_order_priority_then_seq(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("low", {}, self.rec("low", priority=1, seq=1))
        store.enqueue("late-high", {}, self.rec("late-high", priority=5, seq=3))
        store.enqueue("early", {}, self.rec("early", priority=1, seq=2))
        order = [store.claim(0) for _ in range(3)]
        assert order == ["late-high", "low", "early"]
        assert store.claim(0) is None

    def test_claim_marks_running_with_pid(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        assert store.claim(0) == "j"
        rec = store.read_meta("j")
        assert rec.status == "running" and rec.attempts == 1
        assert rec.worker_pid is not None

    def test_complete_releases_marker(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        store.claim(0)
        store.complete("j", 0, {"exit_code": 0})
        assert store.read_meta("j").status == "done"
        assert store.running_jobs(0) == []
        assert store.read_result("j") == {"exit_code": 0}

    def test_requeue_migrates_shard(self, tmp_path):
        store = Store(tmp_path, n_shards=2)
        store.enqueue("j", {"doc": 1}, self.rec("j", shard=0))
        store.claim(0)
        assert store.requeue_running(0, "j", new_shard=1)
        rec = store.read_meta("j")
        assert rec.status == "queued" and rec.shard == 1
        assert store.claim(1) == "j"  # claimable on the new shard
        assert store.claim(0) is None

    def test_requeue_keeps_published_result(self, tmp_path):
        # worker died after writing result.json but before releasing the
        # marker: recovery must finalise, not re-run
        store = Store(tmp_path, n_shards=1)
        store.enqueue("j", {}, self.rec("j"))
        store.claim(0)
        store.result_path("j").write_text('{"exit_code": 0}')
        assert not store.requeue_running(0, "j", new_shard=0)
        assert store.read_meta("j").status == "done"
        assert store.claim(0) is None

    def test_outstanding_weight(self, tmp_path):
        store = Store(tmp_path, n_shards=2)
        store.enqueue("a", {}, self.rec("a", shard=0, weight=8, seq=1))
        store.enqueue("b", {}, self.rec("b", shard=0, weight=4, seq=2))
        store.enqueue("c", {}, self.rec("c", shard=1, weight=4, seq=3))
        assert store.outstanding_weight(0) == 12
        assert store.outstanding_weight(1) == 4
        store.claim(0)  # running jobs still count
        assert store.outstanding_weight(0) == 12


class TestWorkerInline:
    """Drive the worker loop in-process (max_jobs) — no subprocess."""

    def test_worker_executes_and_publishes(self, tmp_path):
        store = Store(tmp_path, n_shards=1)
        fleet = Fleet(tmp_path, n_shards=1)  # used only for submit/placement
        jid = fleet.submit(Scenario.from_obj(BASE_DOC))
        assert worker_main(str(tmp_path), 0, 1, max_jobs=1) == 1
        rec = store.read_meta(jid)
        assert rec.status == "done"
        result = store.read_result(jid)
        assert result["exit_code"] == 0 and result["complete"]
        ref = json_roundtrip(run_scenario(Scenario.from_obj(BASE_DOC)).as_dict())
        assert result["result"] == ref

    def test_worker_records_failure(self, tmp_path):
        # repeated deaths exhaust the embedding slack -> RepairError ->
        # the job is failed with the error recorded, not lost
        bad = {
            "version": 1,
            "name": "doomed",
            "host": {"name": "xtree", "args": [4]},
            "max_load": 5,
            "jobs": [{"name": "a", "program": "prefix_sum", "tree_n": 12,
                      "capacity": 4, "height": 4}],
            "faults": {"events": [
                {"cycle": 1 + 3 * i, "action": "fail_node", "u": [4, i]}
                for i in range(8)
            ]},
        }
        fleet = Fleet(tmp_path, n_shards=1)
        jid = fleet.submit(Scenario.from_obj(bad))
        worker_main(str(tmp_path), 0, 1, max_jobs=1)
        rec = fleet.store.read_meta(jid)
        assert rec.status == "failed"
        assert "RepairError" in rec.error
        assert fleet.store.read_result(jid)["exit_code"] == 1

    def test_degraded_scenario_is_done_with_exit_1(self, tmp_path):
        sc = Scenario.from_json(str(SCENARIOS / "partition.json"))
        fleet = Fleet(tmp_path, n_shards=1)
        jid = fleet.submit(sc)
        worker_main(str(tmp_path), 0, 1, max_jobs=1)
        assert fleet.store.read_meta(jid).status == "done"
        result = fleet.store.read_result(jid)
        assert result["exit_code"] == 1 and not result["complete"]


class TestPlacement:
    def test_least_weight_shard_wins(self, tmp_path):
        fleet = Fleet(tmp_path, n_shards=2)
        heavy = Scenario.from_obj(doc(name="heavy", jobs=[
            {"name": "a", "program": "reduction", "tree_n": 15,
             "capacity": 8, "height": 3},
        ]))
        light = Scenario.from_obj(BASE_DOC)
        j1 = fleet.submit(heavy)   # shard 0 (tie -> lowest)
        j2 = fleet.submit(light)   # shard 1 (weight 0 < 8)
        j3 = fleet.submit(light)   # shard 1 again (4 < 8)
        j4 = fleet.submit(light)   # now shard 0 has 8, shard 1 has 8 -> 0
        shards = [fleet.store.read_meta(j).shard for j in (j1, j2, j3, j4)]
        assert shards == [0, 1, 1, 0]


@pytest.mark.slow
class TestFleetEndToEnd:
    def test_concurrent_jobs_with_faults_bit_identical(self, tmp_path):
        """Plain + node-death scenarios, concurrently, across 2 shards:
        every distributed result must equal its direct in-process run."""
        scenarios = (
            scenario_variants(Scenario.from_obj(BASE_DOC), 4)
            + scenario_variants(Scenario.from_obj(FAULT_DOC), 4)
        )
        with Fleet(tmp_path, n_shards=2) as fleet:
            report = run_load(fleet, scenarios, concurrency=8, timeout=120)
        assert report.ok, report.as_dict()
        assert report.n_done == 8 and report.n_mismatched == 0
        assert len(report.jobs_per_shard) == 2  # both shards actually ran jobs

    def test_killed_worker_job_recovers_bit_identical(self, tmp_path):
        sc = Scenario.from_json(str(SCENARIOS / "long_run.json"))
        ref = json_roundtrip(run_scenario(sc).as_dict())
        fleet = Fleet(tmp_path, n_shards=2)
        fleet.start()
        try:
            jid = fleet.submit(sc)
            store = fleet.store
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                rec = store.read_meta(jid)
                if rec.status == "running" and store.checkpoint_path(jid).exists():
                    break
                time.sleep(0.002)
            else:
                pytest.fail("job never reached running-with-checkpoint")
            fleet.kill_worker(rec.shard)
            assert store.read_result(jid) is None, "finished before the kill"
            assert fleet.recover() == [jid]
            fleet.wait([jid], timeout=60)
            rec = store.read_meta(jid)
            result = store.read_result(jid)
        finally:
            fleet.stop()
        assert rec.status == "done" and rec.attempts == 2
        assert result["exit_code"] == 0
        assert result["result"] == ref


@pytest.mark.slow
class TestApi:
    @pytest.fixture()
    def service(self, tmp_path):
        fleet = Fleet(tmp_path, n_shards=2)
        fleet.start()
        server = ApiServer(fleet)
        server.serve_background()
        try:
            yield ServiceClient(server.address)
        finally:
            server.shutdown()
            fleet.stop()

    def test_submit_poll_fetch(self, service):
        jid = service.submit(BASE_DOC)
        meta = service.wait(jid, timeout=60)
        assert meta["status"] == "done"
        result = service.result(jid)
        assert result["exit_code"] == 0
        ref = json_roundtrip(run_scenario(Scenario.from_obj(BASE_DOC)).as_dict())
        assert result["result"] == ref
        assert service.scenario(jid)["name"] == "base"
        assert any(j["id"] == jid for j in service.jobs())

    def test_trace_streams_jsonl(self, service):
        jid = service.submit(doc(trace=True))
        service.wait(jid, timeout=60)
        lines = service.trace_lines(jid)
        assert lines, "trace endpoint returned nothing"
        kinds = {rec.get("kind") for rec in lines}
        assert "inject" in kinds or "deliver" in kinds

    def test_error_contract(self, service):
        with pytest.raises(ServiceError) as exc:
            service.submit({"version": 99})
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            service.job("no-such-job")
        assert exc.value.status == 404
        # result before terminal state: 409, distinguishable from 404
        jid = service.submit(doc(name="pending"))
        try:
            service.result(jid)
        except ServiceError as e:
            assert e.status == 409
        assert service.healthz()
        assert service.fleet()["n_shards"] == 2

    def test_bad_host_args_are_400(self, service):
        for args in BAD_HOST_ARGS:
            with pytest.raises(ServiceError) as exc:
                service.submit(bad_host_doc(args))
            assert exc.value.status == 400
            assert "host.args: " in str(exc.value)


class TestServiceCLI:
    def test_run_complete_scenario_exits_0(self, capsys):
        assert main(["service", "run", str(SCENARIOS / "chaos.json")]) == 0
        out = capsys.readouterr().out
        assert "2 repairs" in out

    def test_run_degraded_scenario_exits_1(self, capsys):
        assert main(["service", "run", str(SCENARIOS / "partition.json")]) == 1

    def test_run_json_output(self, capsys):
        assert main(["service", "run", str(SCENARIOS / "hot_spot.json"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["makespan"] > 0 and len(payload["jobs"]) == 2

    def test_run_bad_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1, "name": "x"}')
        assert main(["service", "run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_resumes_from_checkpoint(self, tmp_path, capsys):
        sc = Scenario.from_json(str(SCENARIOS / "chaos.json"))
        ref = run_scenario(sc).as_dict()
        ckpt = tmp_path / "c.json"
        rt = sc.build_runtime()
        for _ in range(5):
            rt.step()
        ckpt.write_text(json.dumps(rt.checkpoint()))
        rc = main(["service", "run", str(SCENARIOS / "chaos.json"),
                   "--checkpoint", str(ckpt), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == json_roundtrip(ref)

    @pytest.mark.slow
    def test_loadgen_local_fleet(self, tmp_path, capsys):
        rc = main(["service", "loadgen", str(SCENARIOS / "hot_spot.json"),
                   "-n", "4", "--root", str(tmp_path / "lg"), "--shards", "2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["ok"] and report["n_done"] == 4
        assert report["n_mismatched"] == 0


class TestScenarioLibrary:
    """Every shipped scenario parses, round-trips, and runs as documented."""

    @pytest.mark.parametrize("name,complete", [
        ("hot_spot", True),
        ("chaos", True),
        ("partition", False),
        ("contention", True),
        ("long_run", True),
    ])
    def test_scenario_runs_as_documented(self, name, complete):
        sc = Scenario.from_json(str(SCENARIOS / f"{name}.json"))
        assert Scenario.from_obj(json_roundtrip(sc.as_dict())) == sc
        res = run_scenario(sc)
        assert res.complete is complete
        if name == "chaos":
            assert res.n_repairs > 0
        if name == "partition":
            assert sum(len(j["failed"]) for j in res.jobs) > 0
