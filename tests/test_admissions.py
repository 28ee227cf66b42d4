"""Live admission: jobs arriving mid-run, via the driver, CLI and API."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime import JobSpec, Runtime
from repro.service import Fleet, Scenario
from repro.service.api import ApiServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.scenario import drive_runtime
from repro.networks import XTree

BASE_DOC = {
    "version": 1,
    "name": "seeded",
    "host": {"name": "xtree", "args": [3]},
    "jobs": [
        {"name": "a", "program": "reduction", "tree_n": 15,
         "capacity": 4, "height": 3},
    ],
}

LATE_SPEC = {"name": "late", "program": "broadcast", "tree_n": 15,
             "capacity": 4, "height": 3}


def _runtime_with_job(name="a", capacity=4):
    rt = Runtime(XTree(3))
    rt.admit(JobSpec.from_obj(
        {"name": name, "program": "reduction", "tree_n": 15,
         "capacity": capacity, "height": 3}
    ))
    return rt


class TestDriveRuntimeAdmissions:
    def test_mid_run_admission(self):
        rt = _runtime_with_job()
        res = drive_runtime(
            rt, admissions=[(2, JobSpec.from_obj(LATE_SPEC))]
        )
        names = {j["name"] for j in res.jobs}
        assert names == {"a", "late"}
        assert res.complete
        assert res.counters.get("admit.live") == 1

    def test_results_match_plain_run_for_empty_admissions(self):
        res_a = drive_runtime(_runtime_with_job())
        res_b = _runtime_with_job().run()
        assert res_a.as_dict() == res_b.as_dict()

    def test_idle_jump_admits_after_drain(self):
        # arrival cycle far beyond the seeded job's makespan: the driver
        # must jump the idle runtime forward and still run the arrival
        rt = _runtime_with_job()
        res = drive_runtime(
            rt, admissions=[(10_000, JobSpec.from_obj(LATE_SPEC))]
        )
        assert {j["name"] for j in res.jobs} == {"a", "late"}
        assert res.complete
        late = next(j for j in res.jobs if j["name"] == "late")
        assert late["status"] == "done"

    def test_duplicate_name_skipped_silently(self):
        # the seeded job's name arriving again (a crash-resume replay)
        # must not error, not double-admit, and not count as live
        rt = _runtime_with_job()
        dup = {"name": "a", "program": "reduction", "tree_n": 15,
               "capacity": 4, "height": 3}
        res = drive_runtime(rt, admissions=[(0, JobSpec.from_obj(dup))])
        assert len(res.jobs) == 1
        assert "admit.live" not in res.counters

    def test_inadmissible_arrival_counted_rejected(self):
        rt = _runtime_with_job(capacity=16)  # host load 16 already full
        big = {"name": "late", "program": "broadcast", "tree_n": 15,
               "capacity": 16, "height": 3}
        res = drive_runtime(rt, admissions=[(0, JobSpec.from_obj(big))])
        assert {j["name"] for j in res.jobs} == {"a"}
        assert res.counters.get("admit.rejected") == 1

    def test_admission_poll_supplies_arrivals(self):
        rt = _runtime_with_job()
        res = drive_runtime(
            rt,
            checkpoint_every=1,
            admission_poll=lambda: [(1, JobSpec.from_obj(LATE_SPEC))],
        )
        assert {j["name"] for j in res.jobs} == {"a", "late"}
        assert res.complete


class TestRuntimeCliAdmitAt:
    def _write_config(self, tmp_path):
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({
            "version": 1,
            "name": "seeded",
            "host": {"name": "xtree", "args": [3]},
            "jobs": BASE_DOC["jobs"],
        }))
        spec = tmp_path / "late.json"
        spec.write_text(json.dumps(LATE_SPEC))
        return cfg, spec

    def test_admit_at_runs_late_job(self, tmp_path, capsys):
        cfg, spec = self._write_config(tmp_path)
        assert main(["runtime", str(cfg), "--admit-at", f"2,{spec}"]) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out and "late" in out

    def test_bad_admit_at_rejected(self, tmp_path, capsys):
        cfg, spec = self._write_config(tmp_path)
        assert main(["runtime", str(cfg), f"--admit-at=-1,{spec}"]) == 1
        assert "bad --admit-at" in capsys.readouterr().err
        assert main(["runtime", str(cfg), "--admit-at", "2,/no/such.json"]) == 1
        assert "bad --admit-at" in capsys.readouterr().err


class TestFleetAdmission:
    @pytest.fixture()
    def cold_service(self, tmp_path):
        """API server over a fleet that has NOT started its workers, so a
        submitted job stays queued while admissions are posted."""
        fleet = Fleet(tmp_path, n_shards=1)
        server = ApiServer(fleet)
        server.serve_background()
        try:
            yield fleet, ServiceClient(server.address)
        finally:
            server.shutdown()
            fleet.stop()

    def test_posted_admission_joins_run(self, cold_service):
        fleet, client = cold_service
        jid = client.submit(BASE_DOC)
        name = client.admit(jid, 2, LATE_SPEC)
        assert name.startswith("admit-")
        fleet.start()
        meta = client.wait(jid, timeout=60)
        assert meta["status"] == "done"
        result = client.result(jid)
        names = {j["name"] for j in result["result"]["jobs"]}
        assert names == {"a", "late"}
        # the distributed run equals driving the same arrivals in-process
        rt = Scenario.from_obj(BASE_DOC).build_runtime()
        ref = drive_runtime(
            rt, admissions=[(2, JobSpec.from_obj(LATE_SPEC))]
        )
        assert result["result"] == json.loads(json.dumps(ref.as_dict()))

    def test_admit_error_contract(self, cold_service):
        fleet, client = cold_service
        with pytest.raises(ServiceError) as exc:
            client.admit("no-such-job", 0, LATE_SPEC)
        assert exc.value.status == 404
        jid = client.submit(BASE_DOC)
        with pytest.raises(ServiceError) as exc:
            client.admit(jid, -1, LATE_SPEC)
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.admit(jid, 0, {"not": "a spec"})
        assert exc.value.status == 400
        fleet.start()
        client.wait(jid, timeout=60)
        with pytest.raises(ServiceError) as exc:
            client.admit(jid, 0, LATE_SPEC)
        assert exc.value.status == 409
