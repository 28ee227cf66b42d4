"""The PR-9 byzantine-fault integrity protocol, end to end.

Covers the tentpole semantics:

* version-2 fault-schedule wire format: ``corrupt_link`` / ``flaky_link``
  events validate, JSON round-trip, and are *rejected* from unversioned
  documents (an old reader must never run a corrupting link as healthy);
* the engine's end-to-end protocol: corrupted arrivals are detected by
  checksum and retransmitted from source; flaky in-transit drops are
  NACKed the same way; exhausted retries fail with the structured
  ``"integrity"`` reason (wrong data *detected*, never silently wrong);
* EWMA-driven link quarantine and its probe heal;
* determinism under one seed and bit-identity of byzantine-free runs;
* runtime checkpoint/restore carries retransmit + quarantine state
  bit-identically across arbitrary cut points;
* the observability hooks (``corrupt`` / ``retransmit`` / ``quarantine``
  trace events);
* the service-layer satellites: idempotent submission keys, capped
  poll backoff, and dead-worker fail-fast in ``wait_terminal``.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.networks import XTree
from repro.obs import TraceRecorder
from repro.runtime import JobSpec, Runtime
from repro.service.store import DeadWorkerError, JobRecord, Store
from repro.simulate import (
    BYZANTINE_ACTIONS,
    FAULT_SCHEDULE_VERSION,
    INTEGRITY_MAX_RETRIES,
    FaultEvent,
    FaultSchedule,
    Message,
    SynchronousNetwork,
    vector_supported,
)

# every message targets the X(3) leaf (3, 0); its only incident links are
# (2, 0)-(3, 0) and (3, 0)-(3, 1), so corrupting both leaves no honest route
VICTIM = (3, 0)
VICTIM_LINKS = (((2, 0), VICTIM), (VICTIM, (3, 1)))


def victim_schedule(n_msgs=3):
    srcs = [(2, 0), (2, 1), (3, 2), (3, 3), (1, 0)]
    return [(0, Message(i, srcs[i % len(srcs)], VICTIM)) for i in range(n_msgs)]


def corrupt_both(rate, *, seed=0, at=0):
    return FaultSchedule(
        [FaultEvent(at, "corrupt_link", u, v, rate=rate, seed=seed)
         for u, v in VICTIM_LINKS]
    )


def fault_events():
    """Hypothesis strategy: one schedule mixing legacy + byzantine events."""
    edges = [((2, 0), (3, 0)), ((1, 0), (2, 0)), ((0, 0), (1, 0)),
             ((3, 0), (3, 1)), ((2, 0), (2, 1))]
    edge = st.sampled_from(edges)
    cycle = st.integers(min_value=0, max_value=50)
    legacy = st.builds(
        lambda c, e, a: FaultEvent(c, a, e[0], e[1]),
        cycle, edge, st.sampled_from(["fail_link", "heal_link"]),
    )
    byz = st.builds(
        lambda c, e, a, r, s: FaultEvent(c, a, e[0], e[1], rate=r, seed=s),
        cycle, edge, st.sampled_from(list(BYZANTINE_ACTIONS)),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    return st.lists(st.one_of(legacy, byz), max_size=8).map(FaultSchedule)


class TestScheduleWireFormat:
    def test_byzantine_event_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultEvent(0, "corrupt_link", (0, 0), (1, 0))
        with pytest.raises(ValueError, match="rate"):
            FaultEvent(0, "flaky_link", (0, 0), (1, 0), rate=1.5)
        with pytest.raises(ValueError, match="no rate"):
            FaultEvent(0, "fail_link", (0, 0), (1, 0), rate=0.5)
        with pytest.raises(ValueError, match="no seed"):
            FaultEvent(0, "heal_link", (0, 0), (1, 0), seed=3)

    def test_unversioned_byzantine_document_rejected(self):
        entry = {"cycle": 1, "action": "corrupt_link",
                 "u": [0, 0], "v": [1, 0], "rate": 0.5}
        with pytest.raises(ValueError, match="version-2"):
            FaultSchedule.from_obj([entry])
        with pytest.raises(ValueError, match="version-2"):
            FaultSchedule.from_obj({"events": [entry]})
        ok = FaultSchedule.from_obj({"version": 2, "events": [entry]})
        assert ok.events[0].byzantine and ok.events[0].rate == 0.5

    def test_version_stamp_iff_byzantine(self):
        legacy = FaultSchedule.single_link((0, 0), (1, 0), fail_at=3)
        assert "version" not in legacy.to_obj()
        byz = FaultSchedule.byzantine_link((0, 0), (1, 0), corrupt_at=3, rate=0.5)
        assert byz.to_obj()["version"] == FAULT_SCHEDULE_VERSION

    def test_shifted_carries_rate_and_seed(self):
        sched = FaultSchedule.byzantine_link(
            (0, 0), (1, 0), corrupt_at=3, rate=0.5, seed=9, flaky=True
        ).shifted(10)
        assert sched.events[0].cycle == 13
        assert sched.events[0].rate == 0.5 and sched.events[0].seed == 9

    @given(fault_events())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_identity(self, sched):
        assert FaultSchedule.from_obj(json.loads(json.dumps(sched.to_obj()))) == sched

    def test_chaos_byzantine_mix_seed_stable(self):
        host = XTree(3)
        kw = dict(n_cycles=40, link_rate=0.1, corrupt_rate=0.1,
                  flaky_rate=0.1, byzantine_p=0.3, seed=5)
        a, b = FaultSchedule.chaos(host, **kw), FaultSchedule.chaos(host, **kw)
        assert a == b
        assert any(e.action == "corrupt_link" for e in a)
        assert any(e.action == "flaky_link" for e in a)
        # every byzantine start has a matching rate-0 restore
        starts = [e for e in a if e.byzantine and e.rate > 0]
        stops = [e for e in a if e.byzantine and e.rate == 0]
        assert len(starts) == len(stops)


class TestEngineIntegrity:
    def test_corruption_detected_and_retransmitted(self):
        """A corrupting link on the only route: arrivals fail the checksum,
        the source retransmits, and (rate < 1) the message gets through."""
        net = SynchronousNetwork(XTree(3), router="adaptive")
        stats = net.deliver_scheduled(
            victim_schedule(3), faults=corrupt_both(0.4, seed=2)
        )
        assert stats.failed == {}
        assert stats.n_corrupted > 0 and stats.n_retransmits > 0
        assert stats.n_silent_corruptions == 0

    def test_retry_exhaustion_fails_with_integrity_reason(self):
        net = SynchronousNetwork(XTree(3), router="adaptive")
        stats = net.deliver_scheduled(victim_schedule(1), faults=corrupt_both(1.0))
        assert stats.failed == {0: "integrity"}
        assert stats.n_retransmits == INTEGRITY_MAX_RETRIES
        assert stats.n_corrupted >= INTEGRITY_MAX_RETRIES

    def test_flaky_drop_is_retransmitted(self):
        faults = FaultSchedule(
            [FaultEvent(0, "flaky_link", (2, 0), VICTIM, rate=0.6, seed=4),
             FaultEvent(0, "flaky_link", VICTIM, (3, 1), rate=0.6, seed=4)]
        )
        net = SynchronousNetwork(XTree(3), router="adaptive")
        stats = net.deliver_scheduled(victim_schedule(3), faults=faults)
        assert stats.failed == {}
        # a flaky drop never reaches the checksum check — it is NACKed in
        # transit — so retransmits can outnumber detected corruptions
        assert stats.n_retransmits > 0 and stats.n_corrupted == 0

    def test_quarantine_fires_and_run_completes(self):
        net = SynchronousNetwork(XTree(3), router="adaptive")
        stats = net.deliver_scheduled(
            victim_schedule(6), faults=corrupt_both(1.0, at=0)
        )
        assert stats.n_quarantined >= 1
        assert set(stats.failed.values()) <= {"integrity"}

    def test_deterministic_under_one_seed(self):
        runs = [
            SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
                victim_schedule(4), faults=corrupt_both(0.5, seed=7)
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_different_seed_different_coins(self):
        outcomes = {
            SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
                victim_schedule(4), faults=corrupt_both(0.5, seed=s)
            ).n_corrupted
            for s in range(6)
        }
        assert len(outcomes) > 1

    def test_byzantine_free_run_bit_identical(self):
        """An all-legacy schedule must not perturb delivery at all: no
        checksum words, no protocol state, identical stats."""
        sched = victim_schedule(4)
        legacy = FaultSchedule.single_link((1, 0), (2, 1), fail_at=2, heal_at=5)
        base = SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
            sched, faults=legacy
        )
        again = SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
            sched, faults=legacy
        )
        assert base == again
        assert base.n_corrupted == base.n_retransmits == base.n_quarantined == 0

    def test_compose_with_fail_heal_same_cycle(self):
        faults = FaultSchedule([
            FaultEvent(2, "fail_link", (1, 0), (2, 0)),
            FaultEvent(2, "corrupt_link", (2, 0), VICTIM, rate=0.5, seed=1),
            FaultEvent(6, "heal_link", (1, 0), (2, 0)),
            FaultEvent(6, "corrupt_link", (2, 0), VICTIM, rate=0.0),
        ])
        stats = SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
            victim_schedule(3), faults=faults
        )
        assert stats.failed == {}

    def test_rate_zero_and_restore_clear_state(self):
        net = SynchronousNetwork(XTree(3))
        net.corrupt_link((2, 0), VICTIM, 0.5, seed=1)
        net.flaky_link((2, 0), VICTIM, 0.5, seed=1)
        integ = net.integrity
        assert integ.corruption and integ.flaky and integ.active
        net.corrupt_link((2, 0), VICTIM, 0.0)
        net.flaky_link((2, 0), VICTIM, 0.0)
        assert not integ.corruption and not integ.flaky and not integ.active
        net.corrupt_link((2, 0), VICTIM, 0.5, seed=1)
        net.restore_link((2, 0), VICTIM)
        assert not integ.corruption

    def test_integrity_created_only_by_byzantine_state(self):
        net = SynchronousNetwork(XTree(3))
        net.corrupt_link((2, 0), VICTIM, 0.0)
        net.fail_link((1, 0), (2, 0))
        net.delay_link((2, 0), VICTIM, 2)
        assert net.integrity is None
        net.flaky_link((2, 0), VICTIM, 0.5)
        assert net.integrity is not None and net.integrity.active

    def test_vector_blockers_name_byzantine_state(self):
        net = SynchronousNetwork(XTree(3))
        net.corrupt_link((2, 0), VICTIM, 0.5)
        assert "corrupting" in vector_supported(net, None, None, None)
        net = SynchronousNetwork(XTree(3))
        net.flaky_link((2, 0), VICTIM, 0.5)
        assert "flaky" in vector_supported(net, None, None, None)

    def test_trace_recorder_sees_protocol_events(self):
        rec = TraceRecorder()
        SynchronousNetwork(XTree(3), router="adaptive").deliver_scheduled(
            victim_schedule(4), faults=corrupt_both(1.0), recorder=rec
        )
        kinds = {e.kind for e in rec.events}
        assert {"corrupt", "retransmit", "quarantine"} <= kinds
        summary = rec.summary()
        assert summary["corrupt_arrivals"] > 0
        assert summary["retransmits"] > 0
        assert summary["quarantine_events"] > 0
        drops = [e for e in rec.events if e.kind == "dropped"]
        assert drops and all(e.detail == "integrity" for e in drops)


def byzantine_runtime(schedule=None):
    if schedule is None:
        schedule = FaultSchedule.from_obj({"version": 2, "events": [
            {"cycle": 1, "action": "corrupt_link", "u": [1, 0], "v": [2, 0],
             "rate": 0.5, "seed": 7},
            {"cycle": 3, "action": "flaky_link", "u": [0, 0], "v": [1, 1],
             "rate": 0.4, "seed": 9},
            {"cycle": 120, "action": "corrupt_link", "u": [1, 0], "v": [2, 0],
             "rate": 0.0},
            {"cycle": 120, "action": "flaky_link", "u": [0, 0], "v": [1, 1],
             "rate": 0.0},
        ]})
    rt = Runtime(XTree(3), faults=schedule)
    rt.admit(JobSpec(name="a", program="prefix_sum", tree_n=15,
                     capacity=8, height=3))
    rt.admit(JobSpec(name="b", program="reduction", tree_n=12, tree_seed=3,
                     capacity=8, height=3))
    return rt


class TestRuntimeIntegration:
    def test_counters_and_reports_surface_protocol(self):
        rt = byzantine_runtime()
        res = rt.run()
        d = res.as_dict()
        assert d["counters"].get("integrity.corrupted", 0) > 0
        assert d["counters"].get("integrity.retransmits", 0) > 0
        assert sum(j["n_corrupted"] for j in d["jobs"]) > 0
        assert sum(j["n_retransmits"] for j in d["jobs"]) > 0

    def test_byzantine_free_run_has_no_integrity_keys(self):
        rt = Runtime(XTree(3))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=8, height=3))
        d = rt.run().as_dict()
        assert not any(k.startswith("integrity") for k in d["counters"])
        assert all(j["n_corrupted"] == 0 for j in d["jobs"])

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=8, deadline=None)
    def test_checkpoint_cut_bit_identical(self, cut):
        """Cut anywhere — including with retransmits pending and links
        quarantined — and the restored run must finish bit-identically."""
        ref = byzantine_runtime().run().as_dict()
        rt = byzantine_runtime()
        for _ in range(cut):
            if rt.step() is None:
                break
        state = json.loads(json.dumps(rt.checkpoint()))
        resumed = Runtime.restore(state)
        assert resumed.run().as_dict() == ref

    def test_checkpoint_carries_quarantine_state(self):
        sched = FaultSchedule.from_obj({"version": 2, "events": [
            {"cycle": 0, "action": "corrupt_link", "u": [0, 0], "v": [1, 0],
             "rate": 1.0, "seed": 3},
            {"cycle": 0, "action": "corrupt_link", "u": [0, 0], "v": [1, 1],
             "rate": 1.0, "seed": 3},
        ]})
        rt = Runtime(XTree(3), faults=sched)
        rt.admit(JobSpec(name="g", program="leaf_gossip", tree_n=15,
                         capacity=8, height=3))
        ref = None
        saw_quarantine = False
        while rt.step() is not None:
            cp = rt.checkpoint()
            if cp.get("integrity", {}).get("quarantined"):
                saw_quarantine = True
                resumed = Runtime.restore(json.loads(json.dumps(cp)))
                ref = resumed.run().as_dict()
                break
        assert saw_quarantine, "quarantine never reached a checkpoint"
        assert rt.run().as_dict() == ref
        reasons = set()
        for j in ref["jobs"]:
            reasons |= set(j["failed"].values())
        assert reasons == {"integrity"}


class TestServiceSatellites:
    def test_fleet_submit_idempotency_key(self, tmp_path):
        from repro.service import Fleet, Scenario

        doc = {
            "version": 1, "name": "idem",
            "host": {"name": "xtree", "args": [3]},
            "jobs": [{"name": "a", "program": "reduction", "tree_n": 7,
                      "capacity": 4, "height": 3}],
        }
        fleet = Fleet(tmp_path, n_shards=1)  # never started: queue only
        sc = Scenario.from_obj(doc)
        jid = fleet.submit(sc, job_id="idem-fixed")
        assert fleet.submit(sc, job_id="idem-fixed") == jid
        assert fleet.store.list_jobs() == ["idem-fixed"]
        # exactly one queue marker: the replay enqueued nothing
        markers = os.listdir(fleet.store.queue_dir(0))
        assert len(markers) == 1

    def test_wait_terminal_fails_fast_on_dead_worker(self, tmp_path):
        store = Store(tmp_path, 1)
        rec = JobRecord(id="ghost", name="g", status="running", shard=0,
                        worker_pid=2**22 + 12345)  # beyond default pid_max
        store.job_dir("ghost").mkdir(parents=True)
        store.write_meta(rec)
        old = time.time() - 60
        os.utime(store.job_dir("ghost"), (old, old))
        t0 = time.monotonic()
        with pytest.raises(DeadWorkerError) as exc:
            store.wait_terminal(["ghost"], timeout=30)
        assert time.monotonic() - t0 < 5, "did not fail fast"
        assert exc.value.job_id == "ghost" and exc.value.shard == 0
        assert "shard 0" in str(exc.value)
        # opt-out waits the timeout instead
        with pytest.raises(TimeoutError):
            store.wait_terminal(["ghost"], timeout=0.1, stale_after=None)

    def test_wait_terminal_ignores_requeued_jobs(self, tmp_path):
        store = Store(tmp_path, 1)
        rec = JobRecord(id="q", name="q", status="queued", shard=0,
                        worker_pid=None)
        store.job_dir("q").mkdir(parents=True)
        store.write_meta(rec)
        old = time.time() - 60
        os.utime(store.job_dir("q"), (old, old))
        with pytest.raises(TimeoutError):  # not DeadWorkerError
            store.wait_terminal(["q"], timeout=0.1)

    def test_live_worker_never_trips_fail_fast(self, tmp_path):
        store = Store(tmp_path, 1)
        rec = JobRecord(id="live", name="l", status="running", shard=0,
                        worker_pid=os.getpid())
        store.job_dir("live").mkdir(parents=True)
        store.write_meta(rec)
        old = time.time() - 60
        os.utime(store.job_dir("live"), (old, old))
        with pytest.raises(TimeoutError):
            store.wait_terminal(["live"], timeout=0.1)

    def test_client_generates_sanitised_job_ids(self):
        from repro.service.client import ServiceClient

        captured = {}

        class Probe(ServiceClient):
            def _request(self, method, path, payload=None, *, idempotent=None):
                captured.update(method=method, path=path, idempotent=idempotent)
                return json.dumps({"id": "echo"}).encode()

        probe = Probe("http://example.invalid")
        assert probe.submit({"name": "my weird/name"}) == "echo"
        assert captured["method"] == "POST" and captured["idempotent"] is True
        assert captured["path"].startswith("/v1/jobs?id=my-weird-name-")
        assert probe.submit({}, job_id="fixed") == "echo"
        assert captured["path"] == "/v1/jobs?id=fixed"


@pytest.mark.slow
class TestApiIdempotency:
    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service import Fleet
        from repro.service.api import ApiServer
        from repro.service.client import ServiceClient

        fleet = Fleet(tmp_path, n_shards=1)
        fleet.start()
        server = ApiServer(fleet)
        server.serve_background()
        try:
            yield ServiceClient(server.address), fleet
        finally:
            server.shutdown()
            fleet.stop()

    def test_retried_submit_replays_to_same_job(self, service):
        client, fleet = service
        doc = {
            "version": 1, "name": "replay",
            "host": {"name": "xtree", "args": [3]},
            "jobs": [{"name": "a", "program": "reduction", "tree_n": 7,
                      "capacity": 4, "height": 3}],
        }
        jid = client.submit(doc, job_id="replay-1")
        assert client.submit(doc, job_id="replay-1") == jid
        assert fleet.store.list_jobs() == ["replay-1"]
        assert client.wait_result(jid, timeout=60)["exit_code"] == 0

    def test_path_unsafe_job_id_rejected(self, service):
        from repro.service.client import ServiceError

        client, _ = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"version": 1}, job_id="../escape")
        assert exc.value.status == 400
