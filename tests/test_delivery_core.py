"""One delivery core: the call paths that used to fork now agree.

* ``deliver(msgs)`` and ``deliver_scheduled([(0, m) ...], fault_offset=k)``
  return the same stats when no fault schedule is attached — the offset is
  never read — on both engines, so the BSP drivers and the runtime call
  one entry point;
* a runtime restore replays every applied :class:`FaultEvent` through the
  engine's single apply path (``SynchronousNetwork.apply_fault``) and
  resumes bit-identically, including a fail on an already-failed link and
  a fail on a quarantined link;
* checkpoints from builds that still carried the ``vector_max_nodes``
  override restore and finish bit-identically.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.networks import XTree, registry_instances
from repro.runtime import JobSpec, Runtime
from repro.simulate import (
    FAULT_SCHEDULE_VERSION,
    FaultSchedule,
    Message,
    SynchronousNetwork,
)
from repro.simulate.faults import FAULT_ACTIONS

TOPOS = registry_instances(2)


def random_messages(topology, n, seed):
    rng = random.Random(seed)
    nodes = list(topology.nodes())
    return [Message(i, rng.choice(nodes), rng.choice(nodes)) for i in range(n)]


@pytest.mark.parametrize("engine", ["classic", "vector"])
@pytest.mark.parametrize("name", sorted(TOPOS))
def test_deliver_equals_offset_scheduled_delivery(name, engine):
    topology = TOPOS[name]
    messages = random_messages(topology, 40, seed=len(name))
    ref = SynchronousNetwork(topology).deliver(messages, engine=engine)
    for offset in (0, 17):
        stats = SynchronousNetwork(topology).deliver_scheduled(
            [(0, m) for m in messages], fault_offset=offset, engine=engine
        )
        assert stats == ref, (name, engine, offset)


#: every fault action, plus a fail on a link that is already down and a
#: fail on the corrupting link while its quarantine (cycles ~7-31) holds it
EVERY_ACTION = FaultSchedule.from_obj({
    "version": FAULT_SCHEDULE_VERSION,
    "events": [
        {"cycle": 0, "action": "corrupt_link", "u": [0, 0], "v": [1, 0],
         "rate": 1.0, "seed": 3},
        {"cycle": 1, "action": "flaky_link", "u": [1, 1], "v": [2, 2],
         "rate": 0.3, "seed": 5},
        {"cycle": 2, "action": "delay_link", "u": [2, 0], "v": [2, 1], "delay": 2},
        {"cycle": 3, "action": "fail_link", "u": [1, 0], "v": [2, 1]},
        {"cycle": 5, "action": "fail_link", "u": [1, 0], "v": [2, 1]},
        {"cycle": 6, "action": "fail_node", "u": [3, 5]},
        {"cycle": 9, "action": "heal_link", "u": [1, 0], "v": [2, 1]},
        {"cycle": 14, "action": "heal_node", "u": [3, 5]},
        {"cycle": 20, "action": "fail_link", "u": [0, 0], "v": [1, 0]},
        {"cycle": 40, "action": "heal_link", "u": [0, 0], "v": [1, 0]},
    ],
})


def every_action_runtime():
    rt = Runtime(XTree(3), faults=EVERY_ACTION)
    rt.admit(JobSpec(name="g", program="leaf_gossip", tree_n=15,
                     capacity=8, height=3))
    rt.admit(JobSpec(name="r", program="reduction", tree_n=15, tree_seed=2,
                     capacity=8, height=3))
    return rt


def network_state(net):
    integ = net.integrity
    return (
        net.failed,
        net.link_delays,
        None if integ is None else (
            integ.corruption, integ.flaky, integ.quarantined, integ.ewma
        ),
    )


def test_restore_replays_every_action_through_apply_fault(monkeypatch):
    ref = every_action_runtime().run().as_dict()
    replayed = []
    apply_fault = SynchronousNetwork.apply_fault

    def spy(self, ev):
        replayed.append(ev)
        return apply_fault(self, ev)

    rt = every_action_runtime()
    root_link = frozenset(((0, 0), (1, 0)))
    seen = set()
    phases = set()
    cut = 0
    while rt.step() is not None:
        cut += 1
        seen.update(ev.action for ev in rt.applied_events)
        if root_link in rt.network.integrity.quarantined:
            phases.add("quarantined")
        elif root_link in rt.network.failed and 31 < rt.cycle < 40:
            # past the cancelled probe heal, before the explicit heal
            phases.add("failed")
        cp = json.loads(json.dumps(rt.checkpoint()))
        replayed.clear()
        monkeypatch.setattr(SynchronousNetwork, "apply_fault", spy)
        restored = Runtime.restore(cp)
        monkeypatch.setattr(SynchronousNetwork, "apply_fault", apply_fault)
        assert replayed == rt.applied_events, f"cut {cut}"
        assert network_state(restored.network) == network_state(rt.network), f"cut {cut}"
        if cut % 5 == 0:
            assert restored.run().as_dict() == ref, f"cut {cut}"
    assert seen == set(FAULT_ACTIONS)
    # the fail at cycle 20 cancelled the quarantine's probe heal (due at
    # 31): the link stayed down until the explicit heal at 40
    assert phases == {"quarantined", "failed"}
    assert rt.result().as_dict() == ref


def test_fail_outranks_quarantine():
    net = SynchronousNetwork(XTree(3))
    link = ((0, 0), (1, 0))
    net.corrupt_link(*link, 1.0, seed=3)
    net.deliver([Message(i, (1, 0), (0, 0)) for i in range(6)])
    integ = net.integrity
    assert frozenset(link) in integ.quarantined
    assert net.fail_link(*link) == []  # already down: nothing newly failed
    assert frozenset(link) not in integ.quarantined
    assert frozenset(link) in net.failed


def test_legacy_vector_max_nodes_key_is_ignored():
    def make():
        rt = Runtime(XTree(4))
        rt.admit(JobSpec(name="a", program="reduction", tree_n=15,
                         capacity=4, height=4))
        rt.admit(JobSpec(name="b", program="prefix_sum", tree_n=12,
                         tree_seed=3, capacity=4, height=4))
        return rt

    ref = make().run().as_dict()
    rt = make()
    for _ in range(3):
        rt.step()
    state = rt.checkpoint()
    assert "vector_max_nodes" not in state
    state["vector_max_nodes"] = 9999
    restored = Runtime.restore(json.loads(json.dumps(state)))
    assert restored.run().as_dict() == ref
