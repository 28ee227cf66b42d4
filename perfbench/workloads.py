"""The four workloads: their inputs, their operations and the output checks.

Each workload builds its inputs from the seed in ``setup`` and then yields
one pass of operations from ``ops``.  An operation is a closed-loop call
sequence into the program; it returns its counts and raises
:class:`CheckFailed` when its output is wrong.  Every call into a layer is
wrapped in a tracer span named after the layer.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from collections import Counter
from pathlib import Path

from repro.analysis.oracle import oracle_for
from repro.core import theorem1_embedding
from repro.runtime import Runtime
from repro.service.scenario import Scenario, drive_runtime
from repro.simulate import (
    PROGRAMS,
    FaultSchedule,
    Message,
    SynchronousNetwork,
    simulate_on_guest,
    simulate_on_host,
)
from repro.trees import make_tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the makespan ``scenarios/long_run.json`` has had since it was written; the
#: byzantine-integrity and scheduler changes since then were gated on keeping it
LONG_RUN_MAKESPAN = 464

#: programs whose factories take a traffic seed
SEEDED_PROGRAMS = ("hot_spot", "permutation")


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def derive(seed: int, label: str) -> int:
    """A seed for one input, fixed by the workload seed and the input's label."""
    return random.Random(f"{seed}/{label}").randrange(2**31)


def guest_size(r: int) -> int:
    """Theorem 1's guest size for the X-tree of height ``r``."""
    return 16 * (2 ** (r + 1) - 1)


def make_program(name: str, tree, seed: int):
    if name in SEEDED_PROGRAMS:
        return PROGRAMS[name](tree, seed=derive(seed, name))
    return PROGRAMS[name](tree)


def check_embedding(res, tracer) -> int:
    """Theorem 1's promise: dilation <= 3, load exactly 16, all placed."""
    emb = res.embedding
    with tracer.span("core.report"):
        rep = emb.report()
    n = emb.guest.n
    if rep.dilation > 3:
        raise CheckFailed(f"dilation {rep.dilation} > 3")
    if rep.load_factor != 16 or rep.n_guest != 16 * rep.n_host:
        raise CheckFailed(f"load {rep.load_factor} on {rep.n_host} hosts for {n} guests")
    if len(emb.phi) != n or any(v not in emb.phi for v in range(n)):
        raise CheckFailed("a guest node is not placed")
    return rep.dilation


class Embed:
    """Theorem 1 alone: the construction layer, no routing or delivery."""

    FAMILIES = ("random", "path", "broom")

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        #: (height with the paper separator, height with the flow separator)
        self.paper_r, self.flow_r = (8, 6) if size == "full" else (3, 2)

    def setup(self, tracer) -> None:
        self.inputs = []
        for sep, r in (("paper", self.paper_r), ("flow", self.flow_r)):
            for fam in self.FAMILIES:
                with tracer.span("trees.make_tree", family=fam):
                    tree = make_tree(fam, guest_size(r), seed=derive(self.seed, f"{fam}/{r}"))
                self.inputs.append((f"{sep}/{fam}/r{r}", sep, tree))

    def ops(self):
        for label, sep, tree in self.inputs:
            yield label, lambda tracer, sep=sep, tree=tree: self._embed(tracer, sep, tree)

    def _embed(self, tracer, sep, tree) -> Counter:
        layer = "core.theorem1" if sep == "paper" else "separators.flow_embed"
        with tracer.span(layer):
            res = theorem1_embedding(tree, separator=sep)
        dilation = check_embedding(res, tracer)
        counts = Counter(nodes=tree.n, **{"core.max_dilation": dilation})
        if sep == "paper":
            counts["theorem1_nodes"] = tree.n
        counts.update({f"layout.{k}": v for k, v in res.stats.as_dict().items()})
        return counts


class Simulate:
    """The ``xtree-embed simulate`` path: embed, then every program on the
    guest tree and on the host; the guest tables are built cold every time,
    as a CLI user pays them."""

    FAMILIES = ("random", "path", "broom")
    REFERENCE = HERE / "expected_cycles.json"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.r = 5 if size == "full" else 2
        recorded = {}
        if size == "full":
            doc = json.loads(self.REFERENCE.read_text())
            if doc["r"] == self.r:
                recorded = doc["seeds"].get(str(seed), {})
        #: ``family/program -> [guest cycles, host cycles]``; entries missing
        #: here are recorded by the first pass and checked by every later one
        self.reference = {k: tuple(v) for k, v in recorded.items()}
        self.recorded = bool(recorded)

    def setup(self, tracer) -> None:
        self.trees = []
        for fam in self.FAMILIES:
            with tracer.span("trees.make_tree", family=fam):
                tree = make_tree(fam, guest_size(self.r), seed=derive(self.seed, fam))
            self.trees.append((fam, tree))

    def ops(self):
        for fam, tree in self.trees:
            holder = {}
            yield f"{fam}/embed", lambda tracer, t=tree, h=holder: self._embed(tracer, t, h)
            for name in sorted(PROGRAMS):
                yield f"{fam}/{name}", (
                    lambda tracer, f=fam, t=tree, n=name, h=holder:
                    self._program(tracer, f, t, n, h["embedding"])
                )

    def _embed(self, tracer, tree, holder) -> Counter:
        with tracer.span("core.theorem1"):
            res = theorem1_embedding(tree, separator="paper")  # the CLI's default
        holder["embedding"] = res.embedding
        dilation = check_embedding(res, tracer)
        return Counter(nodes=tree.n, theorem1_nodes=tree.n, **{"core.max_dilation": dilation})

    def _program(self, tracer, fam, tree, name, embedding) -> Counter:
        with tracer.span("programs.build", program=name):
            prog = make_program(name, tree, self.seed)
        with tracer.span("simulate.guest", program=name):
            guest = simulate_on_guest(prog)
        with tracer.span("deliver.vector", program=name, engine="auto"):
            host = simulate_on_host(prog, embedding)
        got = (guest.total_cycles, host.total_cycles)
        want = self.reference.setdefault(f"{fam}/{name}", got)
        if got != want:
            raise CheckFailed(f"{fam}/{name}: guest/host cycles {got}, recorded {want}")
        return Counter(
            nodes=tree.n, messages=prog.n_messages, sim_cycles=host.total_cycles,
            vector_messages=prog.n_messages,
        )


class Delivery:
    """Host-only delivery on pre-built embeddings: plain traffic on the
    vector engine, degraded traffic (link faults, byzantine links, the
    adaptive router) on the classic engine."""

    PROGRAMS = ("hot_spot", "permutation", "neighbor_exchange")
    MODES = ("bsp", "pipelined")
    FAULTS = {
        "single_link": "examples/faults_single_link.json",
        "byzantine": "examples/faults_byzantine.json",
    }

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        #: heights of the plain half's host and of the degraded half's host
        self.big_r, self.small_r = (7, 4) if size == "full" else (3, 2)

    def setup(self, tracer) -> None:
        self.faults = {
            k: FaultSchedule.from_json(ROOT / p) for k, p in self.FAULTS.items()
        }
        self.plans = {}
        for r in (self.big_r, self.small_r):
            with tracer.span("trees.make_tree", r=r):
                tree = make_tree("random", guest_size(r), seed=derive(self.seed, f"r{r}"))
            with tracer.span("core.theorem1", r=r):
                emb = theorem1_embedding(tree).embedding
            # the one cost a user pays once per host
            with tracer.span("oracle.warm", r=r):
                oracle_for(emb.host).next_hop_tables()
            for name in self.PROGRAMS:
                if name == "hot_spot":
                    prog = self._terminal_hot_spot(tree, emb.phi, r)
                else:
                    prog = make_program(name, tree, self.seed)
                steps, msg_id = [], 0
                for step in prog.supersteps:
                    msgs = []
                    for src, dst in step:
                        msgs.append(Message(msg_id, emb.phi[src], emb.phi[dst]))
                        msg_id += 1
                    steps.append(msgs)
                self.plans[(r, name)] = (emb.host, steps, tree.n)
        # what the classic engine's fault-free control runs must reproduce
        self.vector_cycles = {
            (self.small_r, name, mode): sum(
                st.cycles for st in self._run((self.small_r, name, mode), "vector", None, None)
            )
            for name in self.PROGRAMS for mode in self.MODES
        }

    def _terminal_hot_spot(self, tree, phi, r):
        """One round of hot_spot traffic whose hot node sits on an X-tree leaf
        that is not at either end of its level, drawn from the seed.  Where
        the hot node lands sets the makespan (a leaf's few links bound it; an
        end leaf has fewer still), so every seed measures the same situation.
        One round, not the default two, keeps a pass short enough for
        several passes in a run."""
        for k in itertools.count():
            prog = PROGRAMS["hot_spot"](tree, rounds=1, seed=derive(self.seed, f"hot_spot/{k}"))
            level, index = phi[prog.supersteps[0][0][1]]
            if level == r and 0 < index < 2**r - 1:
                return prog

    def ops(self):
        for name in self.PROGRAMS:
            for mode in self.MODES:
                key = (self.big_r, name, mode)
                yield f"vector/{self.big_r}/{name}/{mode}", (
                    lambda tracer, key=key: self._deliver(tracer, key, "vector", None, None)
                )
        for name in self.PROGRAMS:
            for mode in self.MODES:
                key = (self.small_r, name, mode)
                for variant in ("control", *self.FAULTS, "adaptive"):
                    faults = self.faults.get(variant)
                    router = "adaptive" if variant == "adaptive" else None
                    yield f"classic/{variant}/{self.small_r}/{name}/{mode}", (
                        lambda tracer, key=key, f=faults, rt=router, v=variant:
                        self._deliver(tracer, key, "classic", f, rt, v)
                    )

    def _run(self, key, engine, faults, router) -> list:
        r, name, mode = key
        host, steps, _ = self.plans[(r, name)]
        net = SynchronousNetwork(host, router=router, engine=engine)
        if mode == "pipelined":
            schedule = [(k, m) for k, msgs in enumerate(steps) for m in msgs]
            return [net.deliver_scheduled(schedule, faults=faults)]
        stats, base = [], 0  # barrier-synchronised supersteps on one network
        for msgs in steps:
            st = net.deliver_scheduled([(0, m) for m in msgs], faults=faults, fault_offset=base)
            base += st.cycles
            stats.append(st)
        return stats

    def _deliver(self, tracer, key, engine, faults, router, variant="plain") -> Counter:
        r, name, mode = key
        with tracer.span(f"deliver.{engine}", program=name, mode=mode, variant=variant):
            stats = self._run(key, engine, faults, router)
        c = Counter(nodes=self.plans[(r, name)][2])
        for st in stats:
            c["messages"] += st.n_messages
            c["sim_cycles"] += st.cycles
            c["deliver.delivered"] += len(st.delivery_cycle)
            c["faults.failed"] += len(st.failed)
            c["faults.reroutes"] += st.n_reroutes
            c["faults.corrupted"] += st.n_corrupted
            c["faults.retransmits"] += st.n_retransmits
            c["faults.quarantined"] += st.n_quarantined
            c["faults.silent"] += st.n_silent_corruptions
        c[f"{engine}_messages"] = c["messages"]
        if c["deliver.delivered"] + c["faults.failed"] != c["messages"]:
            raise CheckFailed(
                f"{key}: {c['deliver.delivered']} delivered + {c['faults.failed']} "
                f"failed != {c['messages']} injected"
            )
        if c["faults.silent"]:
            raise CheckFailed(f"{key}: {c['faults.silent']} silent corruptions")
        if variant == "control" and self.vector_cycles[key] != c["sim_cycles"]:
            raise CheckFailed(
                f"{key}: classic {c['sim_cycles']} cycles, vector {self.vector_cycles[key]}"
            )
        return c


class RuntimeLoad:
    """Shipped scenarios run as a service worker runs them, with periodic
    checkpoints, then resumed from a mid-run checkpoint."""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.names = (
            ("long_run", "contention", "universal_route", "chaos", "hot_spot",
             "hot_spot_interior", "hot_spot_terminal", "byzantine", "partition")
            if size == "full" else ("hot_spot_terminal", "partition")
        )

    def setup(self, tracer) -> None:
        self.scenarios = []
        for name in self.names:
            sc = Scenario.from_json(ROOT / "scenarios" / f"{name}.json")
            # the seed picks where the resumed run was cut
            cut = random.Random(derive(self.seed, name)).uniform(0.25, 0.75)
            self.scenarios.append((name, sc, cut))

    def ops(self):
        for name, sc, cut in self.scenarios:
            state = {}
            yield f"{name}/uninterrupted", (
                lambda tracer, n=name, sc=sc, st=state: self._reference(tracer, n, sc, st)
            )
            yield f"{name}/checkpointed", (
                lambda tracer, sc=sc, cut=cut, st=state: self._checkpointed(tracer, sc, cut, st)
            )
            yield f"{name}/resumed", (
                lambda tracer, sc=sc, st=state: self._resumed(tracer, sc, st)
            )

    @staticmethod
    def _counts(sc, res, cycles: int) -> Counter:
        return Counter(
            jobs=len(res.jobs),
            nodes=sum(spec.tree_n for spec in sc.jobs),
            sim_cycles=cycles,
        )

    def _reference(self, tracer, name, sc, state) -> Counter:
        """The run without a checkpoint path; the other two must match it."""
        intervals = Counter()
        with tracer.span("runtime.build"):
            rt = sc.build_runtime()
        with tracer.span("runtime.step"):
            ref = drive_runtime(
                rt, batch=sc.batch, checkpoint_every=sc.checkpoint_every,
                heartbeat=lambda: intervals.update(n=1),
            )
        if name == "long_run" and ref.makespan != LONG_RUN_MAKESPAN:
            raise CheckFailed(f"long_run makespan {ref.makespan} != {LONG_RUN_MAKESPAN}")
        state.update(ref=ref.as_dict(), intervals=intervals["n"])
        c = self._counts(sc, ref, ref.makespan)
        c["runtime.supersteps"] = sum(j["supersteps_run"] for j in ref.jobs)
        c["runtime.repairs"] = ref.n_repairs
        c.update({f"runtime.{k}": v for k, v in ref.counters.items()})
        return c

    def _checkpointed(self, tracer, sc, cut, state) -> Counter:
        path = self.workdir / "checkpoint.json"
        mid = self.workdir / "mid.json"
        mid.unlink(missing_ok=True)
        # resume from the periodic checkpoint nearest ``cut`` of the run
        keep = max(1, round(cut * state["intervals"]))
        written = Counter()

        def heartbeat():  # drive_runtime calls it right after each checkpoint
            written["runtime.checkpoints"] += 1
            written["runtime.checkpoint_bytes"] += path.stat().st_size
            if written["runtime.checkpoints"] == keep:
                shutil.copyfile(path, mid)

        path.unlink(missing_ok=True)
        with tracer.span("runtime.build"):
            rt = sc.build_runtime()
        with tracer.span("runtime.checkpointed"):
            res = drive_runtime(
                rt, batch=sc.batch, checkpoint_path=path,
                checkpoint_every=sc.checkpoint_every, heartbeat=heartbeat,
            )
        written["runtime.checkpoints"] += 1  # the final one, after the loop
        written["runtime.checkpoint_bytes"] += path.stat().st_size
        if not mid.exists():  # shorter than one interval: resume from the end
            shutil.copyfile(path, mid)
        if res.as_dict() != state["ref"]:
            raise CheckFailed(f"{sc.name}: checkpointed run differs from uninterrupted")
        return self._counts(sc, res, res.makespan) + written

    def _resumed(self, tracer, sc, state) -> Counter:
        with tracer.span("runtime.restore"):
            rt = Runtime.restore_json(self.workdir / "mid.json")
        start = rt.cycle
        with tracer.span("runtime.resume"):
            res = drive_runtime(rt, batch=sc.batch, checkpoint_every=sc.checkpoint_every)
        if res.as_dict() != state["ref"]:
            raise CheckFailed(f"{sc.name}: resumed run differs from uninterrupted")
        return self._counts(sc, res, res.makespan - start)


def make(name: str, seed: int, size: str, workdir: Path):
    if name == "runtime":
        return RuntimeLoad(seed, size, workdir)
    return {"embed": Embed, "simulate": Simulate, "delivery": Delivery}[name](seed, size)

