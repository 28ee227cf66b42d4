"""Run a guest tree program on a host network through an embedding.

``simulate_on_host`` is the end-to-end operationalisation of the paper:
take a binary-tree program, an embedding of its tree into a host (X-tree,
hypercube, ...), translate each guest communication into a host message
between the images, and measure how many clock cycles the host needs.

The headline quantity is the **slowdown** — host cycles divided by the
program's ideal cycles on its own tree.  For a dilation-``d`` embedding
with low congestion the slowdown stays near ``d``, which is exactly why
the paper minimises dilation.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from ..core.embedding import Embedding
from ..networks.guest_tree import GuestTreeNet
from ..obs import Recorder, span
from .engine import DeliveryStats, Message, SynchronousNetwork
from .faults import DegradedResult, FaultReport, FaultSchedule
from .programs import TreeProgram
from .routing import Router

__all__ = ["ExecutionStats", "simulate_on_host", "simulate_on_guest"]


def _fold_report(report: FaultReport, stats: DeliveryStats, key=lambda mid: mid) -> None:
    """Accumulate one delivery's fault outcome into a run-level report."""
    report.n_messages += stats.n_messages
    report.n_delivered += len(stats.delivery_cycle)
    report.applied = (*report.applied, *stats.faults_applied)
    report.n_reroutes += stats.n_reroutes
    report.n_corrupted += stats.n_corrupted
    report.n_retransmits += stats.n_retransmits
    report.n_quarantined += stats.n_quarantined
    for mid, reason in stats.failed.items():
        report.failed[key(mid)] = reason


def _superstep_messages(
    program: TreeProgram, phi, *, restart_ids: bool = False
) -> Iterator[tuple[int, list[tuple[Any, Any]], list[Message]]]:
    """Each superstep's guest pairs and their host messages, in order.

    Message ids run on across supersteps, or restart at 0 in each one
    with ``restart_ids``.
    """
    mid = 0
    for k, step in enumerate(program.supersteps):
        if restart_ids:
            mid = 0
        messages = [
            Message(mid + i, phi[src], phi[dst]) for i, (src, dst) in enumerate(step)
        ]
        mid += len(messages)
        yield k, step, messages


def _run_supersteps(
    network: SynchronousNetwork,
    program: TreeProgram,
    phi,
    *,
    recorder: Recorder | None = None,
    faults: FaultSchedule | None = None,
    ttl: int | None = None,
    report: FaultReport | None = None,
    payload: Callable[[Any], Any] | None = None,
) -> Iterator[tuple[DeliveryStats, dict[int, tuple[Any, Any]] | None]]:
    """The barrier-synchronised (BSP) superstep driver.

    Superstep ``k``'s guest pairs become host messages through ``phi``
    and run as one delivery on ``network``; the next superstep starts when
    every message has arrived.  The global cycle count is each delivery's
    ``fault_offset``, so one fault schedule spans the whole run, and a
    recorder sees one phase per superstep.  ``report`` accumulates each
    delivery's fault outcome.

    Yields ``(stats, sent)`` per superstep.  With a ``payload`` function,
    message ids restart each superstep, ``sent`` maps each id to
    ``(dst, payload(src))`` evaluated before the delivery runs, and
    ``report`` keys failures ``(superstep, msg_id)``; without one, ids run
    on across the program and ``sent`` is ``None``.
    """
    observing = recorder is not None and recorder.enabled
    base = 0  # global cycle count: fault-schedule cycles span supersteps
    steps = _superstep_messages(program, phi, restart_ids=payload is not None)
    for k, step, messages in steps:
        sent = None
        if payload is not None:
            sent = {i: (dst, payload(src)) for i, (src, dst) in enumerate(step)}
        if observing:
            recorder.begin_phase(f"{program.name}[{k}]")
        stats = network.deliver_scheduled(
            [(0, m) for m in messages],
            recorder=recorder, faults=faults, ttl=ttl, fault_offset=base,
        )
        base += stats.cycles
        if report is not None:
            if payload is None:
                _fold_report(report, stats)
            else:
                _fold_report(report, stats, key=lambda mid, k=k: (k, mid))
        yield stats, sent


@dataclass
class ExecutionStats:
    """Cycle accounting for one program execution."""

    program: str
    host_name: str
    n_supersteps: int
    n_messages: int
    total_cycles: int
    ideal_cycles: int
    per_superstep_cycles: list[int]
    max_link_traffic: int
    max_queue: int

    @property
    def slowdown(self) -> float:
        """Host cycles / guest-ideal cycles (1.0 = real time)."""
        if self.ideal_cycles == 0:
            return 1.0
        return self.total_cycles / self.ideal_cycles

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.program} on {self.host_name}: {self.total_cycles} cycles for "
            f"{self.n_messages} messages in {self.n_supersteps} supersteps "
            f"(ideal {self.ideal_cycles}, slowdown {self.slowdown:.2f})"
        )


def simulate_on_host(
    program: TreeProgram,
    embedding: Embedding,
    *,
    link_capacity: int = 1,
    barrier: bool = True,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    faults: FaultSchedule | None = None,
    ttl: int | None = None,
    engine: str = "auto",
) -> ExecutionStats | DegradedResult:
    """Execute ``program`` on ``embedding.host`` and return cycle counts.

    With ``barrier=True`` (default) supersteps are barrier-synchronised:
    all messages of superstep ``k`` must arrive before superstep ``k+1``
    starts (BSP semantics), matching how the guest program's one-cycle
    supersteps compose.

    With ``barrier=False`` superstep ``k``'s messages are injected at cycle
    ``k+1`` regardless of outstanding traffic (systolic/pipelined
    semantics): waves overlap in the network, which hides most of the
    dilation latency of well-embedded wave programs.  Per-superstep cycle
    counts are not defined in this mode (the list holds the single
    makespan).

    ``recorder`` (see :mod:`repro.obs`) observes the underlying deliveries;
    in barrier mode each superstep becomes one recorder *phase* (per-phase
    cycle counters restart, so samples are keyed ``(phase, cycle)``).

    ``router`` selects the next-hop policy (see
    :mod:`repro.simulate.routing`); the one network — and hence the
    adaptive router's load estimates — persists across supersteps, so
    congestion learned in one wave steers the next.

    ``faults`` / ``ttl`` switch the underlying deliveries into
    fault-tolerant mode (see :mod:`repro.simulate.faults`): the schedule's
    events fire at *global* cycle boundaries while messages are in flight
    (in barrier mode the global clock accumulates across supersteps), and
    the return value becomes a :class:`~repro.simulate.faults.DegradedResult`
    wrapping the :class:`ExecutionStats` with a
    :class:`~repro.simulate.faults.FaultReport` — undeliverable messages
    land in the report's ``failed`` map instead of raising or hanging.

    ``engine`` selects the delivery engine (see
    :data:`repro.simulate.engine.ENGINES`): the default ``"auto"``
    dispatches each superstep to the vectorised kernel when its
    preconditions hold and the classic loop otherwise.
    """
    if program.tree is not embedding.guest and program.tree.parent_array != embedding.guest.parent_array:
        raise ValueError("program and embedding use different guest trees")
    network = SynchronousNetwork(
        embedding.host, link_capacity=link_capacity, router=router, engine=engine
    )
    host_name = getattr(embedding.host, "name", type(embedding.host).__name__)
    fault_mode = faults is not None or ttl is not None
    report = FaultReport() if fault_mode else None
    if barrier:
        per_step: list[int] = []
        max_traffic = 0
        max_queue = 0
        with span("simulate.on_host", program=program.name, host=host_name, mode="bsp"):
            for stats, _ in _run_supersteps(
                network, program, embedding.phi,
                recorder=recorder, faults=faults, ttl=ttl, report=report,
            ):
                per_step.append(stats.cycles)
                max_traffic = max(max_traffic, stats.max_link_traffic)
                max_queue = max(max_queue, stats.max_queue)
    else:
        schedule = [
            (k, m)
            for k, _, messages in _superstep_messages(program, embedding.phi)
            for m in messages
        ]
        if recorder is not None and recorder.enabled:
            recorder.begin_phase(f"{program.name}[pipelined]")
        with span("simulate.on_host", program=program.name, host=host_name, mode="pipelined"):
            stats = network.deliver_scheduled(schedule, recorder=recorder, faults=faults, ttl=ttl)
        per_step = [stats.cycles]
        max_traffic = stats.max_link_traffic
        max_queue = stats.max_queue
        if report is not None:
            _fold_report(report, stats)
    result = ExecutionStats(
        program=program.name,
        host_name=host_name,
        n_supersteps=program.n_supersteps,
        n_messages=program.n_messages,
        total_cycles=sum(per_step),
        ideal_cycles=program.ideal_cycles(),
        per_superstep_cycles=per_step,
        max_link_traffic=max_traffic,
        max_queue=max_queue,
    )
    return DegradedResult(result, report) if fault_mode else result


def simulate_on_guest(
    program: TreeProgram,
    *,
    link_capacity: int = 1,
    recorder: Recorder | None = None,
    router: Router | str | None = None,
    engine: str = "auto",
) -> ExecutionStats:
    """Execute the program on the guest tree itself (the reference machine).

    Uses the tree as its own host network
    (:class:`~repro.networks.GuestTreeNet`) via the identity embedding; for
    the edge-confined workloads this reproduces ``ideal_cycles`` exactly and
    for routed workloads (leaf gossip) it gives the honest baseline.  The
    tree routes by preorder intervals, so no size needs dense tables and
    its node count never keeps it off the vectorised kernel.
    """
    host = GuestTreeNet(program.tree)
    identity = Embedding(program.tree, host, {v: v for v in program.tree.nodes()})
    return simulate_on_host(
        program,
        identity,
        link_capacity=link_capacity,
        recorder=recorder,
        router=router,
        engine=engine,
    )
