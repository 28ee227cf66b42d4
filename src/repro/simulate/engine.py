"""Cycle-level synchronous message-passing network simulator.

This is the library's stand-in for the parallel machine the paper reasons
about (DESIGN.md section 5): a network of processors joined by
bidirectional links, store-and-forward routing, and one message per link
direction per clock cycle (configurable).  The paper's *dilation* is then
literally the number of cycles a message between formerly-adjacent guest
processors needs on the host; *congestion* shows up as queueing delay.

The simulator is deterministic: with the default router, shortest-path
routes break ties towards the smallest canonical node index; link
contention is resolved FIFO by (arrival cycle, message id).  The next-hop
policy is pluggable (see :mod:`repro.simulate.routing`): the
congestion-aware :class:`~repro.simulate.routing.AdaptiveRouter` spreads
tied flows by recent load instead, seeded so runs stay reproducible.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any, Hashable

from ..networks.base import Topology, bfs_distances_from
from ..obs import Recorder
from .integrity import Integrity
from .routing import Router, make_router
from .vector_engine import (
    VECTOR_MAX_NODES,
    vector_deliver_scheduled,
    vector_supported,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .faults import FaultEvent, FaultSchedule

__all__ = [
    "Message",
    "DeliveryStats",
    "SynchronousNetwork",
    "UnreachableError",
    "ENGINES",
]

#: delivery engine selectors: ``auto`` dispatches to the vectorised kernel
#: whenever its preconditions hold (see :mod:`repro.simulate.vector_engine`)
#: and falls back to the classic loop otherwise; ``classic`` forces the
#: reference loop; ``vector`` forces the kernel and raises when it cannot run
ENGINES = ("auto", "classic", "vector")


class UnreachableError(RuntimeError):
    """A message destination is disconnected from its source (failed links)."""

Node = Hashable


@dataclass(frozen=True)
class Message:
    """A point-to-point message between two host nodes."""

    msg_id: int
    src: Node
    dst: Node
    payload: Any = None


@dataclass
class DeliveryStats:
    """Outcome of one synchronous delivery phase."""

    cycles: int
    n_messages: int
    #: per-message delivery cycle: a routed message records the cycle its
    #: last hop arrives (>= 1); a self-message (src == dst) is delivered
    #: free at its *injection* cycle — 0 for :meth:`deliver`, the scheduled
    #: cycle ``k`` for :meth:`deliver_scheduled`
    delivery_cycle: dict[int, int] = field(default_factory=dict)
    #: traffic per directed link over the whole phase
    link_traffic: dict[tuple[Node, Node], int] = field(default_factory=dict)
    max_queue: int = 0
    #: messages dropped instead of delivered, ``msg_id -> reason`` — the
    #: reason is ``"ttl"`` (hop/cycle budget exhausted) or ``"partitioned"``
    #: (destination unreachable with no heal event left to reconnect it);
    #: only ever populated in fault-tolerant deliveries (``faults``/``ttl``)
    failed: dict[int, str] = field(default_factory=dict)
    #: queued messages whose planned next hop died under them (they stayed
    #: at their sender and re-routed against the updated tables)
    n_reroutes: int = 0
    #: fault-schedule events this delivery actually applied, in order
    faults_applied: list["FaultEvent"] = field(default_factory=list)
    #: corrupted arrivals caught by the end-to-end checksum; each triggers
    #: a retransmit from source, or an ``"integrity"`` failure once retries
    #: exhaust (byzantine mode only — see ``corrupt_link``)
    n_corrupted: int = 0
    #: retransmissions the integrity protocol scheduled (corrupt arrivals
    #: plus flaky-link in-transit drops)
    n_retransmits: int = 0
    #: links quarantined out of the route set by the corruption EWMA
    n_quarantined: int = 0
    #: corrupted deliveries the checksum FAILED to catch (a CRC collision)
    #: — ground truth only the simulator can see; benchmarks gate this at 0
    n_silent_corruptions: int = 0

    @property
    def max_link_traffic(self) -> int:
        return max(self.link_traffic.values(), default=0)

    @property
    def complete(self) -> bool:
        """True when no message was dropped (all delivered)."""
        return not self.failed


class SynchronousNetwork:
    """A topology plus routing tables and a store-and-forward executor.

    ``failed_links`` marks bidirectional links as down: routing avoids
    them, and delivery raises :class:`UnreachableError` when a destination
    is cut off.  Links can also be failed mid-simulation with
    :meth:`fail_link` / healed with :meth:`heal_link` — the fault injection
    hooks the test suite exercises.  Per-destination routing tables are
    built lazily and invalidated *incrementally*: a link event drops only
    the tables it can actually stale (see :meth:`_invalidate`), so long
    fail/heal sequences keep most of the routing cache warm.

    ``router`` selects the next-hop policy (:mod:`repro.simulate.routing`):
    ``None`` / ``"deterministic"`` keep the historical smallest-index
    shortest-path policy on the engine's direct fast path; ``"adaptive"``
    (or any :class:`~repro.simulate.routing.Router` instance) routes each
    hop through the policy object and feeds the engine's per-cycle link
    utilisation and queue occupancy back into it after every active cycle.
    """

    def __init__(
        self,
        topology: Topology,
        link_capacity: int = 1,
        failed_links: Iterable[tuple[Node, Node]] | None = None,
        router: Router | str | None = None,
        engine: str = "auto",
    ):
        if link_capacity < 1:
            raise ValueError(f"link capacity must be >= 1, got {link_capacity}")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
        self.topology = topology
        self.link_capacity = link_capacity
        self.engine = engine
        self.router = make_router(router).bind(self)
        self.failed: set[frozenset] = set()
        #: latency faults: link -> extra cycles per crossing (slow, not dead)
        self.link_delays: dict[frozenset, int] = {}
        #: byzantine link state and the integrity protocol
        #: (:mod:`repro.simulate.integrity`); ``None`` until the first
        #: ``corrupt_link`` / ``flaky_link``
        self.integrity: Integrity | None = None
        self._dist_to: dict[Node, dict[Node, int]] = {}
        #: the DistanceOracle's scalar router (``oracle.next_hop``), fetched
        #: lazily for the fault-free classic path; ``False`` marks "dense
        #: tables needed but the topology is too large"
        self._dense_nh = None
        self._dense_labels: list[Node] | None = None
        self._dense_index: dict[Node, int] = {}
        #: True while deliver_scheduled runs — bare fail/heal calls are then
        #: rejected (use a FaultSchedule for mid-delivery faults)
        self._delivering = False
        self._applying_fault = False
        for u, v in failed_links or ():
            self.fail_link(u, v)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _link(self, what: str, u: Node, v: Node) -> frozenset:
        """Guard a direct fault call; return the link ``{u, v}``.

        The link must be an actual topology edge, and the call must not
        come from inside a running delivery (see
        :meth:`_check_not_delivering`).
        """
        self._check_not_delivering(what)
        if v not in set(self.topology.neighbors(u)):
            raise ValueError(f"{u!r} -- {v!r} is not a link of {self.topology.name}")
        return frozenset((u, v))

    def _take_down(self, u: Node, v: Node) -> bool:
        """Remove ``{u, v}`` from the route set; False if already out."""
        link = frozenset((u, v))
        if link in self.failed:
            return False
        self.failed.add(link)
        self._invalidate(u, v, healed=False)
        return True

    def _bring_up(self, u: Node, v: Node) -> bool:
        """Readmit ``{u, v}`` to the route set; False if already in."""
        link = frozenset((u, v))
        if link not in self.failed:
            return False
        self.failed.discard(link)
        self._invalidate(u, v, healed=True)
        return True

    def fail_link(self, u: Node, v: Node) -> list[tuple[Node, Node]]:
        """Take the (bidirectional) link ``{u, v}`` down.

        Must name an actual topology edge.  Routing tables are invalidated
        *incrementally*: only destinations whose cached distances actually
        change are dropped (see :meth:`_invalidate`); every other table
        stays exact, so unrelated traffic keeps its warm caches across
        faults.  Failing a link that is already down is a no-op, except
        that it cancels a quarantine's probe heal (the failure outranks
        the quarantine).  Returns the links that newly failed.
        """
        link = self._link("fail_link", u, v)
        if self.integrity is not None:
            self.integrity.cancel_probe(link)
        return [(u, v)] if self._take_down(u, v) else []

    def restore_link(self, u: Node, v: Node) -> None:
        """Bring a previously failed link back up.

        Must name an actual topology edge (mirroring :meth:`fail_link`);
        healing a link that is already live is a no-op — in particular it
        does *not* drop any warm routing tables.  Tables are dropped only
        where the revived link creates a shorter route: when exactly one
        endpoint was reachable, or the cached distances differ by two or
        more.  Tables the link cannot improve (``|dist(u) - dist(v)| <= 1``)
        are kept.  A heal restores full function: latency and byzantine
        faults clear too, and a quarantined link is pardoned outright.
        """
        link = self._link("heal_link", u, v)
        self.link_delays.pop(link, None)
        if self.integrity is not None:
            self.integrity.clear(link)
        self._bring_up(u, v)

    #: alias: fault-injection scripts read ``fail_link`` / ``heal_link``
    heal_link = restore_link

    def corrupt_link(self, u: Node, v: Node, rate: float, seed: int = 0) -> None:
        """Make the (bidirectional) link *byzantine*: each crossing flips a
        seeded pattern into the message's payload word with probability
        ``rate``.

        This is a data-integrity fault, not a failure: the link stays up
        and routable, distance tables are untouched, and the corruption is
        only observable through the end-to-end checksum the delivery loop
        verifies at the destination (see :mod:`repro.simulate.integrity`).
        Outcomes are drawn from a stateless hash keyed on
        ``(seed, link, msg_id, crossing)``, so runs are deterministic and
        independent of forwarding order.  ``rate=0`` restores honest
        behaviour; :meth:`heal_link` also clears it.
        """
        self._byzantine("corrupt_link", "corruption", u, v, rate, seed)

    def flaky_link(self, u: Node, v: Node, rate: float, seed: int = 0) -> None:
        """Make the (bidirectional) link *flaky*: each crossing silently
        drops the message in transit with probability ``rate``.

        Like :meth:`corrupt_link` this is byzantine, not fail-stop — the
        link stays routable and the loss only surfaces through the
        integrity protocol (an abstracted NACK timeout triggers the same
        retransmit path as a detected corruption).  ``rate=0`` restores
        honest behaviour; :meth:`heal_link` also clears it.
        """
        self._byzantine("flaky_link", "drop", u, v, rate, seed)

    def _byzantine(
        self, action: str, what: str, u: Node, v: Node, rate: float, seed: int
    ) -> None:
        link = self._link(action, u, v)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{what} rate must be in [0, 1], got {rate}")
        if rate or self.integrity is not None:
            Integrity.of(self).set_rate(action, link, rate, seed)

    def delay_link(self, u: Node, v: Node, delay: int) -> None:
        """Make the (bidirectional) link slow: every crossing now takes
        ``1 + delay`` cycles instead of 1.

        This is a *latency* fault, not a failure: the link stays up and
        routable, distance tables are untouched (routing still counts it
        as one hop), messages queued behind it are never rerouted, and no
        repair is warranted — a slow link delivers, just late.  ``delay=0``
        restores full speed; :meth:`heal_link` also clears a delay.
        """
        link = self._link("delay_link", u, v)
        if delay < 0:
            raise ValueError(f"link delay must be >= 0 extra cycles, got {delay}")
        if delay == 0:
            self.link_delays.pop(link, None)
        else:
            self.link_delays[link] = delay

    def fail_node(self, node: Node) -> list[tuple[Node, Node]]:
        """Take a whole processor down: fail every live incident link.

        Returns the links that newly failed.
        """
        if not self.topology.has_node(node):
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        return [l for v in list(self.live_neighbors(node)) for l in self.fail_link(node, v)]

    def heal_node(self, node: Node) -> None:
        """Bring a processor back: heal every incident link.

        Inverse shorthand of :meth:`fail_node` — note it revives *all*
        incident links, including any that were failed by separate link
        events (node state is not tracked independently of its links).
        """
        if not self.topology.has_node(node):
            raise ValueError(f"{node!r} is not a node of {self.topology.name}")
        for v in self.topology.neighbors(node):
            if frozenset((node, v)) in self.failed:
                self.restore_link(node, v)

    def _check_not_delivering(self, what: str) -> None:
        """Reject bare fault calls while a delivery is running.

        Before the fault subsystem existed, calling ``fail_link`` from a
        recorder hook (or any other callback reached mid-delivery) silently
        left queued messages routed via whatever tables they had already
        consulted that cycle — neither the old nor the new routes, and not
        reproducible.  Mid-delivery faults must go through a
        :class:`~repro.simulate.faults.FaultSchedule`, which the engine
        applies at well-defined cycle boundaries.
        """
        if self._delivering and not self._applying_fault:
            raise RuntimeError(
                f"{what} called while a delivery is in progress; mid-delivery "
                "faults must be scripted with a FaultSchedule passed to "
                "deliver_scheduled(..., faults=...) so they apply at cycle "
                "boundaries (direct calls would leave in-flight messages on "
                "stale routes)"
            )

    def apply_fault(self, ev: "FaultEvent") -> list[tuple[Node, Node]]:
        """Apply one schedule event; return the links that newly failed.

        The single apply path: the delivery loop runs scheduled events
        through it mid-delivery, and a runtime restore replays applied
        events through it.  Each action calls the direct method of the
        same name, so no-op events (failing a failed link, healing a live
        one) stay no-ops and invalid events (non-edges, unknown nodes)
        raise :class:`ValueError` exactly like the direct calls.
        """
        if ev.action.endswith("_node"):
            args: tuple = (ev.u,)
        elif ev.action == "delay_link":
            args = (ev.u, ev.v, ev.delay)
        elif ev.byzantine:
            args = (ev.u, ev.v, ev.rate, ev.seed)
        else:
            args = (ev.u, ev.v)
        self._applying_fault = True
        try:
            return getattr(self, ev.action)(*args) or []
        finally:
            self._applying_fault = False

    def _invalidate(self, u: Node, v: Node, *, healed: bool) -> None:
        """Drop exactly the cached distance tables the link change stales.

        A table for destination ``dst`` maps reachable nodes to exact
        distances over the live links.  The checks below are exact — a
        table is dropped if and only if some distance in it changed:

        * **fail**: removing ``{u, v}`` changes a distance iff the farther
          endpoint loses its *only* predecessor towards ``dst`` — i.e.
          ``|d(u) - d(v)| == 1`` and the farther endpoint has no other live
          neighbour at the nearer distance (otherwise every shortest path
          through the link reroutes at equal length, so the whole table
          survives).  In bipartite hosts (grid, hypercube) every edge
          satisfies the distance-gap test for every destination, so the
          alternative-predecessor test is what keeps caches warm there.
        * **heal**: adding ``{u, v}`` changes a distance iff it reconnects
          (exactly one endpoint reachable) or shortcuts
          (``|d(u) - d(v)| >= 2``); a gap of at most 1 cannot shorten any
          path, and a link between two unreachable nodes stays invisible.

        The equivalence with a full rebuild is property-tested under
        randomised fail/heal sequences.
        """
        stale = []
        for dst, table in self._dist_to.items():
            du = table.get(u)
            dv = table.get(v)
            if healed:
                if (du is None) != (dv is None) or (
                    du is not None and dv is not None and abs(du - dv) >= 2
                ):
                    stale.append(dst)
            else:
                if du is None or dv is None or abs(du - dv) != 1:
                    continue  # not on any shortest path towards dst
                far, near_dist = (u, dv) if du > dv else (v, du)
                if not any(table.get(w) == near_dist for w in self.live_neighbors(far)):
                    stale.append(dst)
        for dst in stale:
            del self._dist_to[dst]

    def live_neighbors(self, node: Node):
        """The topology's neighbours reachable over non-failed links."""
        if not self.failed:
            yield from self.topology.neighbors(node)
            return
        for v in self.topology.neighbors(node):
            if frozenset((node, v)) not in self.failed:
                yield v

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dist_table(self, dst: Node) -> dict[Node, int]:
        table = self._dist_to.get(dst)
        if table is None:
            table = bfs_distances_from(self.live_neighbors, dst)
            self._dist_to[dst] = table
        return table

    def _dense_next_hop(self):
        """Lazily fetch the oracle's scalar router (fault-free only).

        Returns ``oracle.next_hop`` — interval routing on a tree, a dense
        table gather otherwise — or ``False`` when the topology needs dense
        tables and exceeds
        :data:`~repro.simulate.vector_engine.VECTOR_MAX_NODES`, so the
        O(n^2) tables are not worth building.
        """
        nh = self._dense_nh
        if nh is None:
            topo = self.topology
            if not topo.is_tree and topo.n_nodes > VECTOR_MAX_NODES:
                nh = self._dense_nh = False
            else:
                from ..analysis.oracle import oracle_for

                oracle = oracle_for(topo)
                nh = self._dense_nh = oracle.next_hop
                self._dense_labels = oracle._labels
                self._dense_index = oracle._index_of
        return nh

    def next_hop(self, node: Node, dst: Node) -> Node:
        """Deterministic shortest-path next hop from ``node`` towards ``dst``."""
        if node == dst:
            raise ValueError("message already at destination")
        if not self.failed:
            # fault-free: the oracle's router (tree intervals or one dense
            # table gather) replaces the per-call neighbour scan (same
            # smallest-index tie-break, property-tested equal in
            # tests/test_vector_engine.py)
            nh = self._dense_next_hop()
            if nh is not False:
                index = self._dense_index
                try:
                    hop = nh(index[node], index[dst])
                except KeyError:  # not a label: let the topology raise
                    topo = self.topology
                    hop = nh(topo.index(node), topo.index(dst))
                if hop >= 0:
                    return self._dense_labels[hop]
                raise UnreachableError(
                    f"{node!r} cannot reach {dst!r} (failed links)"
                )
        dist = self._dist_table(dst)
        if node not in dist:
            raise UnreachableError(f"{node!r} cannot reach {dst!r} (failed links)")
        return min(
            (v for v in self.live_neighbors(node) if dist.get(v, -2) == dist[node] - 1),
            key=self.topology.index,
        )

    def route(self, src: Node, dst: Node) -> list[Node]:
        """The full deterministic path ``src .. dst`` (inclusive)."""
        path = [src]
        cur = src
        while cur != dst:
            cur = self.next_hop(cur, dst)
            path.append(cur)
        return path

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def deliver(
        self,
        messages: list[Message],
        *,
        recorder: Recorder | None = None,
        faults: "FaultSchedule | None" = None,
        ttl: int | None = None,
        engine: str | None = None,
    ) -> DeliveryStats:
        """Deliver all ``messages``, injected simultaneously at cycle 1.

        Runs synchronous cycles until every message reaches its destination.
        Each cycle, each directed link forwards at most ``link_capacity``
        messages (FIFO per link); the rest wait in the node's output queue.
        Returns per-message delivery cycles and per-link traffic.
        """
        return self.deliver_scheduled(
            [(0, m) for m in messages],
            recorder=recorder,
            faults=faults,
            ttl=ttl,
            engine=engine,
        )

    def deliver_scheduled(
        self,
        schedule: list[tuple[int, Message]],
        *,
        recorder: Recorder | None = None,
        faults: "FaultSchedule | None" = None,
        ttl: int | None = None,
        fault_offset: int = 0,
        engine: str | None = None,
    ) -> DeliveryStats:
        """Deliver messages with per-message injection cycles.

        ``schedule`` holds ``(inject_after_cycle, message)`` pairs: a message
        scheduled at 0 starts moving in cycle 1, one scheduled at ``k``
        starts in cycle ``k+1``.  This models pipelined (non-barrier)
        execution where later supersteps launch while earlier traffic is
        still in flight — contrast with the BSP semantics of
        :func:`repro.simulate.mapping.simulate_on_host`.

        Sparse schedules are free: when the network drains, the clock jumps
        straight to the next injection cycle instead of spinning through
        the idle gap, so the cost is proportional to *active* cycles only
        (the reported ``cycles`` are identical either way).

        ``recorder`` (see :mod:`repro.obs`) receives per-message lifecycle
        events and an end-of-cycle sample for every active cycle; the
        default ``None`` / :class:`~repro.obs.NullRecorder` path costs one
        predicate per event site.

        Every ``msg_id`` in the schedule must be unique: ``delivery_cycle``
        and the trace event chains are keyed by it, so a duplicate would
        silently overwrite an earlier delivery record.  Duplicates raise
        :class:`ValueError` before anything is injected.

        **Fault-tolerant mode** — active when ``faults`` and/or ``ttl`` is
        given (see :mod:`repro.simulate.faults`):

        * ``faults`` is a :class:`~repro.simulate.faults.FaultSchedule`;
          each event applies at the boundary entering its cycle, *before*
          that cycle's forwarding, while messages are in flight.  A message
          queued behind a link that just died stays at its sender and
          re-routes against the updated tables on its next forwarding
          (counted in ``DeliveryStats.n_reroutes``).  ``fault_offset``
          shifts the schedule's cycle origin — the BSP driver passes the
          global cycle count so one schedule spans many supersteps; events
          at or before the offset are treated as already applied.
        * ``ttl`` bounds the cycles a routed message may spend in the
          network after injection; on expiry it is dropped with reason
          ``"ttl"`` in ``DeliveryStats.failed`` instead of occupying queues
          forever.
        * a message whose destination became unreachable waits (burning
          TTL) while the schedule still holds future events that might
          reconnect it; once none remain it is dropped with reason
          ``"partitioned"``.  A partitioned network therefore terminates
          with a structured ``failed`` report — never an infinite loop —
          and whole-network stalls fast-forward the clock to the next
          event instead of spinning through dead cycles.
        * **byzantine events** (``corrupt_link`` / ``flaky_link``), or
          byzantine link state left by an earlier delivery, switch on the
          end-to-end integrity protocol of
          :mod:`repro.simulate.integrity`: checksummed payloads, NACK and
          retransmit with backoff, ``"integrity"`` failures once retries
          exhaust, and EWMA quarantine with probe heal.  Without byzantine
          state the delivery is bit-identical to the engine without it.

        Without ``faults``/``ttl`` the semantics are exactly historical:
        an unreachable destination raises :class:`UnreachableError`.

        ``engine`` overrides the network's configured engine for this one
        delivery (``"auto"`` / ``"classic"`` / ``"vector"``): ``auto``
        dispatches to the struct-of-arrays kernel
        (:mod:`repro.simulate.vector_engine`) whenever its preconditions
        hold and the classic loop otherwise; ``vector`` raises
        :class:`ValueError` when the kernel cannot run; ``classic`` always
        uses the reference loop.  Both engines return bit-identical
        :class:`DeliveryStats`.
        """
        mode = self.engine if engine is None else engine
        if mode not in ENGINES:
            raise ValueError(f"unknown engine {mode!r}; choose from {ENGINES}")
        rec = recorder if recorder is not None and recorder.enabled else None
        if mode != "classic":
            why = vector_supported(self, rec, faults, ttl)
            if why is None:
                return vector_deliver_scheduled(self, schedule)
            if mode == "vector":
                raise ValueError(
                    f"engine='vector' cannot run this delivery: {why}; "
                    "use engine='auto' to fall back to the classic loop"
                )
        router = self.router
        adaptive = router.adaptive
        # events after the offset, in application order; cycle-0 events of
        # an unshifted schedule describe the initial state and still apply
        fev: list = []
        if faults is not None:
            fev = [
                e
                for e in faults.events
                if e.cycle > fault_offset or (fault_offset == 0 and e.cycle == 0)
            ]
        fi = 0
        n_fev = len(fev)
        # latency faults: active on entry, or introduced by a schedule event
        link_delays = self.link_delays
        delayed = bool(link_delays) or any(e.action == "delay_link" for e in fev)
        stats = DeliveryStats(cycles=0, n_messages=len(schedule))
        # byzantine state persists across deliveries (the BSP driver calls
        # this once per superstep) or arrives via events; either runs the
        # integrity protocol, which forces fault mode
        integ = self.integrity
        if any(e.byzantine for e in fev):
            integ = Integrity.of(self)
        elif integ is not None and not integ.active:
            integ = None
        if integ is not None:
            integ.begin(stats, rec, fault_offset)
        fault_mode = faults is not None or ttl is not None or integ is not None
        # messages crossing a slow link, keyed by the cycle they arrive
        in_transit: dict[int, list[tuple[Node, tuple[int, Message]]]] = {}
        # queues[node] holds (seq, message) tuples in FIFO order
        queues: dict[Node, deque[tuple[int, Message]]] = defaultdict(deque)
        pending: dict[int, list[tuple[int, Message]]] = defaultdict(list)
        # fault-mode bookkeeping: injection cycle per message (TTL) and the
        # computed-but-unsent next hop of queued messages (reroute events)
        inject_at: dict[int, int] = {}
        planned: dict[int, tuple[Node, Node, Message]] = {}
        seq = 0
        last_self = 0
        seen_ids: set[int] = set()
        for inject, m in schedule:
            if inject < 0:
                raise ValueError("injection cycle must be non-negative")
            if m.msg_id in seen_ids:
                raise ValueError(
                    f"duplicate msg_id {m.msg_id} in schedule: delivery stats "
                    "and traces are keyed by msg_id, so ids must be unique"
                )
            seen_ids.add(m.msg_id)
            if m.src == m.dst:
                stats.delivery_cycle[m.msg_id] = inject
                last_self = max(last_self, inject)
                if rec is not None:
                    rec.on_inject(inject, m)
                    rec.on_delivered(inject, m, m.dst)
                continue
            if integ is not None:
                integ.stamp(m)
            pending[inject].append((seq, m))
            seq += 1

        if adaptive:
            router.begin_delivery()
            cycle_links: Counter = Counter()
        # sorted injection-cycle index: the drain fast-forward and the
        # fault-stall fast-forward used to rescan min(pending) per event,
        # which is quadratic on sparse million-message schedules; a sorted
        # list plus a cursor makes the next-injection lookup O(1).  The
        # cursor can never skip a cycle: the clock either steps by one or
        # jumps to a target <= inj_cycles[inj_ptr].
        inj_cycles = sorted(pending)
        inj_ptr = 0
        n_inj = len(inj_cycles)
        cycle = 0
        in_network = 0  # routed messages injected but not yet delivered
        # hot-loop locals: at benchmark volume the repeated attribute
        # lookups are a measurable slice of the whole delivery
        next_hop = self.next_hop
        link_capacity = self.link_capacity
        link_traffic = stats.link_traffic
        delivery_cycle = stats.delivery_cycle
        max_queue = 0
        fast = not fault_mode and not adaptive and rec is None and not delayed

        def drop(m: Message, at: Node, reason: str, cycle: int) -> None:
            # the one way a routed message leaves the network undelivered
            nonlocal in_network
            stats.failed[m.msg_id] = reason
            planned.pop(m.msg_id, None)
            in_network -= 1
            if integ is not None:
                integ.forget(m.msg_id)
            if rec is not None:
                rec.on_dropped(cycle, m, at, reason)

        def reject(m: Message, at: Node, cycle: int) -> None:
            # corrupted at arrival or lost in transit: resend from source,
            # or fail with "integrity" (detected wrong data, distinct from
            # the fail-stop "ttl"/"partitioned") once retries exhaust
            if not integ.retransmit(m, cycle):
                drop(m, at, "integrity", cycle)

        def reroute(dead: set[frozenset], cycle: int) -> None:
            # queued messages whose planned hop just left the route set stay
            # at their sender and re-route on their next forwarding
            for mid, (at, hop, msg) in list(planned.items()):
                if frozenset((at, hop)) in dead:
                    del planned[mid]
                    stats.n_reroutes += 1
                    if rec is not None:
                        rec.on_reroute(cycle, msg, at)

        self._delivering = True
        try:
            while in_network or inj_ptr < n_inj:
                if not in_network:
                    # network drained: jump over the idle gap straight to
                    # the next injection cycle in the sorted index
                    cycle = inj_cycles[inj_ptr]
                if inj_ptr < n_inj and cycle == inj_cycles[inj_ptr]:
                    inj_ptr += 1
                    for s, m in pending.pop(cycle):
                        queues[m.src].append((s, m))
                        in_network += 1
                        if ttl is not None:
                            inject_at[m.msg_id] = cycle
                        if rec is not None:
                            rec.on_inject(cycle, m)
                cycle += 1
                while fi < n_fev and fev[fi].cycle - fault_offset <= cycle:
                    ev = fev[fi]
                    fi += 1
                    newly_failed = self.apply_fault(ev)
                    stats.faults_applied.append(ev)
                    if rec is not None:
                        rec.on_fault(cycle, ev.action, ev.u, ev.v)
                    if newly_failed and planned:
                        reroute({frozenset(l) for l in newly_failed}, cycle)
                if integ is not None:
                    for m in integ.boundary(cycle):
                        # a retransmitted copy re-enters at the back of its
                        # source FIFO with a fresh sequence
                        queues[m.src].append((seq, m))
                        seq += 1
                moved_any = False
                arrivals: dict[Node, list[tuple[int, Message]]] = defaultdict(list)
                for node in list(queues):
                    q = queues[node]
                    if not q:
                        continue
                    if len(q) > max_queue:
                        max_queue = len(q)
                    sent_per_link: dict[Node, int] = defaultdict(int)
                    kept: deque[tuple[int, Message]] = deque()
                    if fast:
                        # the common configuration (deterministic router, no
                        # recorder, no faults) forwards with zero bookkeeping
                        # beyond the stats — branch-identical to the
                        # uninstrumented engine the overhead gates compare to
                        while q:
                            s, m = q.popleft()
                            hop = next_hop(node, m.dst)
                            if sent_per_link[hop] < link_capacity:
                                sent_per_link[hop] += 1
                                key = (node, hop)
                                link_traffic[key] = link_traffic.get(key, 0) + 1
                                arrivals[hop].append((s, m))
                            else:
                                kept.append((s, m))
                        queues[node] = kept
                        continue
                    while q:
                        s, m = q.popleft()
                        if ttl is not None and cycle - inject_at[m.msg_id] > ttl:
                            drop(m, node, "ttl", cycle)
                            continue
                        try:
                            if adaptive:
                                hop = router.next_hop(node, m.dst, m.msg_id)
                            else:
                                hop = next_hop(node, m.dst)
                        except UnreachableError:
                            if not fault_mode:
                                raise
                            if fi < n_fev or (integ is not None and integ.probing):
                                # a future event (or a quarantine probe
                                # heal) may reconnect it: wait
                                planned.pop(m.msg_id, None)
                                kept.append((s, m))
                                if rec is not None:
                                    rec.on_queued(cycle, m, node)
                            else:
                                drop(m, node, "partitioned", cycle)
                            continue
                        if sent_per_link[hop] >= link_capacity:
                            kept.append((s, m))
                            if fault_mode:
                                planned[m.msg_id] = (node, hop, m)
                            if rec is not None:
                                rec.on_queued(cycle, m, node)
                            continue
                        sent_per_link[hop] += 1
                        key = (node, hop)
                        link_traffic[key] = link_traffic.get(key, 0) + 1
                        if adaptive:
                            cycle_links[key] += 1
                        lost = integ is not None and integ.cross(m, node, hop)
                        moved_any = True
                        if planned:
                            planned.pop(m.msg_id, None)
                        if rec is not None:
                            rec.on_hop(cycle, m, node, hop)
                        if lost:
                            reject(m, hop, cycle)
                            continue
                        d = link_delays.get(frozenset(key), 0) if delayed else 0
                        if d:
                            # slow link: the message left the sender but
                            # arrives d cycles late (latency fault)
                            in_transit.setdefault(cycle + d, []).append((hop, (s, m)))
                        else:
                            arrivals[hop].append((s, m))
                    queues[node] = kept
                if delayed and in_transit:
                    # slow-link crossings finishing this cycle join the
                    # ordinary arrivals (delivered or re-queued below);
                    # landing counts as progress for the stall detector
                    landed = in_transit.pop(cycle, ())
                    if landed:
                        moved_any = True
                        for hop, sm in landed:
                            arrivals[hop].append(sm)
                for node, arrived in arrivals.items():
                    for s, m in arrived:
                        if m.dst != node:
                            queues[node].append((s, m))
                        elif integ is not None and not integ.verify(m, node, cycle):
                            reject(m, node, cycle)
                        else:
                            delivery_cycle[m.msg_id] = cycle
                            in_network -= 1
                            if rec is not None:
                                rec.on_delivered(cycle, m, node)
                # keep FIFO fairness stable: re-sort merged queues by sequence
                for node in arrivals:
                    if queues[node]:
                        queues[node] = deque(sorted(queues[node]))
                if integ is not None:
                    for link in integ.quarantine(cycle):
                        if planned:
                            reroute({link}, cycle)
                if rec is not None:
                    rec.on_cycle_end(cycle, queues, in_network)
                if adaptive:
                    router.end_cycle(cycle, cycle_links, queues)
                    cycle_links = Counter()
                if fault_mode and in_network and not moved_any:
                    # whole network stalled: every queued message is waiting
                    # on a future heal (or doomed).  Fast-forward to whatever
                    # can change the picture — the next injection, fault
                    # event, slow-link arrival, retransmission or probe heal
                    # — or, with none left, drop the stragglers as
                    # partitioned so the run terminates with a report.
                    targets = []
                    if inj_ptr < n_inj:
                        targets.append(inj_cycles[inj_ptr])
                    if fi < n_fev:
                        targets.append(fev[fi].cycle - fault_offset - 1)
                    if in_transit:
                        targets.append(min(in_transit) - 1)
                    change = integ.next_change() if integ is not None else None
                    if change is not None:
                        targets.append(change - 1)
                    if targets:
                        cycle = max(cycle, min(targets))
                    else:
                        for node in list(queues):
                            for s, m in queues[node]:
                                drop(m, node, "partitioned", cycle)
                            queues[node].clear()
        finally:
            self._delivering = False
        stats.max_queue = max_queue
        # the phase lasts until the final delivery, including a self-message
        # "delivered free" at a late scheduled cycle
        stats.cycles = max(cycle, last_self)
        return stats
