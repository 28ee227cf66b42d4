"""Trace recorders for the synchronous network engine.

The engine (:meth:`repro.simulate.engine.SynchronousNetwork.deliver_scheduled`),
the integrity protocol (:mod:`repro.simulate.integrity`) and the runtime
(:class:`repro.runtime.Runtime`) emit two kinds of signals through a
:class:`Recorder`:

* **events**, each one call ``event(cycle, kind, msg_id, node, link_dst,
  detail)``.  The kinds and the fields they fill (``msg_id`` is ``-1``
  for network- and runtime-level events):

  ==================  =======  ===========  ===========  ================================
  kind                msg_id   node         link_dst     detail
  ==================  =======  ===========  ===========  ================================
  ``inject``          message  source       --           --
  ``hop``             message  link source  link target  --
  ``queued``          message  node         --           --
  ``delivered``       message  destination  --           --
  ``fault``           -1       u            v or None    ``fail_link`` / ``heal_link`` /
                                                         ``fail_node`` / ``heal_node``
  ``reroute``         message  node         --           --
  ``dropped``         message  node         --           ``ttl`` / ``partitioned`` /
                                                         ``integrity``
  ``corrupt``         message  destination  --           --
  ``retransmit``      message  source       --           ``attempt=N``
  ``quarantine``      -1       u            v            ``quarantined`` / ``probe_heal``
  ``repair``          -1       job name     --           ``moved=N``
  ``migrate``         -1       job name     --           ``messages=N``
  ``batch_fallback``  -1       --           --           ``<reason>;... n_active=N``
  ==================  =======  ===========  ===========  ================================

  ``inject`` — the message enters its source's output queue; ``hop`` —
  it crosses a directed link; ``queued`` — link capacity (or a partition
  a future event may heal) made it wait a cycle; ``delivered`` — it
  reached its destination.  Fault-tolerant deliveries add ``fault`` (a
  schedule event was applied), ``reroute`` (a queued message's planned
  next hop died under it) and ``dropped`` (the message will never be
  delivered).  Byzantine deliveries add ``corrupt`` (a checksum mismatch
  was caught at the destination), ``retransmit`` (the integrity protocol
  re-sent a message from source) and ``quarantine`` (a link left or
  re-entered the route set).  The runtime adds ``repair`` (a job's
  embedding was remapped off dead nodes), ``migrate`` (its stranded
  messages are re-sent to their repaired images) and ``batch_fallback``
  (a batch round degraded to per-job stepping);
* **per-cycle samples** — queue occupancy per node, utilisation per
  directed link, and the number of in-flight messages, captured at the end
  of every active cycle.

The default :class:`NullRecorder` keeps ``enabled = False``; the engine
hoists that flag into a single local ``None`` check, so an uninstrumented
delivery pays one predicate per event site and nothing else (the overhead
is measured by ``benchmarks/bench_obs.py`` and gated at < 5%).

:class:`TraceRecorder` has two capture modes:

* **in-memory** (default): everything accumulates in ``events`` /
  ``cycles`` and :meth:`TraceRecorder.to_jsonl` exports the trace
  afterwards (header first);
* **streaming** (``TraceRecorder(path=..., flush_every=N)``): records are
  appended to the JSONL file as they happen, in capture order, buffered
  ``flush_every`` records at a time — memory stays bounded no matter how
  many messages the run traces (the ROADMAP's 10^6+-message case).  The
  header line (with the final summary) is written at :meth:`close`, so it
  is the *last* line of a streamed file; :func:`repro.analysis.trace_report.load_trace`
  accepts the header anywhere.  Aggregates (:meth:`summary`,
  :meth:`link_utilisation_totals`, peaks) are maintained incrementally and
  work identically in both modes; only the raw-list accessors
  (:meth:`message_events`, :meth:`delivery_cycles`) need the in-memory
  lists and raise in streaming mode.

Invariants the test suite pins (``tests/test_obs.py``):

* summing per-cycle ``link_utilisation`` over all samples reproduces
  :attr:`DeliveryStats.link_traffic` exactly;
* each message's event chain is ``inject -> (hop | queued)* -> delivered``
  with contiguous hops, and the ``delivered`` cycle equals
  ``DeliveryStats.delivery_cycle``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TextIO

__all__ = [
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "TraceEvent",
    "CycleSample",
]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One event of one message, of the network, or of the runtime.

    ``kind`` and the fields it fills are tabled in the module docstring.
    ``node`` is the location (for ``hop`` the link *source*; ``link_dst``
    then holds the other endpoint; for ``fault`` / ``quarantine`` the pair
    names the affected link or node; for ``repair`` / ``migrate`` it holds
    the job name).  Network- and runtime-level events use ``msg_id = -1``.
    ``phase`` indexes into the recorder's ``phases`` list (supersteps,
    when driven through ``simulate_on_host``).  Slotted: a traced run
    builds one per event, and a frozen class without slots takes about
    a third longer to construct.
    """

    cycle: int
    kind: str
    msg_id: int
    node: Any = None
    link_dst: Any = None
    phase: int = 0
    detail: str | None = None

    def as_dict(self) -> dict:
        d = {"type": "event", "cycle": self.cycle, "kind": self.kind,
             "msg_id": self.msg_id, "phase": self.phase}
        if self.node is not None:
            d["node"] = repr(self.node)
        if self.link_dst is not None:
            d["link_dst"] = repr(self.link_dst)
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@dataclass
class CycleSample:
    """End-of-cycle snapshot of the network state."""

    cycle: int
    phase: int
    #: messages waiting in each node's output queue (empty queues omitted)
    queue_occupancy: dict[Any, int] = field(default_factory=dict)
    #: messages that crossed each directed link *this cycle*
    link_utilisation: dict[tuple[Any, Any], int] = field(default_factory=dict)
    #: messages injected but not yet delivered, after this cycle
    in_flight: int = 0

    @property
    def max_queue(self) -> int:
        return max(self.queue_occupancy.values(), default=0)

    @property
    def messages_moved(self) -> int:
        return sum(self.link_utilisation.values())

    def as_dict(self) -> dict:
        return {
            "type": "cycle",
            "cycle": self.cycle,
            "phase": self.phase,
            "queue_occupancy": {repr(k): v for k, v in self.queue_occupancy.items()},
            "link_utilisation": {f"{u!r}->{v!r}": c for (u, v), c in self.link_utilisation.items()},
            "in_flight": self.in_flight,
        }


class Recorder:
    """The hook protocol the engine and the runtime drive (no-ops here).

    Subclasses set ``enabled = True`` to receive callbacks; every call
    site skips the call when the flag is false, so the protocol costs
    nothing unless someone is listening.
    """

    enabled: bool = False

    def begin_phase(self, label: str) -> None:
        """A new logical phase starts (e.g. one BSP superstep)."""

    def event(self, cycle: int, kind: str, msg_id: int = -1, node=None,
              link_dst=None, detail: str | None = None) -> None:
        """One event of ``kind`` at ``cycle``; the module docstring tables
        the kinds and which of ``msg_id`` / ``node`` / ``link_dst`` /
        ``detail`` each fills."""

    def on_cycle_end(self, cycle: int, queues, in_flight: int) -> None:
        """One active cycle finished; ``queues`` maps node -> deque."""


class NullRecorder(Recorder):
    """The do-nothing default: ``enabled`` stays false."""


#: summary keys past the always-present ones, as groups of
#: ``(summary key, counts key)``; a group is reported only when one of its
#: counts is non-zero, so fault-free traces keep their short header
_OPTIONAL_SUMMARY = (
    (("fault_events", "fault"), ("reroutes", "reroute"), ("messages_dropped", "dropped")),
    (("corrupt_arrivals", "corrupt"), ("retransmits", "retransmit"),
     ("quarantine_events", "quarantine")),
    (("repairs", "repair"), ("messages_migrated", "migrated_messages")),
    (("batch_fallbacks", "batch_fallback"),),
)


class TraceRecorder(Recorder):
    """Capture of events and per-cycle samples, in memory or streamed.

    With no arguments, ``events`` and ``cycles`` accumulate across every
    delivery driven with this recorder; :meth:`begin_phase` partitions them
    (BSP supersteps restart their cycle counters, so ``(phase, cycle)`` is
    the unique key).

    With ``path=...`` the recorder *streams*: records append to the JSONL
    file in capture order (buffered ``flush_every`` at a time), the
    in-memory lists stay empty, and :meth:`close` flushes the tail and
    writes the summary header as the file's last line.  Use it as a
    context manager for the close.
    """

    enabled = True

    def __init__(self, path: str | Path | None = None, flush_every: int = 1000) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.events: list[TraceEvent] = []
        self.cycles: list[CycleSample] = []
        self.phases: list[str] = []
        #: events per kind, plus ``"migrated_messages"`` (one ``migrate``
        #: event re-sends a batch of messages); :meth:`summary` reads it
        self.counts: Counter = Counter()
        self._phase = 0
        self._cycle_links: Counter = Counter()
        # incremental aggregates: identical in both modes, so summaries
        # never need the raw lists
        self._n_events = 0
        self._active_cycles = 0
        self._moved = 0
        self._peak_in_flight = 0
        self._peak_queue = 0
        self._link_totals: Counter = Counter()
        # streaming state
        self.path = Path(path) if path is not None else None
        self.flush_every = flush_every
        self._buf: list[str] = []
        self._fh: TextIO | None = None
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")

    @property
    def streaming(self) -> bool:
        """True when this recorder writes to disk instead of memory."""
        return self.path is not None

    # -- engine hooks --------------------------------------------------
    def begin_phase(self, label: str) -> None:
        # Traffic recorded before any begin_phase (direct ``deliver`` use,
        # not via ``simulate_on_host``) sits at the implicit phase 0; the
        # first explicit phase must not collide with it, so materialise an
        # "(unphased)" entry to keep those indices labelled correctly.
        if not self.phases and (self._n_events or self._active_cycles):
            self.phases.append("(unphased)")
        self.phases.append(label)
        self._phase = len(self.phases) - 1

    def event(self, cycle: int, kind: str, msg_id: int = -1, node=None,
              link_dst=None, detail: str | None = None) -> None:
        self.counts[kind] += 1
        if kind == "hop":
            self._cycle_links[(node, link_dst)] += 1
        elif kind == "migrate":
            self.counts["migrated_messages"] += int(detail.partition("=")[2])
        self._n_events += 1
        self._capture(TraceEvent(cycle, kind, msg_id, node, link_dst, self._phase, detail),
                      self.events)

    def on_cycle_end(self, cycle: int, queues, in_flight: int) -> None:
        sample = CycleSample(
            cycle=cycle,
            phase=self._phase,
            queue_occupancy={n: len(q) for n, q in queues.items() if q},
            link_utilisation=dict(self._cycle_links),
            in_flight=in_flight,
        )
        self._cycle_links.clear()
        self._active_cycles += 1
        self._moved += sample.messages_moved
        self._peak_in_flight = max(self._peak_in_flight, sample.in_flight)
        self._peak_queue = max(self._peak_queue, sample.max_queue)
        self._link_totals.update(sample.link_utilisation)
        self._capture(sample, self.cycles)

    # -- streaming lifecycle -------------------------------------------
    def _capture(self, record: TraceEvent | CycleSample, kept: list) -> None:
        # in memory: append to ``kept``; streaming: buffer the JSONL line
        if self._fh is None:
            kept.append(record)
            return
        self._buf.append(json.dumps(record.as_dict()))
        if len(self._buf) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered records to the stream (no-op in-memory)."""
        if self._fh is not None and self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()

    def close(self) -> None:
        """Flush the stream and append the summary header line.

        Idempotent; only meaningful in streaming mode.  The header is the
        *last* line of a streamed trace (the summary is only known at the
        end) — ``load_trace`` accepts it at any position.
        """
        if self._fh is None:
            return
        self.flush()
        header = {"type": "header", "phases": self.phases, **self.summary()}
        self._fh.write(json.dumps(header) + "\n")
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- aggregations --------------------------------------------------
    def link_utilisation_totals(self) -> dict[tuple[Any, Any], int]:
        """Per-link totals over all sampled cycles.

        Equals ``DeliveryStats.link_traffic`` of the recorded deliveries
        (summed, when the recorder spanned several) — the identity the
        acceptance criteria gate on.  Maintained incrementally, so it works
        in streaming mode too.
        """
        return dict(self._link_totals)

    def _require_in_memory(self, what: str):
        if self.streaming:
            raise RuntimeError(
                f"{what} needs the in-memory event list, but this recorder "
                f"streams to {self.path}; load the file with "
                "repro.analysis.trace_report.load_trace instead"
            )

    def message_events(self, msg_id: int) -> list[TraceEvent]:
        """The lifecycle chain of one message, in emission order."""
        self._require_in_memory("message_events")
        return [e for e in self.events if e.msg_id == msg_id]

    def delivery_cycles(self) -> dict[int, int]:
        """``msg_id -> cycle`` reconstructed from the ``delivered`` events."""
        self._require_in_memory("delivery_cycles")
        return {e.msg_id: e.cycle for e in self.events if e.kind == "delivered"}

    @property
    def in_flight_peak(self) -> int:
        return self._peak_in_flight

    @property
    def max_queue(self) -> int:
        return self._peak_queue

    def summary(self) -> dict:
        """Headline numbers for the text renderer and the CLI."""
        counts, totals = self.counts, self._link_totals
        busiest = max(totals.items(), key=lambda kv: kv[1], default=(None, 0))
        active = self._active_cycles
        out = {
            "events": self._n_events,
            "active_cycles": active,
            "n_phases": len(self.phases),
            "messages_injected": counts["inject"],
            "messages_delivered": counts["delivered"],
            "links_used": len(totals),
            "busiest_link": None if busiest[0] is None else f"{busiest[0][0]!r}->{busiest[0][1]!r}",
            "busiest_link_traffic": busiest[1],
            "peak_in_flight": self._peak_in_flight,
            "peak_queue": self._peak_queue,
            "mean_moves_per_cycle": round(self._moved / active, 3) if active else 0.0,
        }
        for group in _OPTIONAL_SUMMARY:
            if any(counts[key] for _, key in group):
                out.update((name, counts[key]) for name, key in group)
        return out

    # -- export --------------------------------------------------------
    def to_jsonl(self, path_or_file) -> None:
        """Write the full trace as JSONL: a header line, then every
        per-cycle sample and event in capture order.

        In-memory mode only — a streaming recorder already wrote its file
        incrementally (call :meth:`close` and read that instead).
        """
        self._require_in_memory("to_jsonl")
        close = False
        if hasattr(path_or_file, "write"):
            fh: TextIO = path_or_file
        else:
            fh = open(path_or_file, "w", encoding="utf-8")
            close = True
        try:
            header = {"type": "header", "phases": self.phases, **self.summary()}
            fh.write(json.dumps(header) + "\n")
            for sample in self.cycles:
                fh.write(json.dumps(sample.as_dict()) + "\n")
            for event in self.events:
                fh.write(json.dumps(event.as_dict()) + "\n")
        finally:
            if close:
                fh.close()
