"""The byzantine integrity protocol: corrupting and flaky links.

A *byzantine* link stays up and routable but misbehaves per crossing: a
corrupting link (``corrupt_link``) flips a seeded pattern into the
message's payload word, a flaky link (``flaky_link``) drops the crossing
in transit.  Neither is visible to routing; both surface only through an
end-to-end protocol run by the classic delivery loop:

* **stamp** — every routed message carries a 64-bit payload word and a
  CRC-32 checksum computed at its source;
* **cross** — each crossing of a byzantine link draws stateless seeded
  coins and updates the link's corruption EWMA;
* **verify** — the destination recomputes the checksum; a mismatch is
  never delivered (``DeliveryStats.n_corrupted``);
* **retransmit** — a caught corruption or an in-transit drop is NACKed and
  resent from source after exponential backoff (1, 2, 4, ... capped at
  :data:`RETRANSMIT_BACKOFF_CAP` cycles), failing with reason
  ``"integrity"`` after :data:`INTEGRITY_MAX_RETRIES` attempts;
* **quarantine** — a link whose EWMA reaches :data:`QUARANTINE_THRESHOLD`
  leaves the route set at the cycle end (the same incremental invalidation
  as a link failure) and is probed back in :data:`QUARANTINE_PROBE_AFTER`
  cycles later, keeping its byzantine rates: if it still corrupts, the
  EWMA climbs and it re-quarantines.

:class:`Integrity` owns all of it: the per-link rates, quarantine and EWMA
that outlive a delivery (and ride along in runtime checkpoints), and the
per-delivery protocol state.  A network creates one only when byzantine
link state or events exist (:meth:`Integrity.of`), so byzantine-free
deliveries never run a line of this module and stay bit-identical to the
engine without the protocol.
"""

from __future__ import annotations

import struct
import zlib
from hashlib import blake2b
from typing import TYPE_CHECKING, Any

from .._util import node_from_json, node_to_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import DeliveryStats, Message, SynchronousNetwork

__all__ = [
    "Integrity",
    "INTEGRITY_MAX_RETRIES",
    "RETRANSMIT_BACKOFF_CAP",
    "QUARANTINE_EWMA_DECAY",
    "QUARANTINE_THRESHOLD",
    "QUARANTINE_PROBE_AFTER",
]

#: how many times a message may be retransmitted before it fails with
#: reason ``"integrity"``
INTEGRITY_MAX_RETRIES = 6
#: cap on the exponential retransmit backoff, in cycles (1, 2, 4, ... cap)
RETRANSMIT_BACKOFF_CAP = 32
#: per-crossing decay of a link's corruption EWMA (bad crossings add
#: ``1 - decay``): three consecutive bad crossings from a clean history
#: push the EWMA over the quarantine threshold
QUARANTINE_EWMA_DECAY = 0.75
QUARANTINE_THRESHOLD = 0.5
#: cycles a quarantined link sits out before its probe heal readmits it
QUARANTINE_PROBE_AFTER = 24

_TWO64 = float(1 << 64)


def _payload_word(m: "Message") -> int:
    """The 64-bit payload word a message carries end-to-end: a digest of
    its identity, standing in for the application data a real transport
    would checksum."""
    data = repr((m.msg_id, m.src, m.dst, m.payload)).encode(
        "utf-8", "backslashreplace"
    )
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def _checksum(word: int) -> int:
    """End-to-end checksum over the payload word.

    CRC-32 on purpose: small enough that silent collisions are *possible*,
    which is exactly what the ``n_silent_corruptions`` ground-truth counter
    exists to measure (benchmarks gate it at zero on the seeded corpus).
    """
    return zlib.crc32(word.to_bytes(8, "big"))


def _byz_coin(seed: int, tag: int, a: int, b: int, msg_id: int, crossing: int) -> int:
    """Stateless 64-bit coin for byzantine outcomes.

    Keyed on (event seed, action tag, canonical link endpoint indices,
    message id, per-message crossing counter): deterministic under one
    seed, independent of forwarding order, and free of RNG state that
    would otherwise have to ride along in checkpoints.
    """
    data = struct.pack(">qqqqqq", seed, tag, a, b, msg_id, crossing)
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class Integrity:
    """Byzantine link state of one network plus its integrity protocol."""

    def __init__(self, network: "SynchronousNetwork"):
        self.network = network
        self._index = network.topology.index
        #: link -> (per-crossing corruption rate, seed)
        self.corruption: dict[frozenset, tuple[float, int]] = {}
        #: link -> (per-crossing drop rate, seed)
        self.flaky: dict[frozenset, tuple[float, int]] = {}
        #: quarantined link -> the absolute (``fault_offset``-inclusive)
        #: cycle its probe heal readmits it
        self.quarantined: dict[frozenset, int] = {}
        #: per-link corruption EWMA driving quarantine decisions
        self.ewma: dict[frozenset, float] = {}
        self.begin(None, None, 0)

    @classmethod
    def of(cls, network: "SynchronousNetwork") -> "Integrity":
        """The network's integrity object, created on first use."""
        if network.integrity is None:
            network.integrity = cls(network)
        return network.integrity

    @property
    def active(self) -> bool:
        """True while any link corrupts, drops or sits in quarantine."""
        return bool(self.corruption or self.flaky or self.quarantined)

    # ------------------------------------------------------------------
    # Link state
    # ------------------------------------------------------------------
    def set_rate(self, action: str, link: frozenset, rate: float, seed: int) -> None:
        """Apply a ``corrupt_link`` / ``flaky_link`` rate; 0 clears it."""
        rates, other = (
            (self.corruption, self.flaky)
            if action == "corrupt_link"
            else (self.flaky, self.corruption)
        )
        if rate == 0.0:
            rates.pop(link, None)
            if link not in other:
                self.ewma.pop(link, None)
        else:
            rates[link] = (rate, seed)

    def clear(self, link: frozenset) -> None:
        """A heal restores full function: every byzantine trace goes."""
        for state in (self.corruption, self.flaky, self.quarantined, self.ewma):
            state.pop(link, None)

    def cancel_probe(self, link: frozenset) -> None:
        """An explicit failure outranks a quarantine: drop its probe heal."""
        self.quarantined.pop(link, None)

    def blockers(self) -> list[str]:
        """Why the vectorised kernel cannot run while this state is live."""
        return [
            reason
            for state, reason in (
                (self.corruption, "links are corrupting"),
                (self.flaky, "links are flaky"),
                (self.quarantined, "links are quarantined"),
            )
            if state
        ]

    def state(self) -> dict | None:
        """JSON-safe snapshot of the quarantine/EWMA state, or ``None``.

        Corruption and flaky rates are *not* captured: they replay exactly
        from the applied fault events.  Quarantine membership (with each
        link's absolute probe-heal cycle) and the corruption EWMA are the
        two pieces the events cannot reconstruct.  Retransmission backoff
        never spans a checkpoint: deliveries are atomic between supersteps.
        """
        if not self.quarantined and not self.ewma:
            return None
        index = self._index

        def links(d):
            rows = sorted(
                ((sorted(l, key=index), v) for l, v in d.items()),
                key=lambda kv: (index(kv[0][0]), index(kv[0][1])),
            )
            return [[node_to_json(u), node_to_json(v), val] for (u, v), val in rows]

        return {"quarantined": links(self.quarantined), "ewma": links(self.ewma)}

    def load_state(self, state: dict) -> None:
        """Overlay a :meth:`state` snapshot onto replayed link state."""
        for u, v, probe in state.get("quarantined", ()):
            u, v = node_from_json(u), node_from_json(v)
            # re-fail first (which cancels any stale probe), then set it
            self.network.fail_link(u, v)
            self.quarantined[frozenset((u, v))] = probe
        for u, v, ewma in state.get("ewma", ()):
            self.ewma[frozenset((node_from_json(u), node_from_json(v)))] = ewma

    # ------------------------------------------------------------------
    # The per-delivery protocol
    # ------------------------------------------------------------------
    def begin(self, stats: "DeliveryStats | None", rec, fault_offset: int) -> None:
        """Reset the per-delivery state for a delivery reporting to ``stats``."""
        self.stats = stats
        self.rec = rec
        self.offset = fault_offset
        #: the payload word each routed message currently carries, its
        #: pristine value (simulator ground truth) and the source checksum
        self._word: dict[int, int] = {}
        self._orig: dict[int, int] = {}
        self._sum: dict[int, int] = {}
        #: retransmission attempts and the byzantine-crossing counter that
        #: salts the coins, per message
        self._attempts: dict[int, int] = {}
        self._crossings: dict[int, int] = {}
        #: backoff pool: retransmissions keyed by their re-entry cycle
        self._retrans: dict[int, list[Message]] = {}
        self._to_quarantine: list[frozenset] = []

    def stamp(self, m: "Message") -> None:
        """Inject the payload word and its checksum at the source."""
        w = _payload_word(m)
        self._word[m.msg_id] = self._orig[m.msg_id] = w
        self._sum[m.msg_id] = _checksum(w)

    def forget(self, msg_id: int) -> None:
        """Drop a message's protocol state (delivered or failed)."""
        for state in (self._word, self._orig, self._sum, self._attempts, self._crossings):
            state.pop(msg_id, None)

    @property
    def probing(self) -> bool:
        """True while a probe heal may still reconnect a partition."""
        return bool(self.quarantined)

    def boundary(self, cycle: int) -> list["Message"]:
        """Run the probe heals due entering ``cycle``; return the
        retransmissions whose backoff ends here, in re-entry order."""
        quarantined = self.quarantined
        offset = self.offset
        if quarantined and min(quarantined.values()) - offset <= cycle:
            index = self._index
            due = sorted(
                (l for l, c in quarantined.items() if c - offset <= cycle),
                key=lambda l: sorted(map(index, l)),
            )
            for link in due:
                # routability only: the link keeps its byzantine rates
                del quarantined[link]
                u, v = sorted(link, key=index)
                self.network._bring_up(u, v)
                if self.rec is not None:
                    self.rec.on_quarantine(cycle, u, v, "probe_heal")
        retrans = self._retrans
        if not retrans or min(retrans) > cycle:
            return []
        return [m for t in sorted(k for k in retrans if k <= cycle) for m in retrans.pop(t)]

    def cross(self, m: "Message", u: Any, v: Any) -> bool:
        """One crossing ``u -> v``: draw the link's coins and update its
        EWMA.  Returns True when a flaky link lost the message in transit."""
        link = frozenset((u, v))
        fl = self.flaky.get(link)
        co = self.corruption.get(link)
        if fl is None and co is None:
            return False
        mid = m.msg_id
        k = self._crossings.get(mid, 0) + 1
        self._crossings[mid] = k
        a = self._index(u)
        b = self._index(v)
        if a > b:
            a, b = b, a
        lost = bad = False
        if fl is not None and _byz_coin(fl[1], 1, a, b, mid, k) < fl[0] * _TWO64:
            # lost in transit: an abstracted NACK timeout drives the same
            # retransmit path as a detected corruption
            lost = bad = True
        elif co is not None and _byz_coin(co[1], 2, a, b, mid, k) < co[0] * _TWO64:
            # XOR a nonzero seeded pattern into the word
            self._word[mid] ^= _byz_coin(co[1], 3, a, b, mid, k) or 1
            bad = True
        ew = QUARANTINE_EWMA_DECAY * self.ewma.get(link, 0.0)
        if bad:
            ew += 1.0 - QUARANTINE_EWMA_DECAY
        self.ewma[link] = ew
        if ew >= QUARANTINE_THRESHOLD and link not in self._to_quarantine:
            self._to_quarantine.append(link)
        return lost

    def verify(self, m: "Message", node: Any, cycle: int) -> bool:
        """The destination's checksum test: True when ``m`` may be delivered."""
        mid = m.msg_id
        w = self._word.get(mid)
        if w is None:
            return True
        if _checksum(w) != self._sum[mid]:
            # NACK: never deliver wrong data
            self.stats.n_corrupted += 1
            if self.rec is not None:
                self.rec.on_corrupt(cycle, m, node)
            return False
        if w != self._orig[mid]:
            # corrupted AND the checksum collided: wrong data delivered
            # silently — the ground-truth counter benchmarks gate at zero
            self.stats.n_silent_corruptions += 1
        self.forget(mid)
        return True

    def retransmit(self, m: "Message", cycle: int) -> bool:
        """Schedule a pristine resend from source after backoff; False once
        retries are exhausted (the caller fails ``m`` with ``"integrity"``)."""
        mid = m.msg_id
        attempt = self._attempts.get(mid, 0) + 1
        if attempt > INTEGRITY_MAX_RETRIES:
            return False
        self._attempts[mid] = attempt
        self.stats.n_retransmits += 1
        self._word[mid] = self._orig[mid]
        back = min(1 << (attempt - 1), RETRANSMIT_BACKOFF_CAP)
        self._retrans.setdefault(cycle + back, []).append(m)
        if self.rec is not None:
            self.rec.on_retransmit(cycle, m, attempt)
        return True

    def quarantine(self, cycle: int):
        """Take the links whose EWMA crossed the threshold this cycle out
        of the route set; yield each one as it goes down."""
        net = self.network
        index = self._index
        for link in self._to_quarantine:
            u, v = sorted(link, key=index)
            if not net._take_down(u, v):
                continue
            self.quarantined[link] = cycle + self.offset + QUARANTINE_PROBE_AFTER
            self.ewma.pop(link, None)
            self.stats.n_quarantined += 1
            if self.rec is not None:
                self.rec.on_quarantine(cycle, u, v, "quarantined")
            yield link
        self._to_quarantine.clear()

    def next_change(self) -> int | None:
        """The earliest delivery-relative cycle at which a retransmission
        re-enters or a probe heal fires (``None`` when neither is pending)."""
        due = [min(self._retrans)] if self._retrans else []
        if self.quarantined:
            due.append(min(self.quarantined.values()) - self.offset)
        return min(due, default=None)
