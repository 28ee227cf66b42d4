"""Runtime checkpoint files: one compact snapshot plus a journal of deltas.

A checkpoint file is a snapshot line followed by journal records::

    {"version":1,"cycle":0,...,"jobs":[...]}
    67 eac454fb [["set",["cycle"],38],["extend",["jobs",0,"per_step_cycles"],[38]]]
    ...

* The first line is the compact :meth:`~repro.runtime.Runtime.checkpoint`
  dict, so a file with no journal is plain JSON.  Older checkpoints (one
  indented JSON document) read the same way.
* Each later line is one record, ``<len> <crc32-hex> <delta>``: the byte
  length and CRC-32 of the delta, then the delta itself — the generic
  diff of the previous and the current ``checkpoint()`` dicts, a JSON
  list of ops:

  - ``["set", path, value]`` sets (or adds) the value at ``path``;
  - ``["extend", path, items]`` appends ``items`` to the list at
    ``path`` (the old list was a prefix of the new one);
  - ``["del", path]`` removes a key that disappeared.

  ``path`` is the list of dict keys and list indices from the root.
* A record is committed by its newline.  Reading stops at the first
  record whose length or CRC does not match, or that has no newline, so a
  torn tail is dropped, never misread.

:class:`CheckpointWriter` writes a fresh snapshot (tmp + rename) on its
first write, when the file is no longer the one it last left (another
writer replaced or appended to it), and when the journal has grown past
the snapshot's own size; otherwise it appends one record.  It keeps only
the previous dict.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from .._util import atomic_write_text
from ..obs import counter_inc

__all__ = ["CheckpointWriter", "read_checkpoint"]

_COMPACT = (",", ":")
_decoder = json.JSONDecoder()


def _diff(old, new, path: list, ops: list) -> None:
    """Append to ``ops`` what turns ``old`` into ``new``.

    Each value is compared once: dicts recurse key by key, a list of
    records (the jobs) recurses element by element, and any other list is
    either extended (its old value is a prefix of the new one) or set.
    """
    if type(old) is dict and type(new) is dict:
        for key, value in new.items():
            if key not in old:
                ops.append(["set", path + [key], value])
            elif old[key] is not value:
                _diff(old[key], value, path + [key], ops)
        ops.extend(["del", path + [key]] for key in old if key not in new)
    elif type(old) is list and type(new) is list and len(new) >= len(old):
        n = len(old)
        if n and type(old[0]) is dict:
            for i in range(n):
                _diff(old[i], new[i], path + [i], ops)
        elif new[:n] != old:
            ops.append(["set", path, new])
            return
        if len(new) > n:
            ops.append(["extend", path, new[n:]])
    elif old != new:
        ops.append(["set", path, new])


def _apply(state: dict, ops: list) -> None:
    """Replay one record's ops onto ``state`` in place."""
    for op in ops:
        kind, path = op[0], op[1]
        target = state
        for key in path[:-1]:
            target = target[key]
        if kind == "set":
            target[path[-1]] = op[2]
        elif kind == "extend":
            target[path[-1]].extend(op[2])
        elif kind == "del":
            del target[path[-1]]
        else:
            raise ValueError(f"unknown journal op {kind!r}")


def _frame(delta: str) -> bytes:
    body = delta.encode()
    return b"%d %08x %s\n" % (len(body), zlib.crc32(body), body)


def _unframe(line: str):
    """The ops one journal line carries, or ``None`` if its frame is bad."""
    length, _, rest = line.partition(" ")
    crc, _, body = rest.partition(" ")
    raw = body.encode("utf-8", "surrogateescape")
    if not length.isdigit() or int(length) != len(raw) or crc != f"{zlib.crc32(raw):08x}":
        return None
    return json.loads(body)


def read_checkpoint(path: str | Path) -> dict:
    """The state a checkpoint file encodes: its snapshot with every intact
    journal record applied in order.

    Raises :class:`ValueError` when the snapshot is not a JSON object or a
    framed record does not apply.
    """
    # surrogateescape: a flipped byte fails its record's CRC, not the read
    text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
    start = len(text) - len(text.lstrip())
    state, end = _decoder.raw_decode(text, start)
    if type(state) is not dict:
        raise ValueError("checkpoint snapshot is not a JSON object")
    lines = text[end:].split("\n")
    if lines[0].strip():
        raise ValueError("unexpected data after the checkpoint snapshot")
    # lines[-1] is the part after the last newline: uncommitted
    for i, line in enumerate(lines[1:-1], 1):
        ops = _unframe(line)
        if ops is None:
            break
        try:
            _apply(state, ops)
        except (LookupError, TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint journal record {i} does not apply: {exc}") from exc
    return state


def _file_id(path: Path):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


class CheckpointWriter:
    """Writes one runtime's successive checkpoint dicts to a file."""

    def __init__(self) -> None:
        self._prev: dict | None = None
        #: (path, stat identity) of the file as this writer last left it
        self._left = None
        self._snapshot_bytes = 0
        self._journal_bytes = 0

    def write(self, path: str | Path, state: dict) -> None:
        path = Path(path)
        if (
            self._prev is None
            or self._journal_bytes > self._snapshot_bytes
            or self._left != (path, _file_id(path))
        ):
            text = json.dumps(state, separators=_COMPACT) + "\n"
            atomic_write_text(path, text)
            self._snapshot_bytes, self._journal_bytes = len(text), 0
            counter_inc("runtime.checkpoint.snapshots")
            counter_inc("runtime.checkpoint.bytes_written", len(text))
        else:
            ops: list = []
            _diff(self._prev, state, [], ops)
            if ops:
                record = _frame(json.dumps(ops, separators=_COMPACT))
                with open(path, "ab") as fh:
                    fh.write(record)
                self._journal_bytes += len(record)
                counter_inc("runtime.checkpoint.journal_records")
                counter_inc("runtime.checkpoint.bytes_written", len(record))
        self._prev = state
        self._left = (path, _file_id(path))
