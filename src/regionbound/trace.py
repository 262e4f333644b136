"""Run traces: compact in-memory records plus a line-delimited file format.

A trace is the full account of one simulation run: one row per step (who
acted, which action, the step's random draws) plus a stream of event tuples
(counter writes, cell creation/removal, message lifecycle, clock movement,
faults) and occasional full-state snapshots. Event payloads hold both the
stored residue and the lifted integer so checkers never have to re-derive
either.

The file form is JSON-lines: one record per line, stable field names,
integers in decimal. Field order within a line is fixed by construction
(dicts are built in a fixed order), so identical runs serialize identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, IO, Iterator

from .errors import TraceFormatError

# event kinds (tuple[1] of every event record)
EV_CLOCK = "clock"      # (step, kind, t, g_region, locals, regions)
EV_RC = "rc"            # (step, kind, pid, new_region, changes)
                        #   changes: tuple of (slot, coll, key, old_res, new_res, lifted, corrected)
                        #   slot is "free" or "dep"; key is the cell name or cell id
EV_FAULT = "fault"      # (step, kind, fault_kind, pid, target, detail, applied)
EV_ARRIVE = "arrive"    # (step, kind, mid)
EV_DROP = "drop"        # (step, kind, mid, reason)
EV_SEND = "send"        # (step, kind, mid, src, dst, msg_kind, cells, vars,
                        #   send_region_local, send_region_global, arrival_step, drop_step)
                        #   cells: {field: residue}, keys sorted
EV_CONSUME = "consume"  # (step, kind, mid, pid)
EV_WFREE = "wfree"      # (step, kind, pid, name, residue, lifted, corrected)
EV_DCREATE = "dcreate"  # (step, kind, pid, coll, cid, residue, lifted,
                        #   created_local, created_global, tag, corrected)
EV_DREMOVE = "dremove"  # (step, kind, pid, coll, cid, reason)
EV_VAR = "var"          # (step, kind, pid, name, value)
EV_SPEND = "spend"      # (step, kind, family, amount)
EV_MARK = "mark"        # (step, kind, mark_kind, pid, data)

_EVENT_FIELDS = {
    EV_CLOCK: ("t", "g_region", "locals", "regions"),
    EV_RC: ("pid", "new_region", "changes"),
    EV_FAULT: ("fault_kind", "pid", "target", "detail", "applied"),
    EV_ARRIVE: ("mid",),
    EV_DROP: ("mid", "reason"),
    EV_SEND: ("mid", "src", "dst", "msg_kind", "cells", "vars",
              "send_region_local", "send_region_global", "arrival_step", "drop_step"),
    EV_CONSUME: ("mid", "pid"),
    EV_WFREE: ("pid", "name", "residue", "lifted", "corrected"),
    EV_DCREATE: ("pid", "coll", "cid", "residue", "lifted",
                 "created_local", "created_global", "tag", "corrected"),
    EV_DREMOVE: ("pid", "coll", "cid", "reason"),
    EV_VAR: ("pid", "name", "value"),
    EV_SPEND: ("family", "amount"),
    EV_MARK: ("mark_kind", "pid", "data"),
}

SELF_LOOP = -1

_NUMBER = (int, float)


@dataclass
class Trace:
    meta: dict[str, Any]
    rows: list[tuple] = field(default_factory=list)
    # rows[i] = (step, acting_pid, action_idx, action_name, d, u1, u2)
    events: list[tuple] = field(default_factory=list)
    snapshots: dict[int, dict] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)

    def steps(self) -> int:
        return len(self.rows)

    def iter_events(self, kind: str) -> Iterator[tuple]:
        for ev in self.events:
            if ev[1] == kind:
                yield ev

    def has_faults(self) -> bool:
        return any(True for _ in self.iter_events(EV_FAULT))

    # --- serialization ---

    def write_jsonl(self, fp: IO[str]) -> None:
        fp.write(_line("meta", self.meta))
        for row in self.rows:
            fp.write(_line("row", {
                "step": row[0], "acting": row[1], "action_idx": row[2],
                "action": row[3], "d": row[4], "u1": row[5], "u2": row[6],
            }))
        for ev in self.events:
            rec = {"step": ev[0], "ev": ev[1]}
            for name, val in zip(_EVENT_FIELDS[ev[1]], ev[2:]):
                rec[name] = _plain(val)
            fp.write(_line("event", rec))
        for step in sorted(self.snapshots):
            fp.write(_line("snapshot", {"step": step, "state": self.snapshots[step]}))
        fp.write(_line("summary", self.summary))

    @classmethod
    def read_jsonl(cls, fp: IO[str]) -> "Trace":
        meta: dict | None = None
        rows: list[tuple] = []
        events: list[tuple] = []
        snapshots: dict[int, dict] = {}
        summary: dict = {}
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from None
            if not isinstance(rec, dict) or not isinstance(rec.get("data"), dict):
                raise TraceFormatError(
                    f"line {lineno}: a record must be an object whose 'data' "
                    "is an object")
            tag, d = rec.get("rec"), rec["data"]
            if tag in ("row", "event", "snapshot") and not isinstance(d.get("step"), int):
                raise TraceFormatError(f"line {lineno}: {tag} record needs an "
                                       "integer 'step'")
            try:
                if tag == "meta":
                    meta = d
                elif tag == "row":
                    row = (d["step"], d["acting"], d["action_idx"],
                           d["action"], d["d"], d["u1"], d["u2"])
                    if not (isinstance(row[1], int)
                            and isinstance(row[2], int)
                            and isinstance(row[4], int)
                            and isinstance(row[5], _NUMBER)
                            and isinstance(row[6], _NUMBER)):
                        raise TraceFormatError(
                            f"line {lineno}: row needs integer 'acting', "
                            "'action_idx' and 'd', and numbers 'u1' and 'u2'")
                    rows.append(row)
                elif tag == "event":
                    kind = d["ev"]
                    if not isinstance(kind, str) or kind not in _EVENT_FIELDS:
                        raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
                    events.append(tuple(
                        [d["step"], kind]
                        + [_deep_tuple(d[name]) if (kind, name) in _TUPLE_FIELDS else d[name]
                           for name in _EVENT_FIELDS[kind]]))
                elif tag == "snapshot":
                    if not isinstance(d["state"], dict):
                        raise TraceFormatError(
                            f"line {lineno}: snapshot 'state' must be an "
                            "object")
                    snapshots[d["step"]] = d["state"]
                elif tag == "summary":
                    summary = d
                else:
                    raise TraceFormatError(f"line {lineno}: unknown record tag {tag!r}")
            except KeyError as exc:
                raise TraceFormatError(
                    f"line {lineno}: {tag} record lacks field {exc}") from None
        if meta is None:
            raise TraceFormatError("trace has no meta record")
        return cls(meta=meta, rows=rows, events=events,
                   snapshots=snapshots, summary=summary)


def save(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        trace.write_jsonl(fp)


def load(path: str) -> Trace:
    with open(path, encoding="utf-8") as fp:
        return Trace.read_jsonl(fp)


# structural fields the kernel builds as (nested) tuples; everything else is
# required to already be in canonical JSON form (see canon()) when recorded
_TUPLE_FIELDS = {
    (EV_CLOCK, "locals"), (EV_CLOCK, "regions"),
    (EV_RC, "changes"),
}


def _line(tag: str, data: dict) -> str:
    return json.dumps({"rec": tag, "data": data}, separators=(",", ":"),
                      sort_keys=False) + "\n"


def _plain(val: Any) -> Any:
    """Tuples become lists for JSON; nesting handled recursively."""
    if isinstance(val, (tuple, list)):
        return [_plain(v) for v in val]
    if isinstance(val, dict):
        return {k: _plain(v) for k, v in val.items()}
    return val


def _deep_tuple(val: Any) -> Any:
    if isinstance(val, list):
        return tuple(_deep_tuple(v) for v in val)
    return val


def canon(val: Any) -> Any:
    """Canonical JSON-stable form for free-form payloads (vars, tags, marks).

    Tuples become lists, sets become sorted lists, dict keys must be strings.
    Recording only canonical values keeps a freshly produced trace equal to
    its own serialize/parse round trip.
    """
    if isinstance(val, (tuple, list)):
        return [canon(v) for v in val]
    if isinstance(val, (set, frozenset)):
        return sorted(canon(v) for v in val)
    if isinstance(val, dict):
        out = {}
        for k, v in val.items():
            if not isinstance(k, str):
                raise TraceFormatError(f"payload dict keys must be strings, got {k!r}")
            out[k] = canon(v)
        return out
    if val is None or isinstance(val, (bool, int, float, str)):
        return val
    raise TraceFormatError(f"value {val!r} cannot be recorded in a trace")
