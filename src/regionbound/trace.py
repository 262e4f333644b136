"""Run traces: compact in-memory records plus a line-delimited file format.

A trace is the full account of one simulation run: one row per step (who
acted, which action, the step's random draws) plus a stream of events
(counter writes, cell creation/removal, message lifecycle, clock movement,
faults) and occasional full-state snapshots. Event payloads hold both the
stored residue and the lifted integer so checkers never have to re-derive
either.

Each event kind is declared once below with :func:`_kind`: a named tuple
``(step, kind, ...)`` whose field names are also its keys in the file and
whose field types the loader checks. Producers build events through
:data:`EVENTS`; checkers read them by field name.

The file form is JSON-lines: one record per line, stable field names,
integers in decimal. Field order within a line is fixed by construction
(dicts are built in a fixed order), so identical runs serialize identically.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Any, IO, Iterator

from .errors import TraceFormatError

EVENTS: dict[str, type] = {}


def _kind(name: str, /, **types) -> str:
    """Declare the event kind ``name`` once: a tuple ``(step, kind, *types)``
    with named fields, stored in a trace file under the same names.

    Each type is what a field holds after loading: ``tuple`` for a JSON list
    read back as nested tuples, ``object`` for any JSON value (the replayer
    checks it), otherwise the type or types of the JSON value.
    """
    event = namedtuple(name, ("step", "kind", *types))
    event.types = types
    EVENTS[name] = event
    return name


_OPT_INT = (int, type(None))

EV_CLOCK = _kind("clock", t=int, g_region=int, locals=tuple, regions=tuple)
# changes: (slot, coll, key, old_res, new_res, lifted, corrected) per moved
# counter; slot is "free" or "dep", key the cell name or cell id
EV_RC = _kind("rc", pid=int, new_region=int, changes=tuple)
EV_FAULT = _kind("fault", fault_kind=str, pid=_OPT_INT, target=object,
                 detail=dict, applied=bool)
EV_ARRIVE = _kind("arrive", mid=int)
EV_DROP = _kind("drop", mid=int, reason=str)
# cells: {field: residue}, keys sorted
EV_SEND = _kind("send", mid=int, src=int, dst=int, msg_kind=str, cells=dict,
                vars=dict, send_region_local=int, send_region_global=int,
                arrival_step=object, drop_step=object)
EV_CONSUME = _kind("consume", mid=int, pid=int)
EV_WFREE = _kind("wfree", pid=int, name=str, residue=int, lifted=int,
                 corrected=bool)
EV_DCREATE = _kind("dcreate", pid=int, coll=str, cid=int, residue=int,
                   lifted=int, created_local=int, created_global=int,
                   tag=object, corrected=bool)
EV_DREMOVE = _kind("dremove", pid=int, coll=str, cid=int, reason=str)
EV_VAR = _kind("var", pid=int, name=str, value=object)
EV_SPEND = _kind("spend", family=str, amount=int)
EV_MARK = _kind("mark", mark_kind=str, pid=int, data=object)

# a row is a plain tuple (step, acting, action_idx, action, d, u1, u2):
# the acting pid, then SELF_LOOP and "" when no action was enabled
_ROW_TYPES = {"acting": int, "action_idx": int, "action": str, "d": int,
              "u1": (int, float), "u2": (int, float)}

SELF_LOOP = -1

# keys of a record in the file, in field order
_ROW_KEYS = ("step", *_ROW_TYPES)
_EVENT_KEYS = {kind: ("step", "ev", *cls.types) for kind, cls in EVENTS.items()}


@dataclass
class Trace:
    meta: dict[str, Any]
    rows: list[tuple] = field(default_factory=list)
    events: list[tuple] = field(default_factory=list)  # EVENTS tuples
    snapshots: dict[int, dict] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)

    def steps(self) -> int:
        return len(self.rows)

    def iter_events(self, kind: str) -> Iterator[tuple]:
        for ev in self.events:
            if ev.kind == kind:
                yield ev

    def has_faults(self) -> bool:
        return any(True for _ in self.iter_events(EV_FAULT))

    # --- serialization ---

    def write_jsonl(self, fp: IO[str]) -> None:
        fp.write(_line("meta", self.meta))
        for row in self.rows:
            fp.write(_line("row", dict(zip(_ROW_KEYS, row))))
        for ev in self.events:
            fp.write(_line("event", dict(zip(_EVENT_KEYS[ev.kind], ev))))
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
                    rows.append((d["step"],
                                 *_fields(d, _ROW_TYPES, lineno, "row")))
                elif tag == "event":
                    kind = d["ev"]
                    if not isinstance(kind, str) or kind not in EVENTS:
                        raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
                    event = EVENTS[kind]
                    events.append(event._make([d["step"], kind, *_fields(
                        d, event.types, lineno, f"{kind} event")]))
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


def _fields(d: dict, types: dict, lineno: int, what: str) -> list:
    """A record's field values in declared order, each type-checked; a
    ``tuple`` field is a JSON list, loaded as nested tuples."""
    out = []
    for key, t in types.items():
        val = d[key]
        if not isinstance(val, list if t is tuple else t):
            raise TraceFormatError(f"line {lineno}: {what} field {key!r} "
                                   f"may not be a {type(val).__name__}")
        out.append(_deep_tuple(val) if t is tuple else val)
    return out


def _line(tag: str, data: dict) -> str:
    return json.dumps({"rec": tag, "data": data}, separators=(",", ":"),
                      sort_keys=False) + "\n"


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
