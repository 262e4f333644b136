"""Run traces: compact in-memory records plus a line-delimited file format.

A trace is the full account of one simulation run: one row per step (who
acted, which action, the step's random draws) plus a stream of events
(counter writes, cell creation/removal, message lifecycle, clock movement,
faults) and occasional full-state snapshots. Event payloads hold both the
stored residue and the lifted integer so checkers never have to re-derive
either.

Each event kind is declared once below with :func:`_kind`: a named tuple
``(step, kind, ...)`` whose field names are also its keys in the file and
whose field types the loader checks, a :class:`Name` type where a field
names a process, a counter or the like, which :func:`.analysis.validate`
checks. Emitters made from each (``Sim.emit_<kind>``) build events from
the fields by name; checkers read them by field name. The rows a snapshot
stores as JSON lists, a message and a dependent cell, are declared the same
way with :func:`_layout`, and so are the rows of an ``rc`` event's changes.

The file form is JSON-lines: each line is exactly one JSON value, a record
``{"rec": tag, "data": {...}}``, with stable field names and integers in
decimal; blank lines are skipped. Field order within a line is fixed by
construction (dicts are built in a fixed order), so identical runs serialize
identically. A trace is written a bounded chunk of lines at a time, and read
one line at a time, so neither direction holds a second copy of the whole
trace; the json module's C encoder and decoder do the per-record JSON work.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, islice, repeat
from operator import contains, eq, itemgetter
from typing import Any, Callable, IO, Iterator, NamedTuple, NoReturn

from .errors import TraceFormatError

EVENTS: dict[str, type] = {}


class _List(NamedTuple):
    """A list field's declared type: a JSON list, read back as a tuple by
    ``load``, which returns None when the items do not have the shape
    ``what`` names."""
    what: str
    load: Callable[[list], tuple | None]


_JSON_TYPES = frozenset((dict, list, str, int, float, bool, type(None)))
_INT = frozenset((int,))
_OPT_INT = (int, type(None))

# the type of a field that names something of the program, and what it names
Name = namedtuple("Name", "type domain")
PID = Name(int, "pid")
OPT_PID = Name(_OPT_INT, "optional pid")
FREE = Name(str, "free counter")
COLL = Name(str, "collection")
MSG_KIND = Name(str, "message kind")
FAMILY = Name(str, "family")
FAULT_KIND = Name(str, "fault kind")


def _admits(t) -> frozenset:
    """The JSON value types a field declared ``t`` may hold. A value's type
    must be one of them exactly, so a JSON boolean is never an integer."""
    if t is object:
        return _JSON_TYPES
    if isinstance(t, _List):
        return frozenset((list,))
    if isinstance(t, Name):
        t = t.type
    return frozenset(t if isinstance(t, tuple) else (t,))


def _layout(name: str, /, **types) -> type:
    """Declare a row stored as a JSON list of these fields in this order: a
    named tuple to read it by, with the fields' declared types and names."""
    row = namedtuple(name, types)
    row.admits = tuple(map(_admits, types.values()))
    row.names = {key: t for key, t in types.items() if isinstance(t, Name)}
    return row


def misfit(types: dict, d: dict) -> str | None:
    """What keeps ``d`` from holding each field of ``types`` with its
    declared type, for the first faulty field in order; None if nothing."""
    for key, t in types.items():
        if key not in d:
            return f"lacks field {key!r}"
        val = d[key]
        if type(val) not in _admits(t):
            return f"field {key!r} may not be a {type(val).__name__}"
        if isinstance(t, _List) and t.load(val) is None:
            return f"field {key!r} must be a {t.what}"
    return None


def fits(layout: type, row) -> bool:
    """``row`` is a JSON list of ``layout``'s fields, each of its type."""
    return (type(row) is list and len(row) == len(layout.admits)
            and all(map(contains, layout.admits, map(type, row))))


def _rows_of(layout: type) -> _List:
    """A list of ``layout`` rows, read back as tuples."""
    def load(val: list) -> tuple | None:
        if all(map(fits, repeat(layout), val)):
            return tuple(map(tuple, val))
        return None
    return _List(f"list of [{', '.join(layout._fields)}] rows", load)


def _ints(val: list) -> tuple | None:
    return tuple(val) if _INT.issuperset(map(type, val)) else None


_INTS = _List("list of integers", _ints)


def _kind(name: str, /, **types) -> str:
    """Declare the event kind ``name`` once: a tuple ``(step, kind, *types)``
    with named fields, stored in a trace file under the same names.

    Each type is what a field holds after loading: a :class:`_List` for a
    JSON list whose items are checked, ``object`` for any JSON value (the
    replayer checks it), otherwise the type or types of the JSON value, as
    a :class:`Name` when the value names something of the program.
    """
    event = _layout(name, step=int, kind=str, **types)
    event.types = types
    EVENTS[name] = event
    return name


# a snapshot's in-flight and inbox messages, and its processes' cells; a
# message's cells map each field to its residue
MsgRow = _layout("MsgRow", mid=int, src=PID, dst=PID, kind=MSG_KIND,
                 cells=dict, vars=dict, send_step=int, send_region_local=int,
                 send_region_global=int, arrival_step=_OPT_INT,
                 drop_step=_OPT_INT)
CellRow = _layout("CellRow", cid=int, residue=int, created_local=int,
                  created_global=int, tag=object)
# one moved counter of an rc event; slot is "free" (key the counter's name,
# coll None) or "dep" (coll the collection, key the cell id)
RcChange = _layout("RcChange", slot=str, coll=(str, type(None)),
                   key=(str, int), old_res=int, new_res=int, lifted=int,
                   corrected=bool)

EV_CLOCK = _kind("clock", t=int, g_region=int, locals=_INTS, regions=_INTS)
EV_RC = _kind("rc", pid=PID, new_region=int, changes=_rows_of(RcChange))
EV_FAULT = _kind("fault", fault_kind=FAULT_KIND, pid=OPT_PID, target=object,
                 detail=dict, applied=bool)
EV_ARRIVE = _kind("arrive", mid=int)
EV_DROP = _kind("drop", mid=int, reason=str)
# cells: {field: residue}, keys sorted
EV_SEND = _kind("send", mid=int, src=PID, dst=PID, msg_kind=MSG_KIND,
                cells=dict, vars=dict, send_region_local=int, send_region_global=int,
                arrival_step=_OPT_INT, drop_step=_OPT_INT)
EV_CONSUME = _kind("consume", mid=int, pid=PID)
EV_WFREE = _kind("wfree", pid=PID, name=FREE, residue=int, lifted=int,
                 corrected=bool)
EV_DCREATE = _kind("dcreate", pid=PID, coll=COLL, cid=int, residue=int,
                   lifted=int, created_local=int, created_global=int,
                   tag=object, corrected=bool)
EV_DREMOVE = _kind("dremove", pid=PID, coll=COLL, cid=int, reason=str)
EV_VAR = _kind("var", pid=PID, name=str, value=object)
EV_SPEND = _kind("spend", family=FAMILY, amount=int)
EV_MARK = _kind("mark", mark_kind=str, pid=PID, data=object)

# a snapshot's state, as the kernel writes it; each of its procs is a PROC
SNAPSHOT = {"t": int, "g_region": int, "regions": _INTS, "locals": _INTS,
            "procs": list, "in_flight": list, "inboxes": list,
            "next_mid": int, "next_cid": int, "budgets": dict, "label": str}
PROC = {"free": dict, "colls": dict, "vars": dict}

# a row is a plain tuple (step, acting, action_idx, action, d, u1, u2):
# the acting pid, then SELF_LOOP and "" when no action was enabled
_ROW_TYPES = {"acting": int, "action_idx": int, "action": str, "d": int,
              "u1": (int, float), "u2": (int, float)}

SELF_LOOP = -1


class _Record:
    """How a row, an event or a snapshot is stored: its keys in the file, in
    field order, and how it loads back. ``get`` takes a record's field
    values from its data, ``admits`` holds the JSON value types each may
    have, and ``make`` builds the loaded tuple, or returns None when a list
    field's items are wrong. A record that fails any of these goes to
    :meth:`refuse`, which names its first fault in field order."""

    __slots__ = ("tag", "what", "types", "keys", "get", "admits", "make")

    def __init__(self, tag: str, what: str, types: dict, cls: type):
        self.tag, self.what, self.types = tag, what, types
        self.keys = ("step", *types)
        self.get = itemgetter(*self.keys)
        self.admits = tuple(map(_admits, (int, *types.values())))
        lists = tuple((i, t.load) for i, t in enumerate(types.values(), 1)
                      if isinstance(t, _List))
        new = tuple if cls is tuple else partial(tuple.__new__, cls)
        self.make = partial(_make_with_lists, new, lists) if lists else new

    def refuse(self, d: dict, lineno: int) -> NoReturn:
        if type(d.get("step")) is not int:
            raise TraceFormatError(f"line {lineno}: {self.tag} record needs "
                                   "an integer 'step'")
        raise TraceFormatError(
            f"line {lineno}: {self.what} {misfit(self.types, d)}")


def _make_with_lists(new, lists, vals):
    vals = list(vals)
    for i, load in lists:
        if (item := load(vals[i])) is None:
            return None
        vals[i] = item
    return new(vals)


_ROW = _Record("row", "row", _ROW_TYPES, tuple)
_SNAPSHOT_RECORD = _Record("snapshot", "snapshot", {"state": dict}, tuple)
_EVENT_RECORDS = {kind: _Record("event", f"{kind} event",
                                {"ev": str, **cls.types}, cls)
                  for kind, cls in EVENTS.items()}

_encode = json.JSONEncoder(separators=(",", ":")).encode
_decode = json.JSONDecoder().raw_decode
# records per fp.write: bounds the text a writer holds besides the trace
_CHUNK_LINES = 256


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
        """The events of one kind, in order; filtered by the C iterators."""
        kinds = map(itemgetter(1), self.events)
        return compress(self.events, map(eq, kinds, repeat(kind)))

    def has_faults(self) -> bool:
        return any(True for _ in self.iter_events(EV_FAULT))

    # --- serialization ---

    def write_jsonl(self, fp: IO[str]) -> None:
        """Write the trace as JSON lines, at most ``_CHUNK_LINES`` lines per
        ``fp.write``; ``fp`` needs nothing but ``write``."""
        fp.write(_line("meta", self.meta))
        keys = _ROW.keys
        for chunk in _chunks("row", (dict(zip(keys, row)) for row in self.rows)):
            fp.write(chunk)
        keys = {kind: rec.keys for kind, rec in _EVENT_RECORDS.items()}
        for chunk in _chunks("event", (dict(zip(keys[ev.kind], ev))
                                       for ev in self.events)):
            fp.write(chunk)
        for step in sorted(self.snapshots):
            fp.write(_line("snapshot", {"step": step, "state": self.snapshots[step]}))
        fp.write(_line("summary", self.summary))

    @classmethod
    def read_jsonl(cls, fp: IO[str]) -> "Trace":
        """Load a trace from JSON lines; a malformed line raises
        :class:`TraceFormatError` naming its line number."""
        meta: dict | None = None
        rows: list[tuple] = []
        events: list[tuple] = []
        snapshots: list[tuple] = []  # (step, state) pairs
        summary: dict = {}
        row, records = _ROW, _EVENT_RECORDS
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _decode(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from None
            if end != len(line):
                raise TraceFormatError(
                    f"line {lineno}: not valid JSON: "
                    f"{json.JSONDecodeError('Extra data', line, end)}")
            if type(rec) is not dict or type(d := rec.get("data")) is not dict:
                raise TraceFormatError(
                    f"line {lineno}: a record must be an object whose 'data' "
                    "is an object")
            tag = rec.get("rec")
            if tag == "event":
                try:
                    record = records[d["ev"]]
                except (KeyError, TypeError):
                    _refuse_event(d, lineno)
                out = events
            elif tag == "row":
                record, out = row, rows
            elif tag == "snapshot":
                record, out = _SNAPSHOT_RECORD, snapshots
            elif tag == "meta":
                meta = d
                continue
            elif tag == "summary":
                summary = d
                continue
            else:
                raise TraceFormatError(f"line {lineno}: unknown record tag {tag!r}")
            try:
                vals = record.get(d)
            except KeyError:
                record.refuse(d, lineno)
            if (not all(map(contains, record.admits, map(type, vals)))
                    or (loaded := record.make(vals)) is None):
                record.refuse(d, lineno)
            out.append(loaded)
        if meta is None:
            raise TraceFormatError("trace has no meta record")
        return cls(meta=meta, rows=rows, events=events,
                   snapshots=dict(snapshots), summary=summary)


def save(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        trace.write_jsonl(fp)


def load(path: str) -> Trace:
    with open(path, encoding="utf-8") as fp:
        return Trace.read_jsonl(fp)


def _refuse_event(d: dict, lineno: int) -> NoReturn:
    """Refuse an event record whose kind is missing or unknown."""
    if type(d.get("step")) is not int:
        raise TraceFormatError(f"line {lineno}: event record needs an integer "
                               "'step'")
    if "ev" not in d:
        raise TraceFormatError(f"line {lineno}: event record lacks field 'ev'")
    raise TraceFormatError(f"line {lineno}: unknown event kind {d['ev']!r}")


def _head(tag: str) -> str:
    """The text of a record's line before its data."""
    return f'{{"rec":{_encode(tag)},"data":'


def _line(tag: str, data: dict) -> str:
    return f"{_head(tag)}{_encode(data)}}}\n"


# Rows and events are encoded a chunk at a time, as one JSON list of their
# data objects, each of which opens with its "step" key. So the list's item
# separators all read _SEP. Inside a JSON string a quote is always escaped,
# so _SEP can occur elsewhere only where a nested object opens with a "step"
# key; the chunk then holds more than one _SEP per separator and is encoded
# record by record instead.
_SEP = '},{"step":'


def _chunks(tag: str, datas: Iterator[dict]) -> Iterator[str]:
    """The lines of the records ``tag`` with data ``datas``, joined
    ``_CHUNK_LINES`` at a time."""
    head = _head(tag)
    joint = f'}}}}\n{head}{{"step":'
    while batch := list(islice(datas, _CHUNK_LINES)):
        text = _encode(batch)
        if text.count(_SEP) == len(batch) - 1:
            yield f"{head}{text[1:-1].replace(_SEP, joint)}}}\n"
        else:
            yield "".join(f"{head}{_encode(d)}}}\n" for d in batch)


def canon(val: Any) -> Any:
    """Canonical JSON-stable form for free-form payloads (vars, tags, marks).

    Tuples become lists, sets become sorted lists, dict keys must be strings.
    Recording only canonical values keeps a freshly produced trace equal to
    its own serialize/parse round trip.
    """
    if val is None or isinstance(val, (bool, int, float, str)):
        return val
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
    raise TraceFormatError(f"value {val!r} cannot be recorded in a trace")
