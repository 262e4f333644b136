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
from itertools import islice, repeat
from operator import itemgetter
from typing import Any, Callable, IO, Iterator, NamedTuple, NoReturn

from .errors import TraceFormatError

EVENTS: dict[str, type] = {}


class _List(NamedTuple):
    """A list field's declared type: a JSON list, read back as a tuple by
    ``load``, which returns None when the items do not have the shape
    ``what`` names."""
    what: str
    load: Callable[[list], tuple | None]


def _ints(val: list) -> tuple | None:
    return tuple(val) if all(map(isinstance, val, repeat(int))) else None


def _rows_of(width: int) -> _List:
    """A list of lists of ``width`` entries each, read back as tuples."""
    def load(val: list) -> tuple | None:
        if (all(map(isinstance, val, repeat(list)))
                and all(map(width.__eq__, map(len, val)))):
            return tuple(map(tuple, val))
        return None
    return _List(f"list of {width}-entry lists", load)


_INTS = _List("list of integers", _ints)


def _kind(name: str, /, **types) -> str:
    """Declare the event kind ``name`` once: a tuple ``(step, kind, *types)``
    with named fields, stored in a trace file under the same names.

    Each type is what a field holds after loading: a :class:`_List` for a
    JSON list whose items are checked, ``object`` for any JSON value (the
    replayer checks it), otherwise the type or types of the JSON value.
    """
    event = namedtuple(name, ("step", "kind", *types))
    event.types = types
    EVENTS[name] = event
    return name


_OPT_INT = (int, type(None))

EV_CLOCK = _kind("clock", t=int, g_region=int, locals=_INTS, regions=_INTS)
# changes: (slot, coll, key, old_res, new_res, lifted, corrected) per moved
# counter; slot is "free" or "dep", key the cell name or cell id
EV_RC = _kind("rc", pid=int, new_region=int, changes=_rows_of(7))
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


class _Record:
    """How a row or an event is stored: its keys in the file, in field
    order, and how it loads back. ``get`` takes a record's field values from
    its data, ``isa`` says what each must be an instance of, and ``make``
    builds the loaded tuple, or returns None when a list field's items are
    wrong. A record that fails any of these goes to :meth:`refuse`, which
    names its first fault in field order."""

    __slots__ = ("tag", "what", "types", "keys", "get", "isa", "make")

    def __init__(self, tag: str, what: str, types: dict, cls: type):
        self.tag, self.what, self.types = tag, what, types
        self.keys = ("step", *types)
        self.get = itemgetter(*self.keys)
        self.isa = (int, *(list if isinstance(t, _List) else t
                           for t in types.values()))
        lists = tuple((i, t.load) for i, t in enumerate(types.values(), 1)
                      if isinstance(t, _List))
        new = tuple if cls is tuple else partial(tuple.__new__, cls)
        self.make = partial(_make_with_lists, new, lists) if lists else new

    def refuse(self, d: dict, lineno: int) -> NoReturn:
        where = f"line {lineno}: {self.what}"
        if not isinstance(d.get("step"), int):
            raise TraceFormatError(f"line {lineno}: {self.tag} record needs "
                                   "an integer 'step'")
        for key, t in self.types.items():
            if key not in d:
                raise TraceFormatError(f"line {lineno}: {self.tag} record "
                                       f"lacks field {key!r}")
            val = d[key]
            if not isinstance(val, list if isinstance(t, _List) else t):
                raise TraceFormatError(f"{where} field {key!r} may not be a "
                                       f"{type(val).__name__}")
            if isinstance(t, _List) and t.load(val) is None:
                raise TraceFormatError(f"{where} field {key!r} must be a "
                                       f"{t.what}")
        raise AssertionError(f"{where} record refused without a fault")


def _make_with_lists(new, lists, vals):
    vals = list(vals)
    for i, load in lists:
        if (item := load(vals[i])) is None:
            return None
        vals[i] = item
    return new(vals)


_ROW = _Record("row", "row", _ROW_TYPES, tuple)
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
        for ev in self.events:
            if ev.kind == kind:
                yield ev

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
        snapshots: dict[int, dict] = {}
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
                if not isinstance(d.get("step"), int):
                    raise TraceFormatError(f"line {lineno}: snapshot record "
                                           "needs an integer 'step'")
                if "state" not in d:
                    raise TraceFormatError(f"line {lineno}: snapshot record "
                                           "lacks field 'state'")
                if type(d["state"]) is not dict:
                    raise TraceFormatError(
                        f"line {lineno}: snapshot 'state' must be an object")
                snapshots[d["step"]] = d["state"]
                continue
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
            if (not all(map(isinstance, vals, record.isa))
                    or (loaded := record.make(vals)) is None):
                record.refuse(d, lineno)
            out.append(loaded)
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


def _refuse_event(d: dict, lineno: int) -> NoReturn:
    """Refuse an event record whose kind is missing or unknown."""
    if not isinstance(d.get("step"), int):
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
