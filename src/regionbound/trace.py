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
``{"rec": tag, "data": {...}}``, with the fields in declaration order under
their names and integers in decimal; blank lines are skipped. Every line is
the text ``json.dumps(record, separators=(",", ":"))`` gives it, so
identical runs serialize identically; that holds for values of their
declared types and finite floats, and a value of another type makes the
writer raise or write a line the loader refuses. The row, each event kind
and the snapshot are written and read by a codec generated once from their
declared types (:func:`_codec`): a ``%`` template with the keys as constant
text and a renderer per field type, the json module's C encoder for nested
values; and a loader that checks each field's type inline and refuses a key
that is not declared, such as a retired field. A trace is written a
bounded chunk of lines at a time, and read one line at a time, by the json
module's C decoder, so neither direction holds a second copy of the whole
trace. A line holding ``NaN`` or an infinity, which are not JSON, or a
second meta or summary record or snapshot of a step, is refused.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import isfinite
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
    """What keeps ``d`` from holding exactly the fields of ``types``, each
    with its declared type: the first faulty field in order, else the first
    key of ``d`` that ``types`` does not declare; None if nothing."""
    for key, t in types.items():
        if key not in d:
            return f"lacks field {key!r}"
        val = d[key]
        if type(val) not in _admits(t):
            return f"field {key!r} may not be a {type(val).__name__}"
        if isinstance(t, _List) and t.load(val) is None:
            return f"field {key!r} must be a {t.what}"
    for key in d:
        if key not in types:
            return f"has undeclared field {key!r}"
    return None


def fits(layout: type, row) -> bool:
    """``row`` is a JSON list of ``layout``'s fields, each of its type."""
    return (type(row) is list and len(row) == len(layout.admits)
            and all(map(contains, layout.admits, map(type, row))))


def _rows_of(layout: type) -> _List:
    """A list of ``layout`` rows, read back as ``layout`` tuples."""
    def load(val: list) -> tuple | None:
        if all(map(fits, repeat(layout), val)):
            return tuple(map(layout._make, val))
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
                 cells=dict, vars=dict, send_region_global=int,
                 arrival_step=_OPT_INT, drop_step=_OPT_INT)
CellRow = _layout("CellRow", cid=int, residue=int, created_local=int,
                  tag=object)
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
                cells=dict, vars=dict, send_region_global=int,
                arrival_step=_OPT_INT, drop_step=_OPT_INT)
EV_CONSUME = _kind("consume", mid=int, pid=PID)
EV_WFREE = _kind("wfree", pid=PID, name=FREE, residue=int, lifted=int,
                 corrected=bool)
EV_DCREATE = _kind("dcreate", pid=PID, coll=COLL, cid=int, residue=int,
                   lifted=int, created_local=int, tag=object, corrected=bool)
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
    """How a row, an event kind or a snapshot is stored, as two functions
    generated once from its declared types: ``render`` gives a record's
    line, and ``load`` reads a record's data back into its tuple, or
    returns None when a field does not have its declared type or the data
    holds a key that is not declared (a missing field raises KeyError). A
    record that fails to load goes to :meth:`refuse`, which names its first
    fault in field order, then its first undeclared key."""

    __slots__ = ("tag", "what", "types", "render", "load")

    def __init__(self, tag: str, what: str, types: dict, cls: type,
                 kind: str | None = None):
        # every key of the record's data: its step and an event's kind too
        self.tag, self.what = tag, what
        self.types = {"step": int, **({"ev": str} if kind else {}), **types}
        self.render, self.load = _codec(tag, types, cls, kind)

    def refuse(self, d: dict, lineno: int) -> NoReturn:
        if type(d.get("step")) is not int:
            raise TraceFormatError(f"line {lineno}: {self.tag} record needs "
                                   "an integer 'step'")
        raise TraceFormatError(
            f"line {lineno}: {self.what} {misfit(self.types, d)}")


# json.dumps(separators=(",", ":"))'s C encoder, built once: JSONEncoder.encode
# builds a new one on every call. Called as _encode(value, 0), it returns the
# value's text in chunks.
_encode = c_make_encoder(None, json.JSONEncoder().default,
                         encode_basestring_ascii, None, ":", ",", False, False,
                         True)


def _field_text(t, v: str) -> tuple[str, str]:
    """The template text of a field declared ``t`` and the expression that
    fills it from the variable ``v``: exactly the text json.dumps gives a
    value of that type. A value of another type raises TypeError or gives
    text the loader refuses: integers are written by ``repr``, so neither a
    float nor a bool can pass for one, and only True and False for a bool."""
    if isinstance(t, Name):
        t = t.type
    if t is int:
        return "%r", v
    if t == (int, float):
        return "%r", v  # float.__repr__, as json's, for every finite float
    if t is str:
        return "%s", f"_str({v})"
    if t is bool:
        return "%s", (f'("true" if {v} is True else "false" if {v} is False '
                      f'else _repr({v}))')
    if t is _INTS:
        return "[%s]", f"_commas(_map(_repr, {v}))"
    if t == _OPT_INT:
        return "%s", f'("null" if {v} is None else _repr({v}))'
    return "%s", f"_join(_encode({v}, 0))"  # a nested value


def _codec(tag: str, types: dict, cls: type, kind: str | None):
    """A record's line renderer and its loader, generated as Python source
    from its declared types. The record's tuple is ``(step, *types)``; an
    event's is ``(step, kind, *types)``, its kind stored under ``ev``. The
    loader reads every declared key, so one count of the data's keys
    refuses any other key."""
    scope = {"_str": encode_basestring_ascii, "_repr": repr,
             "_map": map, "_commas": ",".join, "_join": "".join,
             "_encode": _encode, "_type": type, "_new": tuple.__new__,
             "_cls": cls, "_len": len}
    fields = [("step", int), *types.items()]
    names = [f"v{i}" for i in range(len(fields))]
    text, exprs, loads = [], [], []
    checks = [f"_len(d) == {len(fields) + (kind is not None)}"]
    for (key, t), v in zip(fields, names):
        fmt, expr = _field_text(t, v)
        text.append(f"{encode_basestring_ascii(key)}:{fmt}")
        exprs.append(expr)
        loads.append(f"{v} = d[{key!r}]")
        if isinstance(t, _List):
            scope[f"_load_{v}"] = t.load
            checks.append(f"_type({v}) is list and "
                          f"({v} := _load_{v}({v})) is not None")
        elif t is not object:  # a decoded JSON value is any JSON type
            admits = _admits(t)
            if len(admits) == 1:
                scope[f"_t_{v}"], = admits
                checks.append(f"_type({v}) is _t_{v}")
            else:
                scope[f"_t_{v}"] = admits
                checks.append(f"_type({v}) in _t_{v}")
    unpack = values = names
    if kind is not None:
        text.insert(1, f'"ev":{encode_basestring_ascii(kind)}')
        unpack = [names[0], "_", *names[1:]]
        values = [names[0], repr(kind), *names[1:]]
    scope["_TEXT"] = (f'{{"rec":{encode_basestring_ascii(tag)},"data":'
                      f'{{{",".join(text)}}}}}\n')
    values = ", ".join(values)
    build = f"({values},)" if cls is tuple else f"_new(_cls, ({values}))"
    exec(f"def render(r, /):\n"
         f"    {', '.join(unpack)}, = r\n"
         f"    return _TEXT % ({', '.join(exprs)},)\n"
         f"def load(d, /):\n"
         f"    {'; '.join(loads)}\n"
         f"    if {' and '.join(checks)}:\n"
         f"        return {build}\n"
         f"    return None\n", scope)
    return scope["render"], scope["load"]


_ROW = _Record("row", "row", _ROW_TYPES, tuple)
_SNAPSHOT_RECORD = _Record("snapshot", "snapshot", {"state": dict}, tuple)
_EVENT_RECORDS = {kind: _Record("event", f"{kind} event", cls.types, cls, kind)
                  for kind, cls in EVENTS.items()}


def refuse_constant(name: str) -> NoReturn:
    """A json decoder's ``parse_constant``: refuses NaN and the infinities."""
    raise ValueError(f"{name} is not a JSON number")


# NaN and the infinities are not JSON: a line holding one is refused
_decode = json.JSONDecoder(parse_constant=refuse_constant).raw_decode
# lines per fp.write: bounds the text a writer holds besides the trace
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
        """Whether any event records a fault injection; one C-level scan of
        the kinds, which stops at the first fault."""
        return EV_FAULT in map(itemgetter(1), self.events)

    # --- serialization ---

    def write_jsonl(self, fp: IO[str]) -> None:
        """Write the trace as JSON lines, at most ``_CHUNK_LINES`` lines per
        ``fp.write``; ``fp`` needs nothing but ``write``."""
        fp.write(_line("meta", self.meta))
        rows, render = self.rows, _ROW.render
        for i in range(0, len(rows), _CHUNK_LINES):
            fp.write("".join(map(render, rows[i:i + _CHUNK_LINES])))
        events = self.events
        renders = {kind: rec.render for kind, rec in _EVENT_RECORDS.items()}
        for i in range(0, len(events), _CHUNK_LINES):
            fp.write("".join([renders[ev[1]](ev)
                              for ev in events[i:i + _CHUNK_LINES]]))
        render = _SNAPSHOT_RECORD.render
        for step in sorted(self.snapshots):
            fp.write(render((step, self.snapshots[step])))
        fp.write(_line("summary", self.summary))

    @classmethod
    def read_jsonl(cls, fp: IO[str]) -> "Trace":
        """Load a trace from JSON lines; a malformed line, a record with a
        key besides ``rec`` and ``data``, or a second meta or summary record
        or snapshot of a step, raises :class:`TraceFormatError` naming its
        line number."""
        singles: dict[str, dict] = {}  # the meta and summary records
        rows: list[tuple] = []
        events: list[tuple] = []
        snapshots: dict[int, dict] = {}
        row, records, snapshot = _ROW, _EVENT_RECORDS, _SNAPSHOT_RECORD
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec, end = _decode(line)
            except ValueError as exc:  # also a non-finite or too long number
                raise TraceFormatError(f"line {lineno}: not valid JSON: {exc}") from None
            if end != len(line):
                raise TraceFormatError(
                    f"line {lineno}: not valid JSON: "
                    f"{json.JSONDecodeError('Extra data', line, end)}")
            if type(rec) is not dict or type(d := rec.get("data")) is not dict:
                raise TraceFormatError(
                    f"line {lineno}: a record must be an object whose 'data' "
                    "is an object")
            if len(rec) != 2:  # any key besides 'rec' and 'data'
                stray = next(key for key in rec if key not in ("rec", "data"))
                raise TraceFormatError(
                    f"line {lineno}: record has undeclared key {stray!r}")
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
                record, out = snapshot, None
            elif tag == "meta" or tag == "summary":
                if tag in singles:
                    raise TraceFormatError(f"line {lineno}: a second {tag} record")
                singles[tag] = d
                continue
            else:
                raise TraceFormatError(f"line {lineno}: unknown record tag {tag!r}")
            try:
                loaded = record.load(d)
            except KeyError:
                loaded = None
            if loaded is None:
                record.refuse(d, lineno)
            if out is not None:
                out.append(loaded)
            elif (step := loaded[0]) in snapshots:
                raise TraceFormatError(
                    f"line {lineno}: a second snapshot at step {step}")
            else:
                snapshots[step] = loaded[1]
        if "meta" not in singles:
            raise TraceFormatError("trace has no meta record")
        return cls(meta=singles["meta"], rows=rows, events=events,
                   snapshots=snapshots, summary=singles.get("summary", {}))


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


def _line(tag: str, data: dict) -> str:
    text = "".join(_encode(data, 0))
    return f'{{"rec":{encode_basestring_ascii(tag)},"data":{text}}}\n'


def canon(val: Any) -> Any:
    """Canonical JSON-stable form for free-form payloads (vars, tags, marks).

    Tuples become lists, sets become sorted lists, dict keys must be strings.
    Recording only canonical values keeps a freshly produced trace equal to
    its own serialize/parse round trip. ``NaN`` and the infinities are not
    JSON, and are refused.
    """
    if val is None or isinstance(val, (bool, int, str)) or (
            isinstance(val, float) and isfinite(val)):
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
