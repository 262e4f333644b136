"""Trace verification: replay equivalence, stabilization scans, sizing.

Two headline checks mirror the two halves of the correctness claim. On a
fault-free run, :func:`closure_check` replays the whole trace against the
unbounded reference and demands pointwise agreement modulo each family's
bound. On a faulted run, :func:`convergence_check` verifies that free
counters fit their windows again within three region advances after the
last fault, and that the suffix starting at the third interval boundary
replays cleanly from the lifted bounded state.

The remaining scans enforce the structural invariants every run must keep:
dependent cells never outlive their declared forward reach, clocks never
spread more than one region apart, and no message is seen past its
lifetime. :func:`check` is the whole verdict on one run of a scenario: it
first checks the trace against the program (:func:`validate`), then runs
the applicable headline check, every scan and, once the replay has passed,
the protocol's safety predicate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, compress, groupby
from operator import attrgetter, itemgetter
from typing import IO, NoReturn, Optional

from . import faults
from . import trace as tr
from .counters import CounterParams, bits_required, fits_free, maxbound_of
from .errors import ConfigError, is_int
from .oracle import OracleDivergence, Replayer


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


class VerificationReport:
    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, detail: str) -> CheckResult:
        res = CheckResult(name, ok, detail)
        self.results.append(res)
        return res

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]


# --- interval geometry ------------------------------------------------------


def interval_index(region: int, params: CounterParams) -> int:
    """Which third of the modulus cycle ``region`` falls in.

    The window's floor advances 3*maxinc per region, so it stands at
    3*maxinc*region, and an interval is a third of the modulus.
    """
    return 9 * params.maxinc * region // params.maxbound


def convergence_boundary(families: dict[str, CounterParams], fstop: int) -> int:
    """First region at which every family is three full intervals past the
    last fault, the point from which suffix replay must succeed."""
    region = fstop + 1
    while any(interval_index(region, p) < interval_index(fstop, p) + 3
              for p in families.values()):
        region += 1
    return region


# --- validation -------------------------------------------------------------


def validate(prog, trace: tr.Trace) -> None:
    """Refuse a trace that does not fit ``prog``, before anything reads it.

    There must be a snapshot at step 0, and every snapshot must have the
    layout the kernel writes for ``prog``. No event may be recorded before
    step 0, nor a snapshot before step 0 or after the last step, where no
    replay looks. Every event and message row field declared with a
    :class:`.trace.Name` must name what ``prog`` and :mod:`.faults` declare
    in its domain, a message's cells must be fields of its kind, and a
    ``send`` event or message row must set exactly one of its arrival and
    drop steps. A fault names a pid exactly when its kind edits a process,
    and an applied fault's detail must record the edit its kind makes: a
    process or a message row passing the checks a snapshot's do, or a
    deleted message's id. Every residue must fit its register, which a
    fault may fill. A failure raises ConfigError("malformed trace: ...").
    What the kernel's schedule could not have drawn is left to the replay,
    which fails on it.
    """
    if 0 not in trace.snapshots:
        raise ConfigError("malformed trace: no snapshot at step 0")
    pids = dict.fromkeys(range(prog.n))
    declared = {tr.PID: pids, tr.OPT_PID: {None: None, **pids},
                tr.FREE: prog.free_cells, tr.COLL: prog.colls,
                tr.MSG_KIND: prog.msgs, tr.FAMILY: prog.families,
                tr.FAULT_KIND: faults._KINDS}
    regs = free_cap, coll_cap, msg_cap = _registers(prog)
    for step, snap in sorted(trace.snapshots.items()):
        if not 0 <= step <= trace.steps():
            raise ConfigError(f"malformed trace: snapshot at step {step} lies "
                              f"outside steps 0..{trace.steps()} of the run")
        if fault := _snapshot_misfit(prog, declared, regs, snap):
            raise ConfigError(f"malformed trace: snapshot at step {step}: "
                              f"{fault}")
    first = min(trace.events, key=attrgetter("step"), default=None)
    if first is not None and first.step < 0:
        _refuse(first, "is recorded before step 0")
    events = {kind: [] for kind in tr.EVENTS}
    for ev in trace.events:
        events[ev.kind].append(ev)
    for kind, event in tr.EVENTS.items():
        if stranger := _stranger(declared, event, events[kind]):
            _refuse(*stranger)
    for ev in events[tr.EV_CLOCK]:
        if not len(ev.locals) == len(ev.regions) == prog.n:
            _refuse(ev, f"needs {prog.n} locals and regions")
    for ev in events[tr.EV_RC]:
        for ch in ev.changes:
            if not ((ch.slot == "free" and ch.key in free_cap)
                    or (ch.slot == "dep" and ch.coll in coll_cap)):
                _refuse(ev, f"change {ch.slot!r} {ch.coll!r} {ch.key!r} names "
                        "no free counter or collection of the program")
            cap = free_cap[ch.key] if ch.slot == "free" else coll_cap[ch.coll]
            for res in (ch.old_res, ch.new_res):
                if not 0 <= res < cap:
                    _refuse(ev, _UNHELD.format(res, cap))
    for ev in events[tr.EV_WFREE]:
        if not 0 <= ev.residue < free_cap[ev.name]:
            _refuse(ev, _UNHELD.format(ev.residue, free_cap[ev.name]))
    for ev in events[tr.EV_DCREATE]:
        if not 0 <= ev.residue < coll_cap[ev.coll]:
            _refuse(ev, _UNHELD.format(ev.residue, coll_cap[ev.coll]))
    for ev in events[tr.EV_SEND]:
        if not _cells_fit(msg_cap[ev.msg_kind], ev.cells):
            _refuse(ev, f"cells {ev.cells} are no residues that registers of "
                    f"declared {ev.msg_kind} fields hold")
        if not _delivers_once(ev):
            _refuse(ev, _DELIVERY)
    for ev in events[tr.EV_FAULT]:
        edit, key = ev.detail, faults._KINDS[ev.fault_kind].record
        if (key == "proc") != (ev.pid is not None):
            _refuse(ev, f"of kind {ev.fault_kind} needs " + (
                "a pid" if key == "proc" else f"pid null, not {ev.pid}"))
        if list(edit) != (want := [key] if ev.applied else []):
            _refuse(ev, f"detail keys {list(edit)} are not {want}")
        if "proc" in edit:
            fault = _proc_misfit(prog, regs, ev.pid, edit["proc"])
        elif "msg" in edit:
            fault = _row_misfit(declared, msg_cap, edit["msg"])
        elif "mid" in edit and not is_int(edit["mid"]):
            fault = f"mid {edit['mid']!r} is no message id"
        else:
            continue
        if fault:
            _refuse(ev, fault)


def _refuse(ev, fault: str) -> NoReturn:
    raise ConfigError(f"malformed trace: step {ev.step}: {ev.kind} event "
                      f"{fault}")


def _stranger(declared: dict, layout: type, items: list) -> Optional[tuple]:
    """The first ``layout`` tuple of ``items`` naming, in a field, what
    ``declared`` lacks in the field's domain, with the fault; or None."""
    for fld, domain in layout.names.items():
        known, get = declared[domain], attrgetter(fld)
        if not all(map(known.__contains__, map(get, items))):
            item = next(item for item in items if get(item) not in known)
            return item, f"{fld} {get(item)!r} is not among {list(known)}"
    return None


_DELIVERY = "must set exactly one of arrival_step and drop_step"
_UNHELD = "residue {} lies outside [0, {}), what its register holds"


def _delivers_once(msg) -> bool:
    """A ``send`` event or message row ``msg`` arrives or drops, not both."""
    return (msg.arrival_step is None) != (msg.drop_step is None)


def _int_map(d: dict, keys) -> bool:
    """``d`` maps exactly the names ``keys`` to integers."""
    return d.keys() == set(keys) and all(map(is_int, d.values()))


def _registers(prog) -> tuple[dict, dict, dict]:
    """One past the largest residue a register holds, ``2**bits`` of its
    family: by free counter, by collection, and by message kind and field."""
    cap = {fam: 1 << p.bits for fam, p in prog.families.items()}
    return ({name: cap[fam] for name, fam in prog.free_cells.items()},
            {coll: cap[d.family] for coll, d in prog.colls.items()},
            {kind: {fld: cap[fam] for fld, fam in d.cell_fields.items()}
             for kind, d in prog.msgs.items()})


def _cells_fit(caps: dict[str, int], cells: dict) -> bool:
    """``cells`` are residues of fields whose registers hold ``caps``."""
    for fld, res in cells.items():
        if not (is_int(res) and 0 <= res < caps.get(fld, 0)):
            return False
    return True


def _snapshot_misfit(prog, declared: dict, regs: tuple,
                     snap: dict) -> Optional[str]:
    """What keeps ``snap`` from the layout the kernel writes for ``prog``,
    or None: :data:`.trace.SNAPSHOT` with a value per process, each proc as
    :func:`_proc_misfit` and each message row as :func:`_row_misfit` has
    it."""
    if fault := tr.misfit(tr.SNAPSHOT, snap):
        return fault
    n = prog.n
    parts = ("regions", "locals", "procs", "inboxes")
    if not (all(len(snap[part]) == n for part in parts)
            and _int_map(snap["budgets"], prog.families)):
        return (f"it needs {n} each of {', '.join(parts)}, and an integer "
                f"budget for each of {list(prog.families)}")
    for pid, proc in enumerate(snap["procs"]):
        if fault := _proc_misfit(prog, regs, pid, proc):
            return fault
    for box in (snap["in_flight"], *snap["inboxes"]):
        if type(box) is not list:
            return f"inbox {box!r} is not a list of message rows"
        for row in box:
            if fault := _row_misfit(declared, regs[2], row):
                return fault
    return None


def _proc_misfit(prog, regs: tuple, pid: int, proc) -> Optional[str]:
    """What keeps ``proc``, as a snapshot or a fault records process
    ``pid``, from a :data:`.trace.PROC` of the program's counters and
    collections, with :class:`.trace.CellRow` rows and residues their
    registers (``regs``) hold, and exactly the vars ``pid`` starts with; or
    None."""
    free_cap, coll_cap, _ = regs
    init = prog.init(pid)
    free = init.free
    if (type(proc) is dict and tr.misfit(tr.PROC, proc) is None
            and _int_map(proc["free"], free)
            and all(0 <= res < free_cap[name]
                    for name, res in proc["free"].items())
            and proc["colls"].keys() <= prog.colls.keys()
            and all(type(rows) is list
                    and all(tr.fits(tr.CellRow, row)
                            and 0 <= row[1] < coll_cap[coll] for row in rows)
                    for coll, rows in proc["colls"].items())
            and proc["vars"].keys() == init.vars.keys()):
        return None
    return (f"pid {pid}: it needs free counters {list(free)} and "
            f"collections among {list(prog.colls)}, as lists of "
            f"[{', '.join(tr.CellRow._fields)}] rows, with residues "
            f"their registers hold, and vars {list(init.vars)}")


def _row_misfit(declared: dict, msg_cap: dict, row) -> Optional[str]:
    """What keeps ``row``, as a snapshot or a fault records a message, from
    a :class:`.trace.MsgRow` of the program (``declared``, ``msg_cap``); or
    None."""
    msg = tr.fits(tr.MsgRow, row) and tr.MsgRow._make(row)
    if msg and (stranger := _stranger(declared, tr.MsgRow, [msg])):
        return f"message row {row!r}: {stranger[1]}"
    if not (msg and _cells_fit(msg_cap[msg.kind], msg.cells)):
        return (f"message row {row!r} is no "
                f"[{', '.join(tr.MsgRow._fields)}] row with residues "
                "its kind's registers hold")
    if not _delivers_once(msg):
        return f"message row {row!r} {_DELIVERY}"
    return None


# --- replay checks ----------------------------------------------------------


def closure_check(prog, trace: tr.Trace,
                  report: Optional[VerificationReport] = None) -> VerificationReport:
    """Replay a fault-free trace from its initial state; any residue that
    disagrees with the unbounded reference is a failure. The trace must be
    kernel-made or pass :func:`validate`."""
    if trace.has_faults():
        raise ConfigError("closure check applies to fault-free runs only; "
                          "this trace records fault injections")
    if report is None:
        report = VerificationReport()
    try:
        steps = Replayer(prog, trace, 0).run()
    except OracleDivergence as exc:
        report.add("closure-replay", False,
                   f"diverges at step {exc.step}: {exc.detail}")
    else:
        report.add("closure-replay", True,
                   f"{steps} steps match the unbounded reference")
    return report


def snapshot_step_for_region(trace: tr.Trace, region: int) -> Optional[int]:
    """Step of the snapshot taken when the global clock entered ``region``,
    or None if the run never got there."""
    for step, snap in sorted(trace.snapshots.items()):
        if snap.get("label") == f"region:{region}":
            return step
    return None


def suffix_check(prog, trace: tr.Trace, boundary_region: int,
                 report: Optional[VerificationReport] = None) -> VerificationReport:
    """Replay the trace suffix from the snapshot taken at entry to
    ``boundary_region``; used for the post-fault equivalence half of
    convergence. The trace must be kernel-made or pass :func:`validate`."""
    if report is None:
        report = VerificationReport()
    start = snapshot_step_for_region(trace, boundary_region)
    if start is None:
        report.add("suffix-replay", False,
                   f"run never reached region {boundary_region}; no suffix "
                   "to check (trace does not stabilize within its horizon)")
        return report
    try:
        steps = Replayer(prog, trace, start).run()
    except OracleDivergence as exc:
        report.add("suffix-replay", False,
                   f"suffix from step {start} (region {boundary_region}) "
                   f"diverges at step {exc.step}: {exc.detail}")
    else:
        report.add("suffix-replay", True,
                   f"suffix from step {start} (region {boundary_region}), "
                   f"{steps} steps match the unbounded reference")
    return report


# --- scans ------------------------------------------------------------------


def scan_free_containment(prog, trace: tr.Trace, fstop: int,
                          report: Optional[VerificationReport] = None
                          ) -> VerificationReport:
    """Check that once a process is three regions past the last fault,
    each of its free counters has some in-window value congruent to the
    stored residue, at every state change from then on."""
    if report is None:
        report = VerificationReport()
    fams = {name: prog.families[fam] for name, fam in prog.free_cells.items()}
    snap0 = trace.snapshots[0]
    regions = list(snap0["regions"])
    free = [dict(p["free"]) for p in snap0["procs"]]
    settle = fstop + 3

    def bad(step, pid, name, res):
        report.add("free-containment", False,
                   f"step {step}: pid {pid} free counter {name!r} residue "
                   f"{res} has no value in its window at region "
                   f"{regions[pid]} (>= {settle} = fault stop + 3)")

    for ev in trace.events:
        kind = ev.kind
        if kind == tr.EV_RC:
            regions[ev.pid] = ev.new_region
            for ch in ev.changes:
                if ch.slot == "free":
                    free[ev.pid][ch.key] = ch.new_res
            written = (list(free[ev.pid].items()) if ev.new_region >= settle
                       else ())
        elif kind == tr.EV_WFREE:
            written = [(ev.name, ev.residue)]
        elif kind == tr.EV_FAULT and "proc" in ev.detail:
            # only an overwrite_free's target may differ from what it held
            written = ev.detail["proc"]["free"].items()
            hit = ev.target if ev.fault_kind == "overwrite_free" else None
            for name, res in written:
                if name != hit and res != free[ev.pid][name]:
                    report.add("free-containment", False,
                               f"step {ev.step}: pid {ev.pid} fault records "
                               f"residue {res} of {name!r}, which held "
                               f"{free[ev.pid][name]}")
                    return report
        else:
            continue
        for name, res in written:
            free[ev.pid][name] = res
            if regions[ev.pid] >= settle and not fits_free(
                    res, regions[ev.pid], fams[name]):
                bad(ev.step, ev.pid, name, res)
                return report
    report.add("free-containment", True,
               "all free counters fit their windows from 3 regions after "
               f"the last fault (region {fstop})")
    return report


def convergence_check(prog, trace: tr.Trace, fstop: int) -> VerificationReport:
    """Both halves of the stabilization claim for a faulted run: free
    counters contained 3 regions after the last fault, in global region
    ``fstop``, and the suffix from 3 intervals after it replaying cleanly."""
    report = VerificationReport()
    scan_free_containment(prog, trace, fstop, report=report)
    suffix_check(prog, trace, convergence_boundary(prog.families, fstop),
                 report=report)
    return report


_DEP_LIFE_KINDS = frozenset((tr.EV_RC, tr.EV_DCREATE, tr.EV_DREMOVE, tr.EV_FAULT))


def scan_dep_lifetimes(prog, trace: tr.Trace,
                       report: Optional[VerificationReport] = None
                       ) -> VerificationReport:
    """No dependent cell may be seen alive more than its family's declared
    forward reach (r_f) regions past its creation region, nor be stamped in
    a later region than its owner's, which would make its age negative."""
    if report is None:
        report = VerificationReport()
    caps = {coll: prog.families[decl.family].r_f
            for coll, decl in prog.colls.items()}
    start = trace.snapshots[0]
    regions = list(start["regions"])  # each owner's region, moved by rc

    def cells(pstate) -> dict:
        """A recorded process's cells: (collection, id) -> stamp."""
        return {(coll, row[0]): row[2]  # a CellRow's cid and created_local
                for coll, rows in pstate["colls"].items() for row in rows}

    live = list(map(cells, start["procs"]))  # each owner's cells
    worst = -1

    def stamped_ahead(step, pid, key) -> bool:
        """Report cell ``key`` of ``pid`` if its stamp lies past its
        owner's region."""
        if live[pid][key] <= regions[pid]:
            return False
        report.add("dep-lifetime", False,
                   f"step {step}: pid {pid} cell {key[1]} in {key[0]!r} "
                   f"stamped in region {live[pid][key]}, after its owner's "
                   f"region {regions[pid]}")
        return True

    def age_ok(step, pid, key, region) -> bool:
        nonlocal worst
        age = region - live[pid][key]
        worst = max(worst, age)
        if age > caps[key[0]]:
            report.add("dep-lifetime", False,
                       f"step {step}: pid {pid} cell {key[1]} in {key[0]!r} "
                       f"alive {age} regions after creation, past the "
                       f"declared forward reach {caps[key[0]]}")
            return False
        return True

    # a cell's age only grows from its creation on, so a stamp checked then
    # needs no check at a later region change
    if any(stamped_ahead(0, pid, key) for pid, owned in enumerate(live)
           for key in owned):
        return report
    # only these kinds move a cell's life; the C iterators skip the rest
    kinds = map(itemgetter(1), trace.events)
    for ev in compress(trace.events, map(_DEP_LIFE_KINDS.__contains__, kinds)):
        kind, pid = ev.kind, ev.pid
        if kind == tr.EV_RC:
            regions[pid] = ev.new_region
            if not all(age_ok(ev.step, pid, key, ev.new_region)
                       for key in live[pid]):
                return report
        elif kind == tr.EV_DCREATE:
            key = (ev.coll, ev.cid)
            live[pid][key] = ev.created_local
            if stamped_ahead(ev.step, pid, key):
                return report
        elif kind == tr.EV_DREMOVE:
            live[pid].pop((ev.coll, ev.cid), None)
        elif kind == tr.EV_FAULT and "proc" in ev.detail:
            live[pid] = cells(ev.detail["proc"])  # the process it left
            if any(stamped_ahead(ev.step, pid, key) for key in live[pid]):
                return report
    if worst < 0:
        report.add("dep-lifetime", True,
                   "no dependent cell crossed a region boundary")
    else:
        report.add("dep-lifetime", True,
                   f"max observed cell age {worst} regions, within every "
                   "collection's declared forward reach")
    return report


def max_region_gap(trace: tr.Trace) -> int:
    """Largest observed region spread, process-to-process or
    process-to-global, at any snapshot or clock tick; a run of consecutive
    equal clock records has one spread, so it is probed once."""
    gap = 0

    def probe(regions, g_region):
        # the spread of the regions together with the global one is the
        # larger of their own spread and their largest distance to it
        return max(max(regions), g_region) - min(min(regions), g_region)

    for snap in trace.snapshots.values():
        gap = max(gap, probe(snap["regions"], snap["g_region"]))
    # a clock event's g_region and regions
    clocks = map(itemgetter(3, 5), trace.iter_events(tr.EV_CLOCK))
    for (g_region, regions), _ in groupby(clocks):
        gap = max(gap, probe(regions, g_region))
    return gap


def scan_region_gaps(trace: tr.Trace, expected_max: int,
                     report: Optional[VerificationReport] = None
                     ) -> VerificationReport:
    if report is None:
        report = VerificationReport()
    gap = max_region_gap(trace)
    report.add("region-gaps", gap <= expected_max,
               f"max inter-process region gap {gap} (allowed {expected_max})")
    return report


def scan_msg_lifetime(trace: tr.Trace,
                      report: Optional[VerificationReport] = None
                      ) -> VerificationReport:
    """No message may arrive or be consumed once the global region has moved
    more than lifetime_regions past its send region."""
    if report is None:
        report = VerificationReport()
    lifetime = trace.meta["lifetime_regions"]
    snap0 = trace.snapshots[0]
    g_region = snap0["g_region"]
    sent = {row.mid: row.send_region_global for row in map(
        tr.MsgRow._make, chain(snap0["in_flight"], *snap0["inboxes"]))}
    for ev in trace.events:
        kind = ev.kind
        if kind == tr.EV_CLOCK:
            g_region = ev.g_region
        elif kind == tr.EV_SEND:
            sent[ev.mid] = ev.send_region_global
        elif kind in (tr.EV_ARRIVE, tr.EV_CONSUME):
            if ev.mid not in sent:
                report.add("msg-lifetime", False,
                           f"step {ev.step}: message {ev.mid} {kind}, but "
                           "no send or snapshot records it")
                return report
            if g_region > sent[ev.mid] + lifetime:
                report.add("msg-lifetime", False,
                           f"step {ev.step}: message {ev.mid} {kind} at "
                           f"global region {g_region}, sent at "
                           f"{sent[ev.mid]}, past lifetime {lifetime}")
                return report
    report.add("msg-lifetime", True,
               f"no message outlived its {lifetime}-region lifetime")
    return report


def check(sc, trace: tr.Trace) -> VerificationReport:
    """Everything ``regionbound check`` judges of ``trace``, a run of
    scenario ``sc``, once :func:`validate` has passed it: closure for a
    fault-free run or convergence for a faulted one, the region-gap,
    message-lifetime and dependent-lifetime scans, and the protocol's
    safety predicate, if it has one, from step 0 of a fault-free run or from
    the convergence boundary of a faulted one. The predicate reads marks,
    which only a passing replay vouches for, so a failed replay leaves it
    unjudged.
    """
    validate(sc.prog, trace)
    if sc.has_faults:
        report = convergence_check(sc.prog, trace,
                                   sc.derived["fault_stop_region"])
        safety_start = snapshot_step_for_region(
            trace, sc.derived["boundary_region"])
    else:
        report = closure_check(sc.prog, trace)
        safety_start = 0
    replayed = report.results[-1].ok  # closure- or suffix-replay
    scan_region_gaps(trace, 1 if sc.cfg.drift.kind != "none" else 0,
                     report=report)
    scan_msg_lifetime(trace, report=report)
    scan_dep_lifetimes(sc.prog, trace, report=report)
    if sc.prog.safety is not None:
        if replayed:
            report.add("protocol-safety",
                       *sc.prog.safety(trace, safety_start))
        else:
            report.add("protocol-safety", False, "not judged, replay failed")
    return report


# --- sizing -----------------------------------------------------------------


def lifetime_regions_for(delay: int, rs: int) -> int:
    """Worst-case region-boundary crossings for a message in flight up to
    ``delay`` time units: a send at the last instant of a region crosses
    ceil(delay / rs) boundaries."""
    if delay < 1:
        raise ConfigError(f"message delay must be >= 1, got {delay}")
    return (delay - 1) // rs + 1


def sweep(rs: int, delays, rates) -> list[dict]:
    """Counter sizing across a (delay, rate) grid at region span ``rs``.

    Each row derives the message lifetime in regions from the delay, sizes
    the family's reach as lifetime + 2 (the stamp staleness bound), takes
    the rate as the per-region growth cap, and reports the resulting modulus
    and bit width.
    """
    if not is_int(rs) or rs < 1:
        raise ConfigError(f"region span must be an integer >= 1, got {rs!r}")
    for name, values in (("delays", delays), ("rates", rates)):
        if (not isinstance(values, (list, tuple)) or not values
                or not all(is_int(v) for v in values)):
            raise ConfigError(f"{name} must be a non-empty list of integers")
    rows = []
    for delay in delays:
        lifetime = lifetime_regions_for(delay, rs)
        max_r = lifetime + 2
        for rate in rates:
            if rate < 1:
                raise ConfigError(
                    f"rate must be >= 1 (counters grow, so the per-region "
                    f"increment cap is at least 1), got {rate}")
            rows.append({
                "rs": rs, "delay": delay, "rate": rate,
                "lifetime_regions": lifetime, "max_r": max_r,
                "maxbound": maxbound_of(rate, max_r),
                "bits": bits_required(rate, max_r),
            })
    return rows


def write_sweep_csv(rows: list[dict], fp: IO[str]) -> None:
    writer = csv.DictWriter(fp, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
