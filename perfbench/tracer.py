"""Layer tracing from outside the program: wrap public functions by rebinding
the attribute their callers look up, record spans, fold self times.

Every wrapped call updates per-name totals (calls, total ns, self ns), where
self time is the call's duration minus the time its wrapped children cover.
Calls of layer boundaries that occur a few times per job also keep a span
``(job, span_id, parent_id, name, start_ns, end_ns)`` in memory, written out
by :meth:`Tracer.write_spans` when the run ends. Calls that happen once or
more per simulated step (counter lifts, guard evaluation, the clock clamp,
region shifts) only update the totals: a span each would be ~10^5 records
per job and would double a job's time.

A child's wrapper spends some time outside its own timed interval (the call
into the wrapper, the stack push, the bookkeeping after it). That cost is
measured once when the tracer is created and charged to the child, so the parent's self
time does not absorb the tracer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._next_sid = 0
        self.outer_ns = 0
        self.outer_ns = self._calibrate()

    def wrap(self, owner, attr: str, name: str, keep: bool = True,
             count_result: str | None = None) -> None:
        """Replace ``owner.attr`` by a timing wrapper recorded under ``name``.

        ``keep`` stores a span per call. ``count_result`` adds the wrapped
        function's (integer) return value to that count.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrapper(orig, name, keep, count_result))
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrapper(self, orig, name, keep, count_result):
        stack = self._stack
        totals = self.totals[name]
        spans = self.spans
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if keep:
                sid = tracer._next_sid
                tracer._next_sid += 1
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
            else:
                sid = -1
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur + tracer.outer_ns
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if keep:
                    spans.append((tracer.job, sid, parent, name, t0, t1))
            if count_result is not None:
                counts[count_result] += result
            return result

        return wrapper

    def _calibrate(self, calls: int = 20000, repeats: int = 5) -> int:
        """Least ns a wrapped call costs beyond its own timed interval, over
        a few repeats (host noise only ever adds)."""
        def noop():
            return None

        wrapped = self._wrapper(noop, "_calibrate", False, None)
        probe = self.totals["_calibrate"]
        samples = []
        for _ in range(repeats):
            probe[1] = 0
            t0 = perf_counter_ns()
            for _ in range(calls):
                noop()
            plain = perf_counter_ns() - t0
            t0 = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            traced = perf_counter_ns() - t0
            samples.append(max(0, (traced - plain - probe[1]) // calls))
        del self.totals["_calibrate"]
        return min(samples)

    def total_ns(self, name: str) -> int:
        return self.totals[name][1] if name in self.totals else 0

    def self_ns(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for job, sid, parent, name, t0, t1 in self.spans:
                fp.write(json.dumps({"job": job, "span": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1}) + "\n")


def install_layers(tracer: Tracer, modules: dict) -> None:
    """Wrap each module's public layer functions at the names their callers
    use. Kernel-side and oracle-side callers of the same function get
    separate names, because each module binds its own imported name."""
    kernel, oracle, transform = (modules["kernel"], modules["oracle"],
                                 modules["transform"])
    for owner in (kernel, transform):
        for fn in ("lift_free", "lift_dep"):
            tracer.wrap(owner, fn, "counters.lift.kernel", keep=False)
    for fn in ("lift_free", "lift_dep"):
        tracer.wrap(oracle, fn, "counters.lift.oracle", keep=False)
    tracer.wrap(kernel, "choose_action", "transform.choose_action.kernel",
                keep=False)
    tracer.wrap(oracle, "choose_action", "transform.choose_action.oracle",
                keep=False)
    tracer.wrap(kernel, "region_shift", "transform.region_shift", keep=False)
    tracer.wrap(kernel, "advance_clocks", "regions.advance_clocks",
                keep=False)
    tracer.wrap(kernel, "run", "kernel.run")
    tracer.wrap(oracle.Replayer, "run", "oracle.replay",
                count_result="oracle.replayed_steps")
    analysis = modules["analysis"]
    for fn in ("closure_check", "convergence_check"):
        tracer.wrap(analysis, fn, "analysis.check")
    for fn in ("scan_free_containment", "scan_region_gaps",
               "scan_msg_lifetime", "scan_dep_lifetimes"):
        tracer.wrap(analysis, fn, "analysis.scan")
    trace = modules["trace"]
    tracer.wrap(trace, "save", "trace.save")
    tracer.wrap(trace, "load", "trace.load")
    # protocol builders read these names when a scenario is parsed, so the
    # scenarios must be parsed after install to carry the wrapped predicate
    tracer.wrap(modules["mutual_exclusion"], "check_safety", "protocols.safety")
    tracer.wrap(modules["consensus"], "check_agreement", "protocols.safety")
    tracer.wrap(modules["scenario"], "parse", "scenario.parse")
    tracer.wrap(modules["faults"].FaultEntry, "apply", "faults.apply")
    tracer.wrap(modules["cli"], "main", "cli.main")
