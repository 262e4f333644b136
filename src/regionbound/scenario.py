"""Scenario files: one validated description of a runnable setup.

A scenario is a JSON object naming the protocol, the topology, the timing
parameters, the counter families, the channel behaviour, and (optionally) a
fault schedule. Parsing is strict: unknown keys anywhere are errors, so a
typo in a safety-critical parameter cannot silently fall back to a default.
Every derived quantity (per-family modulus and bit width, total steps, the
convergence boundary for faulted runs) is echoed back for audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import analysis, faults, kernel
from .counters import CounterParams
from .errors import ConfigError, is_int
from .protocols import REGISTRY
from .protocols.base import BuildInfo
from .regions import DriftPolicy
from .trace import refuse_constant

_TOPOLOGIES = ("complete", "ring", "line", "star")


@dataclass
class Scenario:
    """A parsed scenario, ready to run."""

    protocol: str
    n: int
    prog: object
    cfg: kernel.RunConfig
    seed: int
    derived: dict = field(default_factory=dict)

    @property
    def has_faults(self) -> bool:
        return bool(self.cfg.faults)


def _strict(obj: dict, where: str, known: tuple) -> None:
    extra = sorted(set(obj) - set(known))
    if extra:
        raise ConfigError(f"unknown field(s) in {where}: {', '.join(extra)}")


def _require(obj: dict, where: str, name: str):
    if name not in obj:
        raise ConfigError(f"{where} is missing required field '{name}'")
    return obj[name]


def _int_field(obj: dict, where: str, name: str, minimum: int) -> int:
    v = _require(obj, where, name)
    if not is_int(v) or v < minimum:
        raise ConfigError(f"{where}.{name} must be an integer >= {minimum}")
    return v


def neighbors_for(topology: str, n: int) -> tuple:
    """Symmetric adjacency lists for the named topology."""
    if topology == "complete":
        return tuple(tuple(j for j in range(n) if j != i) for i in range(n))
    if topology == "ring":
        if n < 3:
            raise ConfigError("ring topology needs n >= 3")
        return tuple(tuple(sorted({(i - 1) % n, (i + 1) % n}))
                     for i in range(n))
    if topology == "line":
        return tuple(tuple(j for j in (i - 1, i + 1) if 0 <= j < n)
                     for i in range(n))
    if topology == "star":
        return ((tuple(range(1, n)),)
                + tuple((0,) for _ in range(1, n)))
    raise ConfigError(f"unknown topology {topology!r}; "
                      f"pick one of {', '.join(_TOPOLOGIES)}")


def _parse_drift(raw) -> DriftPolicy:
    if raw is None or raw == "none":
        return DriftPolicy()
    if isinstance(raw, dict):
        _strict(raw, "drift_policy", ("kind", "max_step_skew"))
        kind = _require(raw, "drift_policy", "kind")
        skew = (_int_field(raw, "drift_policy", "max_step_skew", 0)
                if "max_step_skew" in raw else 0)
        return DriftPolicy(kind, skew)
    raise ConfigError("drift_policy must be \"none\" or an object with "
                      "kind/max_step_skew")


def _parse_families(raw: dict) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("families must be a non-empty object")
    families = {}
    for name, spec in raw.items():
        where = f"families.{name}"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where} must be an object")
        _strict(spec, where, ("maxinc", "r_b", "r_f"))
        maxinc = _int_field(spec, where, "maxinc", 1)
        r_b = _int_field(spec, where, "r_b", 0)
        r_f = _int_field(spec, where, "r_f", 0)
        families[name] = CounterParams(maxinc=maxinc, r_b=r_b, r_f=r_f)
    return families


def _parse_fault_entry(raw: dict, idx: int) -> faults.FaultEntry:
    """Map one list-mode entry's keys onto a FaultEntry; what the values
    must be is :func:`faults.validate_entries`'s to judge."""
    where = f"faults.entries[{idx}]"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    _strict(raw, where, ("when_kind", "when", "kind", "target", "pid",
                         "value", "tag", "age"))
    if raw.get("pid", 0) is None:  # FaultEntry reads None as "no pid"
        raise ConfigError(f"{where}.pid must be an integer")
    return faults.FaultEntry(
        when_kind=_require(raw, where, "when_kind"),
        when=_require(raw, where, "when"),
        kind=_require(raw, where, "kind"),
        target=_require(raw, where, "target"),
        pid=raw.get("pid"),
        value=raw.get("value"),
        tag=raw.get("tag"),
        age=raw.get("age", 0))


def parse(doc: dict) -> Scenario:
    """Validate a scenario document and build everything it describes."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    _strict(doc, "scenario",
            ("protocol", "protocol_params", "n", "topology", "rs",
             "steps_per_time_unit", "start_region", "drift_policy",
             "families", "channel", "faults", "run_regions", "seed"))

    protocol = _require(doc, "scenario", "protocol")
    if not isinstance(protocol, str) or protocol not in REGISTRY:
        raise ConfigError(f"unknown protocol {protocol!r}; "
                          f"known: {', '.join(sorted(REGISTRY))}")
    module = REGISTRY[protocol]
    given = doc.get("protocol_params") or {}
    if not isinstance(given, dict):
        raise ConfigError("protocol_params must be an object")
    bad = sorted(set(given) - set(module.PARAMS))
    if bad:
        raise ConfigError(f"protocol {protocol!r} takes no parameter(s) "
                          f"{', '.join(bad)}")
    for name, value in given.items():
        if not is_int(value):
            raise ConfigError(f"protocol_params.{name} must be an integer")

    n = _int_field(doc, "scenario", "n", 2)
    topology = _require(doc, "scenario", "topology")
    nbrs = neighbors_for(topology, n)
    rs = _int_field(doc, "scenario", "rs", 2)
    sptu = doc.get("steps_per_time_unit", 1)
    if not is_int(sptu) or sptu < 1:
        raise ConfigError("scenario.steps_per_time_unit must be an "
                          "integer >= 1")
    run_regions = _int_field(doc, "scenario", "run_regions", 1)
    seed = _int_field(doc, "scenario", "seed", 0)
    drift = _parse_drift(doc.get("drift_policy"))

    families = _parse_families(_require(doc, "scenario", "families"))
    min_start = max(p.min_usable_region() for p in families.values())
    start_region = doc.get("start_region", min_start)
    if not is_int(start_region) or start_region < min_start:
        raise ConfigError(
            f"scenario.start_region must be an integer >= {min_start} "
            "(2 + the largest family reach)")

    channel = _require(doc, "scenario", "channel")
    if not isinstance(channel, dict):
        raise ConfigError("channel must be an object")
    _strict(channel, "channel",
            ("max_delay_steps", "loss_probability", "lifetime_regions"))
    max_delay = _int_field(channel, "channel", "max_delay_steps", 1)
    loss = channel.get("loss_probability", 0.0)
    if not (is_int(loss) or isinstance(loss, float)) or not 0.0 <= loss <= 1.0:
        raise ConfigError("channel.loss_probability must be a number within "
                          "[0, 1]")
    if "lifetime_regions" in channel:
        lifetime = channel["lifetime_regions"]
        if not is_int(lifetime) or lifetime < 0:
            raise ConfigError("channel.lifetime_regions must be an "
                              "integer >= 0")
    else:
        delay_units = -(-max_delay // sptu)
        lifetime = analysis.lifetime_regions_for(delay_units, rs)

    info = BuildInfo(n=n, neighbors=nbrs, families=families,
                     start_region=start_region,
                     lifetime_regions=lifetime,
                     params={**module.PARAMS, **given})
    prog = module.build(info)

    total_steps = run_regions * rs * sptu
    end_region = start_region + run_regions - 1

    entries: tuple = ()
    fstop = boundary = None
    fault_doc = doc.get("faults")
    if fault_doc is not None:
        if not isinstance(fault_doc, dict):
            raise ConfigError("faults must be an object")
        mode = _require(fault_doc, "faults", "mode")
        if mode == "campaign":
            _strict(fault_doc, "faults",
                    ("mode", "regions", "seed", "per_family"))
            regions = _require(fault_doc, "faults", "regions")
            if (not isinstance(regions, list) or not regions
                    or not all(is_int(r) for r in regions)):
                raise ConfigError("faults.regions must be a non-empty list "
                                  "of integers")
            per_family = (_int_field(fault_doc, "faults", "per_family", 1)
                          if "per_family" in fault_doc else 1)
            campaign_seed = (_int_field(fault_doc, "faults", "seed", 0)
                             if "seed" in fault_doc else seed)
            entries = faults.make_campaign(
                prog, fault_regions=tuple(regions), seed=campaign_seed,
                per_family=per_family)
        elif mode == "list":
            _strict(fault_doc, "faults", ("mode", "entries"))
            raw_entries = _require(fault_doc, "faults", "entries")
            if not isinstance(raw_entries, list) or not raw_entries:
                raise ConfigError("faults.entries must be a non-empty list")
            entries = tuple(_parse_fault_entry(e, i)
                            for i, e in enumerate(raw_entries))
            faults.validate_entries(prog, entries)
        else:
            raise ConfigError("faults.mode must be 'campaign' or 'list'")
        when_regions = [kernel.region_of_step(e.when, start_region, rs, sptu)
                        if e.when_kind == "step" else e.when for e in entries]
        for when_region in when_regions:
            if not start_region < when_region <= end_region:
                raise ConfigError(
                    f"fault at region {when_region} falls outside the run "
                    f"(regions {start_region + 1}..{end_region})")
        fstop = max(when_regions)
        boundary = analysis.convergence_boundary(families, fstop)
        if boundary > end_region - 1:
            need = boundary - start_region + 2
            raise ConfigError(
                f"run of {run_regions} regions ends at region {end_region}, "
                f"before the convergence boundary {boundary}; "
                f"use run_regions >= {need}")

    cfg = kernel.RunConfig(
        prog=prog, rs=rs, sptu=sptu, start_region=start_region,
        drift=drift, lifetime_regions=lifetime,
        loss_probability=float(loss), max_delay_steps=max_delay,
        total_steps=total_steps,
        faults=entries,
        snapshot_regions=(boundary,) if boundary is not None else ())
    cfg.validate()

    derived = {
        "total_steps": total_steps,
        "start_region": start_region,
        "end_region": end_region,
        "lifetime_regions": lifetime,
        "families": {
            name: {"max_r": p.max_r,
                   "maxbound": p.maxbound,
                   "bits": p.bits}
            for name, p in families.items()},
        "fault_count": len(entries),
        "fault_stop_region": fstop,
        "boundary_region": boundary,
    }
    return Scenario(protocol=protocol, n=n, prog=prog, cfg=cfg, seed=seed,
                    derived=derived)


def read_json(path: str, what: str):
    """The document in the ``what`` file at ``path``, which must be JSON in
    UTF-8: no NaN."""
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp, parse_constant=refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # a decode error or a refused constant
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def load(path: str) -> Scenario:
    """Parse the scenario file at ``path``."""
    return parse(read_json(path, "scenario"))
