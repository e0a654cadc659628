"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro list                      # catalogued workloads
    python -m repro profile E-commerce        # thresholds for one service
    python -m repro compare E-commerce stream-dram --load 0.85
    python -m repro production E-commerce stream-dram --duration 600
    python -m repro trace E-commerce --requests 100
    python -m repro grid service --workers 4  # a figure grid, in parallel
    python -m repro cache stats               # the result cache's state

Every command prints the same text tables the benchmarks produce. Grid
commands fan cells out to the parallel grid engine (worker count from
``--workers``, the ``RHYTHM_WORKERS`` env var, or the CPU count); the
profiling phase fans out through the same persistent process pool
(``--profile-workers`` / ``RHYTHM_PROFILE_WORKERS``), so a cold figure
run pays pool startup once. Both phases, by default, memoize results in
the content-addressed cache — artifacts at load-point granularity,
finished cells whole — so warm re-runs only execute changed work
(``--no-cache``, or ``RHYTHM_CACHE=off``, disables this).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import List, Optional

from repro.bejobs.catalog import BE_CATALOG, be_job_spec
from repro.cache import CacheOutcomes
from repro.errors import ReproError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.report import render_table
from repro.experiments.runner import compare_systems, get_rhythm
from repro.loadgen.clarknet import clarknet_production_load
from repro.workloads.catalog import LC_CATALOG, lc_service_spec, service_spec


def _apply_kernel(args: argparse.Namespace) -> None:
    """Export ``--kernel`` as ``RHYTHM_KERNEL`` for this process tree.

    The environment variable (rather than threading a parameter through
    every driver) reaches worker-pool subprocesses under both fork and
    spawn start methods, so a whole grid runs on the chosen kernel.
    """
    kernel = getattr(args, "kernel", None)
    if kernel:
        from repro.sim.kernel import KERNEL_ENV_VAR, resolve_kernel

        os.environ[KERNEL_ENV_VAR] = resolve_kernel(kernel)


def _print_cache(stats: CacheOutcomes, unit: str) -> None:
    """The cache summary line every cached command prints."""
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses, "
        f"{stats.skipped} uncached of {stats.total} {unit}"
    )


def cmd_list(args: argparse.Namespace) -> int:
    """List the catalogued LC services and BE jobs."""
    lc_rows = []
    for name in list(LC_CATALOG) + ["SNMS"]:
        spec = service_spec(name)
        lc_rows.append([
            spec.name, spec.domain, ",".join(spec.servpod_names),
            f"{spec.max_load_qps:g} QPS", f"{spec.sla_ms:g} ms",
        ])
    print(render_table(
        ["Service", "Domain", "Servpods", "MaxLoad", "SLA"], lc_rows,
        title="LC services (Table 1)",
    ))
    print()
    print(render_table(
        ["BE job", "Domain", "-intensive"],
        [[s.name, s.domain, s.intensity.value] for s in BE_CATALOG.values()],
        title="BE jobs (Table 1)",
    ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile a service and print its derived thresholds."""
    spec = service_spec(args.service)
    rhythm = get_rhythm(spec, seed=args.seed, probe_slacklimits=not args.no_probe)
    contributions = rhythm.contributions()
    normalized = contributions.normalized()
    loadlimits = rhythm.loadlimits()
    slacklimits = rhythm.slacklimits()
    rows = []
    for pod in spec.servpod_names:
        c = contributions.contributions[pod]
        rows.append([
            pod, round(c.mean_weight, 3), round(c.correlation, 3),
            round(c.variation, 4), round(normalized[pod], 3),
            round(loadlimits[pod], 2), round(slacklimits[pod], 3),
        ])
    print(render_table(
        ["Servpod", "P_i", "rho_i", "V_i", "C_i (norm)", "loadlimit", "slacklimit"],
        rows,
        title=f"{spec.name} — per-Servpod contributions and thresholds",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare Rhythm and Heracles on one (service, BE, load) cell."""
    spec = service_spec(args.service)
    be = be_job_spec(args.be_job)
    cmp = compare_systems(
        spec, be, args.load, seed=args.seed,
        config=ColocationConfig(duration_s=args.duration),
    )
    rows = []
    for name, result in (("Rhythm", cmp.rhythm), ("Heracles", cmp.heracles)):
        rows.append([
            name, round(result.be_throughput, 3), round(result.emu, 3),
            f"{result.cpu_utilisation:.1%}", f"{result.membw_utilisation:.1%}",
            result.sla_violations, result.be_kills,
        ])
    print(render_table(
        ["System", "BE tput", "EMU", "CPU", "MemBW", "violations", "kills"],
        rows,
        title=f"{spec.name} + {be.name} @ {args.load:.0%} load, {args.duration:g}s",
    ))
    print(f"EMU improvement: {cmp.emu_improvement:+.1%}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded fault storm under Rhythm and Heracles, same storm.

    A two-member bake-off over one faulted scenario: the storm targets
    the service's Servpods (machines are named after them), ``--seed``
    drives the workload and ``--storm-seed`` the schedule, so the
    control policy is the only difference between the two cells.
    """
    from repro.experiments.bakeoff import (
        BakeoffConfig,
        BakeoffScenario,
        heracles_member,
        rhythm_member,
        run_bakeoff,
    )
    from repro.faults.spec import FaultSchedule
    from repro.loadgen.patterns import ConstantLoad

    spec = service_spec(args.service)
    be = be_job_spec(args.be_job)
    config = BakeoffConfig(duration_s=args.duration)
    schedule = FaultSchedule.generate(
        args.storm_seed,
        args.duration,
        targets=tuple(spec.servpod_names),
        faults_per_minute=args.faults_per_minute,
    )
    scenario = BakeoffScenario(
        service=args.service,
        be_jobs=(be.name,),
        pattern=ConstantLoad(args.load),
        seed=args.seed,
        faults=schedule,
    )
    members = [
        rhythm_member(args.service, seed=args.seed, probe_slacklimits=args.probe),
        heracles_member(args.service),
    ]
    rhythm, heracles = run_bakeoff([scenario], members, config, cache=None).cells
    print(render_table(
        ["fault kind", "windows"],
        [[kind, count] for kind, count in sorted(schedule.counts_by_kind().items())],
        title=(
            f"fault storm: seed {args.storm_seed}, "
            f"{len(schedule)} faults over {args.duration:g}s"
        ),
    ))
    rows = []
    for name, cell in (("Rhythm", rhythm), ("Heracles", heracles)):
        rows.append([
            name, cell.sla_violations, round(cell.worst_tail_ms, 3),
            cell.be_kills, round(cell.be_throughput, 3), round(cell.emu, 3),
        ])
    print(render_table(
        ["System", "violations", "worst tail ms", "kills", "BE tput", "EMU"],
        rows,
        title=f"{spec.name} + {be.name} @ {args.load:.0%} load under the storm",
    ))
    print(
        f"violation gap (Heracles − Rhythm): "
        f"{heracles.sla_violations - rhythm.sla_violations:+d}, "
        f"EMU gap (Rhythm − Heracles): {rhythm.emu - heracles.emu:+.3f}"
    )
    if args.json:
        payload = {
            "service": spec.name,
            "be_job": be.name,
            "load": args.load,
            "duration_s": args.duration,
            "storm_seed": args.storm_seed,
            "schedule": [
                {
                    "kind": f.kind.value,
                    "target": f.target,
                    "at_s": f.at_s,
                    "duration_s": f.duration_s,
                    "magnitude": f.magnitude,
                }
                for f in schedule
            ],
            "systems": {
                cell.member: {
                    "sla_violations": cell.sla_violations,
                    "worst_tail_ms": cell.worst_tail_ms,
                    "be_kills": cell.be_kills,
                    "be_throughput": cell.be_throughput,
                    "emu": cell.emu,
                }
                for cell in (rhythm, heracles)
            },
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote storm report to {args.json}")
    return 0


def cmd_production(args: argparse.Namespace) -> int:
    """Run a production (ClarkNet) day under both systems."""
    spec = service_spec(args.service)
    be = be_job_spec(args.be_job)
    pattern = clarknet_production_load(duration_s=args.duration, days=1)
    cmp = compare_systems(
        spec, be, load=0.5, seed=args.seed,
        config=ColocationConfig(duration_s=args.duration),
        pattern=pattern,
    )
    rows = []
    for name, result in (("Rhythm", cmp.rhythm), ("Heracles", cmp.heracles)):
        rows.append([
            name, round(result.emu, 3), round(result.be_throughput, 3),
            f"{result.worst_tail_ms / spec.sla_ms:.2f}",
            result.sla_violations, result.be_kills,
        ])
    print(render_table(
        ["System", "EMU", "BE tput", "worst p99/SLA", "violations", "kills"],
        rows,
        title=f"{spec.name} + {be.name} — production day ({args.duration:g}s)",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace requests through a service and print recovered sojourns."""
    import numpy as np

    from repro.sim.rng import RandomStreams
    from repro.tracing import CausalityMatcher, SojournExtractor, TraceEmitter
    from repro.tracing.emitter import EmitterConfig, default_endpoints
    from repro.workloads.service import Service

    spec = service_spec(args.service)
    svc = Service(spec, RandomStreams(args.seed))
    records = svc.build_request_records(args.load, args.requests)
    endpoints = default_endpoints(spec.servpod_names)
    emitter = TraceEmitter(endpoints, EmitterConfig(noise_per_request=3, seed=args.seed))
    events = emitter.emit(records)
    stats = SojournExtractor(CausalityMatcher(endpoints)).stats(events)
    truth = {}
    for record in records:
        for pod, sojourn in record.sojourn_by_servpod().items():
            truth.setdefault(pod, []).append(sojourn)
    print(f"{len(events)} kernel events captured for {len(records)} requests")
    print(render_table(
        ["Servpod", "traced mean (ms)", "true mean (ms)", "CoV"],
        [[pod, round(stats[pod].mean_ms, 3),
          round(float(np.mean(truth[pod])), 3), round(stats[pod].cov, 3)]
         for pod in spec.servpod_names],
        title=f"{spec.name} — tracer-recovered sojourn statistics @ {args.load:.0%}",
    ))
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """Run one of the evaluation grids on the parallel engine."""
    from repro.cache import default_store
    from repro.experiments.figures.figure9_11 import (
        SHOWCASED_SERVPODS,
        average_gain,
        run_servpod_grid,
    )
    from repro.experiments.figures.figure12_14 import (
        improvement_table,
        run_service_grid,
    )
    from repro.experiments.figures.figure15 import run_figure15, worst_safety_cell
    from repro.parallel.grid import resolve_workers
    from repro.parallel.pool import resolve_profile_workers

    _apply_kernel(args)
    workers = resolve_workers(args.workers)
    profile_workers = resolve_profile_workers(
        args.profile_workers if args.profile_workers is not None else args.workers
    )
    for name in args.services or ():
        lc_service_spec(name)  # fail fast; grids only take catalog services
    be_specs = [be_job_spec(name) for name in args.be_jobs] if args.be_jobs else None
    loads = tuple(args.loads) if args.loads else (0.05, 0.25, 0.45, 0.65, 0.85)
    config = ColocationConfig(duration_s=args.duration)
    cache = default_store() if args.cache else None
    cache_stats = CacheOutcomes() if cache is not None else None

    if args.kind == "servpod":
        servpods = [
            pair for pair in SHOWCASED_SERVPODS
            if not args.services or pair[0] in args.services
        ]
        rows = run_servpod_grid(
            servpods=servpods, be_specs=be_specs, loads=loads,
            seed=args.seed, config=config, workers=workers,
            cache=cache, cache_stats=cache_stats,
            profile_workers=profile_workers,
        )
        print(render_table(
            ["Servpod", "BE tput gain", "CPU gain", "MemBW gain"],
            [[pod,
              f"{average_gain(rows, pod, 'be_throughput'):+.3f}",
              f"{average_gain(rows, pod, 'cpu_utilisation'):+.1%}",
              f"{average_gain(rows, pod, 'membw_utilisation'):+.1%}"]
             for _, pod in servpods],
            title=f"Figures 9-11 grid — {len(rows)} rows, {workers} workers",
        ))
    elif args.kind == "service":
        rows = run_service_grid(
            services=args.services or None, be_specs=be_specs, loads=loads,
            seed=args.seed, config=config, workers=workers,
            cache=cache, cache_stats=cache_stats,
            profile_workers=profile_workers,
        )
        emu = improvement_table(rows, "emu_improvement")
        cpu = improvement_table(rows, "cpu_improvement")
        membw = improvement_table(rows, "membw_improvement")
        print(render_table(
            ["Service", "EMU impr", "CPU impr", "MemBW impr"],
            [[svc, f"{emu[svc]:+.1%}", f"{cpu[svc]:+.1%}", f"{membw[svc]:+.1%}"]
             for svc in sorted(emu)],
            title=f"Figures 12-14 grid — {len(rows)} cells, {workers} workers",
        ))
    else:  # production
        rows = run_figure15(
            services=args.services or None, be_specs=be_specs,
            duration_s=args.duration, seed=args.seed, workers=workers,
            cache=cache, cache_stats=cache_stats,
            profile_workers=profile_workers,
        )
        worst = worst_safety_cell(rows)
        print(render_table(
            ["Service", "BE job", "EMU impr", "worst p99/SLA", "kills"],
            [[r.service, r.be_job, f"{r.emu_improvement:+.1%}",
              f"{r.worst_p99_over_sla:.2f}", r.be_kills] for r in rows],
            title=f"Figure 15 production grid — {workers} workers",
        ))
        print(f"worst safety cell: {worst.service}+{worst.be_job} "
              f"at {worst.worst_p99_over_sla:.2f}x SLA")
    if cache_stats is not None:
        _print_cache(cache_stats, "cells")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([asdict(r) for r in rows], fh, indent=2)
        print(f"wrote {len(rows)} rows to {args.json}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a sharded Rhythm-vs-Heracles fleet on the Alibaba-shaped trace."""
    import time

    from repro.cache import default_store
    from repro.experiments.fleet import _DEFAULT_SERVICES, FleetConfig, alibaba_fleet

    cache = default_store() if args.cache else None
    cache_stats = CacheOutcomes() if cache is not None else None
    config = FleetConfig(
        duration_s=args.duration,
        shards=args.shards,
        workers=args.workers,
        zone_size=args.zone_size,
        epoch_ticks=args.epoch_ticks,
        violation_threshold=args.violation_threshold,
    )
    rows = []
    reports = {}
    for policy in args.policies:
        fleet = alibaba_fleet(
            args.machines,
            policy=policy,
            duration_s=args.duration,
            seed=args.seed,
            services=args.services or _DEFAULT_SERVICES,
            config=config,
            load=args.load,
            trace_path=args.trace,
        )
        start = time.perf_counter()
        result = fleet.run(cache=cache)
        elapsed = time.perf_counter() - start
        if cache_stats is not None and result.cache is not None:
            cache_stats.merge(result.cache)
        rows.append([
            policy,
            result.n_machines,
            f"{result.be_throughput:.4f}",
            f"{result.emu:.4f}",
            result.sla_violations,
            f"{result.sla_violation_rate:.2%}",
            f"{elapsed:.1f}s",
        ])
        reports[policy] = {
            "policy": policy,
            "machines": result.n_machines,
            "instances": result.n_instances,
            "events_fired": result.events_fired,
            "be_throughput": result.be_throughput,
            "emu": result.emu,
            "sla_violations": result.sla_violations,
            "sla_violation_rate": result.sla_violation_rate,
            "digest": result.digest,
            "zone_records": len(result.zone_records),
            "wall_seconds": elapsed,
        }
        if result.cache is not None:
            reports[policy]["cache"] = asdict(result.cache)
    print(render_table(
        ["Policy", "Machines", "BE tput", "EMU", "SLA viols", "viol rate", "wall"],
        rows,
        title=f"Fleet — {args.duration:.0f}s simulated, "
              f"{args.shards} shard(s), seed {args.seed}",
    ))
    if cache_stats is not None:
        _print_cache(cache_stats, "zones")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote fleet report to {args.json}")
    return 0


def cmd_storm(args: argparse.Namespace) -> int:
    """Run a correlated fault storm over a fleet, same storm per policy."""
    import time

    from repro.cache import default_store
    from repro.experiments.fleet import _DEFAULT_SERVICES, FleetConfig
    from repro.experiments.scenarios import run_fleet_storm

    cache = default_store() if args.cache else None
    config = FleetConfig(
        duration_s=args.duration,
        shards=args.shards,
        workers=args.workers,
        zone_size=args.zone_size,
    )
    start = time.perf_counter()
    report = run_fleet_storm(
        n_machines=args.machines,
        policies=args.policies,
        duration_s=args.duration,
        seed=args.seed,
        storm_seed=args.storm_seed,
        events_per_minute=args.events_per_minute,
        services=args.services or _DEFAULT_SERVICES,
        load=args.load,
        config=config,
        cache=cache,
        with_baseline=args.baseline,
    )
    elapsed = time.perf_counter() - start
    storm = report.storm
    print(render_table(
        ["event", "domain", "at", "for", "magnitude", "blast zones"],
        [[e.kind.value, f"{e.level} {e.domain}", f"{e.at_s:.0f}s",
          f"{e.duration_s:.0f}s", f"{e.magnitude:.2f}",
          ",".join(str(z) for z in storm.blast_zones(e))]
         for e in storm],
        title=f"storm seed {args.storm_seed} — {storm.topology.describe()}",
    ))
    rows = []
    for policy, result in report.results:
        row = [
            policy, result.n_machines, f"{result.be_throughput:.4f}",
            f"{result.emu:.4f}", result.sla_violations,
            f"{result.sla_violation_rate:.2%}",
        ]
        if args.baseline:
            healthy = report.baseline(policy)
            row.append(f"{result.sla_violations - healthy.sla_violations:+d}")
        rows.append(row)
    headers = ["Policy", "Machines", "BE tput", "EMU", "SLA viols", "viol rate"]
    if args.baseline:
        headers.append("viols vs healthy")
    n_zones = storm.topology.n_zones
    print(render_table(
        headers, rows,
        title=f"stormed fleet — {len(storm)} event(s), blast radius "
              f"{len(storm.affected_zones())}/{n_zones} zone(s), "
              f"{elapsed:.1f}s wall",
    ))
    if cache is not None:
        cache_stats = CacheOutcomes()
        for _policy, result in report.results + report.baselines:
            cache_stats.merge(result.cache)
        _print_cache(cache_stats, "zones")
    if args.json:
        payload = {
            "storm_seed": args.storm_seed,
            "duration_s": args.duration,
            "topology": {
                "regions": storm.topology.n_regions,
                "azs": storm.topology.n_azs,
                "racks": storm.topology.n_racks,
                "zones": storm.topology.n_zones,
                "instances": storm.topology.n_instances,
            },
            "events": [
                {
                    "kind": e.kind.value,
                    "level": e.level,
                    "domain": e.domain,
                    "at_s": e.at_s,
                    "duration_s": e.duration_s,
                    "magnitude": e.magnitude,
                    "blast_zones": list(storm.blast_zones(e)),
                }
                for e in storm
            ],
            "affected_zones": list(storm.affected_zones()),
            "policies": {
                policy: {
                    "machines": result.n_machines,
                    "be_throughput": result.be_throughput,
                    "emu": result.emu,
                    "sla_violations": result.sla_violations,
                    "sla_violation_rate": result.sla_violation_rate,
                    "digest": result.digest,
                }
                for policy, result in report.results
            },
        }
        if args.baseline:
            payload["baselines"] = {
                policy: {
                    "sla_violations": result.sla_violations,
                    "emu": result.emu,
                    "digest": result.digest,
                }
                for policy, result in report.baselines
            }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote storm report to {args.json}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    """Run one production-ops scenario: canary, drift, or capacity."""
    from repro.cache import default_store
    from repro.experiments.scenarios import run_canary, run_capacity, run_drift

    cache = default_store() if args.cache else None
    payload = None
    if args.kind == "canary":
        report = run_canary(
            n_machines=args.machines,
            policy=args.policy,
            duration_s=args.duration,
            seed=args.seed,
            canary_seed=args.scenario_seed,
            slowdown=args.slowdown,
            threshold=args.threshold,
            cache=cache,
        )
        print(render_table(
            ["zone", "canary", "canary tail ms", "baseline tail ms",
             "ratio", "verdict"],
            [[v.zone, v.canary_index, f"{v.canary_tail_ms:.3f}",
              f"{v.baseline_tail_ms:.3f}", f"{v.tail_ratio:.2f}",
              "REGRESSED" if v.regressed else "ok"]
             for v in report.verdicts],
            title=f"canary rollout — slowdown {args.slowdown:.2f}, "
                  f"threshold {args.threshold:.2f}x, "
                  f"{report.detection_rate:.0%} of zones flagged",
        ))
        payload = {
            "kind": "canary",
            "slowdown": report.slowdown,
            "threshold": report.threshold,
            "detection_rate": report.detection_rate,
            "digest": report.result.digest,
            "baseline_digest": report.baseline.digest,
            "verdicts": [asdict(v) for v in report.verdicts],
        }
    elif args.kind == "drift":
        report = run_drift(
            service=args.service,
            epochs=args.epochs,
            seed=args.seed,
            cache=cache,
        )
        print(render_table(
            ["epoch", "grid", "points", "simulated", "cached", "artifact"],
            [[e.epoch,
              f"{e.loads[0]:.2f}..{e.loads[-1]:.2f}",
              e.sweep_points, e.sweep_executed, e.sweep_cache_hits,
              e.artifact_cache_hits]
             for e in report.epochs],
            title=f"workload drift — {report.service}, "
                  f"{report.total_executed} point(s) simulated, "
                  f"{report.total_cached} served from cache, "
                  f"{report.epochs_served_whole} epoch(s) served whole",
        ))
        payload = {
            "kind": "drift",
            "service": report.service,
            "total_executed": report.total_executed,
            "total_cached": report.total_cached,
            "epochs": [asdict(e) for e in report.epochs],
        }
    else:  # capacity
        report = run_capacity(
            multipliers=tuple(args.multipliers),
            base_demand=args.base_demand,
            policy=args.policy,
            service=args.service,
            duration_s=args.duration,
            seed=args.seed,
            max_violation_rate=args.max_violation_rate,
            cache=cache,
        )
        print(render_table(
            ["demand x", "instances", "machines", "load/instance",
             "viol rate"],
            [[f"{r.multiplier:g}", r.instances, r.machines,
              f"{r.per_instance_load:.3f}", f"{r.violation_rate:.2%}"]
             for r in report.rows],
            title=f"capacity plan — {report.service} under {report.policy}, "
                  f"SLA target <= {report.max_violation_rate:.0%} violations",
        ))
        payload = {
            "kind": "capacity",
            "service": report.service,
            "policy": report.policy,
            "max_violation_rate": report.max_violation_rate,
            "rows": [asdict(r) for r in report.rows],
        }
    if args.json and payload is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote scenario report to {args.json}")
    return 0


def cmd_bakeoff(args: argparse.Namespace) -> int:
    """League-table a roster of controllers over one seeded scenario grid."""
    import time

    from repro.cache import default_store
    from repro.experiments.bakeoff import (
        BakeoffConfig,
        bakeoff_scenario_grid,
        heracles_member,
        interference_member,
        predictive_member,
        rhythm_member,
        run_bakeoff,
    )

    factories = {
        "rhythm": lambda: rhythm_member(args.service, seed=args.seed),
        "heracles": lambda: heracles_member(args.service),
        "interference": lambda: interference_member(),
        "predictive": lambda: predictive_member(),
    }
    config = BakeoffConfig(duration_s=args.duration)
    members = [factories[name]() for name in args.members]
    scenarios = bakeoff_scenario_grid(
        service=args.service,
        loads=args.loads or (0.25, 0.45, 0.65),
        be_jobs=args.be_jobs or ("stream-llc", "wordcount"),
        duration_s=args.duration,
        seed=args.seed,
        faults_per_minute=args.faults_per_minute,
    )
    cache = default_store() if args.cache else None
    start = time.perf_counter()
    result = run_bakeoff(scenarios, members, config, cache=cache)
    elapsed = time.perf_counter() - start
    league = result.league()
    print(render_table(
        ["#", "Member", "scenarios", "SLA viols", "worst p99/SLA",
         "BE tput", "EMU", "kills"],
        [[row.rank, row.member, row.scenarios, row.sla_violations,
          f"{row.worst_tail_over_sla:.2f}", f"{row.be_throughput:.4f}",
          f"{row.emu:.4f}", row.be_kills] for row in league],
        title=f"Bake-off — {len(scenarios)} scenario(s) x {len(members)} "
              f"member(s), {args.duration:g}s each, seed {args.seed}",
    ))
    print(
        f"shared pass: {result.passes} simulation(s), {result.forks} forks, "
        f"{result.merges} merges, {result.branch_ticks}/{result.member_ticks} "
        f"branch-ticks ({result.shared_fraction:.0%} physics shared), "
        f"{elapsed:.1f}s wall"
    )
    if result.cache is not None:
        _print_cache(result.cache, "cells")
    if args.json:
        payload = {
            "service": args.service,
            "duration_s": args.duration,
            "seed": args.seed,
            "digest": result.digest,
            "passes": result.passes,
            "forks": result.forks,
            "merges": result.merges,
            "branch_ticks": result.branch_ticks,
            "member_ticks": result.member_ticks,
            "league": [asdict(row) for row in league],
            "cells": [asdict(cell) for cell in result.cells],
        }
        if result.cache is not None:
            payload["cache"] = asdict(result.cache)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote bake-off report to {args.json}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed result cache."""
    from repro.cache import CacheStore, cache_enabled

    store = CacheStore()
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.directory}")
        return 0
    stats = store.stats()
    rows = [
        ["directory", stats.directory],
        ["enabled", "yes" if cache_enabled() else "no (RHYTHM_CACHE=off)"],
        ["entries", stats.entries],
        ["size", f"{stats.total_bytes / 1e6:.1f} MB"],
        ["size cap", f"{stats.max_bytes / 1e6:.0f} MB"],
    ]
    print(render_table(["Field", "Value"], rows, title="Result cache"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rhythm (EuroSys 2020) reproduction — co-location experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalogued workloads").set_defaults(fn=cmd_list)

    p = sub.add_parser("profile", help="derive a service's thresholds")
    p.add_argument("service", help="LC service name (see `repro list`)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-probe", action="store_true",
                   help="use the analytic slacklimit fixed point instead of "
                        "Algorithm 1's SLA probe")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("compare", help="Rhythm vs Heracles on one cell")
    p.add_argument("service")
    p.add_argument("be_job")
    p.add_argument("--load", type=float, default=0.65)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("chaos", help="fault storm: Rhythm vs Heracles")
    p.add_argument("service")
    p.add_argument("be_job")
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=240.0)
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--storm-seed", type=int, default=1, help="fault-schedule seed")
    p.add_argument("--faults-per-minute", type=float, default=3.0)
    p.add_argument(
        "--probe",
        action="store_true",
        help="derive slacklimits with the full Algorithm-1 probe "
        "(default: fast analytic limits)",
    )
    p.add_argument("--json", default=None, help="also dump the report to this file")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("production", help="replay a ClarkNet production day")
    p.add_argument("service")
    p.add_argument("be_job")
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_production)

    p = sub.add_parser("grid", help="run an evaluation grid in parallel")
    p.add_argument("kind", choices=["servpod", "service", "production"],
                   help="servpod=Figs 9-11, service=Figs 12-14, "
                        "production=Fig 15")
    p.add_argument("--services", nargs="*", default=None,
                   help="restrict to these LC services")
    p.add_argument("--be-jobs", nargs="*", default=None,
                   help="restrict to these BE jobs")
    p.add_argument("--loads", nargs="*", type=float, default=None,
                   help="load grid points (fractions of MaxLoad)")
    p.add_argument("--duration", type=float, default=60.0,
                   help="per-cell simulated seconds")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: RHYTHM_WORKERS or CPUs)")
    p.add_argument("--profile-workers", type=int, default=None,
                   help="profiling fan-out width (default: --workers, then "
                        "RHYTHM_PROFILE_WORKERS, then RHYTHM_WORKERS); the "
                        "profiling and cell phases share one process pool")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse cached cell results and cache new ones "
                        "(RHYTHM_CACHE_DIR; RHYTHM_CACHE=off also disables)")
    p.add_argument("--json", default=None, help="also dump rows to this file")
    p.add_argument("--kernel", choices=["scalar", "batched"], default=None,
                   help="simulation kernel for every cell (default: "
                        "RHYTHM_KERNEL or batched; results are bit-identical "
                        "either way)")
    p.set_defaults(fn=cmd_grid)

    p = sub.add_parser("fleet", help="sharded thousand-machine fleet run")
    p.add_argument("--machines", type=int, default=1000,
                   help="minimum fleet size in machines (default 1000)")
    p.add_argument("--duration", type=float, default=600.0,
                   help="simulated seconds (default 600)")
    p.add_argument("--shards", type=int, default=4,
                   help="event-engine shards; results are shard-invariant")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: RHYTHM_WORKERS or CPUs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zone-size", type=int, default=4,
                   help="zone width in LC instances (shards split at zones)")
    p.add_argument("--epoch-ticks", type=int, default=30,
                   help="zone-governor epoch length in control ticks")
    p.add_argument("--violation-threshold", type=float, default=None,
                   help="zone SLA-violation fraction that clamps BE growth "
                        "for the next epoch (default: governor off)")
    p.add_argument("--policies", nargs="*", default=["rhythm", "heracles"],
                   choices=["rhythm", "heracles"],
                   help="controller policies to run (default: both)")
    p.add_argument("--load", choices=["diurnal", "alibaba"], default="diurnal",
                   help="per-instance load: parametric diurnal cycles or "
                        "replayed Alibaba cluster-trace-v2018 machine days")
    p.add_argument("--trace", default=None,
                   help="external machine_usage CSV to replay (requires "
                        "--load alibaba; default: the bundled sample)")
    p.add_argument("--services", nargs="*", default=None,
                   help="LC service catalog entries cycled across instances "
                        "(default: Redis); mixing entries gives a "
                        "heterogeneous fleet")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse cached per-zone fleet results and cache new "
                        "ones (also honors RHYTHM_CACHE=off)")
    p.add_argument("--json", default=None, help="dump the fleet report here")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "storm",
        help="correlated fault storm (rack/AZ/ToR events) over a fleet",
    )
    p.add_argument("--machines", type=int, default=1000,
                   help="minimum fleet size in machines (default 1000)")
    p.add_argument("--duration", type=float, default=240.0,
                   help="simulated seconds (default 240)")
    p.add_argument("--seed", type=int, default=0, help="fleet/workload seed")
    p.add_argument("--storm-seed", type=int, default=1,
                   help="topology + domain-event seed")
    p.add_argument("--events-per-minute", type=float, default=1.0,
                   help="seeded domain-event rate (default 1.0)")
    p.add_argument("--shards", type=int, default=4,
                   help="event-engine shards; results are shard-invariant")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool size (default: RHYTHM_WORKERS or CPUs)")
    p.add_argument("--zone-size", type=int, default=4,
                   help="zone width in LC instances (racks are whole zones)")
    p.add_argument("--policies", nargs="*", default=["rhythm", "heracles"],
                   choices=["rhythm", "heracles"],
                   help="controller policies facing the same storm")
    p.add_argument("--load", choices=["diurnal", "alibaba"], default="diurnal",
                   help="per-instance load shape (see `fleet --load`)")
    p.add_argument("--services", nargs="*", default=None,
                   help="LC services cycled across instances (default Redis)")
    p.add_argument("--baseline", action="store_true",
                   help="also run each policy's healthy (storm-free) fleet")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse cached per-zone fleet results; a warm "
                        "identical storm executes zero simulations")
    p.add_argument("--json", default=None, help="dump the storm report here")
    p.set_defaults(fn=cmd_storm)

    p = sub.add_parser(
        "scenario",
        help="production-ops scenarios: canary, drift, capacity",
    )
    p.add_argument("kind", choices=["canary", "drift", "capacity"],
                   help="canary=rolling release, drift=re-profiling under "
                        "workload drift, capacity=machines needed at N× load")
    p.add_argument("--machines", type=int, default=32,
                   help="fleet size for the canary scenario (default 32)")
    p.add_argument("--service", default="Redis",
                   help="LC service (drift/capacity; default Redis)")
    p.add_argument("--policy", default="heracles",
                   choices=["rhythm", "heracles"],
                   help="fleet policy (canary/capacity; default heracles)")
    p.add_argument("--duration", type=float, default=120.0,
                   help="simulated seconds per run (default 120)")
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--scenario-seed", type=int, default=1,
                   help="scenario seed (canary picks; default 1)")
    p.add_argument("--slowdown", type=float, default=0.08,
                   help="canary 'new version' stall magnitude (default 0.08)")
    p.add_argument("--threshold", type=float, default=1.10,
                   help="canary tail-ratio regression threshold (default 1.10)")
    p.add_argument("--epochs", type=int, default=3,
                   help="drift epochs (default 3)")
    p.add_argument("--multipliers", nargs="*", type=float,
                   default=[1.0, 1.5, 2.0],
                   help="capacity demand multipliers (default 1.0 1.5 2.0)")
    p.add_argument("--base-demand", type=float, default=3.0,
                   help="capacity base demand in load units (default 3.0)")
    p.add_argument("--max-violation-rate", type=float, default=0.05,
                   help="capacity SLA target (default 0.05)")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                   help="serve repeated runs from the result cache")
    p.add_argument("--json", default=None, help="dump the scenario report here")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser(
        "bakeoff",
        help="single-pass controller bake-off with a league table",
    )
    p.add_argument("--service", default="Redis",
                   help="LC service the roster competes on (default Redis)")
    p.add_argument("--members", nargs="*",
                   default=["rhythm", "heracles", "interference", "predictive"],
                   choices=["rhythm", "heracles", "interference", "predictive"],
                   help="controller roster (default: all four)")
    p.add_argument("--loads", nargs="*", type=float, default=None,
                   help="diurnal base-load grid points (default 0.25 0.45 0.65)")
    p.add_argument("--be-jobs", nargs="*", default=None,
                   help="co-located BE jobs (default stream-llc wordcount)")
    p.add_argument("--duration", type=float, default=120.0,
                   help="simulated seconds per scenario (default 120)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults-per-minute", type=float, default=0.0,
                   help="per-scenario seeded fault rate (default: healthy)")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction, default=True,
                   help="reuse cached per-(scenario, member) cells and cache "
                        "new ones (also honors RHYTHM_CACHE=off)")
    p.add_argument("--json", default=None, help="dump the bake-off report here")
    p.set_defaults(fn=cmd_bakeoff)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry count, size, directory")
    cache_sub.add_parser("clear", help="delete every cached entry")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser("trace", help="trace requests and recover sojourns")
    p.add_argument("service")
    p.add_argument("--load", type=float, default=0.5)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
