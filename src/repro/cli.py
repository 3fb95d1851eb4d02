"""Command-line interface: run mini-apps without writing Python.

Subcommands::

    python -m repro kernels                 # list registered kernels
    python -m repro run --config app.json   # real-mode mini-app from JSON
    python -m repro simulate --pattern one-to-one --backend dragon \
        --nodes 64 --size-mb 4              # sim-mode what-if study
    python -m repro sweep fig3 --parallel 4 \
        --cache-dir .sweep-cache            # cached parallel experiment sweep
    python -m repro bench                   # perf baseline -> BENCH_<date>.json
    python -m repro trace-summary out.json  # top-k slowest spans per component

Observability: ``run`` and ``simulate`` accept ``--trace out.json``
(Chrome trace-event file — open in https://ui.perfetto.dev or
chrome://tracing) and ``--metrics metrics.json`` (counter/gauge/histogram
registry dump with p50/p95/p99). ``simulate --json`` prints the whole
run summary as one JSON object for scripting.

Fault injection: ``simulate --fault-plan plan.json`` replays the plan's
faults through the DES (deterministic under the plan's seed) and reports
recovery/retry/data-loss counters; ``run --fault-plan`` projects the
plan's stochastic entries onto per-operation chaos probabilities for the
real backends. ``chaos`` runs the full seeded sweep (fault rate x
backend x pattern) of :mod:`repro.experiments.ext_faults`.

Sweep execution: ``sweep`` regenerates any experiment through the
parallel sweep engine (:mod:`repro.sweep`) with live progress on stderr;
``--parallel N`` fans grid points across worker processes and
``--cache-dir DIR`` serves repeated points from the content-addressed
result cache. Rendered output is bit-identical to the serial path for a
fixed seed, whatever the worker count.

Fleet observability (all passive — rendered sweep output stays
bit-identical with every layer on): a serving sweep takes
``--fleet-trace out.json`` (one merged Chrome trace: lease spans on the
``coordinator`` track + every worker's execution spans on named tracks)
and ``--flight-recorder dump.json`` (postmortem ring of recent protocol
events; workers accept the same flag). ``sweep --watch HOST:PORT``
attaches a read-only live console to a serving sweep or service.
``--log-json FILE`` / ``--log-level`` emit structured JSONL logs from
the service/worker/engine layers.

The ``run`` config format::

    {
      "server": {"backend": "dragon", "n_shards": 2},
      "pattern": "one-to-one",
      "one_to_one": {
        "train_iterations": 50, "write_interval": 10, "read_interval": 5,
        "sim_iter_time": 0.004, "ai_iter_time": 0.006
      }
    }
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.errors import ConfigError


def _make_telemetry(args: argparse.Namespace):
    """A Telemetry hub when --trace/--metrics was requested, else None."""
    if not (getattr(args, "trace", "") or getattr(args, "metrics", "")):
        return None
    from repro.telemetry import Telemetry

    return Telemetry()


def _save_telemetry(telemetry, args: argparse.Namespace, quiet: bool = False) -> None:
    if telemetry is None:
        return
    if args.trace:
        n = telemetry.save_trace(args.trace)
        if not quiet:
            print(f"trace written to {args.trace} ({n} events; open in Perfetto)")
    if args.metrics:
        telemetry.save_metrics(args.metrics)
        if not quiet:
            print(f"metrics written to {args.metrics}")


def _load_fault_plan(args: argparse.Namespace):
    """The FaultPlan named by --fault-plan, or None."""
    path = getattr(args, "fault_plan", "")
    if not path:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _cmd_kernels(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.kernels import kernel_class, list_kernels

    rows = []
    for category in ("compute", "io", "collective", "copy"):
        for name in list_kernels(category=category):
            doc = (kernel_class(name).__doc__ or "").strip().splitlines()[0]
            rows.append((category, name, doc))
    print(format_table(["category", "kernel", "description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.telemetry import EventKind, event_counts, iteration_time_summary
    from repro.transport import ServerManager
    from repro.workloads import RealOneToOneConfig, run_one_to_one_real

    with open(args.config, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise ConfigError("run config must be a JSON object")
    pattern = spec.get("pattern", "one-to-one")
    if pattern != "one-to-one":
        raise ConfigError(
            f"unsupported real-mode pattern {pattern!r} (supported: one-to-one; "
            "use 'simulate' for scaled many-to-one studies)"
        )
    server_spec = spec.get("server", {"backend": "node-local"})
    if getattr(args, "shards", 0):
        server_spec = {**server_spec, "n_shards": args.shards}
    run_spec = spec.get("one_to_one", {})
    config = RealOneToOneConfig(**run_spec)
    telemetry = _make_telemetry(args)
    plan = _load_fault_plan(args)

    with ServerManager("stage", config=server_spec) as server:
        server_info = dict(server.get_server_info())
        if plan is not None and plan.is_active:
            # Real runs cannot replay virtual-time windows: project the
            # plan onto per-op chaos probabilities, with retries on top.
            server_info["chaos"] = {**plan.client_probabilities(), "seed": plan.seed}
            server_info["resilience"] = {"seed": plan.seed}
        result = run_one_to_one_real(server_info, config, telemetry=telemetry)

    print(f"pattern: one-to-one, backend: {server_spec.get('backend')}")
    print(f"simulation iterations: {result.sim_iterations}")
    print(f"snapshots written/read: {result.snapshots_written}/{result.snapshots_read}")
    if result.snapshots_lost or result.failed_ingests:
        print(
            f"degraded: {result.snapshots_lost} snapshots lost, "
            f"{result.failed_ingests} failed ingests"
        )
    print(f"final loss: {result.final_loss:.4f}")
    for component, kind in (("sim", EventKind.COMPUTE), ("train", EventKind.TRAIN)):
        s = iteration_time_summary(result.log, component, kind)
        counts = event_counts(result.log, component)
        print(
            f"{component}: {counts['timestep']} steps, "
            f"{counts['data_transport']} transport events, "
            f"iter {s.mean * 1e3:.2f} ± {s.std * 1e3:.2f} ms "
            f"(p50 {s.p50 * 1e3:.2f}, p95 {s.p95 * 1e3:.2f}, p99 {s.p99 * 1e3:.2f})"
        )
    if args.events_out:
        result.log.save(args.events_out)
        print(f"event log written to {args.events_out}")
    _save_telemetry(telemetry, args)
    return 0


def _simulate_one_to_one(args, model, telemetry, fault_plan=None):
    from repro.experiments.common import pattern1_context
    from repro.transport.models import MB
    from repro.workloads import OneToOneConfig, run_one_to_one

    nbytes = args.size_mb * MB
    return run_one_to_one(
        model,
        OneToOneConfig(train_iterations=args.iterations, snapshot_nbytes=nbytes),
        ctx=pattern1_context(args.nodes),
        telemetry=telemetry,
        fault_plan=fault_plan,
    )


def _simulate_many_to_one(args, model, telemetry, fault_plan=None):
    from repro.experiments.common import pattern2_contexts
    from repro.transport.models import MB
    from repro.workloads import ManyToOneConfig, run_many_to_one

    write_ctx, read_ctx = pattern2_contexts(args.nodes)
    return run_many_to_one(
        model,
        ManyToOneConfig(
            n_simulations=args.nodes - 1,
            train_iterations=args.iterations,
            snapshot_nbytes=args.size_mb * MB,
        ),
        write_ctx=write_ctx,
        read_ctx=read_ctx,
        telemetry=telemetry,
        fault_plan=fault_plan,
    )


def _simulate_summary(args, result) -> dict:
    """The machine-readable run summary (simulate --json)."""
    from repro.telemetry import EventKind, mean_throughput, mean_transport_time
    from repro.telemetry.stats import Summary

    transport = {}
    for kind in (EventKind.WRITE, EventKind.READ):
        durations = result.log.filter(kind=kind).durations()
        transport[kind.value] = {
            "throughput_bytes_per_s": mean_throughput(result.log, kind),
            "mean_seconds": mean_transport_time(result.log, kind),
            "time_seconds": Summary.of(durations).as_dict(),
        }
    iteration = {}
    for component, kind in (("sim", EventKind.COMPUTE), ("train", EventKind.TRAIN)):
        comps = [c for c in result.log.components() if c.startswith(component)]
        durations = []
        for comp in comps:
            durations.extend(result.log.filter(component=comp, kind=kind).durations())
        iteration[component] = Summary.of(durations).as_dict()
    return {
        "pattern": args.pattern,
        "backend": args.backend,
        "nodes": args.nodes,
        "size_mb": args.size_mb,
        "iterations": args.iterations,
        "makespan_seconds": result.makespan,
        "sim_iterations": result.sim_iterations,
        "train_iterations": result.train_iterations,
        "snapshots_written": result.snapshots_written,
        "snapshots_read": result.snapshots_read,
        "iteration_time_seconds": iteration,
        "transport": transport,
        "resilience": result.resilience,
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis import format_summary_table
    from repro.experiments.common import backend_models
    from repro.telemetry import EventKind
    from repro.telemetry.stats import Summary, mean_throughput, runtime_per_iteration
    from repro.transport.models import DaosBackendModel, StreamingBackendModel

    models = dict(backend_models())
    models["streaming"] = StreamingBackendModel()
    models["daos"] = DaosBackendModel()
    try:
        model = models[args.backend]
    except KeyError:
        raise ConfigError(
            f"unknown backend {args.backend!r}; options {sorted(models)}"
        ) from None
    telemetry = _make_telemetry(args)
    fault_plan = _load_fault_plan(args)

    if args.pattern == "one-to-one":
        result = _simulate_one_to_one(args, model, telemetry, fault_plan)
    else:
        result = _simulate_many_to_one(args, model, telemetry, fault_plan)

    if args.json:
        print(json.dumps(_simulate_summary(args, result), sort_keys=True))
        _save_telemetry(telemetry, args, quiet=True)
        return 0

    if args.pattern == "one-to-one":
        print(
            f"one-to-one on {args.nodes} nodes, {args.size_mb} MB, backend {args.backend}:"
        )
        print(f"  makespan: {result.makespan:.2f} s")
        print(
            f"  write throughput/process: "
            f"{mean_throughput(result.log, EventKind.WRITE) / 1e9:.3f} GB/s"
        )
        print(
            f"  read throughput/process:  "
            f"{mean_throughput(result.log, EventKind.READ) / 1e9:.3f} GB/s"
        )
    else:
        runtime = runtime_per_iteration(result.log, "train", args.iterations)
        n_sims = args.nodes - 1
        print(
            f"many-to-one on {args.nodes} nodes ({n_sims} sims), {args.size_mb} MB, "
            f"backend {args.backend}:"
        )
        print(f"  training runtime per iteration: {runtime * 1e3:.2f} ms")
        print(f"  makespan: {result.makespan:.2f} s")
    summaries = {
        kind.value: Summary.of(result.log.filter(kind=kind).durations())
        for kind in (EventKind.WRITE, EventKind.READ)
    }
    print(
        format_summary_table(
            summaries, title="transport time percentiles", unit_scale=1e3, unit="ms"
        )
    )
    if result.resilience is not None:
        print("resilience report:")
        print(json.dumps(result.resilience, indent=2, sort_keys=True))
    _save_telemetry(telemetry, args)
    return 0


class _SweepProgress:
    """Live per-point progress on stderr; tallies how each point was served."""

    def __init__(self, stream=None):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.cached = 0
        self.computed = 0
        self.retried = 0
        self.replayed = 0  # acknowledged by an earlier --serve session's store
        self.stolen = 0  # leases reclaimed from silent distributed workers

    @property
    def total_points(self) -> int:
        return self.cached + self.computed + self.replayed

    def __call__(self, done: int, total: int, label: str, source: str) -> None:
        if source == "cache":
            self.cached += 1
        elif source == "retry":
            self.retried += 1
        elif source == "journal":
            self.replayed += 1
        elif source == "steal":
            self.stolen += 1
        else:
            self.computed += 1
        interactive = getattr(self.stream, "isatty", lambda: False)()
        end = "\n" if (not interactive or done == total) else "\r"
        line = f"[{done}/{total}] {label} ({source})"
        if interactive:
            line = line.ljust(79)
        print(line, end=end, file=self.stream, flush=True)

    def summary(self, name: str, elapsed: float) -> str:
        parts = [f"{self.total_points} points", f"{self.cached} cached"]
        if self.total_points:
            parts[-1] += f" ({100.0 * self.cached / self.total_points:.0f}%)"
        parts.append(f"{self.computed} computed")
        if self.replayed:
            parts.append(f"{self.replayed} replayed")
        if self.stolen:
            parts.append(f"{self.stolen} stolen")
        if self.retried:
            parts.append(f"{self.retried} retried")
        return f"sweep {name}: " + ", ".join(parts) + f" in {elapsed:.1f}s"


#: First positional tokens that turn ``repro sweep`` into a store
#: maintenance command instead of an experiment run.
_MAINTENANCE_VERBS = ("query", "usage", "gc", "health")

_LOGGING = ("log_json", "log_level")

#: Every ``repro sweep`` mode and the flags (argparse dests) it reads.
#: A flag set away from its default outside its mode's row is refused.
_SWEEP_MODES: dict[str, tuple[str, ...]] = {
    "--cache-info": ("cache_info", "cache_dir"),
    "query": ("experiments", "store", "at", "json", "fingerprint", "name", "tenant"),
    "usage": ("experiments", "store", "at", "json", "tenant", "since"),
    "gc": (
        "experiments", "store", "at", "json", "tenant", "name", "max_age",
        "keep_latest", "lease_grace", "apply",
    ),
    "health": ("experiments", "store", "at", "json"),
    "--service": (
        "service", "store", "lease", "seed", "flight_recorder", "max_live_jobs",
        "max_queued_points", "max_store_mb", "max_connections",
    ) + _LOGGING,
    "--watch": ("watch", "reconnect_budget", "seed") + _LOGGING,
    "--connect": (
        "connect", "workers", "reconnect_budget", "poll", "op_timeout", "seed",
        "flight_recorder",
    ) + _LOGGING,
    "--submit": ("experiments", "submit", "tenant", "cache_dir", "cache_max_mb")
    + _LOGGING,
    "--serve": (
        "experiments", "serve", "journal", "lease", "cache_dir", "cache_max_mb",
        "fleet_trace", "flight_recorder",
    ) + _LOGGING,
    "run": ("experiments", "parallel", "cache_dir", "cache_max_mb") + _LOGGING,
}

#: Flags that select a mode, in the order that decides between them.
_MODE_FLAGS = ("service", "watch", "connect", "submit", "serve")


def _sweep_mode(args: argparse.Namespace) -> str:
    if args.cache_info:
        return "--cache-info"
    if args.experiments and args.experiments[0] in _MAINTENANCE_VERBS:
        return args.experiments[0]
    for flag in _MODE_FLAGS:
        if getattr(args, flag):
            return f"--{flag}"
    return "run"


def _mode_label(mode: str) -> str:
    if mode == "run":
        return "a local run"
    return mode if mode.startswith("--") else f"'{mode}'"


def _misplaced_flag(dest: str, mode: str) -> str:
    label = _mode_label(mode)
    if dest == "experiments":
        return f"{label} takes no experiment names"
    flag = "--" + dest.replace("_", "-")
    if dest == "cache_info" or dest in _MODE_FLAGS:
        return f"{label} and {flag} are mutually exclusive"
    where = ", ".join(_mode_label(m) for m, reads in _SWEEP_MODES.items() if dest in reads)
    return f"{flag} does not apply to {label}; it only applies to {where}"


def _validate_sweep_args(args: argparse.Namespace) -> None:
    mode = _sweep_mode(args)
    reads = _SWEEP_MODES[mode]
    defaults = vars(build_parser().parse_args(["sweep"]))
    for dest, default in defaults.items():
        if dest != "command" and dest not in reads and getattr(args, dest) != default:
            raise ConfigError(_misplaced_flag(dest, mode))
    if mode == "--cache-info" and not args.cache_dir:
        raise ConfigError("--cache-info needs --cache-dir to inspect")
    if mode in _MAINTENANCE_VERBS:
        if len(args.experiments) > 1:
            raise ConfigError(
                f"'{mode}' takes flags, not positional arguments: "
                f"{args.experiments[1:]}"
            )
        if bool(args.store) == bool(args.at):
            raise ConfigError(
                f"'{mode}' needs exactly one of --store FILE (read a store "
                "file) or --at HOST:PORT (ask a running service)"
            )
    if mode == "--service" and not args.store:
        raise ConfigError(
            "--service needs --store FILE: durability across restarts "
            "is the point of the service"
        )
    if mode in ("--submit", "--serve", "run") and not args.experiments:
        raise ConfigError("name at least one experiment (or 'all')")
    if args.journal:
        from pathlib import Path

        from repro.sweep.dist.store import STORE_FILENAME

        journal = Path(args.journal)
        if not (journal / STORE_FILENAME).exists() and any(journal.glob("*.jsonl")):
            raise ConfigError(
                f"--journal {journal} holds legacy *.jsonl journals and no "
                f"{STORE_FILENAME}: serving from it would recompute work they "
                "acknowledged; name a fresh directory"
            )


def _cmd_cache_info(args: argparse.Namespace) -> int:
    """``sweep --cache-info``: entry count, bytes, and hit-rate history."""
    from repro.sweep.cache import ResultCache

    info = ResultCache(args.cache_dir).info()
    print(f"cache {info['directory']}:")
    print(f"  entries: {info['entries']}")
    mb = info["total_bytes"] / (1024.0 * 1024.0)
    print(f"  total size: {mb:.2f} MB (largest entry {info['largest_bytes']} B)")
    if info["entries"]:
        print(
            f"  entry age: {info['newest_age_seconds']:.0f}s (newest) to "
            f"{info['oldest_age_seconds']:.0f}s (oldest)"
        )
    history = info["history"]
    if history:
        print(f"  hit-rate history (last {len(history)} runs):")
        for record in history:
            print(
                f"    {record['hits']} hits / {record['misses']} "
                f"misses ({100.0 * record['hit_rate']:.0f}%), "
                f"{record.get('stores', 0)} stores"
            )
    else:
        print("  hit-rate history: (none recorded yet)")
    return 0


def _maintenance_reports(args: argparse.Namespace, verb: str) -> dict:
    """Produce the query/usage/gc report dict from a file or a service.

    ``--at HOST:PORT`` asks a running service (the only safe way to
    *apply* GC while one is up — its store connection owns the writes);
    ``--store FILE`` reads the SQLite file directly through a read-only
    :class:`~repro.sweep.dist.query.ReaderPool`, except ``gc --apply``,
    which opens the store read-write and must not race a live service.
    ``health --at`` returns the service's live HEALTH document;
    ``health --store`` degrades to a file-level report (schema version,
    used bytes, job states) for a store with no service attached.
    """
    if args.at:
        from repro.sweep.dist.service import ServiceClient

        with ServiceClient(args.at) as client:
            if verb == "health":
                return client.health()
            if verb == "query":
                return client.query(
                    fingerprint=args.fingerprint or None,
                    name=args.name or None,
                    tenant=args.tenant or None,
                )
            if verb == "usage":
                return client.usage(tenant=args.tenant or None, since=args.since)
            return client.gc(
                max_age_seconds=args.max_age,
                keep_latest=args.keep_latest,
                tenant=args.tenant or None,
                name=args.name or None,
                lease_grace=args.lease_grace,
                dry_run=not args.apply,
            )

    from repro.sweep.dist.query import (
        ReaderPool,
        RetentionPolicy,
        divergences,
        gc_plan,
        query_fingerprint,
        run_gc,
        usage,
    )
    from repro.sweep.dist.store import live_bytes

    if verb == "health":
        # No service attached: the live sections (queues, admission,
        # brownout state) do not exist, so report what the file alone
        # can prove — schema vintage, real byte usage, job states.
        with ReaderPool(args.store) as pool, pool.connection() as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            store_bytes = live_bytes(conn)
            states = {
                state: int(count)
                for state, count in conn.execute(
                    "SELECT state, COUNT(*) FROM jobs GROUP BY state"
                ).fetchall()
            }
            tenants = {
                tenant: int(count)
                for tenant, count in conn.execute(
                    "SELECT tenant, COUNT(*) FROM jobs GROUP BY tenant"
                ).fetchall()
            }
        return {
            "source": "store-file",
            "store": {
                "path": str(args.store),
                "schema_version": int(row[0]) if row else None,
                "bytes": store_bytes,
            },
            "jobs": {"by_state": states, "by_tenant": tenants},
        }

    if verb == "gc":
        policy = RetentionPolicy(
            max_age_seconds=args.max_age,
            keep_latest=args.keep_latest,
            tenant=args.tenant or None,
            name=args.name or None,
            lease_grace=args.lease_grace,
        )
        if not args.apply:
            with ReaderPool(args.store) as pool:
                planned = gc_plan(pool, policy)
            return {
                "policy": policy.describe(),
                "dry_run": True,
                "planned": planned,
                "collected": [],
                "refused": [],
            }
        from repro.sweep.dist.store import SweepStore

        store = SweepStore(args.store)
        try:
            return run_gc(store, policy, dry_run=False)
        finally:
            store.close()

    with ReaderPool(args.store) as pool:
        if verb == "query":
            rows = query_fingerprint(
                pool,
                fingerprint=args.fingerprint or None,
                name=args.name or None,
                tenant=args.tenant or None,
            )
            return {
                "rows": rows,
                "divergences": divergences(
                    pool,
                    fingerprint=args.fingerprint or None,
                    name=args.name or None,
                    tenant=args.tenant or None,
                ),
            }
        return usage(pool, tenant=args.tenant or None, since=args.since)


def _print_table(rows: list, columns: list) -> None:
    """Minimal aligned text table: ``columns`` is [(header, key), ...]."""
    if not rows:
        print("  (none)")
        return
    cells = [
        [str(row.get(key, "") if row.get(key) is not None else "") for _, key in columns]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(line[i]) for line in cells))
        for i, (header, _) in enumerate(columns)
    ]
    print("  " + "  ".join(h.ljust(w) for (h, _), w in zip(columns, widths)))
    for line in cells:
        print("  " + "  ".join(v.ljust(w) for v, w in zip(line, widths)))


def _print_health(report: dict) -> int:
    """Human rendering of a HEALTH document (service or store-file).

    Exit 0 when the service reports ``ready``, 1 otherwise (brownout,
    draining, degraded probe) — so the verb doubles as a scriptable
    liveness check: ``repro sweep health --at HOST:PORT && deploy``.
    """
    store = report.get("store", {})
    if report.get("source") == "store-file":
        print(f"store file {store.get('path')}:")
        print(f"  schema: v{store.get('schema_version')}")
        print(f"  used bytes: {store.get('bytes', 0)}")
        jobs = report.get("jobs", {})
        for title, key in (("jobs by state", "by_state"),
                           ("jobs by tenant", "by_tenant")):
            section = jobs.get(key, {})
            body = ", ".join(
                f"{k or '(default)'}={v}" for k, v in sorted(section.items())
            )
            print(f"  {title}: {body or '(none)'}")
        print("  (no service attached: live queue/admission state unavailable)")
        return 0
    state = str(report.get("state", "?"))
    print(f"service state: {state.upper()}")
    if report.get("degraded"):
        print("  (degraded probe: dispatch lock busy, per-tenant detail omitted)")
    print(
        f"  store: {store.get('path')} "
        f"writable={store.get('writable')} bytes={store.get('bytes')} "
        f"write-latency={float(store.get('write_latency_s') or 0.0) * 1e3:.1f}ms"
    )
    queues = report.get("queues", {})
    print(
        f"  queues: dispatch {queues.get('dispatch_waiting', 0)}"
        f"/{queues.get('dispatch_limit', '-')} waiting, "
        f"{queues.get('shed_commands', 0)} shed; connections "
        f"{queues.get('connections', 0)}/{queues.get('max_connections', '-')} "
        f"({queues.get('local_connections', 0)} came over the same-host socket, "
        f"{queues.get('refused_connections', 0)} refused, "
        f"{queues.get('idle_disconnects', 0)} idle-closed, "
        f"{queues.get('stalled_disconnects', 0)} stall-closed)"
    )
    admission = report.get("admission", {})
    refusals = admission.get("refusals", {})
    body = ", ".join(f"{k}={v}" for k, v in sorted(refusals.items()))
    print(
        f"  admission: {admission.get('busy_refusals', 0)} refusals"
        + (f" ({body})" if body else "")
    )
    cause = admission.get("brownout_cause")
    if cause:
        print(f"  brownout cause: {cause}")
    tenants = report.get("tenants")
    if tenants:
        print("  per-tenant headroom:")
        for tenant in sorted(tenants):
            entry = tenants[tenant]
            headroom = entry.get("headroom", {})
            hints = ", ".join(
                f"{axis}={'inf' if left is None else left}"
                for axis, left in sorted(headroom.items())
            )
            print(
                f"    {tenant or '(default)'}: "
                f"{entry.get('live_jobs', 0)} live jobs, "
                f"{entry.get('queued_points', 0)} queued points"
                + (f" ({hints} left)" if hints else "")
            )
    return 0 if state == "ready" and not report.get("degraded") else 1


def _cmd_sweep_maintenance(args: argparse.Namespace) -> int:
    """``repro sweep query|usage|gc``: the read side of the service store."""
    import json

    verb = args.experiments[0]
    report = _maintenance_reports(args, verb)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    if verb == "health":
        return _print_health(report)
    if verb == "query":
        rows = [
            {
                **row,
                "fingerprint": (row.get("fingerprint") or "")[:16],
                "grid": (row.get("grid") or "")[:16],
                "value_digest": (row.get("value_digest") or "")[:16],
            }
            for row in report.get("rows", [])
        ]
        print(f"results ({len(rows)} rows):")
        _print_table(rows, [
            ("FINGERPRINT", "fingerprint"), ("GRID", "grid"), ("IDX", "idx"),
            ("STATE", "state"), ("JOB", "job_name"), ("TENANT", "tenant"),
            ("VERSION", "version"), ("JOB-STATE", "job_state"),
            ("VALUE", "value_digest"),
        ])
        flagged = report.get("divergences", [])
        if flagged:
            print(f"version divergences ({len(flagged)}):")
            for entry in flagged:
                scope = "WITHIN-version" if entry["divergent_within_version"] \
                    else "across versions"
                print(
                    f"  {entry['fingerprint'][:16]}: {entry['n_results']} "
                    f"results disagree ({scope}): "
                    + "; ".join(
                        f"{v}={[d[:12] for d in ds]}"
                        for v, ds in sorted(entry["versions"].items())
                    )
                )
        else:
            print("version divergences: none")
        return 0
    if verb == "usage":
        print("per-tenant usage (UTC days):")
        _print_table(report.get("tenants", []), [
            ("TENANT", "tenant"), ("DAY", "day"), ("DONE", "points_done"),
            ("LEASES", "leases"), ("WALL-S", "wall_seconds"),
            ("RETRIES", "retries"), ("RECLAIMS", "reclaims"),
            ("POISONED", "poisoned"), ("GRIDS", "grids"),
        ])
        return 0
    # gc
    mode = "DRY RUN (use --apply to collect)" if report.get("dry_run") else "applied"
    print(f"gc {mode}; policy {report.get('policy')}")
    planned = [
        {**row, "grid": (row.get("grid") or "")[:16]}
        for row in report.get("planned", [])
    ]
    print(f"planned ({len(planned)}):")
    _print_table(planned, [
        ("GRID", "grid"), ("JOB", "name"), ("TENANT", "tenant"),
        ("STATE", "state"), ("WHY", "why"),
    ])
    if not report.get("dry_run"):
        collected = report.get("collected", [])
        refused = report.get("refused", [])
        print(f"collected: {len(collected)}  refused: {len(refused)}")
        for entry in refused:
            print(f"  refused {entry['grid'][:16]}: {entry['refused']}")
    return 0


def _worker_flight_path(base: str, rank: int, workers: int) -> Optional[str]:
    """Per-rank flight-recorder path so fleet members never clobber."""
    if not base:
        return None
    if workers <= 1:
        return base
    from pathlib import Path

    path = Path(base)
    return str(path.with_name(f"{path.stem}-{rank}{path.suffix or '.json'}"))


def _cmd_sweep_workers(args: argparse.Namespace) -> int:
    """``sweep --connect``: run a fleet of worker processes.

    With ``--workers 1`` the agent runs in *this* process (so its PID is
    the worker's — chaos harnesses SIGKILL it directly); with more, each
    agent gets its own process and SIGTERM here drains the whole fleet.
    """
    import multiprocessing

    from repro.sweep.dist import run_worker_process
    from repro.sweep.dist.service import sigterm_calls
    from repro.sweep.dist.worker import worker_process_main

    kwargs = {
        "address": args.connect,
        "seed": args.seed,
        "reconnect_budget": args.reconnect_budget,
        "poll": args.poll,
        "op_timeout": args.op_timeout,
    }
    if args.workers <= 1:
        return run_worker_process(
            **kwargs, flight_path=_worker_flight_path(args.flight_recorder, 0, 1)
        )

    context = multiprocessing.get_context("spawn")  # no inherited sockets/locks
    procs = [
        context.Process(
            # worker_process_main sys.exits with run_worker_process's
            # return value — Process ignores a target's plain return, and
            # max(exitcode) below must see worker failures as nonzero.
            target=worker_process_main,
            kwargs={
                **kwargs,
                "seed": args.seed + rank,
                "flight_path": _worker_flight_path(
                    args.flight_recorder, rank, args.workers
                ),
            },
            name=f"sweep-worker-{rank}",
        )
        for rank in range(args.workers)
    ]
    for proc in procs:
        proc.start()

    def _forward_sigterm():
        for proc in procs:
            if proc.is_alive() and proc.pid:
                proc.terminate()  # SIGTERM -> each agent drains gracefully

    with sigterm_calls(_forward_sigterm):
        for proc in procs:
            proc.join()
    return max((proc.exitcode or 0) for proc in procs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import sys
    import time

    _validate_sweep_args(args)
    if args.cache_info:
        return _cmd_cache_info(args)
    if args.experiments and args.experiments[0] in _MAINTENANCE_VERBS:
        return _cmd_sweep_maintenance(args)
    handler = None
    if args.log_json or args.log_level != "info":
        # Structured logging is opt-in; without it the repro logger keeps
        # its NullHandler and the sweep's output is byte-identical.
        from repro.telemetry.log import configure_logging

        handler = configure_logging(path=args.log_json or None, level=args.log_level)
    try:
        if args.watch:
            from repro.sweep.dist.watch import watch

            return watch(
                args.watch,
                reconnect_budget=args.reconnect_budget,
                seed=args.seed,
            )
        if args.service:
            from repro.sweep.dist.admission import TenantQuota
            from repro.sweep.dist.service import run_service_process

            quota = None
            if (
                args.max_live_jobs is not None
                or args.max_queued_points is not None
                or args.max_store_mb is not None
            ):
                quota = TenantQuota(
                    max_live_jobs=args.max_live_jobs,
                    max_queued_points=args.max_queued_points,
                    max_store_bytes=(
                        None
                        if args.max_store_mb is None
                        else int(args.max_store_mb * 1024 * 1024)
                    ),
                )
            kwargs = {}
            if args.max_connections is not None:
                kwargs["max_connections"] = args.max_connections
            return run_service_process(
                args.service,
                args.store,
                lease_seconds=args.lease if args.lease is not None else 5.0,
                flight_path=args.flight_recorder or None,
                quota=quota,
                seed=args.seed,
                **kwargs,
            )
        if args.connect:
            return _cmd_sweep_workers(args)
        return _cmd_sweep_serial_or_serve(args)
    finally:
        if handler is not None:
            from repro.telemetry.log import remove_handler

            remove_handler(handler)


def _cmd_sweep_serial_or_serve(args: argparse.Namespace) -> int:
    import sys
    import time

    from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS, driver
    from repro.sweep import SweepOptions

    known = [*ALL_EXPERIMENTS, *EXTENSION_EXPERIMENTS]
    names = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ConfigError(
            f"unknown experiments {unknown}; choose from {sorted(known)}"
        )

    for name in names:
        progress = _SweepProgress()
        options = SweepOptions(
            parallel=args.parallel,
            cache_dir=args.cache_dir or None,
            progress=progress,
            serve=args.serve or None,
            journal_dir=args.journal or None,
            lease_seconds=args.lease if args.lease is not None else 5.0,
            cache_max_mb=args.cache_max_mb,
            fleet_trace=args.fleet_trace or None,
            flight_recorder=args.flight_recorder or None,
            submit=args.submit or None,
            tenant=args.tenant,
            job_name=name if args.submit else None,
        )
        start = time.perf_counter()
        result = driver(name).run(sweep=options)
        elapsed = time.perf_counter() - start
        print(progress.summary(name, elapsed), file=sys.stderr)
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(result.render())
        print()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments import ext_faults

    telemetry = _make_telemetry(args)
    result = ext_faults.run(rates=args.rates, seed=args.seed, telemetry=telemetry)
    if args.json:
        payload = {
            "cells": [
                {
                    "pattern": c.pattern,
                    "backend": c.backend,
                    "rate": c.rate,
                    "makespan_seconds": c.makespan,
                    "healthy_makespan_seconds": c.healthy_makespan,
                    "faults_injected": c.faults_injected,
                    "retries": c.retries,
                    "giveups": c.giveups,
                    "recoveries": c.recoveries,
                    "mean_recovery_seconds": c.mean_recovery_seconds,
                    "max_recovery_seconds": c.max_recovery_seconds,
                    "data_loss": c.data_loss,
                    "staleness_or_quorum": c.staleness_or_quorum,
                    "goodput_degradation": c.goodput_degradation,
                }
                for c in result.cells
            ]
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.render())
    _save_telemetry(telemetry, args, quiet=args.json)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.benchreport import cmd_bench

    return cmd_bench(args)


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.analysis import format_table
    from repro.telemetry import load_trace, summarize_trace, validate_trace_events

    events = load_trace(args.file)
    validate_trace_events(events)
    rows = []
    for process, spans in summarize_trace(events, top_k=args.top):
        for event in spans:
            rows.append(
                (
                    process,
                    event.get("name", ""),
                    event.get("cat", ""),
                    float(event.get("dur", 0.0)) / 1e3,
                    float(event.get("ts", 0.0)) / 1e6,
                )
            )
    print(
        format_table(
            ["component", "span", "category", "dur (ms)", "start (s)"],
            rows,
            title=f"top {args.top} slowest spans per component ({len(events)} events)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SimAI-Bench reproduction: mini-app runner and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list registered mini-app kernels")

    def add_observability(p) -> None:
        p.add_argument(
            "--trace",
            default="",
            metavar="FILE",
            help="write a Chrome trace-event JSON file (open in Perfetto)",
        )
        p.add_argument(
            "--metrics",
            default="",
            metavar="FILE",
            help="write the metrics registry (counters/gauges/histograms) as JSON",
        )

    def add_fault_plan(p) -> None:
        p.add_argument(
            "--fault-plan",
            default="",
            metavar="FILE",
            help="JSON fault plan to inject (see repro.faults.plan)",
        )

    run_parser = sub.add_parser("run", help="run a real-mode mini-app from JSON")
    run_parser.add_argument("--config", required=True, help="mini-app JSON config")
    run_parser.add_argument(
        "--events-out", default="", help="write the event log (JSONL) here"
    )
    run_parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="override the backend server's n_shards (0 = leave the config's value)",
    )
    add_observability(run_parser)
    add_fault_plan(run_parser)

    simulate = sub.add_parser(
        "simulate", help="sim-mode what-if study on the modeled Aurora"
    )
    simulate.add_argument(
        "--pattern", choices=("one-to-one", "many-to-one"), default="one-to-one"
    )
    simulate.add_argument("--backend", default="node-local")
    simulate.add_argument("--nodes", type=int, default=8)
    simulate.add_argument("--size-mb", type=float, default=1.2)
    simulate.add_argument("--iterations", type=int, default=500)
    simulate.add_argument(
        "--json",
        action="store_true",
        help="print the run summary as a single JSON object",
    )
    add_observability(simulate)
    add_fault_plan(simulate)

    sweep = sub.add_parser(
        "sweep",
        help="regenerate experiments through the parallel sweep engine",
    )
    sweep.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids or 'all' (e.g. fig3, table2, ext_faults); or a "
        "maintenance verb: 'query' (cross-job results by fingerprint), "
        "'usage' (per-tenant accounting), 'gc' (retention pass), 'health' "
        "(overload/brownout probe) — these take --store FILE or --at "
        "HOST:PORT",
    )
    sweep.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes per grid (1 = serial, bit-identical default)",
    )
    sweep.add_argument(
        "--cache-dir",
        default="",
        metavar="DIR",
        help="content-addressed result cache; repeated points are served from disk",
    )
    sweep.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="evict oldest cache entries above this size after each sweep",
    )
    sweep.add_argument(
        "--cache-info",
        action="store_true",
        help="print cache entry count, size, and hit-rate history, then exit",
    )
    sweep.add_argument(
        "--serve",
        default="",
        metavar="HOST:PORT",
        help="serve grid points to distributed workers instead of computing "
        "locally (start workers with: sweep --connect HOST:PORT)",
    )
    sweep.add_argument(
        "--journal",
        default="",
        metavar="DIR",
        help="directory of the --serve store (every result is committed "
        "there before its worker is acknowledged); restarting with the same "
        "directory resumes without re-running completed points",
    )
    sweep.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="distributed lease duration (default 5); a worker silent this "
        "long loses its point to the next claimer",
    )
    sweep.add_argument(
        "--service",
        default="",
        metavar="HOST:PORT",
        help="run the durable multi-tenant sweep service: accepts many "
        "named grids (sweep --submit) concurrently, persists every result "
        "in --store, survives SIGKILL + restart without losing work",
    )
    sweep.add_argument(
        "--store",
        default="",
        metavar="FILE",
        help="SQLite job/results store for --service, or the store file "
        "query/usage/gc/health read",
    )
    sweep.add_argument(
        "--max-live-jobs",
        type=int,
        default=None,
        metavar="N",
        help="for --service: per-tenant admission quota on concurrently "
        "live (non-terminal) jobs; over-quota SUBMITs get a typed -BUSY "
        "refusal with a retry hint instead of queueing",
    )
    sweep.add_argument(
        "--max-queued-points",
        type=int,
        default=None,
        metavar="N",
        help="for --service: per-tenant admission quota on queued points "
        "across all of that tenant's live jobs",
    )
    sweep.add_argument(
        "--max-store-mb",
        type=float,
        default=None,
        metavar="MB",
        help="for --service: refuse new SUBMITs once the store's used "
        "pages exceed this size (headroom returns after gc --apply)",
    )
    sweep.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help="for --service: cap concurrent TCP connections; connection "
        "N+1 is refused with a typed -BUSY line (default 256)",
    )
    sweep.add_argument(
        "--submit",
        default="",
        metavar="HOST:PORT",
        help="submit the experiment grids to a running sweep service "
        "instead of computing locally; blocks until the job drains",
    )
    sweep.add_argument(
        "--tenant",
        default="",
        metavar="NAME",
        help="tenant label for --submit (fair-share accounting across "
        "concurrent tenants); also the tenant filter for query/usage/gc",
    )
    sweep.add_argument(
        "--at",
        default="",
        metavar="HOST:PORT",
        help="address of a running sweep service for query/usage/gc (the "
        "only safe way to gc --apply while a service is up)",
    )
    sweep.add_argument(
        "--fingerprint",
        default="",
        metavar="HEX",
        help="for query: point fingerprint to look up (an unambiguous "
        "prefix is enough)",
    )
    sweep.add_argument(
        "--name",
        default="",
        metavar="JOB",
        help="for query/usage/gc: restrict to jobs with this name",
    )
    sweep.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="EPOCH",
        help="for usage: only count events at/after this unix time",
    )
    sweep.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="for gc: collect terminal jobs idle longer than this",
    )
    sweep.add_argument(
        "--keep-latest",
        type=int,
        default=None,
        metavar="N",
        help="for gc: keep only the N newest terminal jobs per "
        "(name, tenant) group",
    )
    sweep.add_argument(
        "--lease-grace",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="for gc: refuse to collect a job whose newest lease event is "
        "younger than this (default 300)",
    )
    sweep.add_argument(
        "--apply",
        action="store_true",
        help="for gc: actually collect (default is a dry run that only "
        "prints the plan)",
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        help="for query/usage/gc: print the full report as JSON instead "
        "of tables",
    )
    sweep.add_argument(
        "--connect",
        default="",
        metavar="HOST:PORT",
        help="run as a worker fleet claiming points from a serving sweep",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for --connect (1 = run the agent in-process)",
    )
    sweep.add_argument(
        "--reconnect-budget",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a worker keeps retrying an unreachable --serve/--service "
        "address",
    )
    sweep.add_argument(
        "--poll",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="worker idle wait between claims when no point is available",
    )
    sweep.add_argument(
        "--op-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request socket timeout for --connect workers; a stalled "
        "or one-way-partitioned exchange becomes a retryable reconnect",
    )
    sweep.add_argument(
        "--seed", type=int, default=0, help="root seed for worker backoff jitter"
    )
    sweep.add_argument(
        "--watch",
        default="",
        metavar="HOST:PORT",
        help="attach a read-only live console to a running --serve sweep or "
        "--service (progress bar, per-worker rates, quarantine list)",
    )
    sweep.add_argument(
        "--fleet-trace",
        default="",
        metavar="FILE",
        help="with --serve: write one merged Chrome trace of the whole "
        "fleet (lease spans on the coordinator track + worker execution "
        "spans)",
    )
    sweep.add_argument(
        "--flight-recorder",
        default="",
        metavar="FILE",
        help="dump the flight-recorder ring (recent protocol events) here "
        "on exit, poison, crash, or drain; with --connect and --workers N "
        "each rank writes FILE-<rank>.json",
    )
    sweep.add_argument(
        "--log-json",
        default="",
        metavar="FILE",
        help="append structured JSONL logs (service/worker/engine "
        "events) to FILE",
    )
    sweep.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured-log threshold (default info; debug narrates every "
        "lease and claim)",
    )

    chaos = sub.add_parser(
        "chaos", help="seeded chaos sweep: fault rate x backend x pattern"
    )
    chaos.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=None,
        metavar="RATE",
        help="stochastic fault rates (faults per simulated second) to sweep",
    )
    chaos.add_argument("--seed", type=int, default=0, help="root seed for the sweep")
    chaos.add_argument(
        "--json", action="store_true", help="print the sweep cells as JSON"
    )
    add_observability(chaos)

    bench = sub.add_parser(
        "bench",
        help="perf baseline: DES micro-bench + one round of each paper experiment "
        "-> BENCH_<date>.json with a delta table vs the last baseline",
    )
    from repro.benchreport import add_bench_arguments

    add_bench_arguments(bench)

    trace_summary = sub.add_parser(
        "trace-summary", help="print the top-k slowest spans per component of a trace"
    )
    trace_summary.add_argument("file", help="Chrome trace JSON written by --trace")
    trace_summary.add_argument("--top", type=int, default=5, help="spans per component")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "kernels":
        return _cmd_kernels(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "trace-summary":
        return _cmd_trace_summary(args)
    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


def shell_main(argv: list[str]) -> int:
    """``main(argv)`` for a shell: a ``ConfigError`` is one stderr line
    and exit status 2, like an argparse usage error, not a traceback."""
    try:
        return main(argv)
    except ConfigError as exc:
        import sys

        command = argv[0] if argv else ""
        print(f"repro {command}: error: {exc}", file=sys.stderr)
        return 2
