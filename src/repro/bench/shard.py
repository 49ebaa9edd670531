"""Sharded multiprocess simulation of one big run.

One 10k-rank checkpoint is a single discrete-event simulation, so the
sweep executor's trial-level parallelism cannot touch it.  This module
splits that *single* run across worker processes.

The partition is by **server group**, not by rank block.  Checkpoint
placement is round-robin (``placement.place(rank, n_servers)``), so the
ranks writing to one server group never contend with another group's
storage servers or NICs — each shard owns its servers outright and
simulates only the clients placed on them.  (Rank-block sharding would
be useless here: under symmetric-client collapsing every shard would
still contain every server equivalence class and do all the work.)

What *is* shared between shards are the service nodes (authz, MDS): in
the real run all n clients hit them.  Each worker gets a local replica
scaled by its client share (``SimConfig.service_scale``) — the
mean-field split: n/S clients against capacity/S see the same queueing
delay as n clients against full capacity, so the makespan is preserved
without cross-process state.  The residual error (boundary effects of
the split, distinct jitter draws per shard) is what the ≤1% contract
in the tests and CI gate pins.

Workers run in conservative lockstep: simulated time advances in fixed
windows (never shorter than the fabric's minimum wire latency — the
soonest any cross-shard influence could propagate), and every worker
synchronizes with the parent at each window barrier before entering the
next.  ``Environment.window_barriers`` counts the crossings; the merged
result sums them.  The window schedule is deterministic (derived from
:class:`repro.bench.analytic.CheckpointModel`), so repeated sharded
runs produce bit-identical merged results — with or without a usable
``fork``, since the barrier exchanges no simulation state.

Sharding is requested with ``RunOptions(shards=N)`` / ``--shards N`` /
``REPRO_SHARD=N`` (``0`` and ``1`` mean single-process).  Runs that
need a global timeline (fault plans, tracing, ``lustre-shared``'s
all-to-all striping) fall back to single-process execution with a
one-time warning.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from ..machine.presets import dev_cluster
from ..machine.spec import MachineSpec
from ..sim.config import RunOptions, SimConfig
from ..units import MiB
from .analytic import analytic_horizon
from .harness import (
    TrialResult,
    _build,
    _collapse_stats,
    _finish_metrics,
    _kernel_stats,
    _maybe_metrics,
    checkpoint_main,
    create_main,
)

__all__ = [
    "ShardPlan",
    "plan_shards",
    "run_sharded_checkpoint_trial",
    "run_sharded_create_trial",
]

#: Windows the horizon estimate is divided into (barrier count target).
TARGET_WINDOWS = 16

#: Hard cap on barrier crossings: if the analytic horizon estimate was
#: wildly short, the remainder of the run finishes un-windowed rather
#: than barrier-spinning forever.
MAX_WINDOWS = 512

#: Fallback reasons already warned about (one warning per reason).
_FALLBACK_WARNED: set = set()


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice: its server group and the clients placed on it."""

    index: int
    n_clients: int
    n_servers: int
    #: This shard's share of every *service* node (mean-field split).
    service_scale: float
    #: Global servers / this shard's servers — the 2PC chain stretch.
    txn_fanout_scale: float
    seed: int


def plan_shards(
    n_clients: int, n_servers: int, shards: int, seed: int
) -> List[ShardPlan]:
    """Balanced server-group partition with proportional client counts."""
    shards = max(1, min(shards, n_servers, n_clients))
    plans = []
    for k in range(shards):
        m_k = n_servers // shards + (1 if k < n_servers % shards else 0)
        n_k = n_clients // shards + (1 if k < n_clients % shards else 0)
        plans.append(
            ShardPlan(
                index=k,
                n_clients=n_k,
                n_servers=m_k,
                service_scale=n_k / n_clients,
                txn_fanout_scale=n_servers / m_k,
                # Distinct deterministic jitter streams per shard.
                seed=seed + 7919 * k,
            )
        )
    return plans


def _warn_fallback(reason: str) -> None:
    if reason in _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED.add(reason)
    warnings.warn(
        f"sharded execution unavailable ({reason}); running single-process",
        RuntimeWarning,
        stacklevel=4,
    )


def _shardable(impl: str, opts: RunOptions) -> Optional[str]:
    """``None`` when the run can shard, else the fallback reason."""
    if opts.faults is not None:
        return "fault plans need the global timeline"
    if opts.trace:
        return "tracing needs a single span timeline"
    if impl == "lustre-shared":
        return "shared-file striping couples every rank to every OST"
    return None


def _window_length(
    kind: str,
    impl: str,
    plan: ShardPlan,
    spec: MachineSpec,
    config: SimConfig,
    state_bytes: int,
    creates_per_client: int,
) -> float:
    """Deterministic window schedule from the analytic checkpoint model.

    The conservative-sync lower bound is the fabric's minimum wire
    latency: nothing can cross shards faster, so a window can never
    reorder a (future) cross-shard interaction.  The practical length is
    the analytic horizon divided into :data:`TARGET_WINDOWS` slices.
    """
    wire_min = min(
        spec.compute_spec.nic.latency,
        spec.io_spec.nic.latency,
        spec.service_spec.nic.latency,
    ) + spec.hop_latency
    horizon = analytic_horizon(
        kind, impl, plan.n_clients, plan.n_servers, spec, config,
        state_bytes, creates_per_client,
    )
    return max(horizon / TARGET_WINDOWS, wire_min, 1e-6)


def _simulate_shard(
    kind: str,
    impl: str,
    plan: ShardPlan,
    spec: Optional[MachineSpec],
    config: Optional[SimConfig],
    opts: RunOptions,
    state_bytes: int,
    creates_per_client: int,
    deploy_kwargs: Dict[str, Any],
    barrier_cb: Optional[Callable[[float], None]] = None,
) -> Dict[str, Any]:
    """Run one shard's slice to completion, windowed; return its payload.

    The windowed drive is identical with and without a live barrier
    callback — the callback only blocks host time, never simulated time
    — so sequential (no-fork) and multiprocess execution merge to
    bit-identical results.
    """
    spec = spec or dev_cluster()
    config = replace(
        config or SimConfig(),
        service_scale=plan.service_scale,
        # 2PC prepare/commit chains over the GLOBAL server count; stretch
        # this shard's local chain back to full length (see end_txn).
        txn_fanout_scale=plan.txn_fanout_scale,
    )
    opts_local = replace(opts, shards=1)
    cluster, deployment, checkpointer, app, _injector = _build(
        impl, plan.n_clients, plan.n_servers, plan.seed, spec, config,
        opts=opts_local, collapse_state_bytes=state_bytes, **deploy_kwargs
    )
    env = cluster.env
    # opts.metrics_period was pinned by the parent from the GLOBAL
    # analytic horizon (see _run_sharded), so every shard samples on the
    # identical tick grid and the merge is a plain elementwise sum.
    sampler = _maybe_metrics(
        cluster, deployment, opts_local, kind, impl, plan.n_clients,
        plan.n_servers, state_bytes=state_bytes,
        creates_per_client=creates_per_client,
    )
    if kind == "checkpoint":
        main = checkpoint_main(checkpointer, state_bytes)
    else:
        main = create_main(checkpointer, creates_per_client)
    procs = app.launch(main)
    done = env.all_of(procs)
    window = _window_length(
        kind, impl, plan, spec, config, state_bytes, creates_per_client
    )
    t_next = window
    while not done.triggered and env.window_barriers < MAX_WINDOWS:
        gate = env.timeout(t_next - env.now)
        env.run(env.any_of((done, gate)))
        if done.triggered:
            break
        env.window_barriers += 1
        if barrier_cb is not None:
            barrier_cb(env.now)
        t_next += window
    if not done.triggered:  # pragma: no cover - horizon estimate too short
        env.run(done)
    results = [p.value for p in procs]
    stats = _kernel_stats(cluster)
    stats.update(_collapse_stats(app))
    metrics_doc = _finish_metrics(sampler, None)
    if sampler is not None:
        stats.update(sampler.stats())
    return {
        "count": len(results),
        "sum_elapsed": sum(r.elapsed for r in results),
        "max_elapsed": max(r.elapsed for r in results),
        "create_max_elapsed": max(r.create_elapsed for r in results),
        "stats": stats,
        "metrics": metrics_doc,
    }


def _shard_worker(conn, args: tuple) -> None:
    """Child-process entry: simulate one shard, barriers over the pipe."""
    try:
        def barrier_cb(now: float) -> None:
            conn.send(("window", now))
            conn.recv()  # "go"

        payload = _simulate_shard(*args, barrier_cb=barrier_cb)
        conn.send(("result", payload))
    except BaseException as exc:  # pragma: no cover - surfaced by parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


def _drive_workers(arg_sets: List[tuple]) -> Optional[List[Dict[str, Any]]]:
    """Fork one worker per shard and run the barrier protocol.

    Returns ``None`` when process infrastructure is unavailable (the
    caller then simulates the shards sequentially, same results).
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None
    conns = []
    workers = []
    try:
        try:
            for args in arg_sets:
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_shard_worker, args=(child, args))
                proc.start()
                child.close()
                conns.append(parent)
                workers.append(proc)
        except OSError:
            return None
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(arg_sets)
        active = dict(enumerate(conns))
        while active:
            release = []
            for idx in sorted(active):
                conn = active[idx]
                try:
                    msg = conn.recv()
                except EOFError:
                    raise RuntimeError(f"shard {idx} died mid-run") from None
                if msg[0] == "window":
                    release.append(conn)
                elif msg[0] == "result":
                    payloads[idx] = msg[1]
                    del active[idx]
                else:
                    raise RuntimeError(f"shard {idx} failed: {msg[1]}")
            # Barrier: every still-running shard reported its window;
            # release them into the next one together.
            for conn in release:
                conn.send("go")
        return payloads  # type: ignore[return-value]
    finally:
        for conn in conns:
            conn.close()
        for proc in workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


def _merge(
    kind: str,
    impl: str,
    n_clients: int,
    n_servers: int,
    state_bytes: int,
    creates_per_client: int,
    payloads: List[Dict[str, Any]],
) -> TrialResult:
    """Combine shard payloads into one TrialResult.

    Shards are independent slices of one machine running concurrently,
    so elapsed times merge as maxima (the slowest shard sets the
    makespan) and event-loop work merges as sums.
    """
    max_elapsed = max(p["max_elapsed"] for p in payloads)
    total_count = sum(p["count"] for p in payloads)
    mean_elapsed = sum(p["sum_elapsed"] for p in payloads) / total_count
    extra: Dict[str, float] = {}
    sum_keys = (
        "events_processed", "events_skipped_cancelled",
        "events_fast_forwarded", "window_barriers",
        "flows_active", "rate_recomputes", "ranks_simulated",
        "metrics_ticks", "metrics_samples", "metrics_synthesized",
    )
    max_keys = (
        "peak_event_queue", "sim_seconds", "max_multiplicity",
        "metrics_period",
    )
    for p in payloads:
        for key, value in p["stats"].items():
            if key in sum_keys:
                extra[key] = extra.get(key, 0.0) + float(value)
            elif key in max_keys:
                extra[key] = max(extra.get(key, 0.0), float(value))
    extra["shards"] = float(len(payloads))
    if kind == "create":
        extra["creates_per_s"] = n_clients * creates_per_client / max_elapsed
    metrics_doc = _merge_metrics([p.get("metrics") for p in payloads])
    return TrialResult(
        impl=impl,
        n_clients=n_clients,
        n_servers=n_servers,
        state_bytes=state_bytes if kind == "checkpoint" else 0,
        max_elapsed=max_elapsed,
        mean_elapsed=mean_elapsed,
        throughput_mb_s=(
            (n_clients * state_bytes / MiB) / max_elapsed
            if kind == "checkpoint" else 0.0
        ),
        create_max_elapsed=max(p["create_max_elapsed"] for p in payloads),
        extra=extra,
        metrics=metrics_doc,
    )


def _merge_metrics(docs: List[Optional[dict]]) -> Optional[dict]:
    """Sum per-shard series into one global document, on lockstep grids.

    Every shard sampled on the identical tick grid (the parent pinned
    ``metrics_period`` from the global analytic horizon), so a merged
    sample is the elementwise sum over shards — shards are disjoint
    slices of one machine, so sums *are* the global totals.  A shard
    whose run ended before tick ``i`` contributes its final sampled
    value (its counters are frozen once its slice drains).  Same-named
    per-server series (each shard names its servers ``stor0..``) sum the
    k-th server of every shard group; the aggregate series are the
    global story.  The documented cross-mode tolerance is on final
    model-scope totals (~2%: distinct jitter draws and the mean-field
    service split), pinned by the shard equivalence tests.
    """
    docs = [d for d in docs if d is not None]
    if not docs:
        return None
    base = docs[0]
    merged_instruments = []
    by_name_all = [
        {inst["name"]: inst for inst in d["instruments"]} for d in docs
    ]
    last_tick = 0
    for per_doc in by_name_all:
        for inst in per_doc.values():
            indices = inst["series"]["indices"]
            if indices:
                last_tick = max(last_tick, indices[-1])
    # Union of names, insertion-ordered (shard 0 first, then any series
    # only a bigger shard carries) — deterministic export order.
    ordered: Dict[str, dict] = {}
    for per_doc in by_name_all:
        for name, inst in per_doc.items():
            ordered.setdefault(name, inst)
    for name, inst in ordered.items():
        parts = [b[name] for b in by_name_all if name in b]
        values_by_tick: Dict[int, float] = {}
        final = 0.0
        for part in parts:
            series = dict(zip(part["series"]["indices"], part["series"]["values"]))
            tail = part["series"]["values"][-1] if part["series"]["values"] else 0.0
            part_last = part["series"]["indices"][-1] if part["series"]["indices"] else 0
            for i in range(1, last_tick + 1):
                v = series.get(i, tail if i > part_last else 0.0)
                values_by_tick[i] = values_by_tick.get(i, 0.0) + v
            f = part.get("final")
            final += float(f) if isinstance(f, (int, float)) else tail
        ticks = sorted(values_by_tick)
        merged_instruments.append(
            {
                "name": name,
                "kind": inst["kind"],
                "unit": inst["unit"],
                "scope": inst["scope"],
                "series": {
                    "indices": ticks,
                    "values": [values_by_tick[i] for i in ticks],
                    "dropped": sum(p["series"].get("dropped", 0) for p in parts),
                },
                "final": final,
            }
        )
    merged = {
        "schema": base["schema"],
        "t0": min(float(d["t0"]) for d in docs),
        "period": float(base["period"]),
        "t_end": max(float(d["t_end"]) for d in docs),
        "sampler": {
            "ticks": sum(d["sampler"]["ticks"] for d in docs),
            "samples": sum(d["sampler"]["samples"] for d in docs),
            "synthesized": sum(d["sampler"]["synthesized"] for d in docs),
            "max_stride": max(d["sampler"]["max_stride"] for d in docs),
        },
        "instruments": merged_instruments,
        "merged_shards": len(docs),
    }
    from ..metrics import evaluate_health

    # Sharded runs never carry fault plans (_shardable rejects them);
    # the merged health still reports baseline/verdict on global goodput.
    merged["health"] = evaluate_health(merged).to_dict()
    return merged


def _run_sharded(
    kind: str,
    impl: str,
    n_clients: int,
    n_servers: int,
    state_bytes: int,
    creates_per_client: int,
    seed: int,
    spec: Optional[MachineSpec],
    config: Optional[SimConfig],
    opts: RunOptions,
    deploy_kwargs: Dict[str, Any],
) -> TrialResult:
    reason = _shardable(impl, opts)
    if reason is not None:
        _warn_fallback(reason)
        from .harness import run_checkpoint_trial, run_create_trial

        single = replace(opts, shards=1)
        if kind == "checkpoint":
            return run_checkpoint_trial(
                impl, n_clients, n_servers, state_bytes=state_bytes, seed=seed,
                spec=spec, config=config, options=single, **deploy_kwargs
            )
        return run_create_trial(
            impl, n_clients, n_servers, creates_per_client=creates_per_client,
            seed=seed, spec=spec, config=config, options=single, **deploy_kwargs
        )
    if opts.metrics and opts.metrics_period is None:
        # Pin the sampling grid from the GLOBAL analytic horizon before
        # fan-out: each shard would otherwise derive a period from its
        # own slice and the grids would never line up for the merge.
        from ..metrics import default_period

        horizon = analytic_horizon(
            kind, impl, n_clients, n_servers, spec or dev_cluster(),
            config or SimConfig(), state_bytes, creates_per_client,
        )
        opts = replace(opts, metrics_period=default_period(horizon))
    plans = plan_shards(n_clients, n_servers, opts.shards, seed)
    arg_sets = [
        (kind, impl, plan, spec, config, opts, state_bytes,
         creates_per_client, deploy_kwargs)
        for plan in plans
    ]
    # Worker processes only pay off with real cores to run on; on a
    # starved box the shards run sequentially in-process instead.  The
    # partition still helps there — each slice's event queue, flow
    # network, and collective fan-in are a fraction of the full run's,
    # and the superlinear per-event costs shrink with them.  Results are
    # bit-identical either way (the barrier exchanges no simulation
    # state), so the choice is pure scheduling.
    parallel_ok = len(plans) > 1 and (os.cpu_count() or 1) > 1
    payloads = _drive_workers(arg_sets) if parallel_ok else None
    if payloads is None:
        payloads = [_simulate_shard(*args) for args in arg_sets]
    return _merge(
        kind, impl, n_clients, n_servers, state_bytes, creates_per_client,
        payloads,
    )


def run_sharded_checkpoint_trial(
    impl: str,
    n_clients: int,
    n_servers: int,
    state_bytes: int,
    seed: int,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    opts: Optional[RunOptions] = None,
    **deploy_kwargs,
) -> TrialResult:
    """One Figure-9 dump split over ``opts.shards`` worker processes."""
    opts = (opts or RunOptions()).resolved()
    return _run_sharded(
        "checkpoint", impl, n_clients, n_servers, state_bytes, 0,
        seed, spec, config, opts, deploy_kwargs,
    )


def run_sharded_create_trial(
    impl: str,
    n_clients: int,
    n_servers: int,
    creates_per_client: int,
    seed: int,
    spec: Optional[MachineSpec] = None,
    config: Optional[SimConfig] = None,
    opts: Optional[RunOptions] = None,
    **deploy_kwargs,
) -> TrialResult:
    """One Figure-10 create phase split over ``opts.shards`` workers."""
    opts = (opts or RunOptions()).resolved()
    return _run_sharded(
        "create", impl, n_clients, n_servers, 0, creates_per_client,
        seed, spec, config, opts, deploy_kwargs,
    )
