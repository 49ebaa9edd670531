"""CI gates: ``python -m repro.gates [NAME ...]``.

One runner for every quick check CI makes.  :data:`GATES` maps a gate
name to a function returning check dicts ``{"check", "ok", **detail}``;
the table order is the CI order.  With no names every gate runs, in one
process.  Each check prints as ``[ok  ] gate/check: detail`` or
``[FAIL] gate/check: detail``, one report lands in
``results/gates.json`` (``{"ok", "gates": [{"name", "wall_s", "ok",
"checks"}]}``), and the exit status is 1 if any check failed, 2 for an
unknown gate name.  ``make <name>-quick`` runs one gate.

The gates:

* ``bench`` — the quick Fig. 9/10 grid at ``jobs=2``, re-run serially
  with the cache off, must be bit-identical.
* ``scale`` — the quick grid cold then warm against a fresh trial
  cache: every warm trial a hit, identical aggregates.
* ``flow`` — the flow accuracy grid exact and fluid, within
  :data:`FLOW_REL_TOL` at every point.
* ``shard`` — the analytic fast-forward engine on/off within
  :data:`FF_REL_TOL`, and still fast-forwarding under a fault plan;
  the Red Storm slice sharded vs single-process within
  :data:`SHARD_REL_TOL`, and a sharded re-run bit-identical.
* ``chaos`` — a seeded fault plan touching every injector kind runs
  twice bit-identically; faults-off reproduces the pinned
  pre-fault-subsystem timelines (:data:`FAULTS_OFF_PINNED`).
* ``traffic`` — workload-spec round-trip, seeded determinism, the
  tenant-collapse kill switch, collapse accuracy within
  :data:`ACCURACY_TOL`, and scale invariance.
* ``buffer`` — TierSpec round-trip, the passthrough kill switch, the
  absorb speedup, drain-limited backpressure, crash-mid-drain
  determinism, and the Red Storm crossover (>= :data:`BUFFER_MIN_SPEEDUP`).
* ``metrics`` — zero perturbation, sampler overhead, export schema,
  and the storage-crash health check; renders
  ``results/metrics_dashboard.html``.
* ``trace`` — one traced checkpoint trial written to
  ``results/trace_quick.json`` and validated against the Chrome
  trace-event schema.
* ``kernel`` — kernel event throughput (median of
  :data:`KERNEL_REPEATS`) against the ``BENCH_kernel.json`` baselines,
  both scaled by a program-independent calibration loop, failing below
  :data:`KERNEL_THRESHOLD`, plus the pinned burst-buffer crossover
  record.

The ``bench``, ``scale``, ``flow``, ``shard`` and ``buffer`` gates
record their sweeps in ``BENCH_sweep.json``.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from .bench.executor import TrialSpec, checkpoint_spec, create_spec, run_sweep
from .units import GiB, KiB, MiB

Check = Dict[str, Any]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Where the report and the gate artifacts are written.
RESULTS_DIR = os.path.join(_REPO_ROOT, "results")

#: Worker processes for every gate sweep.
JOBS = 2


def _rel(reference: float, value: float) -> float:
    return abs(value - reference) / reference if reference else 0.0


def _drift(reference, candidate, tol: float):
    """Worst relative error of *candidate* against *reference*, plus the
    keys of the points beyond *tol*."""
    rels = [_rel(r.value, c.value) for r, c in zip(reference, candidate)]
    drifted = [str(r.spec.key()) for r, rel in zip(reference, rels) if rel > tol]
    return max(rels, default=0.0), drifted


def _total(outcomes, key: str) -> int:
    """Sum of one integer ``TrialResult.extra`` counter over a sweep."""
    return int(sum(o.result.extra.get(key, 0) for o in outcomes))


# --------------------------------------------------------------- bench / scale


def _quick_grid() -> List[TrialSpec]:
    """The CI smoke sweep: a reduced Fig. 9 + Fig. 10 grid."""
    specs: List[TrialSpec] = []
    for impl in ("lwfs", "lustre-fpp"):
        for m in (2, 16):
            for n in (2, 8):
                for t in range(2):
                    specs.append(
                        checkpoint_spec(impl, n, m, seed=100 + t, state_bytes=8 * MiB)
                    )
    for m in (2, 16):
        for n in (2, 8):
            for t in range(2):
                specs.append(create_spec("lwfs", n, m, seed=200 + t, creates_per_client=8))
    return specs


def _mismatched(a, b) -> List[str]:
    return [str(x.spec.key()) for x, y in zip(a, b) if x.value != y.value]


def gate_bench() -> List[Check]:
    specs = _quick_grid()
    parallel = run_sweep(specs, jobs=JOBS, label=f"quick(jobs={JOBS})", record=True)
    serial = run_sweep(specs, jobs=1, label="quick(jobs=1)", record=True, cache=False)
    mismatched = _mismatched(parallel, serial)
    return [{
        "check": "determinism",
        "ok": not mismatched,
        "trials": len(specs),
        "jobs": JOBS,
        "cache_hits": sum(o.cached for o in parallel),
        "mismatched": mismatched[:10],
    }]


def gate_scale() -> List[Check]:
    from .bench.cache import TrialCache

    specs = _quick_grid()
    with tempfile.TemporaryDirectory() as root:
        cache = TrialCache(root)
        t0 = time.perf_counter()
        cold = run_sweep(
            specs, jobs=JOBS, label=f"quick(jobs={JOBS})", record=True, cache=cache
        )
        t1 = time.perf_counter()
        warm = run_sweep(
            specs, jobs=JOBS, label=f"quick-warm(jobs={JOBS})", record=True, cache=cache
        )
        t2 = time.perf_counter()
    hits = sum(o.cached for o in warm)
    mismatched = _mismatched(cold, warm)
    return [{
        "check": "warm-cache",
        "ok": not mismatched and hits == len(specs),
        "warm_hits": hits,
        "trials": len(specs),
        "mismatched": mismatched[:10],
        "cold_s": round(t1 - t0, 3),
        "warm_s": round(t2 - t1, 3),
    }]


# ---------------------------------------------------------------- flow / shard

#: Flow-vs-exact gate: maximum relative error on the figure of merit.
FLOW_REL_TOL = 0.01

#: Fast-forward gate: the analytic engine must match the reference flow
#: arithmetic to floating-point noise, not merely to model tolerance.
FF_REL_TOL = 1e-9

#: Sharded-vs-single gate: maximum relative error on the figure of merit
#: (the mean-field service split and per-shard jitter draws bound this).
SHARD_REL_TOL = 0.01


def _flow_grid(flow: bool) -> List[TrialSpec]:
    """The flow accuracy gate: bulky dumps (> 2 chunks per rank), so the
    steady-state middle actually rides the flow engine, run with the flag
    both ways at otherwise identical points."""
    from .sim.config import RunOptions

    return [
        checkpoint_spec(
            impl, n, m, seed=300, state_bytes=32 * MiB, options=RunOptions(flow=flow)
        )
        for impl in ("lwfs", "lustre-fpp")
        for n, m in ((4, 2), (8, 4))
    ]


def _ff_grid(fastforward: bool) -> List[TrialSpec]:
    """The fast-forward equivalence gate: flow-mode dumps big enough to
    keep many concurrent flows live, with the engine forced on or off.
    The last point is faulted: a collapsed Red Storm slice through the
    storage-server crash and the host-side-log tier, whose drains must
    fast-forward too."""
    from .machine.presets import red_storm
    from .sim.config import RunOptions

    examples = os.path.join(_REPO_ROOT, "examples")
    return [
        checkpoint_spec(
            impl, n, m, seed=400, state_bytes=32 * MiB,
            options=RunOptions(flow=True, fastforward=fastforward),
        )
        for impl in ("lwfs", "lustre-fpp")
        for n, m in ((8, 4), (16, 8))
    ] + [
        checkpoint_spec(
            "lwfs", 256, 16, seed=400, state_bytes=32 * MiB, spec=red_storm(),
            options=RunOptions(
                collapse=True, flow=True, fastforward=fastforward,
                faults=os.path.join(examples, "faults", "storage_crash.json"),
                tiers=os.path.join(examples, "tiers", "hostlog.json"),
            ),
        )
    ]


def _shard_grid(shards: int) -> List[TrialSpec]:
    """The shard accuracy gate: the 128-client Red Storm slice, sharded
    versus single-process at otherwise identical points."""
    from .machine.presets import red_storm
    from .sim.config import RunOptions

    return [
        checkpoint_spec(
            "lwfs", 128, 32, seed=500, state_bytes=8 * MiB,
            spec=red_storm(),
            options=RunOptions(collapse=True, flow=True, shards=shards),
        )
    ]


def gate_flow() -> List[Check]:
    exact = run_sweep(_flow_grid(False), jobs=JOBS, label="flow-gate-exact", record=True)
    flowed = run_sweep(_flow_grid(True), jobs=JOBS, label="flow-gate-flow", record=True)
    worst, drifted = _drift(exact, flowed, FLOW_REL_TOL)
    return [{
        "check": "flow-accuracy",
        "ok": not drifted,
        "points": len(flowed),
        "worst_rel_err": worst,
        "tolerance": FLOW_REL_TOL,
        "drifted": drifted,
        "events_exact": _total(exact, "events_processed"),
        "events_flow": _total(flowed, "events_processed"),
    }]


def gate_shard() -> List[Check]:
    reference = run_sweep(
        _ff_grid(False), jobs=JOBS, label="ff-gate-reference", record=True
    )
    fast = run_sweep(_ff_grid(True), jobs=JOBS, label="ff-gate-fast", record=True)
    worst, drifted = _drift(reference, fast, FF_REL_TOL)
    faulted_ff = int(fast[-1].result.extra.get("events_fast_forwarded", 0))
    (single,) = run_sweep(
        _shard_grid(1), jobs=JOBS, label="shard-gate-single", record=True
    )
    (sharded,) = run_sweep(
        _shard_grid(2), jobs=JOBS, label="shard-gate-sharded", record=True
    )
    # Sharded runs must also be reproducible run-over-run: the window
    # schedule is deterministic and the barrier carries no state.
    (repeat,) = run_sweep(
        _shard_grid(2), jobs=JOBS, label="shard-gate-repeat", record=True, cache=False
    )
    rel = _rel(single.value, sharded.value)
    return [
        {
            "check": "fastforward-equivalence",
            # Fast-forward must stay on under the fault plan, not
            # merely agree with the reference by switching itself off.
            "ok": not drifted and faulted_ff > 0,
            "points": len(fast),
            "worst_rel_err": worst,
            "tolerance": FF_REL_TOL,
            "drifted": drifted,
            "fast_forwarded": _total(fast, "events_fast_forwarded"),
            "faulted_fast_forwarded": faulted_ff,
        },
        {
            "check": "shard-tolerance",
            "ok": rel <= SHARD_REL_TOL,
            "single": single.value,
            "sharded": sharded.value,
            "rel_err": rel,
            "tolerance": SHARD_REL_TOL,
            "window_barriers": int(sharded.result.extra["window_barriers"]),
        },
        {
            "check": "shard-repeat",
            "ok": repeat.value == sharded.value,
            "sharded": sharded.value,
            "repeat": repeat.value,
        },
    ]


# ----------------------------------------------------------------------- chaos

#: Pinned faults-off reference timelines (max rank time, seconds) for
#: seed=42, 8 clients x 8 MiB over 4 servers — recorded before the fault
#: subsystem existed.  Any drift means a fault hook leaked into the
#: fault-free path.
FAULTS_OFF_PINNED = {
    "lwfs": 0.2059247186632824,
    "lustre-fpp": 0.20445342150380083,
    "lustre-shared": 0.3098345331296523,
}

CHAOS_CLIENTS, CHAOS_SERVERS = 8, 4
CHAOS_STATE = 8 * MiB
CHAOS_SEED = 42


def _chaos_plan():
    """One plan touching every fault kind plus the stochastic RPC layer."""
    from .faults.plan import FaultEvent, FaultPlan, RetryPolicy

    return FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=0.04, target="stor0", duration=0.05),
            FaultEvent(kind="disk_stall", at=0.02, target="stor1", duration=0.03),
            FaultEvent(kind="link_degrade", at=0.06, target="stor2",
                       duration=0.05, factor=0.25),
            FaultEvent(kind="revoke_storm", at=0.08, target="authz"),
        ),
        rpc_drop_rate=0.08,
        rpc_dup_rate=0.08,
        retry=RetryPolicy(timeout=0.25),
        seed=CHAOS_SEED,
    )


def _mds_plan():
    from .faults.plan import FaultEvent, FaultPlan, RetryPolicy

    return FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=0.0, target="mds", duration=0.05),
        ),
        retry=RetryPolicy(timeout=0.25),
        seed=CHAOS_SEED,
    )


def _fingerprint(result) -> dict:
    """Everything that must be bit-identical between two seeded runs."""
    return {
        "max_elapsed": result.max_elapsed,
        "mean_elapsed": result.mean_elapsed,
        "events_processed": result.extra.get("events_processed"),
        "stats": {k: v for k, v in sorted(result.extra.items())},
        "fault_log": result.fault_log,
    }


def _check_chaos_determinism(impl: str, plan) -> Check:
    from .bench.harness import run_checkpoint_trial
    from .sim.config import RunOptions

    runs = [
        run_checkpoint_trial(
            impl, CHAOS_CLIENTS, CHAOS_SERVERS, state_bytes=CHAOS_STATE,
            seed=CHAOS_SEED, options=RunOptions(faults=plan),
        )
        for _ in range(2)
    ]
    a, b = (_fingerprint(r) for r in runs)
    s = runs[0].extra
    return {
        "check": f"chaos-determinism[{impl}]",
        "ok": a == b,
        "mismatched": [key for key in a if a[key] != b[key]],
        "log_entries": len(runs[0].fault_log),
        "faults": s.get("faults_injected"),
        "retries": s.get("retries"),
        "recovered": s.get("recovered_ops"),
        "dropped": s.get("rpc_dropped"),
        "max_rank_time_s": runs[0].max_elapsed,
    }


def _check_faults_off() -> Check:
    from .bench.harness import run_checkpoint_trial

    drifted = {}
    for impl, pinned in FAULTS_OFF_PINNED.items():
        r = run_checkpoint_trial(
            impl, CHAOS_CLIENTS, CHAOS_SERVERS, state_bytes=CHAOS_STATE, seed=CHAOS_SEED
        )
        if r.max_elapsed != pinned:
            drifted[impl] = {"max_rank_time_s": r.max_elapsed, "pinned": pinned}
    return {
        "check": "faults-off",
        "ok": not drifted,
        "stacks": len(FAULTS_OFF_PINNED),
        "drifted": drifted,
    }


def gate_chaos() -> List[Check]:
    return [
        _check_chaos_determinism("lwfs", _chaos_plan()),
        _check_chaos_determinism("lustre-shared", _mds_plan()),
        _check_faults_off(),
    ]


# --------------------------------------------------------------------- traffic

#: Collapsed-vs-uncollapsed relative error bound (goodput, p50, p99).
ACCURACY_TOL = 0.01
#: Event-count growth allowed for a 100x tenant population at equal rate.
EVENT_RATIO_LIMIT = 1.05

#: Per-class statistics compared between traffic runs.
_TRAFFIC_FIELDS = ("ops", "goodput_mb_s", "latency_p50", "latency_p99")


def _gate_spec(tenants: int, reps: int, quantum: float = 0.005):
    """The accuracy-gate mix: jitter-free costs, fixed sizes for the
    latency-checked classes, moderate utilization — the regime where
    collapse error is structural, not measurement noise."""
    from .workload.spec import TenantClass, WorkloadSpec

    return WorkloadSpec(
        classes=(
            TenantClass(
                name="meta", tenants=tenants, rate=500.0, arrival="poisson",
                op_mix=(("create", 3.0), ("getattr", 2.0)),
                size_dist="fixed", size_bytes=4096, representatives=reps,
            ),
            TenantClass(
                name="readers", tenants=tenants, rate=300.0, arrival="diurnal",
                diurnal_profile=(0.5, 1.5, 1.0), op_mix=(("read", 1.0),),
                size_dist="fixed", size_bytes=65536, representatives=reps,
            ),
        ),
        horizon=4.0, quantum=quantum, warmup=0.4,
    )


def _run(spec, collapse: bool, seed: int = 11):
    """One traffic-gate trial on 4 servers with jitter-free costs."""
    from .sim.config import RunOptions, SimConfig
    from .workload.engine import run_workload_trial

    cfg = replace(SimConfig(), cost_jitter=0.0)
    opts = RunOptions(tenant_collapse=collapse, trace=False, metrics=False)
    return run_workload_trial(
        workload=spec, n_servers=4, seed=seed, config=cfg, options=opts
    )


def _rows(trial) -> Dict[str, float]:
    """The per-class statistics a traffic check compares."""
    picked = {
        k: v for k, v in trial.extra.items()
        if k.startswith("wl.") and k.rsplit(".", 1)[1] in _TRAFFIC_FIELDS
    }
    picked["throughput_mb_s"] = trial.throughput_mb_s
    picked["max_elapsed"] = trial.max_elapsed
    return picked


def _check_workload_roundtrip() -> Check:
    from .workload.spec import WorkloadSpec, diurnal_mixed

    spec = diurnal_mixed(tenants=10_000, rate=200.0, horizon=60.0, quantum=1.0)
    back = WorkloadSpec.from_doc(json.loads(json.dumps(spec.to_doc())))
    return {
        "check": "spec-roundtrip",
        "ok": back == spec and back.signature() == spec.signature(),
        "signature": spec.signature(),
        "classes": len(spec.classes),
        "total_tenants": spec.total_tenants,
    }


def _compare_rows(check: str, a: Dict[str, float], b: Dict[str, float]) -> Check:
    mismatched = sorted(k for k in a if a[k] != b[k])
    return {
        "check": check,
        "ok": not mismatched,
        "stats_compared": len(a),
        "mismatched": mismatched,
    }


def _check_workload_determinism() -> Check:
    spec = _gate_spec(tenants=200, reps=8)
    return _compare_rows(
        "determinism",
        _rows(_run(spec, collapse=True)),
        _rows(_run(spec, collapse=True)),
    )


def _check_tenant_kill_switch() -> Check:
    # representatives == tenants -> every class multiplicity is 1.
    spec = _gate_spec(tenants=24, reps=24)
    return _compare_rows(
        "kill-switch",
        _rows(_run(spec, collapse=True)),
        _rows(_run(spec, collapse=False)),
    )


def _check_collapse_accuracy() -> Check:
    spec = _gate_spec(tenants=1000, reps=16)
    coll = _run(spec, collapse=True)
    ref = _run(spec, collapse=False)
    coll_rows = _rows(coll)
    worst, worst_key = 0.0, ""
    for k, rv in _rows(ref).items():
        rel = abs(coll_rows[k] - rv) / max(abs(rv), 1e-12)
        if rel > worst:
            worst, worst_key = rel, k
    return {
        "check": "collapse-accuracy",
        "ok": worst <= ACCURACY_TOL,
        "worst_rel_err": round(worst, 6),
        "worst_stat": worst_key,
        "tolerance": ACCURACY_TOL,
        "max_class_multiplicity": coll.extra["max_class_multiplicity"],
        "sessions_collapsed": coll.extra["sessions_simulated"],
        "sessions_reference": ref.extra["sessions_simulated"],
    }


def _check_scale_invariance() -> Check:
    small = _run(_gate_spec(tenants=1000, reps=16), collapse=True)
    big = _run(_gate_spec(tenants=100_000, reps=16), collapse=True)
    ratio = big.extra["events_processed"] / max(small.extra["events_processed"], 1)
    return {
        "check": "scale-invariance",
        "ok": (
            big.extra["sessions_simulated"] == small.extra["sessions_simulated"]
            and ratio <= EVENT_RATIO_LIMIT
        ),
        "tenants": [1000 * 2, 100_000 * 2],
        "sessions": [small.extra["sessions_simulated"],
                     big.extra["sessions_simulated"]],
        "event_ratio": round(ratio, 4),
        "limit": EVENT_RATIO_LIMIT,
    }


def gate_traffic() -> List[Check]:
    return [
        _check_workload_roundtrip(),
        _check_workload_determinism(),
        _check_tenant_kill_switch(),
        _check_collapse_accuracy(),
        _check_scale_invariance(),
    ]


# ---------------------------------------------------------------------- buffer

#: Buffer-fits speedup floor on the dev cluster (the Red Storm slice
#: clears 5x; the dev cluster's slower fabric makes this conservative).
MIN_SPEEDUP = 1.5

#: Buffer crossover gate: with the burst fitting the buffer, the dump
#: must beat direct-to-OST by at least this factor on the Red Storm slice.
BUFFER_MIN_SPEEDUP = 5.0

#: Figures of merit compared for bit-identity by the kill-switch check.
_BUFFER_FIELDS = ("max_elapsed", "mean_elapsed", "throughput_mb_s", "create_max_elapsed")


def _buffer_grid() -> List[TrialSpec]:
    """The burst-buffer crossover points: the 128-client Red Storm slice
    direct, buffered with the burst fitting the pool (absorb-limited),
    and buffered with the pool smaller than the burst (drain-limited)."""
    from .machine.presets import red_storm
    from .sim.config import RunOptions
    from .storage.buffer import TierSpec

    spec = red_storm()
    base = dict(collapse=True, flow=True)
    fits = TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * GiB)
    limited = TierSpec(mode="buffer", placement="node-local", capacity_bytes=2 * MiB)
    return [
        checkpoint_spec(
            "lwfs", 128, 32, seed=600, state_bytes=8 * MiB, spec=spec,
            options=RunOptions(tiers=tiers, **base),
        )
        for tiers in (None, fits, limited)
    ]


def _buffer_trial(tiers=None, faults=None, collapse=False, flow=False, state_mb=1):
    from .bench.harness import run_checkpoint_trial
    from .sim.config import RunOptions

    opts = RunOptions(tiers=tiers, faults=faults, collapse=collapse, flow=flow)
    return run_checkpoint_trial(
        "lwfs", 8, 4, state_bytes=state_mb * MiB, seed=7, options=opts
    )


def _merits(trial) -> Dict[str, float]:
    return {k: getattr(trial, k) for k in _BUFFER_FIELDS}


def _check_tier_roundtrip() -> Check:
    from .storage.buffer import TierSpec

    spec = TierSpec(mode="hostlog", placement="shared", drain_concurrency=3)
    back = TierSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    try:
        TierSpec.from_dict({**spec.to_dict(), "bogus": 1})
        rejects_unknown = False
    except (TypeError, ValueError):
        rejects_unknown = True
    return {
        "check": "spec-roundtrip",
        "ok": back == spec and back.signature() == spec.signature() and rejects_unknown,
        "signature": spec.signature(),
        "rejects_unknown_fields": rejects_unknown,
    }


def _check_tier_kill_switch() -> Check:
    from .storage.buffer import TierSpec

    mismatched: List[str] = []
    for collapse, flow in ((False, False), (True, True)):
        direct = _merits(_buffer_trial(tiers=None, collapse=collapse, flow=flow))
        inert = _merits(_buffer_trial(tiers=TierSpec(mode="passthrough"),
                                      collapse=collapse, flow=flow))
        mismatched += [
            f"{k}@collapse={collapse},flow={flow}"
            for k in direct if direct[k] != inert[k]
        ]
    return {
        "check": "kill-switch",
        "ok": not mismatched,
        "stats_compared": 2 * len(_BUFFER_FIELDS),
        "mismatched": mismatched,
    }


def _check_absorb_speedup() -> Check:
    from .storage.buffer import TierSpec

    direct = _buffer_trial(tiers=None, state_mb=4)
    buffered = _buffer_trial(tiers=TierSpec(mode="buffer", placement="node-local"),
                             state_mb=4)
    e = buffered.extra
    speedup = direct.max_elapsed / buffered.max_elapsed
    return {
        "check": "absorb-speedup",
        "ok": (
            speedup >= MIN_SPEEDUP
            and e["buffer_drained_mb"] == e["buffer_absorbed_mb"]
            and e["buffer_lost_mb"] == 0.0
            and e["buffer_drain_incomplete"] == 0.0
        ),
        "speedup": round(speedup, 3),
        "floor": MIN_SPEEDUP,
        "drained_mb": e["buffer_drained_mb"],
        "drain_tail_s": round(e["buffer_drain_tail_s"], 6),
    }


def _check_drain_limited() -> Check:
    from .storage.buffer import TierSpec

    tier = TierSpec(mode="buffer", placement="node-local", capacity_bytes=256 * KiB)
    e = _buffer_trial(tiers=tier).extra
    return {
        "check": "drain-limited",
        "ok": e["buffer_backpressure_s"] > 0.0 and e["buffer_drain_limited"] == 1.0,
        "backpressure_s": round(e["buffer_backpressure_s"], 6),
        "drain_limited": e["buffer_drain_limited"],
    }


def _check_crash_determinism() -> Check:
    from .storage.buffer import TierSpec

    plan = os.path.join(_REPO_ROOT, "examples", "faults", "storage_crash.json")
    rows: Dict[str, Dict[str, float]] = {}
    mismatched: List[str] = []
    for mode in ("buffer", "hostlog"):
        tier = TierSpec(mode=mode, placement="shared", buffer_nodes=2,
                        drain_bandwidth=4 * MiB, capacity_bytes=64 * MiB)
        a = _buffer_trial(tiers=tier, faults=plan)
        b = _buffer_trial(tiers=tier, faults=plan)
        if _merits(a) != _merits(b) or a.extra != b.extra or a.fault_log != b.fault_log:
            mismatched.append(mode)
        rows[mode] = {
            "lost_mb": a.extra["buffer_lost_mb"],
            "redriven": a.extra["buffer_extents_redriven"],
            "restart_cost_s": round(a.extra["buffer_drain_tail_s"], 6),
        }
    return {
        "check": "crash-determinism",
        "ok": (
            not mismatched
            and rows["buffer"]["lost_mb"] > 0.0
            and rows["hostlog"]["lost_mb"] == 0.0
            and rows["hostlog"]["redriven"] > 0
        ),
        "mismatched_modes": mismatched,
        **{f"{m}_{k}": v for m, r in rows.items() for k, v in r.items()},
    }


def _check_buffer_crossover() -> Check:
    direct, fits, limited = run_sweep(
        _buffer_grid(), jobs=JOBS, label="buffer-crossover", record=True
    )
    speedup = fits.value / direct.value if direct.value else 0.0
    fs = fits.result.extra
    ls = limited.result.extra
    return {
        "check": "crossover",
        "ok": (
            speedup >= BUFFER_MIN_SPEEDUP
            and fs.get("buffer_backpressure_s", 1.0) == 0.0
            and fs.get("buffer_drain_incomplete", 1.0) == 0.0
            and ls.get("buffer_backpressure_s", 0.0) > 0.0
            and ls.get("buffer_drain_limited", 0.0) == 1.0
        ),
        "speedup": round(speedup, 3),
        "floor": BUFFER_MIN_SPEEDUP,
        "direct_mb_s": round(direct.value, 3),
        "fits_mb_s": round(fits.value, 3),
        "limited_mb_s": round(limited.value, 3),
        "fits_drain_tail_s": round(fs.get("buffer_drain_tail_s", 0.0), 6),
        "limited_backpressure_s": round(ls.get("buffer_backpressure_s", 0.0), 6),
    }


def gate_buffer() -> List[Check]:
    return [
        _check_tier_roundtrip(),
        _check_tier_kill_switch(),
        _check_absorb_speedup(),
        _check_drain_limited(),
        _check_crash_determinism(),
        _check_buffer_crossover(),
    ]


# --------------------------------------------------------------------- metrics

#: Metered wall-clock may exceed plain by at most this factor...
OVERHEAD_LIMIT = 1.05
#: ...or by this many absolute seconds, whichever is larger.  The
#: sampler's cost is constant per run (~TARGET_SAMPLES ticks x
#: instrument count, ~10 ms), so on loaded CI hosts scheduler noise of
#: tens of ms can read as >5% of a ~1 s base; a real regression (say,
#: sampling going O(events)) costs seconds and trips both terms.
OVERHEAD_ABS_SLACK_S = 0.1
#: Best-of-N wall-clock comparison, interleaved (first runs pay warmup,
#: and best-of soaks up scheduler noise on loaded CI hosts).
OVERHEAD_RUNS = 5
#: Relative tolerance of the health layer's time-to-recovery against
#: the fault injector's own degraded_seconds counter.
TTR_TOLERANCE = 0.05

#: Same grid shape as benchmarks/bench_trace_overhead.py, scaled up:
#: the sampler's cost is fixed (~TARGET_SAMPLES ticks x instrument
#: count, ~10 ms of host time regardless of workload), so the 5% gate
#: needs a base run long enough to resolve 5% — the stock 16-client
#: point finishes in ~30 ms of host time, where the constant sampling
#: cost reads as 15% even though a real workload never notices it.
METRICS_POINT = dict(impl="lwfs", n_clients=64, n_servers=8, state_bytes=256 * MiB, seed=3)


def _check_perturbation_and_overhead() -> List[Check]:
    from .bench.harness import run_checkpoint_trial
    from .metrics.export import validate_metrics_doc
    from .sim.config import RunOptions

    walls: Dict[str, List[float]] = {"plain": [], "metered": []}
    plain = metered = None
    run_checkpoint_trial(**METRICS_POINT, options=RunOptions(metrics=False))  # warmup
    for _ in range(OVERHEAD_RUNS):
        t0 = time.perf_counter()
        plain = run_checkpoint_trial(**METRICS_POINT, options=RunOptions(metrics=False))
        walls["plain"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        metered = run_checkpoint_trial(**METRICS_POINT, options=RunOptions(metrics=True))
        walls["metered"].append(time.perf_counter() - t0)

    ticks = int(metered.extra["metrics_ticks"])
    event_delta = int(metered.extra["events_processed"]) - int(
        plain.extra["events_processed"]
    )
    wall_plain = min(walls["plain"])
    wall_metered = min(walls["metered"])
    ratio = wall_metered / wall_plain
    schema_errors = validate_metrics_doc(json.loads(json.dumps(metered.metrics)))
    return [
        {
            "check": "zero-perturbation",
            "ok": (
                metered.extra["sim_seconds"] == plain.extra["sim_seconds"]
                and event_delta == ticks
            ),
            "sim_seconds_plain": plain.extra["sim_seconds"],
            "sim_seconds_metered": metered.extra["sim_seconds"],
            "event_delta": event_delta,
            "metrics_ticks": ticks,
        },
        {
            "check": "overhead",
            "ok": (
                ratio <= OVERHEAD_LIMIT
                or wall_metered - wall_plain <= OVERHEAD_ABS_SLACK_S
            ),
            "wall_plain_s": round(wall_plain, 4),
            "wall_metered_s": round(wall_metered, 4),
            "ratio": round(ratio, 4),
            "limit": OVERHEAD_LIMIT,
            "abs_slack_s": OVERHEAD_ABS_SLACK_S,
        },
        {
            "check": "schema",
            "ok": not schema_errors,
            "errors": schema_errors,
            "instruments": len(metered.metrics["instruments"]),
            "samples": int(metered.extra["metrics_samples"]),
        },
    ]


def _check_health() -> Check:
    """The storage-crash health check; renders the metrics dashboard."""
    from .bench.dashboard import write_dashboard
    from .bench.executor import sweep_json_path
    from .bench.harness import run_checkpoint_trial
    from .faults.plan import FaultEvent, FaultPlan, RetryPolicy
    from .sim.config import RunOptions, SimConfig

    # The shipped storage-crash scenario, retuned for measurement: the
    # outage is long against the retry policy's failure-detection
    # latency (timeout 10 ms on a 0.5 s crash), and fine-grained chunks
    # give the per-server stall detector a dense progress signal.  With
    # the stock 250 ms timeout the observed outage is honestly dominated
    # by detection latency, not by the fault window.
    plan = FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=0.05, target="stor0", duration=0.5),
        ),
        retry=RetryPolicy(
            attempts=128, base_delay=1e-3, max_delay=2e-3, jitter=0.0, timeout=0.01
        ),
        seed=42,
    )
    trial = run_checkpoint_trial(
        "lwfs", 8, 4, state_bytes=8 * MiB, seed=42,
        config=SimConfig(chunk_bytes=256 * KiB),
        options=RunOptions(metrics=True, faults=plan, metrics_period=5e-4),
    )
    health = trial.metrics["health"]
    injected = float(trial.extra["degraded_seconds"])
    ttr_entries = health["time_to_recovery"]
    ttr = float(ttr_entries[0]["time_to_recovery"]) if ttr_entries else 0.0
    rel_err = abs(ttr - injected) / injected if injected else 1.0

    sweep_doc = None
    try:
        with open(sweep_json_path(), encoding="utf-8") as fh:
            sweep_doc = json.load(fh)
    except (OSError, ValueError):
        pass
    dashboard = write_dashboard(
        os.path.join(RESULTS_DIR, "metrics_dashboard.html"),
        [("storage-crash health check", trial.metrics)],
        sweep_doc,
    )
    return {
        "check": "health",
        "ok": (
            health["verdict"] == "degraded"
            and bool(health["degraded_windows"])
            and rel_err <= TTR_TOLERANCE
        ),
        "verdict": health["verdict"],
        "degraded_windows": len(health["degraded_windows"]),
        "ttr_seconds": round(ttr, 6),
        "injector_degraded_seconds": injected,
        "rel_err": round(rel_err, 4),
        "tolerance": TTR_TOLERANCE,
        "dashboard": dashboard,
    }


def gate_metrics() -> List[Check]:
    return _check_perturbation_and_overhead() + [_check_health()]


# ----------------------------------------------------------------------- trace


def gate_trace() -> List[Check]:
    from .cli import main as cli_main
    from .trace import validate_chrome_trace

    path = os.path.join(RESULTS_DIR, "trace_quick.json")
    code = cli_main(
        ["trace", "--clients", "8", "--servers", "4", "--state-mb", "8", "--out", path]
    )
    with open(path, encoding="utf-8") as fh:
        errors = validate_chrome_trace(json.load(fh))
    return [{
        "check": "chrome-schema",
        "ok": code == 0 and not errors,
        "exit_code": code,
        "errors": errors[:10],
        "path": path,
    }]


# ---------------------------------------------------------------------- kernel

#: Fail a kernel workload below this fraction of its BENCH_kernel.json
#: baseline, both taken as work per calibration loop so that host speed
#: and load cancel out.  Tight enough that a 30% slowdown of
#: ``Environment.run`` fails the gate.
KERNEL_THRESHOLD = 0.85
#: Calibrated runs per workload; the median is compared.
KERNEL_REPEATS = 5


def _check_pinned_buffer(doc: Dict[str, Any]) -> Check:
    """Guard the pinned burst-buffer crossover (see bench_buffer.py).

    The pinned record is a claim about the model, not the host, so it is
    checked statically: the buffer-fits point must clear its recorded
    speedup floor over direct, the fits-regime drain must have finished
    with zero backpressure, and the drain-limited point must show
    backpressure.
    """
    buf = doc.get("buffer")
    if not buf:
        return {"check": "buffer-pinned", "ok": True,
                "skipped": "no pinned crossover; run benchmarks/bench_buffer.py"}
    rows = {r["point"]: r for r in buf["rows"]}
    fits, limited = rows["buffer_fits"], rows["drain_limited"]
    return {
        "check": "buffer-pinned",
        "ok": (
            buf["absorb_speedup"] >= buf["min_speedup"]
            and fits["buffer_backpressure_s"] == 0.0
            and fits["buffer_drained_mb"] == fits["buffer_absorbed_mb"]
            and limited["buffer_backpressure_s"] > 0.0
        ),
        "absorb_speedup": buf["absorb_speedup"],
        "floor": buf["min_speedup"],
        "limited_backpressure_s": limited["buffer_backpressure_s"],
    }


def gate_kernel() -> List[Check]:
    """Re-measure the bench_simkernel_events workloads with the shipping
    (lazy-cancellation) kernel against the committed baselines; the
    event-loop workloads guard events/s, the fast-forward and sharded
    ones ranks per wall-second (see its ``FIGURE_OF_MERIT``).  Each
    figure is multiplied by the seconds of a program-independent
    calibration loop run around it, on both sides of the ratio."""
    bench_dir = os.path.join(_REPO_ROOT, "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from bench_simkernel_events import (
        KERNEL_JSON,
        KERNEL_SCHEMA,
        WORKLOADS,
        calibrated,
        fom_key,
    )

    try:
        with open(KERNEL_JSON, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = None
    if not isinstance(doc, dict) or doc.get("schema") != KERNEL_SCHEMA:
        return [{
            "check": "baseline",
            "ok": False,
            "error": f"no {KERNEL_SCHEMA} baseline at {os.path.normpath(KERNEL_JSON)}; "
                     "seed one with benchmarks/bench_simkernel_events.py --record",
        }]
    baselines = {e["workload"]: e for e in doc.get("entries", []) if e.get("lazy")}

    checks: List[Check] = []
    measured = [
        name for name in WORKLOADS
        if fom_key(name) in baselines.get(name, {}) and "calib_s" in baselines[name]
    ]
    results = calibrated(measured, repeats=KERNEL_REPEATS)
    for name in WORKLOADS:
        base = baselines.get(name)
        key = fom_key(name)
        if name not in results:
            checks.append({"check": name, "ok": False,
                           "error": "no calibrated lazy baseline entry; re-record with "
                                    "benchmarks/bench_simkernel_events.py --record"})
            continue
        stats = results[name]
        ratio = stats["calibrated"] / (base[key] * base["calib_s"])
        checks.append({
            "check": name,
            "ok": ratio >= KERNEL_THRESHOLD,
            key: round(stats[key], 1),
            "calib_s": round(stats["calib_s"], 4),
            "baseline": base[key],
            "baseline_calib_s": base["calib_s"],
            "baseline_nproc": base.get("nproc"),
            "ratio": round(ratio, 3),
            "threshold": KERNEL_THRESHOLD,
        })
    checks.append(_check_pinned_buffer(doc))
    return checks


# ---------------------------------------------------------------------- runner

#: Every gate, in CI order.
GATES: Dict[str, Callable[[], List[Check]]] = {
    "bench": gate_bench,
    "scale": gate_scale,
    "flow": gate_flow,
    "shard": gate_shard,
    "chaos": gate_chaos,
    "traffic": gate_traffic,
    "buffer": gate_buffer,
    "metrics": gate_metrics,
    "trace": gate_trace,
    "kernel": gate_kernel,
}


def run_gate(name: str) -> Dict[str, Any]:
    """Run one gate; a gate that raises reports one failed ``error`` check."""
    # Every gate shares one process: drop the previous gate's garbage so
    # the timing checks (metrics overhead, kernel) start from a clean heap.
    gc.collect()
    start = time.perf_counter()
    try:
        checks = GATES[name]()
    except Exception as exc:  # noqa: BLE001 - the report must still be written
        traceback.print_exc()
        checks = [{"check": "error", "ok": False, "error": f"{type(exc).__name__}: {exc}"}]
    wall = time.perf_counter() - start
    for c in checks:
        detail = {k: v for k, v in c.items() if k not in ("check", "ok")}
        status = "ok  " if c["ok"] else "FAIL"
        print(f"[{status}] {name}/{c['check']}: {json.dumps(detail, default=str)}")
    return {
        "name": name,
        "wall_s": round(wall, 3),
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def main(argv: Optional[List[str]] = None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(
            f"python -m repro.gates: unknown gate {unknown[0]!r} "
            f"(choose from: {', '.join(GATES)})",
            file=sys.stderr,
        )
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    gates = [run_gate(name) for name in names]
    report = {"ok": all(g["ok"] for g in gates), "gates": gates}
    path = os.path.join(RESULTS_DIR, "gates.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
