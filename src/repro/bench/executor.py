"""Parallel sweep executor: fan independent trials out over processes.

The paper's evaluation is a grid sweep — implementations × client counts
× server counts × trials — and every trial is a fully independent,
deterministic simulation.  This module runs those trials over a
:class:`~concurrent.futures.ProcessPoolExecutor` and reassembles the
results *keyed by input position*, never by completion order, so a
parallel sweep is bit-identical to a serial one.

Knobs
-----
* ``jobs=`` argument (or ``--jobs``/``-j`` on ``python -m repro fig9``),
* ``REPRO_BENCH_JOBS`` environment variable,
* default: ``os.cpu_count()``.

``jobs=1`` (or a pool that cannot be created — missing ``fork``,
sandboxed semaphores, unpicklable trial parameters) falls back to plain
in-process execution, which is also the reference the determinism tests
compare against.

Every recorded sweep appends per-trial wall-clock and event-loop stats to
``BENCH_sweep.json`` at the repository root (override the path with
``REPRO_BENCH_SWEEP_JSON``), so speedups are measurable across PRs.

Trials are deterministic, so finished outcomes persist in a
content-addressed cache (:mod:`repro.bench.cache`) under
``results/.trial-cache/`` and re-running an unchanged sweep point costs a
file read instead of a simulation.  Disable with ``cache=False``, the
CLI's ``--no-cache`` or ``REPRO_BENCH_CACHE=0``; sweep records report
``cache_hits`` / ``cache_misses`` so warm runs are visible in
BENCH_sweep.json.  The CI smoke sweeps over this module (the ``bench``,
``scale``, ``flow``, ``shard`` and ``buffer`` gates) live in
:mod:`repro.gates`.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Dict, List, Optional, Sequence

from ..sim.config import env_str
from .harness import TrialResult, run_checkpoint_trial, run_create_trial

__all__ = [
    "TrialSpec",
    "TrialOutcome",
    "checkpoint_spec",
    "create_spec",
    "workload_spec",
    "resolve_jobs",
    "run_trials",
    "run_sweep",
    "sweep_json_path",
]

#: Schema marker written into BENCH_sweep.json; bump only when
#: ``TrialResult``'s fields or the row shape (:func:`_trial_record`)
#: change.  Sweeps recorded under another schema are dropped on the
#: next write (with a count).
SWEEP_SCHEMA = "repro-bench-sweep/v6"

#: Cap on recorded sweep entries kept in BENCH_sweep.json.
SWEEP_HISTORY = 50


@dataclass
class TrialSpec:
    """One independent simulation to run: what, at which point, which seed."""

    kind: str  # "checkpoint" (Fig. 9), "create" (Fig. 10), or "workload"
    impl: str
    n_clients: int
    n_servers: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)

    def key(self) -> tuple:
        """Stable identity used for result assembly and JSON records."""
        return (self.kind, self.impl, self.n_clients, self.n_servers, self.seed)


@dataclass
class TrialOutcome:
    """A finished trial: its :class:`TrialResult` plus executor-side stats.

    ``result`` is the trial function's record, whole — kernel stats and
    every subsystem's counters live in ``result.extra``, spans in
    ``result.trace``, the fault log in ``result.fault_log`` and the
    metrics document in ``result.metrics``.  ``value``/``unit`` are the
    kind's figure of merit; ``wall_clock_s`` is host time and
    intentionally kept out of every aggregate that must be reproducible.
    """

    spec: TrialSpec
    result: TrialResult
    value: float
    unit: str
    wall_clock_s: float
    #: ``True`` when the outcome came from the persistent trial cache
    #: (``wall_clock_s`` is then the cache lookup, not a simulation).
    cached: bool = False


def checkpoint_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 9 dump-phase trial (figure of merit: MB/s)."""
    return TrialSpec("checkpoint", impl, n_clients, n_servers, seed, params)


def create_spec(impl: str, n_clients: int, n_servers: int, seed: int, **params) -> TrialSpec:
    """A Fig. 10 create-phase trial (figure of merit: creates/s)."""
    return TrialSpec("create", impl, n_clients, n_servers, seed, params)


def workload_spec(workload, n_servers: int, seed: int, **params) -> TrialSpec:
    """An open-loop multi-tenant traffic trial (figure of merit: ops/s).

    ``workload`` is a :class:`~repro.workload.WorkloadSpec`, a JSON path,
    or a spec document; its content signature joins the trial-cache key
    through ``RunOptions.describe``/``params``, so cached outcomes never
    answer for a different mix.  ``n_clients`` records the simulated
    tenant population, not a session count.
    """
    from ..workload.spec import WorkloadSpec

    n_clients = 0
    if isinstance(workload, WorkloadSpec):
        n_clients = workload.total_tenants
    return TrialSpec(
        "workload", "lwfs", n_clients, n_servers, seed,
        dict(params, workload=workload),
    )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_BENCH_JOBS`` > cores."""
    if jobs is None:
        raw = env_str("REPRO_BENCH_JOBS").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"REPRO_BENCH_JOBS={raw!r} is not an integer") from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _run_trial(spec: TrialSpec) -> TrialOutcome:
    """Execute one trial (runs in a worker process or in-process)."""
    start = time.perf_counter()
    if spec.kind == "checkpoint":
        result = run_checkpoint_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.throughput_mb_s, "MB/s"
    elif spec.kind == "create":
        result = run_create_trial(
            spec.impl, spec.n_clients, spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.extra["creates_per_s"], "ops/s"
    elif spec.kind == "workload":
        from ..workload.engine import run_workload_trial

        result = run_workload_trial(
            n_servers=spec.n_servers, seed=spec.seed, **spec.params
        )
        value, unit = result.extra["ops_per_s"], "ops/s"
    else:
        raise ValueError(f"unknown trial kind {spec.kind!r}")
    return TrialOutcome(spec, result, value, unit, time.perf_counter() - start)


def _pool_context():
    """Prefer fork (inherits sys.path / env) where the platform has it."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _resolve_cache(cache):
    """Map the ``cache`` argument to a TrialCache or None.

    ``None`` (default) and ``True`` use the default store, which still
    skips every spec whose resolved ``RunOptions.cache`` is off (so
    ``REPRO_BENCH_CACHE=0`` opts out); ``False`` disables for this call;
    a :class:`~repro.bench.cache.TrialCache` instance is used as-is.
    """
    from .cache import TrialCache

    if cache is False:
        return None
    if cache is None or cache is True:
        return TrialCache()
    return cache


#: Keys of one-shot executor warnings that already fired this process.
#: Convention: every "warn once" site registers a short string key here
#: via :func:`_warn_once` instead of growing its own module-level flag.
_WARNED_KEYS: set = set()


def _warn_once(key: str, message: str, stacklevel: int = 3) -> bool:
    """Emit *message* as a RuntimeWarning once per process per *key*.

    Returns whether the warning fired, so callers (and tests) can tell a
    fresh warning from a deduplicated repeat.
    """
    if key in _WARNED_KEYS:
        return False
    _WARNED_KEYS.add(key)
    import warnings

    warnings.warn(message, RuntimeWarning, stacklevel=stacklevel)
    return True


def _clamp_jobs_for_shards(jobs: int, specs: Sequence[TrialSpec]) -> int:
    """Cap ``jobs`` so trial workers x shard workers fit the machine.

    A sharded trial forks its own worker per shard, so a pool of J
    sharded trials runs J x S simulation processes.  Oversubscribing
    cores that way is strictly slower than a narrower pool (the shards
    within one trial must advance in lockstep, so preempting them
    stretches every window).  Warns once per process when it clamps.
    """
    from .cache import _resolved_options

    max_shards = 1
    for spec in specs:
        try:
            max_shards = max(max_shards, _resolved_options(spec).shards)
        except (TypeError, ValueError):  # pragma: no cover - exotic params
            continue
    if max_shards <= 1:
        return jobs
    cores = os.cpu_count() or 1
    if jobs * max_shards <= cores:
        return jobs
    capped = max(1, cores // max_shards)
    if capped < jobs:
        _warn_once(
            "shard-clamp",
            f"jobs={jobs} x shards={max_shards} oversubscribes "
            f"{cores} cores; capping jobs at {capped}",
            stacklevel=4,
        )
    return min(jobs, capped)


def run_trials(
    specs: Sequence[TrialSpec], jobs: Optional[int] = None, cache=None
) -> List[TrialOutcome]:
    """Run every trial and return outcomes in input order.

    With ``jobs > 1`` the trials run on a process pool; the merge is keyed
    by input position, so the output is bit-identical to the serial path
    regardless of which worker finishes first.  Pool-infrastructure
    failures (no fork, no semaphores, unpicklable params) degrade to the
    in-process path; real trial errors propagate either way.

    Specs with a warm entry in the persistent trial cache are answered
    from disk (``cached=True`` on the outcome) and never reach the pool;
    fresh results are written back.  Pass ``cache=False`` to bypass.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    jobs = _clamp_jobs_for_shards(jobs, specs)
    store = _resolve_cache(cache)

    merged: Dict[int, TrialOutcome] = {}
    pending: List[int] = []
    if store is not None:
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            payload = store.get(spec)
            if payload is not None:
                merged[i] = TrialOutcome(
                    spec, TrialResult(**payload["result"]), payload["value"],
                    payload["unit"], time.perf_counter() - t0, cached=True,
                )
            else:
                pending.append(i)
    else:
        pending = list(range(len(specs)))

    def finish(i: int, outcome: TrialOutcome) -> None:
        merged[i] = outcome
        if store is not None:
            store.put(specs[i], {
                "value": outcome.value,
                "unit": outcome.unit,
                # Shallow: put() drops uncacheable (traced/faulted) specs
                # before serializing, so their spans are never copied.
                "result": vars(outcome.result),
            })

    if jobs <= 1 or len(pending) <= 1:
        for i in pending:
            finish(i, _run_trial(specs[i]))
        return [merged[i] for i in range(len(specs))]

    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=_pool_context()
        ) as pool:
            futures = {pool.submit(_run_trial, specs[i]): i for i in pending}
            for future in as_completed(futures):
                finish(futures[future], future.result())
        return [merged[i] for i in range(len(specs))]
    except (OSError, PicklingError, ImportError, PermissionError) as exc:
        # The pool itself is unavailable; the sweep still has to finish.
        _warn_once(
            f"pool-fallback:{type(exc).__name__}",
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to in-process execution",
        )
        for i in pending:
            if i not in merged:
                finish(i, _run_trial(specs[i]))
        return [merged[i] for i in range(len(specs))]


def sweep_json_path() -> str:
    """Where sweep trajectories are recorded (``REPRO_BENCH_SWEEP_JSON``)."""
    override = env_str("REPRO_BENCH_SWEEP_JSON")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", "BENCH_sweep.json"))


def run_sweep(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
    label: str = "sweep",
    record: bool = False,
    cache=None,
) -> List[TrialOutcome]:
    """Run a whole sweep, optionally recording stats to BENCH_sweep.json.

    Recording is opt-in: only the benchmark entry points (the CI gates in
    :mod:`repro.gates` and ``benchmarks/bench_*.py``) append to the
    tracked file.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    start = time.perf_counter()
    outcomes = run_trials(specs, jobs=jobs, cache=cache)
    wall = time.perf_counter() - start
    if record:
        _record_sweep(label, jobs, wall, outcomes)
    return outcomes


#: ``TrialResult.extra`` keys of a fault-injected trial that its
#: BENCH_sweep.json row summarizes.
_FAULT_SUMMARY_KEYS = (
    "faults_injected", "retries", "recovered_ops", "rpc_dropped",
    "rpc_duplicated", "degraded_seconds", "goodput_degraded",
)


def _trial_record(o: TrialOutcome) -> Dict[str, Any]:
    """One per-trial JSON row: identity, figure of merit, kernel stats.

    The only code that names BENCH_sweep.json row keys; every column is
    read from ``o.result``, so a cache hit and a fresh run of one spec
    record the same row (up to ``wall_clock_s``/``cached``).
    """
    result = o.result
    extra = result.extra
    row: Dict[str, Any] = {
        "kind": o.spec.kind,
        "impl": o.spec.impl,
        "n_clients": o.spec.n_clients,
        "n_servers": o.spec.n_servers,
        "seed": o.spec.seed,
        "value": o.value,
        "unit": o.unit,
        "wall_clock_s": round(o.wall_clock_s, 6),
        "events_processed": int(extra.get("events_processed", 0)),
        "peak_event_queue": int(extra.get("peak_event_queue", 0)),
        "sim_seconds": round(float(extra.get("sim_seconds", 0.0)), 9),
        "events_fast_forwarded": int(extra.get("events_fast_forwarded", 0)),
        "window_barriers": int(extra.get("window_barriers", 0)),
        "cached": o.cached,
    }
    tenants = int(extra.get("tenants_simulated", 0))
    if tenants:
        row["tenants_simulated"] = tenants
        row["max_class_multiplicity"] = int(extra.get("max_class_multiplicity", 0))
    if result.trace is not None:
        from ..trace import summarize

        row["trace_summary"] = summarize(result.trace)
    if result.fault_log is not None:
        faults = {k: extra[k] for k in _FAULT_SUMMARY_KEYS if k in extra}
        faults["fault_log_entries"] = len(result.fault_log)
        row["fault_summary"] = faults
    buffer = {k: v for k, v in extra.items() if k.startswith("buffer_")}
    if buffer:
        row["buffer_summary"] = buffer
    if result.metrics is not None:
        from ..metrics import metrics_summary

        row["metrics_summary"] = metrics_summary(result.metrics)
    return row


def _record_sweep(label: str, jobs: int, wall: float, outcomes: List[TrialOutcome]) -> None:
    path = sweep_json_path()
    doc: Dict[str, Any] = {"schema": SWEEP_SCHEMA, "sweeps": []}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and isinstance(existing.get("sweeps"), list):
            if existing.get("schema") == SWEEP_SCHEMA:
                doc = existing
            else:
                # Rows written under an older schema are stale by
                # construction (the trial key changed); keeping them
                # would mix incomparable generations in one file.
                print(
                    f"[bench] dropping {len(existing['sweeps'])} sweep(s) recorded "
                    f"under {existing.get('schema')!r} (current: {SWEEP_SCHEMA!r})"
                )
    except (OSError, ValueError):
        pass

    serial_s = sum(o.wall_clock_s for o in outcomes)
    hits = sum(1 for o in outcomes if o.cached)
    rows = [_trial_record(o) for o in outcomes]
    doc["sweeps"].append(
        {
            "label": label,
            "jobs": jobs,
            "trials": len(outcomes),
            "wall_clock_s": round(wall, 6),
            "serial_trial_s": round(serial_s, 6),
            "speedup": round(serial_s / wall, 3) if wall > 0 else None,
            "cache_hits": hits,
            "cache_misses": len(outcomes) - hits,
            "events_processed": sum(row["events_processed"] for row in rows),
            "per_trial": rows,
        }
    )
    doc["sweeps"] = doc["sweeps"][-SWEEP_HISTORY:]
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError:  # pragma: no cover - read-only checkout
        pass
