"""Simkernel micro-benchmark: event-loop throughput (events/second).

Four workloads:

* **uncontended** — 64 clients paired into 32 disjoint (sender, receiver)
  lanes, each lane moving 200 × 1 MiB messages over the fabric with no
  contention: the shape the batched-timeout fast path targets.
* **timer-race** — an RPC-heavy create storm where every call arms a
  timeout timer that the reply then wins and cancels: the shape lazy
  event cancellation targets (tombstones skipped at pop instead of
  O(n) heap surgery).
* **fast-forward** — a 256-client Red Storm checkpoint slice run with the
  analytic epoch-skip engine on (the default): steady flow epochs retire
  as closed-form completions instead of per-chunk events.  Guarded by
  ranks simulated per wall-second (fixed work / wall), because a broken
  fast-forward path processes *more* events per second while taking far
  longer — events/s cannot see that regression.
* **sharded** — the same slice partitioned into 2 server-group shards
  under conservative window sync, also guarded by ranks per wall-second.

Figures land in ``results/simkernel_events.json`` /
``results/simkernel_timer_race.json``, and every workload is measured
with the lazy-cancellation path ON and OFF (``repro.simkernel.core.LAZY``
reference) into ``BENCH_kernel.json`` at the repo root, which
the ``kernel`` gate of :mod:`repro.gates` uses as its regression
baseline (``--record`` reseeds it).

Every baseline row carries ``calib_s``, the mean seconds of perfbench's
program-independent calibration loop just before and just after the
sample, and the host's ``nproc``.  A sample re-runs a workload shorter
than :data:`MIN_SAMPLE_S` until its runs add up to that much wall time
(``runs`` in the row).  A figure of merit times the
calibration seconds is work per calibration loop, which a slower or
busier host scales about as much as the program, so the gate compares
that product rather than raw throughput.
"""

import gc
import importlib.util
import json
import os
import sys
import time

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial, save_json
from repro.machine.presets import dev_cluster, red_storm
from repro.sim.config import RunOptions
from repro.sim.cluster import SimCluster
from repro.sim.config import SimConfig
from repro.trace import kernel_stats
from repro.units import MiB

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402

N_CLIENTS = 64
MSGS_PER_LANE = 200

#: Timer-race workload size: every RPC arms + cancels one timeout timer.
RPC_CLIENTS = 32
RPC_SERVERS = 8
CREATES_PER_CLIENT = 64

KERNEL_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_kernel.json")
KERNEL_SCHEMA = "repro-bench-kernel/v1"


def _load_calibration_loop():
    """perfbench's ``calibration_loop``, loaded from its file so both
    benchmarks time the same program-independent job."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibration_loop


calibration_loop = _load_calibration_loop()


def _run_uncontended():
    spec = dev_cluster()
    cluster = SimCluster(
        spec, SimConfig(seed=7), compute_nodes=N_CLIENTS,
        io_nodes=spec.io_nodes, service_nodes=1,
    )
    env, fabric = cluster.env, cluster.fabric
    nodes = cluster.compute_nodes

    def lane(a, b):
        for _ in range(MSGS_PER_LANE):
            yield fabric.send(a.node_id, b.node_id, 1 * MiB, tag="bench")

    for i in range(0, N_CLIENTS, 2):
        env.process(lane(nodes[i], nodes[i + 1]))

    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    messages = fabric.counters["messages"]
    kernel = kernel_stats(env)
    return {
        "wall_s": wall,
        "events": kernel["events_processed"],
        "events_per_s": kernel["events_processed"] / wall,
        "messages": messages,
        "messages_per_s": messages / wall,
        "events_skipped_cancelled": kernel["events_skipped_cancelled"],
        "peak_event_queue": kernel["peak_event_queue"],
        "sim_seconds": kernel["sim_seconds"],
    }


def _run_timer_race():
    start = time.perf_counter()
    result = run_create_trial(
        "lwfs", RPC_CLIENTS, RPC_SERVERS, creates_per_client=CREATES_PER_CLIENT, seed=7
    )
    wall = time.perf_counter() - start
    extra = result.extra
    return {
        "wall_s": wall,
        "events": int(extra["events_processed"]),
        "events_per_s": extra["events_processed"] / wall,
        "events_skipped_cancelled": int(extra.get("events_skipped_cancelled", 0)),
        "peak_event_queue": int(extra["peak_event_queue"]),
        "sim_seconds": extra["sim_seconds"],
        "creates_per_s": extra["creates_per_s"],
    }


#: Fast-forward / sharded workload size: a CI-scaled Red Storm slice.
FF_CLIENTS = 256
FF_SERVERS = 32
FF_STATE = 16 * MiB


def _run_checkpoint_slice(shards):
    start = time.perf_counter()
    result = run_checkpoint_trial(
        "lwfs", FF_CLIENTS, FF_SERVERS, state_bytes=FF_STATE, seed=7,
        spec=red_storm(),
        options=RunOptions(collapse=True, flow=True, shards=shards),
    )
    wall = time.perf_counter() - start
    extra = result.extra
    return {
        "wall_s": wall,
        "events": int(extra["events_processed"]),
        "events_per_s": extra["events_processed"] / wall,
        "events_skipped_cancelled": int(extra.get("events_skipped_cancelled", 0)),
        "events_fast_forwarded": int(extra.get("events_fast_forwarded", 0)),
        "window_barriers": int(extra.get("window_barriers", 0)),
        "peak_event_queue": int(extra["peak_event_queue"]),
        "sim_seconds": extra["sim_seconds"],
        # Fixed work per wall-second: the regression signal for paths
        # whose whole point is to do the same work with fewer events.
        "ranks_per_s": FF_CLIENTS / wall,
        "throughput_mb_s": result.throughput_mb_s,
    }


def _run_fast_forward():
    return _run_checkpoint_slice(shards=1)


def _run_sharded():
    return _run_checkpoint_slice(shards=2)


WORKLOADS = {
    "uncontended": _run_uncontended,
    "timer_race": _run_timer_race,
    "fast_forward": _run_fast_forward,
    "sharded": _run_sharded,
}

#: Per-workload regression metric for BENCH_kernel.json baselines.  The
#: event-loop micro-benchmarks guard raw events/s; the fast-forward and
#: sharded paths guard fixed-work rate (a broken epoch-skip engine
#: *raises* events/s while multiplying wall-clock).
FIGURE_OF_MERIT = {"fast_forward": "ranks_per_s", "sharded": "ranks_per_s"}


def fom_key(workload):
    """BENCH_kernel.json metric guarded for *workload* (default events/s)."""
    return FIGURE_OF_MERIT.get(workload, "events_per_s")


def _with_lazy(flag, fn):
    """Run *fn* with the kernel's lazy-cancellation switch forced to *flag*.

    ``Environment`` resolves the module-global at construction, so the
    patch only affects environments the workload itself creates.
    """
    from repro.simkernel import core

    saved = core.LAZY
    core.LAZY = flag
    try:
        return fn()
    finally:
        core.LAZY = saved


#: Processes a workload keeps busy at once (the sharded slice forks one
#: per shard); its calibration runs that many loops side by side.
PROCESSES = {"sharded": 2}


def _calibration(processes=1):
    """Seconds of one calibration loop, timed from a collected heap: the
    garbage a workload (or the previous loop) leaves behind would
    otherwise make the loop pay for collections that are not its own.

    With *processes* > 1 that many loops run at once in forked
    processes and the slowest counts, so a host with a core taken by
    someone else slows the calibration as much as the parallel workload.
    """
    gc.collect()
    if processes == 1:
        return calibration_loop()
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return max(pool.map(_forked_loop, range(processes), chunksize=1))


def _forked_loop(_index):
    return calibration_loop()


#: Wall seconds one calibrated sample accumulates at least: a workload
#: shorter than this is re-run inside the sample, so one short run's
#: noise does not decide it.
MIN_SAMPLE_S = 0.5


def _sample(name, lazy):
    """One sample of workload *name*: back-to-back runs until they add
    up to :data:`MIN_SAMPLE_S`.  The figure of merit is the runs' total
    work over their total wall time; the other stats are the last run's.
    """
    key = fom_key(name)
    runs = []
    while sum(run["wall_s"] for run in runs) < MIN_SAMPLE_S:
        gc.collect()
        runs.append(_with_lazy(lazy, WORKLOADS[name]))
    wall = sum(run["wall_s"] for run in runs)
    work = sum(run[key] * run["wall_s"] for run in runs)
    return {**runs[-1], "wall_s": wall, key: work / wall, "runs": len(runs)}


def calibrated(names, lazy=True, repeats=5):
    """Take *repeats* samples of each workload in *names*, each sample
    between two calibration loops.

    The samples go round-robin over *names*, so every workload's samples
    spread over the whole measurement instead of one stretch of host
    load.  A sample's ``calib_s`` is the mean of the calibration loops
    just before and just after it, and ``calibrated`` is its figure of
    merit times ``calib_s``: work per calibration loop, the quantity the
    ``kernel`` gate compares.  Returns, per name, the stats of the
    sample with the median ``calibrated`` value.
    """
    samples = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            processes = PROCESSES.get(name, 1)
            before = _calibration(processes)
            stats = _sample(name, lazy)
            calib_s = (before + _calibration(processes)) / 2
            samples[name].append({**stats, "calib_s": calib_s,
                                  "calibrated": stats[fom_key(name)] * calib_s})
    return {
        name: sorted(rows, key=lambda stats: stats["calibrated"])[len(rows) // 2]
        for name, rows in samples.items()
    }


def record_kernel_baseline(path=KERNEL_JSON, repeats=9):
    """Measure every workload lazy-ON and lazy-OFF into BENCH_kernel.json.

    The lazy=False rows are the pre-optimization reference (the eager
    O(n) cancellation path); lazy=True is the shipping configuration and
    the baseline the perf smoke guard compares against.  Each row is the
    median of *repeats* calibrated samples (see :func:`calibrated`), with
    its ``calib_s`` and the host's ``nproc``.

    Every other top-level section (``headline``, ``traffic``, the pinned
    ``buffer`` crossover) is preserved across reseeds.
    """
    doc = {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        pass
    rows = {lazy: calibrated(WORKLOADS, lazy, repeats) for lazy in (False, True)}
    entries = [
        {"workload": name, "lazy": lazy, "nproc": os.cpu_count(), **rows[lazy][name]}
        for name in WORKLOADS
        for lazy in (False, True)
    ]
    doc = {**doc, "schema": KERNEL_SCHEMA, "entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def test_simkernel_event_rate(benchmark):
    stats = run_once(benchmark, _run_uncontended)
    print()
    print(
        f"simkernel: {stats['events']} events in {stats['wall_s']:.3f}s "
        f"-> {stats['events_per_s']:,.0f} events/s, "
        f"{stats['messages_per_s']:,.0f} msgs/s"
    )
    save_json("simkernel_events", stats)
    assert stats["messages"] == (N_CLIENTS // 2) * MSGS_PER_LANE
    # Determinism probe: the simulated clock must be workload-defined.
    assert stats["sim_seconds"] == pytest.approx(0.8725652173912996, rel=1e-9)


def test_simkernel_timer_race(benchmark):
    stats = run_once(benchmark, _run_timer_race)
    print()
    print(
        f"timer-race: {stats['events']} events in {stats['wall_s']:.3f}s "
        f"-> {stats['events_per_s']:,.0f} events/s, "
        f"{stats['events_skipped_cancelled']} cancelled timers skipped"
    )
    save_json("simkernel_timer_race", stats)
    from repro.simkernel import core

    if core.LAZY:
        # Every create RPC arms a timer its reply then cancels; under
        # lazy cancellation those MUST surface as pop-time skips.
        assert stats["events_skipped_cancelled"] > 0
    # Figure-of-merit sanity: the workload really ran.
    assert stats["events"] > RPC_CLIENTS * CREATES_PER_CLIENT


if __name__ == "__main__":  # pragma: no cover - CLI for the perf guard
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="write lazy on/off baselines to BENCH_kernel.json")
    parser.add_argument("--repeats", type=int, default=9,
                        help="calibrated samples per baseline row; the median is kept")
    args = parser.parse_args()
    if args.record:
        doc = record_kernel_baseline(repeats=args.repeats)
        for e in doc["entries"]:
            key = fom_key(e["workload"])
            print(
                f"{e['workload']:12s} lazy={e['lazy']!s:5s} "
                f"{e[key]:12,.1f} {key} x {e['calib_s']:.4f} calib_s "
                f"(skipped {e['events_skipped_cancelled']})"
            )
    else:
        print(json.dumps({name: fn() for name, fn in WORKLOADS.items()}, indent=2))
