"""Tracing overhead micro-benchmark: disabled must be (near) free.

Runs the same checkpoint trial three ways — tracing disabled, and
tracing enabled — and reports wall-clock plus the span count.  The
disabled run must process exactly the same simulated events as the seed
code path (the instrumentation is a single attribute check per site),
and the enabled run must leave the simulated clock untouched (recording
spans never schedules events).
"""

import time

import pytest

from repro.bench import run_checkpoint_trial
from repro.sim.config import RunOptions
from repro.units import MiB

from conftest import run_once

POINT = dict(impl="lwfs", n_clients=16, n_servers=8, state_bytes=16 * MiB, seed=3)


def _run_both():
    t0 = time.perf_counter()
    plain = run_checkpoint_trial(**POINT)
    t_plain = time.perf_counter() - t0

    t0 = time.perf_counter()
    traced = run_checkpoint_trial(**POINT, options=RunOptions(trace=True))
    t_traced = time.perf_counter() - t0

    return {
        "wall_plain_s": t_plain,
        "wall_traced_s": t_traced,
        "overhead_ratio": t_traced / t_plain if t_plain > 0 else 0.0,
        "events_plain": plain.extra["events_processed"],
        "events_traced": traced.extra["events_processed"],
        "sim_seconds_plain": plain.extra["sim_seconds"],
        "sim_seconds_traced": traced.extra["sim_seconds"],
        "spans": len(traced.trace),
    }


def test_trace_overhead(benchmark):
    stats = run_once(benchmark, _run_both)
    print()
    print(
        f"trace overhead: plain {stats['wall_plain_s']:.3f}s, "
        f"traced {stats['wall_traced_s']:.3f}s "
        f"({stats['overhead_ratio']:.2f}x, {stats['spans']} spans)"
    )
    from repro.bench import save_json

    save_json("trace_overhead", stats)
    # Tracing observes the simulation; it must not perturb it.
    assert stats["events_plain"] == stats["events_traced"]
    assert stats["sim_seconds_plain"] == pytest.approx(
        stats["sim_seconds_traced"], rel=0, abs=0
    )
    assert stats["spans"] > 0
