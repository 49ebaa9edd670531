"""The benchmark's four workloads: inputs from a seed, outputs, checks.

Each workload calls the public trial functions directly
(``run_checkpoint_trial``, ``run_create_trial``, ``run_workload_trial``)
through :meth:`layers.Probe.call`, never the sweep executor: the
executor appends to the tracked ``BENCH_sweep.json`` and answers from the
trial cache, so a cache hit would time a JSON read.

A workload trial returns a :class:`Trial`: the simulated outputs that
the output check compares, the simulated operations attempted and not
completed durably (``failed_frac``), invariant violations, and the
per-layer counters the program already returns in ``TrialResult.extra``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.bench.harness import run_checkpoint_trial, run_create_trial
from repro.faults.plan import load_plan
from repro.machine.presets import dev_cluster, red_storm
from repro.sim.config import RunOptions
from repro.storage.buffer.tier import load_tiers
from repro.workload.engine import run_workload_trial
from repro.workload.spec import diurnal_mixed

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "pins.json"
MiB = 1 << 20

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 0
#: ROADMAP tolerance for declared approximations (collapse, flow,
#: tenant collapse): pinned outputs of those workloads may move by 1%.
APPROX_TOL = 0.01

#: Keys of ``TrialResult.extra`` that are simulated outputs, pinned and
#: compared between trials (fault and buffer counters).
_PINNED_EXTRA = (
    "creates_per_s",
    "ops_per_s",
    "retries",
    "recovered_ops",
    "ckpt_restarts",
    "faults_injected",
    "degraded_seconds",
    "buffer_absorbed_mb",
    "buffer_drained_mb",
    "buffer_lost_mb",
    "buffer_drain_retries",
    "buffer_backpressure_s",
    "buffer_drain_tail_s",
)
#: Per-class traffic outputs (``wl.<class>.<suffix>``).
_PINNED_CLASS = ("ops", "latency_p50", "latency_p99", "failed", "retries")

#: Length of the simulated traffic slice, in simulated seconds.
TRAFFIC_SLICE_S = 20.0


@dataclass
class Trial:
    """What one workload trial produced, as the benchmark sees it."""

    outputs: Dict[str, float] = field(default_factory=dict)
    attempted: float = 0.0
    failed: float = 0.0
    errors: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One named workload; why each exists is in ``BENCHMARK.json`` and
    ``README.md``."""

    name: str
    #: Pinned outputs must match bit for bit (no approximation active).
    exact: bool
    #: Simulated operations one trial plans; a trial that raises counts
    #: all of them as failed.
    nominal_ops: float
    run: Callable[[int, object], Trial]


def _outputs(label: str, result) -> Dict[str, float]:
    out = {}
    if result.state_bytes:
        out[f"{label}.mb_s"] = result.throughput_mb_s
    for key in _PINNED_EXTRA:
        if key in result.extra:
            out[f"{label}.{key}"] = result.extra[key]
    for key, value in result.extra.items():
        if key.startswith("wl.") and key.rsplit(".", 1)[1] in _PINNED_CLASS:
            out[f"{label}.{key}"] = value
    return out


def _counters(results, probe) -> Dict[str, float]:
    """Per-layer counters of one workload trial, summed over its calls."""

    def total(key):
        return sum(r.extra.get(key, 0.0) for r in results)

    def peak(*keys):
        return max(r.extra.get(k, 0.0) for r in results for k in keys)

    ranks = max(
        [n for n, _ in probe.apps]
        + [r.extra.get("sessions_simulated", 0.0) for r in results]
    )
    return {
        "events": total("events_processed"),
        "skipped": total("events_skipped_cancelled"),
        "peak_queue": peak("peak_event_queue"),
        "fast_forwarded": total("events_fast_forwarded"),
        "rate_recomputes": total("rate_recomputes"),
        "ranks_simulated": float(ranks),
        "max_multiplicity": max(1.0, peak("max_multiplicity", "max_class_multiplicity")),
        "workload_ops": float(sum(sum(s.ops_done for s in e.classes) for e in probe.engines)),
        "retries": total("retries"),
        "recovered_ops": total("recovered_ops"),
        "ckpt_restarts": total("ckpt_restarts"),
        "absorbed_mb": total("buffer_absorbed_mb"),
        "lost_mb": total("buffer_lost_mb"),
        "drain_retries": total("buffer_drain_retries"),
        "backpressure_s": total("buffer_backpressure_s"),
    }


def _rank_errors(probe) -> List[str]:
    errors = []
    for n_contexts, results in probe.apps:
        missing = sum(1 for r in results if r is None or isinstance(r, BaseException))
        if len(results) != n_contexts or missing:
            errors.append(f"{missing} of {n_contexts} ranks returned no result")
    return errors


def _checkpoint(label, impl, probe, trial, n_clients, n_servers, state_mb, **kwargs):
    result = probe.call(
        label, run_checkpoint_trial, impl, n_clients, n_servers,
        state_bytes=state_mb * MiB, **kwargs,
    )
    trial.attempted += n_clients * state_mb
    lost = result.extra.get("buffer_lost_mb", 0.0)
    trial.failed += lost
    absorbed = result.extra.get("buffer_absorbed_mb")
    if absorbed is not None:
        drained = result.extra.get("buffer_drained_mb", 0.0)
        if not math.isclose(absorbed, drained + lost, rel_tol=1e-9):
            trial.errors.append(
                f"{label}: absorbed {absorbed} MiB != drained {drained} + lost {lost}"
            )
    return result


def _finish(trial: Trial, results, probe) -> Trial:
    for label, result in results:
        trial.outputs.update(_outputs(label, result))
    trial.errors.extend(_rank_errors(probe))
    trial.counters = _counters([r for _, r in results], probe)
    return trial


# -- ckpt_redstorm ---------------------------------------------------------------
def _run_redstorm(seed: int, probe) -> Trial:
    trial = Trial()
    result = _checkpoint(
        "lwfs", "lwfs", probe, trial, 10368, 320, 64, seed=seed, spec=red_storm(),
        options=RunOptions(collapse=True, flow=True, fastforward=True),
    )
    return _finish(trial, [("lwfs", result)], probe)


# -- ckpt_crash ------------------------------------------------------------------
def _run_crash(seed: int, probe) -> Trial:
    trial = Trial()
    options = RunOptions(
        collapse=True, flow=True, fastforward=True,
        faults=load_plan(str(ROOT / "examples/faults/storage_crash.json")),
        tiers=load_tiers(str(ROOT / "examples/tiers/hostlog.json")),
    )
    result = _checkpoint(
        "lwfs", "lwfs", probe, trial, 1296, 40, 64, seed=seed, spec=red_storm(), options=options
    )
    return _finish(trial, [("lwfs", result)], probe)


# -- traffic_diurnal -------------------------------------------------------------
def _traffic_spec():
    return diurnal_mixed(
        tenants=10**6, rate=1500.0, quantum=2.0, representatives=4,
        horizon=TRAFFIC_SLICE_S,
    )


def _run_traffic(seed: int, probe) -> Trial:
    trial = Trial()
    result = probe.call(
        "traffic", run_workload_trial, _traffic_spec(), n_servers=16, seed=seed,
        spec=red_storm(), options=RunOptions(tenant_collapse=True),
    )
    for engine in probe.engines:
        attempted = sum(int(s.counts.sum()) for s in engine.classes)
        done = sum(s.ops_done for s in engine.classes)
        failed = sum(s.ops_failed for s in engine.classes)
        trial.attempted += attempted
        trial.failed += failed
        if done + failed != attempted:
            trial.errors.append(
                f"traffic: {done} done + {failed} failed != {attempted} attempted"
            )
    return _finish(trial, [("traffic", result)], probe)


# -- paper_exact -----------------------------------------------------------------
PAPER_CLIENTS, PAPER_SERVERS, PAPER_STATE_MB, PAPER_CREATES = 31, 16, 64, 32
_EXACT = RunOptions(collapse=False, flow=False)


def _run_paper(seed: int, probe) -> Trial:
    trial = Trial()
    results = []
    for impl in ("lwfs", "lustre-fpp", "lustre-shared"):
        label = f"{impl}.dump"
        results.append((label, _checkpoint(
            label, impl, probe, trial, PAPER_CLIENTS, PAPER_SERVERS, PAPER_STATE_MB,
            seed=seed, spec=dev_cluster(), options=_EXACT,
        )))
    for impl in ("lwfs", "lustre-fpp"):
        label = f"{impl}.create"
        results.append((label, probe.call(
            label, run_create_trial, impl, PAPER_CLIENTS, PAPER_SERVERS,
            creates_per_client=PAPER_CREATES, seed=seed, spec=dev_cluster(),
            options=_EXACT,
        )))
        trial.attempted += PAPER_CLIENTS * PAPER_CREATES
    return _finish(trial, results, probe)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("ckpt_redstorm", exact=False, nominal_ops=10368 * 64, run=_run_redstorm),
        Workload("traffic_diurnal", exact=False, nominal_ops=1500.0 * TRAFFIC_SLICE_S,
                 run=_run_traffic),
        Workload("paper_exact", exact=True,
                 nominal_ops=PAPER_CLIENTS * (3 * PAPER_STATE_MB + 2 * PAPER_CREATES),
                 run=_run_paper),
        Workload("ckpt_crash", exact=False, nominal_ops=1296 * 64, run=_run_crash),
    )
}


def load_pins() -> Dict[str, Dict[str, float]]:
    with open(PINS) as fh:
        return json.load(fh)


def check_pins(workload: Workload, outputs: Dict[str, float],
               pinned: Dict[str, float]) -> List[str]:
    """Compare one trial's outputs with the pinned default-seed outputs."""
    if set(outputs) != set(pinned):
        return [f"output keys differ from pins: {sorted(set(outputs) ^ set(pinned))}"]
    tol = 0.0 if workload.exact else APPROX_TOL
    return [
        f"{key} = {outputs[key]!r}, pinned {pinned[key]!r}"
        for key in sorted(pinned)
        if not math.isclose(outputs[key], pinned[key], rel_tol=tol, abs_tol=0.0)
    ]
