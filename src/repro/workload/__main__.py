"""The ``traffic-quick`` gate: ``python -m repro.workload``.

Five checks, each cheap enough for CI, each guarding a contract the
open-loop traffic engine documents:

1. **Spec round-trip** — :func:`~repro.workload.diurnal_mixed`
   survives ``to_doc -> json -> from_doc`` exactly, and its
   :meth:`~repro.workload.WorkloadSpec.signature` is stable across the
   round trip (the trial cache keys on it).
2. **Determinism** — the same seeded collapsed trial run twice is
   bit-identical on every reported statistic.
3. **Kill switch** — with every class multiplicity forced to 1,
   ``tenant_collapse=False`` (also ``REPRO_TENANT_COLLAPSE=0``) and
   the collapsed path produce *exactly* equal results: collapsing is
   pure mechanism, not a different workload.
4. **Collapse accuracy** — at class sizes of 10^3 (multiplicity up to
   63) the collapsed run stays within :data:`ACCURACY_TOL` of the
   uncollapsed reference on per-class goodput, p50, and p99.
5. **Scale invariance** — growing the tenant population 100x at
   constant offered rate leaves the session count unchanged and the
   event count within :data:`EVENT_RATIO_LIMIT`; simulated users are
   free, traffic is what costs.

Results land in ``results/traffic_quick.json``.  Exit status is the
number of failed checks.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from typing import Any, Dict, List

#: Collapsed-vs-uncollapsed relative error bound (goodput, p50, p99).
ACCURACY_TOL = 0.01
#: Event-count growth allowed for a 100x tenant population at equal rate.
EVENT_RATIO_LIMIT = 1.05

#: Per-class statistics compared between runs.
_FIELDS = ("ops", "goodput_mb_s", "latency_p50", "latency_p99")


def _results_dir() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", "results"))


def _gate_spec(tenants: int, reps: int, quantum: float = 0.005):
    """The accuracy-gate mix: jitter-free costs, fixed sizes for the
    latency-checked classes, moderate utilization — the regime where
    collapse error is structural, not measurement noise."""
    from .spec import TenantClass, WorkloadSpec

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
    from ..sim.config import RunOptions, SimConfig
    from .engine import run_workload_trial

    cfg = replace(SimConfig(), cost_jitter=0.0)
    opts = RunOptions(tenant_collapse=collapse, trace=False, metrics=False)
    return run_workload_trial(
        workload=spec, n_servers=4, seed=seed, config=cfg, options=opts
    )


def _rows(trial) -> Dict[str, float]:
    picked = {
        k: v for k, v in trial.extra.items()
        if k.startswith("wl.") and k.rsplit(".", 1)[1] in _FIELDS
    }
    picked["throughput_mb_s"] = trial.throughput_mb_s
    picked["max_elapsed"] = trial.max_elapsed
    return picked


def _check_roundtrip() -> Dict[str, Any]:
    from .spec import WorkloadSpec, diurnal_mixed

    spec = diurnal_mixed(tenants=10_000, rate=200.0, horizon=60.0, quantum=1.0)
    doc = json.loads(json.dumps(spec.to_doc()))
    back = WorkloadSpec.from_doc(doc)
    return {
        "check": "spec-roundtrip",
        "ok": back == spec and back.signature() == spec.signature(),
        "signature": spec.signature(),
        "classes": len(spec.classes),
        "total_tenants": spec.total_tenants,
    }


def _check_determinism() -> Dict[str, Any]:
    spec = _gate_spec(tenants=200, reps=8)
    a = _rows(_run(spec, collapse=True))
    b = _rows(_run(spec, collapse=True))
    mismatched = sorted(k for k in a if a[k] != b[k])
    return {
        "check": "determinism",
        "ok": not mismatched,
        "stats_compared": len(a),
        "mismatched": mismatched,
    }


def _check_kill_switch() -> Dict[str, Any]:
    # representatives == tenants -> every class multiplicity is 1.
    spec = _gate_spec(tenants=24, reps=24)
    on = _rows(_run(spec, collapse=True))
    off = _rows(_run(spec, collapse=False))
    mismatched = sorted(k for k in on if on[k] != off[k])
    return {
        "check": "kill-switch",
        "ok": not mismatched,
        "stats_compared": len(on),
        "mismatched": mismatched,
    }


def _check_accuracy() -> Dict[str, Any]:
    spec = _gate_spec(tenants=1000, reps=16)
    coll = _run(spec, collapse=True)
    ref = _run(spec, collapse=False)
    worst, worst_key = 0.0, ""
    for k, rv in _rows(ref).items():
        cv = _rows(coll)[k]
        rel = abs(cv - rv) / max(abs(rv), 1e-12)
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


def _check_scale_invariance() -> Dict[str, Any]:
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


def main() -> int:
    checks: List[Dict[str, Any]] = [
        _check_roundtrip(),
        _check_determinism(),
        _check_kill_switch(),
        _check_accuracy(),
        _check_scale_invariance(),
    ]
    results_dir = _results_dir()
    os.makedirs(results_dir, exist_ok=True)
    out = {
        "gate": "traffic-quick",
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }
    quick_path = os.path.join(results_dir, "traffic_quick.json")
    with open(quick_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")

    failed = [c for c in checks if not c["ok"]]
    for c in checks:
        status = "ok  " if c["ok"] else "FAIL"
        detail = {k: v for k, v in c.items() if k not in ("check", "ok")}
        print(f"[{status}] {c['check']}: {json.dumps(detail, default=str)}")
    print(f"wrote {quick_path}")
    return len(failed)


if __name__ == "__main__":
    sys.exit(main())
