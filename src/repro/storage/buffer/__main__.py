"""The ``buffer-quick`` gate: ``python -m repro.storage.buffer``.

Five checks, each cheap enough for CI, each guarding a contract the
burst-buffer tier documents:

1. **Spec round-trip** — :class:`~repro.storage.buffer.TierSpec`
   survives ``to_dict -> json -> from_dict`` exactly, its
   :meth:`~repro.storage.buffer.TierSpec.signature` is stable across
   the round trip (the trial cache keys on it), and unknown fields are
   rejected.
2. **Kill switch** — ``tiers=None`` and ``mode: passthrough`` are
   bit-identical on every figure of merit, with collapse and flow both
   off and both on: an inert tier spec never perturbs the simulation.
3. **Absorb speedup** — with the burst fitting the pool, the dump beats
   direct-to-OST by at least :data:`MIN_SPEEDUP` on the dev cluster and
   the background drain completes (drained == absorbed, no loss).
4. **Drain-limited crossover** — with the pool smaller than the burst,
   absorbs measurably block on pool space (``backpressure > 0``) and
   the run is attributed to the drain-limited phase.
5. **Crash determinism** — a buffer-node crash mid-drain
   (``examples/faults/storage_crash.json`` hits the co-located shared
   buffer) is seeded-bit-identical across two runs; ``buffer`` mode
   loses the un-drained extents, ``hostlog`` re-drives them and loses
   nothing.

Results land in ``results/buffer_quick.json``.  Exit status is the
number of failed checks.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List

#: Buffer-fits speedup floor on the dev cluster (the Red Storm slice
#: clears 5x; the dev cluster's slower fabric makes this conservative).
MIN_SPEEDUP = 1.5

#: Figures of merit compared for bit-identity by the kill-switch check.
_FIELDS = ("max_elapsed", "mean_elapsed", "throughput_mb_s", "create_max_elapsed")


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "..", ".."))


def _trial(tiers=None, faults=None, collapse=False, flow=False, seed=7,
           n_clients=8, n_servers=4, state_mb=1):
    from ...bench.harness import run_checkpoint_trial
    from ...sim.config import RunOptions
    from ...units import MiB

    opts = RunOptions(tiers=tiers, faults=faults, collapse=collapse, flow=flow)
    return run_checkpoint_trial(
        "lwfs", n_clients, n_servers, state_bytes=state_mb * MiB,
        seed=seed, options=opts,
    )


def _merits(trial) -> Dict[str, float]:
    return {k: getattr(trial, k) for k in _FIELDS}


def _check_roundtrip() -> Dict[str, Any]:
    from .tier import TierSpec

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


def _check_kill_switch() -> Dict[str, Any]:
    from .tier import TierSpec

    mismatched: List[str] = []
    for collapse, flow in ((False, False), (True, True)):
        direct = _merits(_trial(tiers=None, collapse=collapse, flow=flow))
        inert = _merits(_trial(tiers=TierSpec(mode="passthrough"),
                               collapse=collapse, flow=flow))
        mismatched += [
            f"{k}@collapse={collapse},flow={flow}"
            for k in direct if direct[k] != inert[k]
        ]
    return {
        "check": "kill-switch",
        "ok": not mismatched,
        "stats_compared": 2 * len(_FIELDS),
        "mismatched": mismatched,
    }


def _check_speedup() -> Dict[str, Any]:
    from .tier import TierSpec

    direct = _trial(tiers=None, state_mb=4)
    buffered = _trial(tiers=TierSpec(mode="buffer", placement="node-local"),
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


def _check_drain_limited() -> Dict[str, Any]:
    from ...units import KiB
    from .tier import TierSpec

    tier = TierSpec(mode="buffer", placement="node-local", capacity_bytes=256 * KiB)
    trial = _trial(tiers=tier)
    e = trial.extra
    return {
        "check": "drain-limited",
        "ok": e["buffer_backpressure_s"] > 0.0 and e["buffer_drain_limited"] == 1.0,
        "backpressure_s": round(e["buffer_backpressure_s"], 6),
        "drain_limited": e["buffer_drain_limited"],
    }


def _check_crash_determinism() -> Dict[str, Any]:
    from ...units import MiB
    from .tier import TierSpec

    plan = os.path.join(_repo_root(), "examples", "faults", "storage_crash.json")
    rows: Dict[str, Dict[str, float]] = {}
    mismatched: List[str] = []
    for mode in ("buffer", "hostlog"):
        tier = TierSpec(mode=mode, placement="shared", buffer_nodes=2,
                        drain_bandwidth=4 * MiB, capacity_bytes=64 * MiB)
        a = _trial(tiers=tier, faults=plan)
        b = _trial(tiers=tier, faults=plan)
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


def main() -> int:
    checks: List[Dict[str, Any]] = [
        _check_roundtrip(),
        _check_kill_switch(),
        _check_speedup(),
        _check_drain_limited(),
        _check_crash_determinism(),
    ]
    results_dir = os.path.join(_repo_root(), "results")
    os.makedirs(results_dir, exist_ok=True)
    out = {
        "gate": "buffer-quick",
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }
    quick_path = os.path.join(results_dir, "buffer_quick.json")
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
