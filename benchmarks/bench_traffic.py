"""Headline traffic benchmark: 10^6 open-loop tenants in minutes.

The acceptance workload for the multi-tenant traffic engine: the
:func:`repro.workload.diurnal_mixed` mix — a metadata storm, a
read-mostly restart population, and heavy-tailed checkpoint producers,
1,000,000 tenants in total — driven over a 1-hour diurnal trace against
a Red Storm I/O slice, with tenant-class collapsing on.

The same mix also runs at 10,000 tenants (identical offered rate): the
engine's cost is proportional to *traffic*, not population, so the two
runs must use the same session count and nearly the same event count —
that scale invariance is what makes 10^6 users affordable at all.

Both trials run through :func:`repro.bench.run_sweep` (serially, cache
off) so per-trial wall-clock, kernel stats, and the tenant columns land
in ``BENCH_sweep.json``; the summary is recorded under the ``traffic``
key of ``BENCH_kernel.json`` and in ``results/traffic.json``.
"""

import json
import os
import sys

from repro.bench import run_sweep, save_json
from repro.bench.executor import workload_spec
from repro.machine.presets import red_storm
from repro.workload import diurnal_mixed

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from conftest import run_once  # noqa: E402
from bench_simkernel_events import KERNEL_JSON, KERNEL_SCHEMA  # noqa: E402

#: The headline population and its scale-invariance reference.
HL_TENANTS = 1_000_000
REF_TENANTS = 10_000
#: Offered class-aggregate rate (ops/s, split 60/30/10 across classes).
HL_RATE = 1500.0
#: One simulated hour on the diurnal trace.
HL_HORIZON = 3600.0
HL_SERVERS = 16
HL_SEED = 11

#: Gate floors: "minutes, not days" and population-independent cost.
MAX_WALL_S = 900.0
#: Completed-ops rate must track the offered rate (open loop, unsaturated).
RATE_REL_TOL = 0.05
#: Event-count growth allowed for the 100x population at equal rate.
EVENT_RATIO_LIMIT = 1.1


def _mix(tenants):
    return diurnal_mixed(
        tenants=tenants, rate=HL_RATE, horizon=HL_HORIZON, quantum=2.0,
        representatives=4,
    )


def run_headline(record=True):
    """Run the reference and headline populations; return per-run rows."""
    specs = [
        workload_spec(_mix(tenants), HL_SERVERS, seed=HL_SEED, spec=red_storm())
        for tenants in (REF_TENANTS, HL_TENANTS)
    ]
    # jobs=1 + cache=False: each wall-clock is a clean serial measurement
    # of one whole run, never a cache hit or a contended worker.
    outcomes = run_sweep(
        specs, jobs=1, label="traffic-headline", record=record, cache=False
    )
    rows = []
    for tenants, o in zip((REF_TENANTS, HL_TENANTS), outcomes):
        rows.append({
            "tenants": tenants,
            "wall_s": round(o.wall_clock_s, 3),
            "ops_per_s": o.value,
            "offered_rate": HL_RATE,
            "sim_hours": round(o.result.extra["sim_seconds"] / 3600.0, 3),
            "sessions": 0,  # filled below from the spec
            "tenants_simulated": int(o.result.extra["tenants_simulated"]),
            "max_class_multiplicity": int(o.result.extra["max_class_multiplicity"]),
            "events_processed": int(o.result.extra["events_processed"]),
        })
    # Session count comes from the engine's extra rows; recompute it here
    # from the spec so the invariance check does not depend on reporting.
    from repro.workload import auto_representatives

    for row, tenants in zip(rows, (REF_TENANTS, HL_TENANTS)):
        mix = _mix(tenants)
        row["sessions"] = sum(auto_representatives(c, mix) for c in mix.classes)
    return rows


def record_traffic(rows, path=KERNEL_JSON):
    """Write the traffic summary under BENCH_kernel.json's traffic key."""
    doc = {"schema": KERNEL_SCHEMA, "entries": []}
    try:
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict) and existing.get("schema") == KERNEL_SCHEMA:
            doc = existing
    except (OSError, ValueError):
        pass
    doc["traffic"] = {
        "workload": f"diurnal_mixed {HL_TENANTS} tenants @ {HL_RATE:.0f} ops/s "
                    f"x {HL_HORIZON:.0f}s / {HL_SERVERS} servers red_storm "
                    f"seed={HL_SEED} tenant-collapse on",
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _check(rows):
    ref, hl = rows
    assert hl["tenants_simulated"] == HL_TENANTS, hl
    assert hl["wall_s"] <= MAX_WALL_S, f"headline run not 'minutes': {hl}"
    rel = abs(hl["ops_per_s"] - HL_RATE) / HL_RATE
    assert rel <= RATE_REL_TOL, f"completed rate drifted from offered: {hl}"
    assert hl["sessions"] == ref["sessions"], f"session count grew with tenants: {rows}"
    ratio = hl["events_processed"] / max(ref["events_processed"], 1)
    assert ratio <= EVENT_RATIO_LIMIT, f"event count grew with tenants: {ratio:.3f}"


def _print(rows):
    for r in rows:
        print(
            f"{r['tenants']:>9,d} tenants  {r['wall_s']:8.1f}s wall  "
            f"{r['ops_per_s']:8.1f} ops/s  {r['sessions']:3d} sessions  "
            f"mult {r['max_class_multiplicity']:,d}  "
            f"{r['events_processed']:,d} events"
        )


def test_traffic_headline(benchmark):
    rows = run_once(benchmark, run_headline)
    print()
    _print(rows)
    save_json("traffic", {"rows": rows})
    record_traffic(rows)
    _check(rows)


if __name__ == "__main__":  # pragma: no cover - CLI for the perf record
    rows = run_headline()
    _print(rows)
    save_json("traffic", {"rows": rows})
    record_traffic(rows)
    _check(rows)
    print(f"traffic gates ok: {HL_TENANTS:,d} tenants x {HL_HORIZON:.0f}s "
          f"in {rows[1]['wall_s']:.0f}s wall, sessions and events "
          "population-invariant")
