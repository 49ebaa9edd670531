"""Extension experiment: fault injection and recovery (§3.2's argument, measured).

The paper argues LWFS's per-object independence localizes failures: losing
one storage server costs the clients mapped to it, while a parallel file
system hanging off one metadata server stalls *globally* whenever the MDS
fails over.  This benchmark injects seeded server crashes
(:mod:`repro.faults`) into the Fig. 9 dump and measures both claims:

* crash during the create/open phase — a dead storage server/OST leaves
  the surviving servers streaming (goodput inside the fault window stays
  high, only the mapped clients retry); a dead MDS stops *every* client's
  open (goodput 0, all clients retry),
* crash mid-dump — LWFS absorbs a storage-server loss for a few percent
  (journal replay + retried chunk RPCs); Lustre file-per-process pays the
  extent-lock writeback amplification on top.

Every faulted trial must also *complete* — the retry/backoff +
journal-replay + 2PC presumed-abort machinery is exercised, not mocked.
"""

from repro.bench import format_rows, save_json
from repro.bench.executor import checkpoint_spec, run_sweep
from repro.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.sim.config import RunOptions
from repro.units import MiB

from conftest import run_once

STATE = 8 * MiB
N_CLIENTS, N_SERVERS = 8, 4
SEED = 77
#: Failure-detection timeout for every injected scenario (§3.2: the
#: client, not the server, times the interaction).
RETRY = RetryPolicy(timeout=0.25)
CRASH_DURATION = 0.08


def _crash_plan(target: str, at: float) -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(kind="server_crash", at=at, target=target,
                       duration=CRASH_DURATION),
        ),
        retry=RETRY,
        seed=7,
    )


#: (scenario, impl, crash target, crash time).  t=0 lands in the
#: create/open phase; t=0.05 lands mid-dump (clean dumps run ~0.2 s).
SCENARIOS = (
    ("storage-crash@create", "lwfs", "stor0", 0.0),
    ("storage-crash@create", "lustre-fpp", "ost0", 0.0),
    ("mds-failover@create", "lustre-fpp", "mds", 0.0),
    ("mds-failover@create", "lustre-shared", "mds", 0.0),
    ("storage-crash@dump", "lwfs", "stor0", 0.05),
    ("storage-crash@dump", "lustre-fpp", "ost0", 0.05),
    ("mds-failover@dump", "lustre-shared", "mds", 0.05),
)


def test_fault_recovery(benchmark, jobs):
    def sweep():
        clean_specs = [
            checkpoint_spec(impl, N_CLIENTS, N_SERVERS, seed=SEED, state_bytes=STATE)
            for impl in ("lwfs", "lustre-fpp", "lustre-shared")
        ]
        fault_specs = [
            checkpoint_spec(
                impl, N_CLIENTS, N_SERVERS, seed=SEED, state_bytes=STATE,
                options=RunOptions(faults=_crash_plan(target, at)),
            )
            for _, impl, target, at in SCENARIOS
        ]
        outcomes = run_sweep(
            clean_specs + fault_specs, jobs=jobs, label="fault-recovery",
            record=True,
        )
        clean = {o.spec.impl: o for o in outcomes[: len(clean_specs)]}
        rows = []
        for (scenario, impl, target, at), o in zip(
            SCENARIOS, outcomes[len(clean_specs):]
        ):
            base = clean[impl]
            f = o.result.extra
            rows.append(
                {
                    "scenario": scenario,
                    "impl": impl,
                    "clean_mb_s": round(base.value, 1),
                    "faulted_mb_s": round(o.value, 1),
                    "stall_s": round(
                        N_CLIENTS * STATE / MiB * (1 / o.value - 1 / base.value), 4
                    ),
                    "retries": f["retries"],
                    "recovered": f["recovered_ops"],
                    "goodput_in_window_mb_s": round(f["goodput_degraded"], 1),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_rows("Extension — fault injection & recovery", rows))
    save_json("ext_fault_recovery", rows)

    by = {(r["scenario"], r["impl"]): r for r in rows}

    # Locality during the metadata phase: with one storage server/OST
    # down, the surviving 3/4 of the machine keeps streaming the dump...
    for impl in ("lwfs", "lustre-fpp"):
        assert by[("storage-crash@create", impl)]["goodput_in_window_mb_s"] > 300
    # ...while an MDS failover stalls every client: no data moves at all.
    for impl in ("lustre-fpp", "lustre-shared"):
        assert by[("mds-failover@create", impl)]["goodput_in_window_mb_s"] < 1.0

    # Blast radius by retry count: every fpp client retries against the
    # dead MDS; only the ~1/N_SERVERS of clients mapped to the dead LWFS
    # server retry.
    lwfs_retries = by[("storage-crash@create", "lwfs")]["retries"]
    mds_retries = by[("mds-failover@create", "lustre-fpp")]["retries"]
    assert mds_retries >= N_CLIENTS
    assert lwfs_retries <= mds_retries / 2

    # Mid-dump: LWFS absorbs the storage-server loss for a few percent
    # (journal replay + retried chunks); the central-MDS stacks stall
    # longer than LWFS does at open time.
    lwfs_mid = by[("storage-crash@dump", "lwfs")]
    assert lwfs_mid["stall_s"] < 0.05 * (N_CLIENTS * STATE / MiB) / lwfs_mid["clean_mb_s"]
    assert (
        by[("storage-crash@create", "lwfs")]["stall_s"]
        < by[("mds-failover@create", "lustre-shared")]["stall_s"]
    )
    # Lustre-fpp additionally pays extent-lock writeback on a mid-dump
    # OST loss — markedly worse than LWFS's near-free recovery.
    assert (
        by[("storage-crash@dump", "lustre-fpp")]["stall_s"]
        > 4 * max(lwfs_mid["stall_s"], 1e-9)
    )

    # Recovery machinery actually ran: faulted trials completed, and the
    # metadata-phase scenarios needed retries that then succeeded.
    for impl in ("lwfs", "lustre-fpp"):
        r = by[("storage-crash@create", impl)]
        assert r["retries"] > 0 and r["recovered"] > 0
