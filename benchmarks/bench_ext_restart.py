"""Extension experiment: restart (read-back) throughput.

The paper measures only the dump; a checkpoint is worthless if it cannot
be read back fast after a failure.  This extension measures the restart
phase for all three stacks: every rank reads its full state back
(lookup → metadata scatter → bulk reads), reported as aggregate MB/s over
the max rank time, mirroring the Fig. 9 methodology.
"""

from repro.bench import format_rows, save_json
from repro.bench.harness import _build
from repro.sim.config import RunOptions
from repro.storage import SyntheticData, data_equal
from repro.units import MiB

from conftest import run_once

STATE = 16 * MiB


def _restart_throughput(impl, n_clients, n_servers, seed=55, collapse=False):
    cluster, deployment, checkpointer, app, _injector = _build(
        impl, n_clients, n_servers, seed,
        opts=RunOptions(collapse=collapse).resolved(), collapse_state_bytes=STATE,
    )

    def main(ctx):
        yield from checkpointer.setup(ctx)
        state = SyntheticData(STATE, seed=500 + ctx.rank, origin=ctx.rank * STATE)
        yield from checkpointer.checkpoint(ctx, state, path="/ckpt/rb")
        yield from ctx.barrier()
        recovered, result = yield from checkpointer.restart(ctx, "/ckpt/rb")
        assert data_equal(recovered, state), ctx.rank
        return result

    results = app.run(main)
    elapsed = max(r.elapsed for r in results)
    return {
        "impl": impl,
        "clients": n_clients,
        "servers": n_servers,
        "collapsed": collapse,
        "restart_mb_s": n_clients * STATE / MiB / elapsed,
    }


def test_restart_throughput(benchmark):
    def sweep():
        rows = []
        for impl in ("lwfs", "lustre-fpp", "lustre-shared"):
            for n, m in ((8, 4), (16, 8)):
                rows.append(_restart_throughput(impl, n, m))
        # Collapsed restart: the read path's ops weighting (seek count
        # scales with class size) keeps the read-back figures honest.
        rows.append(_restart_throughput("lwfs", 16, 8, collapse=True))
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_rows("Extension — restart (read-back) phase", rows))
    save_json("ext_restart", rows)

    by = {(r["impl"], r["clients"], r["servers"]): r["restart_mb_s"]
          for r in rows if not r["collapsed"]}
    collapsed = next(r for r in rows if r["collapsed"])
    rel = abs(collapsed["restart_mb_s"] - by[("lwfs", 16, 8)]) / by[("lwfs", 16, 8)]
    assert rel <= 0.10, (collapsed["restart_mb_s"], by[("lwfs", 16, 8)])
    # Read-back scales with servers for every stack.
    for impl in ("lwfs", "lustre-fpp", "lustre-shared"):
        assert by[(impl, 16, 8)] > 1.5 * by[(impl, 8, 4)]
    # Restart has no lock ping-pong (readers share), so the shared file
    # reads back respectably — within 2x of file-per-process.
    assert by[("lustre-shared", 16, 8)] > 0.5 * by[("lustre-fpp", 16, 8)]
    # And LWFS tracks fpp on the read path too.
    assert by[("lwfs", 16, 8)] > 0.7 * by[("lustre-fpp", 16, 8)]
