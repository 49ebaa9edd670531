"""Golden run of the paper's headline: the 10,368-rank Red Storm checkpoint.

Collapse simulates 321 representatives of the 10,368 ranks, so only
those compute nodes, the 256 I/O nodes and the one service node may be
built.  A later ``for node in cluster.compute_nodes`` anywhere in the
trial would build the whole population again and fail the node count.
"""

from repro.bench import harness
from repro.bench.harness import run_checkpoint_trial
from repro.machine import red_storm
from repro.sim.config import RunOptions
from repro.units import MiB


def test_red_storm_headline_is_pinned_and_builds_only_representatives(monkeypatch):
    clusters = []
    build = harness._build

    def spy(*args, **kwargs):
        built = build(*args, **kwargs)
        clusters.append(built[0])
        return built

    monkeypatch.setattr(harness, "_build", spy)
    result = run_checkpoint_trial(
        "lwfs", 10368, 320, state_bytes=64 * MiB, seed=0, spec=red_storm(),
        options=RunOptions(collapse=True, flow=True, fastforward=True),
    )
    assert result.throughput_mb_s == 116193.56935405794
    assert result.extra["events_processed"] == 79496
    assert result.extra["peak_event_queue"] == 645
    assert result.extra["events_fast_forwarded"] == 642
    (cluster,) = clusters
    assert cluster.n_nodes == 10625
    assert len(cluster.fabric._nodes) == 578
