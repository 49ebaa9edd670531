"""Burst-buffer tier: TierSpec contract and absorb/drain behaviour."""

import json

import pytest

from repro.bench import run_checkpoint_trial
from repro.sim.config import RunOptions
from repro.storage.buffer import TIER_MODES, TIER_PLACEMENTS, TierSpec, load_tiers, save_tiers
from repro.units import KiB, MiB, GiB

STATE = 2 * MiB


def _trial(tiers, seed=11, clients=8, servers=4, state=STATE, **opts):
    return run_checkpoint_trial(
        "lwfs", clients, servers, state_bytes=state, seed=seed,
        options=RunOptions(tiers=tiers, **opts),
    )


class TestTierSpec:
    def test_defaults_are_passthrough(self):
        spec = TierSpec()
        assert spec.mode == "passthrough"
        assert not spec.enabled

    def test_enabled_modes(self):
        assert TierSpec(mode="buffer").enabled
        assert TierSpec(mode="hostlog").enabled
        assert set(TIER_MODES) == {"passthrough", "buffer", "hostlog"}
        assert set(TIER_PLACEMENTS) == {"node-local", "shared"}

    @pytest.mark.parametrize("bad", [
        dict(mode="nvram"),
        dict(placement="rack"),
        dict(capacity_bytes=0),
        dict(absorb_bandwidth=-1),
        dict(drain_bandwidth=0),
        dict(drain_concurrency=0),
        dict(buffer_nodes=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            TierSpec(**bad)

    def test_roundtrip_and_signature(self):
        spec = TierSpec(mode="buffer", placement="shared",
                        capacity_bytes=GiB, drain_concurrency=3)
        back = TierSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.signature() == spec.signature()
        assert spec.signature() != TierSpec(mode="hostlog").signature()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises((TypeError, ValueError)):
            TierSpec.from_dict({"mode": "buffer", "nodes": 4})

    def test_file_roundtrip(self, tmp_path):
        spec = TierSpec(mode="hostlog", capacity_bytes=256 * MiB)
        path = str(tmp_path / "tier.json")
        save_tiers(spec, path)
        assert load_tiers(path) == spec


class TestAbsorbDrain:
    def test_buffer_beats_direct_and_drains_fully(self):
        direct = _trial(None)
        buffered = _trial(TierSpec(mode="buffer", placement="node-local"))
        assert buffered.max_elapsed < direct.max_elapsed
        e = buffered.extra
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"] == 16.0
        assert e["buffer_lost_mb"] == 0.0
        assert e["buffer_drain_incomplete"] == 0.0
        assert e["buffer_drain_tail_s"] > 0.0  # drain finishes after the dump

    def test_undersized_pool_backpressures(self):
        tier = TierSpec(mode="buffer", placement="node-local",
                        capacity_bytes=256 * KiB)
        e = _trial(tier).extra
        assert e["buffer_backpressure_s"] > 0.0
        assert e["buffer_drain_limited"] == 1.0
        # Everything still lands on the backing store eventually.
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"]

    def test_shared_and_node_local_account_the_same_totals(self):
        shared = _trial(TierSpec(mode="buffer", placement="shared")).extra
        local = _trial(TierSpec(mode="buffer", placement="node-local")).extra
        assert shared["buffer_absorbed_mb"] == local["buffer_absorbed_mb"]
        assert shared["buffer_drained_mb"] == local["buffer_drained_mb"]

    def test_collapse_reports_whole_class_bytes(self):
        tier = TierSpec(mode="buffer", placement="node-local")
        plain = _trial(tier).extra
        collapsed = _trial(tier, collapse=True).extra
        assert collapsed["buffer_absorbed_mb"] == plain["buffer_absorbed_mb"]
        assert collapsed["buffer_drained_mb"] == plain["buffer_drained_mb"]

    def test_hostlog_drains_fully_too(self):
        e = _trial(TierSpec(mode="hostlog", placement="node-local")).extra
        assert e["buffer_drained_mb"] == e["buffer_absorbed_mb"]
        assert e["buffer_lost_mb"] == 0.0

    def test_seeded_runs_are_bit_identical(self):
        tier = TierSpec(mode="buffer", placement="shared", buffer_nodes=2)
        a, b = _trial(tier), _trial(tier)
        assert a.max_elapsed == b.max_elapsed
        assert a.extra == b.extra


class TestLazyNodeLocal:
    """Node-local buffers are built on first use: a collapsed run pays for
    its representatives' buffers (and nodes) only, every aggregate still
    sees every byte, and a fault plan naming an unbuilt buffer builds it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The ``_build`` products of every trial run in the test."""
        from repro.bench import harness

        runs = []
        real = harness._build

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "_build", spy)
        return runs

    def _collapsed(self, clients, tier, **opts):
        from repro.machine.presets import red_storm

        return run_checkpoint_trial(
            "lwfs", clients, 8, state_bytes=4 * MiB, seed=7, spec=red_storm(),
            options=RunOptions(collapse=True, tiers=tier, **opts),
        )

    @pytest.mark.parametrize("mode", ["buffer", "hostlog"])
    def test_built_buffers_are_the_absorbing_ranks_nodes(self, built, mode):
        tier = TierSpec(mode=mode, placement="node-local")
        e = self._collapsed(64, tier).extra
        cluster, deployment, _ck, app, _inj = built[-1]
        runtime = deployment.buffer_tier
        reps = {ctx.node.node_id for ctx in app.contexts}
        assert {b.node.node_id for b in runtime.buffers} == reps
        assert [b.name for b in runtime.buffers] == [
            f"buf{nid - cluster.compute_nodes.ids.start}" for nid in sorted(reps)
        ]
        assert e["buffer_nodes"] == 64.0
        assert e["buffer_nodes_built"] == len(reps) < 64
        assert e["buffer_absorbed_mb"] == 64 * 4.0
        assert e["buffer_absorbed_mb"] == e["buffer_drained_mb"] + e["buffer_lost_mb"]
        # Only the representatives' compute nodes exist.
        computes = {n for n in cluster._by_id if n in cluster.compute_nodes.ids}
        assert computes == reps

    def test_nodes_built_do_not_grow_with_the_population(self, built):
        tier = TierSpec(mode="hostlog", placement="node-local")
        small = self._collapsed(64, tier).extra
        big = self._collapsed(1296, tier).extra
        (small_cluster, *_), (big_cluster, *_) = built
        assert len(big_cluster._by_id) == len(small_cluster._by_id)
        assert big["buffer_nodes"] == 1296.0
        assert big["buffer_nodes_built"] == small["buffer_nodes_built"]
        assert big["buffer_absorbed_mb"] == big["buffer_drained_mb"] == 1296 * 4.0

    def test_shared_placement_stays_eager(self, built):
        tier = TierSpec(mode="buffer", placement="shared", buffer_nodes=3)
        e = _trial(tier).extra
        runtime = built[-1][1].buffer_tier
        assert [b.name for b in runtime.buffers] == ["buf0", "buf1", "buf2"]
        assert e["buffer_nodes"] == e["buffer_nodes_built"] == 3.0
        assert e["buffer_absorbed_mb"] == e["buffer_drained_mb"] + e["buffer_lost_mb"]


def _crash_buffer(target):
    from repro.faults import FaultEvent, FaultPlan, RetryPolicy

    return FaultPlan(
        events=(FaultEvent(kind="server_crash", at=0.05, target=target, duration=0.05),),
        retry=RetryPolicy(timeout=0.25), seed=42,
    )


#: Outputs of a ``server_crash`` on a node-local buffer, recorded when
#: every node-local buffer was built at set-up; building them on first
#: use must reproduce them exactly.  ``buf40`` holds no representative
#: in the collapsed run, so only the plan builds it.
#: label: (clients, servers, state, collapse, target) ->
#:        (max_elapsed, drained MiB, lost MiB, drain tail s)
NODE_LOCAL_CRASH_PINS = {
    "exact": ((8, 4, MiB, False, "buf3"),
              (0.0021360861567017555, 7.0, 1.0, 0.28628349920525054)),
    "collapsed": ((64, 8, 4 * MiB, True, "buf40"),
                  (0.004785135136816356, 256.0, 0.0, 1.176296293948293)),
}


class TestNodeLocalBufferCrash:
    @pytest.mark.parametrize("label", sorted(NODE_LOCAL_CRASH_PINS))
    def test_crash_on_a_node_local_buffer_matches_the_eager_fleet(self, label):
        from repro.machine.presets import red_storm

        (clients, servers, state, collapse, target), pins = NODE_LOCAL_CRASH_PINS[label]
        tier = TierSpec(mode="buffer", placement="node-local",
                        drain_bandwidth=4 * MiB, capacity_bytes=64 * MiB)
        r = run_checkpoint_trial(
            "lwfs", clients, servers, state_bytes=state, seed=7,
            spec=red_storm() if collapse else None,
            options=RunOptions(tiers=tier, faults=_crash_buffer(target), collapse=collapse),
        )
        e = r.extra
        assert (r.max_elapsed, e["buffer_drained_mb"], e["buffer_lost_mb"],
                e["buffer_drain_tail_s"]) == pins
        assert [(ent["action"], ent.get("services")) for ent in r.fault_log] == [
            ("inject", [target]), ("recover", None),
        ]

    def test_unknown_buffer_fails_with_one_line(self):
        tier = TierSpec(mode="buffer", placement="node-local")
        with pytest.raises(ValueError, match=r"'buf8' not in this deployment") as info:
            _trial(tier, faults=_crash_buffer("buf8"))
        assert "\n" not in str(info.value)
        assert "buf0..buf7" in str(info.value)
