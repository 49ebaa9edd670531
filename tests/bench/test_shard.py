"""Sharded simulation of one big run + fast-forward fallback contracts.

Contract under test:

* **accuracy** — a 128-client Red Storm slice split into server-group
  shards agrees with the single-process run within 1% on the figure of
  merit (the residual is the mean-field service split, pinned by the
  same tolerance as the ``shard`` CI gate);
* **determinism** — repeated sharded runs are bit-identical: the window
  schedule is derived analytically, and the barrier exchanges no
  simulation state;
* **fallback** — runs that need one global timeline (fault plans,
  tracing, ``lustre-shared``, the burst-buffer tier's drain) fall back
  to single-process execution with a one-time warning per reason;
* **fast-forward under chaos** — a fault plan disables the analytic
  epoch-skip engine, so every chaos scenario is bit-identical with
  ``fastforward=True`` and ``False`` (the fallback *is* the reference);
* **resource fit** — the executor caps ``jobs × shards`` at the core
  count, and the trial-cache key sees both scale-out kill switches.
"""

import os
import warnings

import pytest

from repro.bench import executor, run_checkpoint_trial, run_create_trial
from repro.bench.cache import trial_key
from repro.bench.executor import _clamp_jobs_for_shards, checkpoint_spec
from repro.bench.shard import plan_shards
from repro.gates import SHARD_REL_TOL
from repro.machine.presets import red_storm
from repro.sim.config import RunOptions, SimConfig
from repro.storage.buffer.tier import load_tiers
from repro.units import MiB

from ..faults.test_injection import SCENARIOS

#: The CI gate's Red Storm slice (see repro.gates._shard_grid).
N, M, STATE, SEED = 128, 32, 8 * MiB, 500

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: Same tolerance the ``shard`` gate enforces.
REL_TOL = SHARD_REL_TOL


def _ckpt(shards, **kw):
    opts = RunOptions(collapse=True, flow=True, shards=shards, **kw)
    return run_checkpoint_trial(
        "lwfs", N, M, state_bytes=STATE, seed=SEED, spec=red_storm(),
        options=opts,
    )


class TestPlanShards:
    def test_balanced_partition(self):
        plans = plan_shards(10, 7, 3, seed=9)
        assert [p.n_servers for p in plans] == [3, 2, 2]
        assert [p.n_clients for p in plans] == [4, 3, 3]
        assert sum(p.service_scale for p in plans) == pytest.approx(1.0)
        for p in plans:
            assert p.txn_fanout_scale == 7 / p.n_servers

    def test_clamped_to_servers_and_clients(self):
        assert len(plan_shards(100, 2, 8, seed=0)) == 2
        assert len(plan_shards(3, 100, 8, seed=0)) == 3
        assert len(plan_shards(8, 8, 0, seed=0)) == 1

    def test_distinct_seeds(self):
        seeds = [p.seed for p in plan_shards(16, 8, 4, seed=11)]
        assert len(set(seeds)) == 4


class TestShardAccuracy:
    def test_checkpoint_within_tolerance(self):
        single = _ckpt(shards=1)
        sharded = _ckpt(shards=2)
        assert sharded.extra["shards"] == 2
        assert sharded.extra["window_barriers"] > 0
        rel = abs(sharded.throughput_mb_s - single.throughput_mb_s)
        rel /= single.throughput_mb_s
        assert rel <= REL_TOL, f"sharded drifted {rel:.2%} (> {REL_TOL:.0%})"

    def test_create_within_tolerance(self):
        kw = dict(creates_per_client=8, seed=SEED, spec=red_storm())
        single = run_create_trial(
            "lwfs", 64, 16, options=RunOptions(shards=1), **kw)
        sharded = run_create_trial(
            "lwfs", 64, 16, options=RunOptions(shards=2), **kw)
        rel = abs(sharded.extra["creates_per_s"] - single.extra["creates_per_s"])
        rel /= single.extra["creates_per_s"]
        assert rel <= REL_TOL, f"sharded creates drifted {rel:.2%}"

    def test_repeat_runs_bit_identical(self):
        first, second = _ckpt(shards=2), _ckpt(shards=2)
        assert first.throughput_mb_s == second.throughput_mb_s
        assert first.max_elapsed == second.max_elapsed
        assert first.mean_elapsed == second.mean_elapsed
        assert first.extra == second.extra


class TestShardFallback:
    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self, monkeypatch):
        monkeypatch.setattr(executor, "_WARNED_KEYS", set())

    def test_faults_fall_back(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(rpc_drop_rate=0.05, seed=SEED)
        with pytest.warns(RuntimeWarning, match="global timeline"):
            r = _ckpt(shards=2, faults=plan)
        # Single-process results carry no shard markers.
        assert "shards" not in r.extra
        assert r.fault_log is not None

    def test_trace_falls_back(self):
        with pytest.warns(RuntimeWarning, match="span timeline"):
            r = run_checkpoint_trial(
                "lwfs", 8, 4, state_bytes=STATE, seed=SEED,
                options=RunOptions(trace=True, shards=2),
            )
        assert "shards" not in r.extra
        assert r.trace is not None

    def test_lustre_shared_falls_back(self):
        with pytest.warns(RuntimeWarning, match="every OST"):
            r = run_checkpoint_trial(
                "lustre-shared", 8, 4, state_bytes=STATE, seed=SEED,
                options=RunOptions(shards=2),
            )
        assert "shards" not in r.extra

    def test_buffer_tier_falls_back(self):
        # The tier's drain barrier runs on the global timeline: a sharded
        # run must not drop it (and with it every buffer_* stat).
        tiers = load_tiers(os.path.join(EXAMPLES, "tiers", "nvram_node_local.json"))

        def run(shards):
            return run_checkpoint_trial(
                "lwfs", 16, 4, state_bytes=STATE, seed=SEED,
                options=RunOptions(tiers=tiers, shards=shards),
            )

        with pytest.warns(RuntimeWarning, match="buffer tier"):
            r = run(2)
        e = r.extra
        assert e["buffer_absorbed_mb"] == pytest.approx(
            e["buffer_drained_mb"] + e["buffer_lost_mb"], rel=1e-9)
        assert e == run(1).extra

    def test_warns_once_per_reason(self):
        with pytest.warns(RuntimeWarning):
            run_checkpoint_trial(
                "lustre-shared", 8, 4, state_bytes=STATE, seed=SEED,
                options=RunOptions(shards=2),
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_checkpoint_trial(
                "lustre-shared", 8, 4, state_bytes=STATE, seed=SEED,
                options=RunOptions(shards=2),
            )


class TestChaosFastForwardFallback:
    """A fault plan forces the epoch-skip engine off; the fallback must
    reproduce the reference (``fastforward=False``) timeline bit-exact on
    every chaos scenario."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bit_identical_with_and_without_fastforward(self, name):
        impl, mk = SCENARIOS[name]

        def run(fastforward):
            return run_checkpoint_trial(
                impl, 8, 4, state_bytes=STATE, seed=42,
                options=RunOptions(flow=True, faults=mk(),
                                   fastforward=fastforward),
            )

        fast, ref = run(True), run(False)
        assert fast.extra.get("events_fast_forwarded", 0) == 0
        assert fast.max_elapsed == ref.max_elapsed
        assert fast.mean_elapsed == ref.mean_elapsed
        assert fast.extra == ref.extra
        assert fast.fault_log == ref.fault_log


class TestExecutorClamp:
    def _specs(self, shards):
        return [checkpoint_spec(
            "lwfs", 8, 4, seed=1, state_bytes=STATE,
            options=RunOptions(shards=shards),
        )]

    def test_unsharded_specs_untouched(self):
        assert _clamp_jobs_for_shards(8, self._specs(1)) == 8

    def test_oversubscription_capped(self, monkeypatch):
        import repro.bench.executor as executor

        monkeypatch.setattr(executor.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(executor, "_WARNED_KEYS", set())
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            assert _clamp_jobs_for_shards(8, self._specs(4)) == 2
        # Fits within the cores: untouched, no warning.
        assert _clamp_jobs_for_shards(2, self._specs(4)) == 2

    def test_clamp_warning_fires_once_per_key(self, monkeypatch):
        import warnings

        import repro.bench.executor as executor

        monkeypatch.setattr(executor.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(executor, "_WARNED_KEYS", set())
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            _clamp_jobs_for_shards(8, self._specs(4))
        # Same clamp again: still capped, but the warning is deduplicated.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _clamp_jobs_for_shards(8, self._specs(4)) == 2
        # The helper reports dedup status and keys independently.
        monkeypatch.setattr(executor, "_WARNED_KEYS", set())
        with pytest.warns(RuntimeWarning):
            assert executor._warn_once("k1", "first") is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert executor._warn_once("k1", "repeat") is False
        with pytest.warns(RuntimeWarning):
            assert executor._warn_once("k2", "other key") is True


class TestCacheKeySensitivity:
    def test_trial_key_follows_the_resolved_options(self, monkeypatch):
        spec = checkpoint_spec("lwfs", 8, 4, seed=1, state_bytes=STATE)
        monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        base = trial_key(spec)
        # REPRO_SHARD=0 and unset both resolve to one shard: one cache line.
        monkeypatch.setenv("REPRO_SHARD", "0")
        assert trial_key(spec) == base
        monkeypatch.delenv("REPRO_SHARD")
        # A resolved difference separates the lines, whichever way it
        # was set.
        monkeypatch.setenv("REPRO_FASTFORWARD", "0")
        no_ff = trial_key(spec)
        monkeypatch.delenv("REPRO_FASTFORWARD")
        sharded = trial_key(checkpoint_spec(
            "lwfs", 8, 4, seed=1, state_bytes=STATE, options=RunOptions(shards=2)))
        assert len({base, no_ff, sharded}) == 3


def test_txn_fanout_scale_validated():
    with pytest.raises(ValueError, match="txn_fanout_scale"):
        SimConfig(txn_fanout_scale=0.5)
