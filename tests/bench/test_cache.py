"""Persistent trial cache: hits, invalidation-by-key, and escape hatches."""

import json
import os

import pytest

from repro.bench.cache import (
    CACHE_SCHEMA,
    TrialCache,
    default_cache_dir,
    trial_key,
)
from repro.bench.executor import (
    _trial_record,
    checkpoint_spec,
    create_spec,
    run_trials,
    workload_spec,
)
from repro.sim.config import RunOptions
from repro.storage.buffer.tier import load_tiers
from repro.units import MiB
from repro.workload import TenantClass, WorkloadSpec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def _specs():
    return [
        checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB),
        checkpoint_spec("lwfs", 2, 2, seed=101, state_bytes=2 * MiB),
        create_spec("lwfs", 2, 2, seed=100, creates_per_client=4),
    ]


def _warm_cold_specs():
    """One spec per trial kind, exercising the tier and metrics payloads."""
    tiers = load_tiers(os.path.join(EXAMPLES, "tiers", "nvram_node_local.json"))
    mix = WorkloadSpec(
        classes=(
            TenantClass(name="meta", tenants=40, rate=80.0,
                        op_mix=(("create", 1.0), ("getattr", 1.0)),
                        size_bytes=4096, representatives=2),
        ),
        horizon=0.5, quantum=0.05, warmup=0.1,
    )
    return [
        checkpoint_spec(
            "lwfs", 8, 4, seed=100, state_bytes=2 * MiB,
            options=RunOptions(collapse=True, tiers=tiers, metrics=True),
        ),
        create_spec("lwfs", 2, 2, seed=100, creates_per_client=4),
        workload_spec(mix, 2, seed=100),
    ]


class TestTrialKey:
    def test_stable_for_equal_specs(self):
        assert trial_key(_specs()[0]) == trial_key(_specs()[0])

    def test_sensitive_to_every_identity_field(self):
        base = checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB)
        variants = [
            checkpoint_spec("lustre-fpp", 2, 2, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 4, 2, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 4, seed=100, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 2, seed=101, state_bytes=2 * MiB),
            checkpoint_spec("lwfs", 2, 2, seed=100, state_bytes=4 * MiB),
            create_spec("lwfs", 2, 2, seed=100, state_bytes=2 * MiB),
        ]
        keys = {trial_key(v) for v in variants}
        assert trial_key(base) not in keys
        assert len(keys) == len(variants)

    def test_keyed_on_resolved_options(self, monkeypatch):
        spec = _specs()[0]
        base = trial_key(spec)
        # Options enter the key only in resolved form: an explicit
        # default and an unset knob share a cache line ...
        explicit = checkpoint_spec(
            "lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
            options=RunOptions(flow=False, shards=1),
        )
        assert trial_key(explicit) == base
        # ... as do an explicit value and the REPRO_* variable it mirrors.
        flowed = checkpoint_spec(
            "lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
            options=RunOptions(flow=True),
        )
        monkeypatch.setenv("REPRO_FLOW", "1")
        assert trial_key(spec) == trial_key(flowed) != base
        monkeypatch.delenv("REPRO_FLOW")
        # Names that are not run knobs never reach the key.
        monkeypatch.setenv("REPRO_KERNEL_LAZY", "0")
        monkeypatch.setenv("REPRO_FABRIC_FASTPATH", "0")
        assert trial_key(spec) == base


class TestEnvKnobs:
    def test_cache_enabled_env(self, monkeypatch):
        spec = _specs()[0]
        assert TrialCache.cacheable(spec)
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        assert not TrialCache.cacheable(spec)
        # An explicit value beats the environment.
        pinned = checkpoint_spec(
            "lwfs", 2, 2, seed=100, state_bytes=2 * MiB,
            options=RunOptions(cache=True),
        )
        assert TrialCache.cacheable(pinned)

    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_CACHE_DIR")
        assert default_cache_dir().endswith(os.path.join("results", ".trial-cache"))


class TestRunTrialsCaching:
    def test_cold_then_warm_identical(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        specs = _specs()

        cold = run_trials(specs, jobs=1, cache=store)
        assert [o.cached for o in cold] == [False, False, False]

        warm = run_trials(specs, jobs=1, cache=store)
        assert [o.cached for o in warm] == [True, True, True]
        for c, w in zip(cold, warm):
            assert w.value == c.value
            assert w.unit == c.unit
            assert w.result.extra["events_processed"] == c.result.extra["events_processed"]
            assert w.result.extra["sim_seconds"] == c.result.extra["sim_seconds"]

    @pytest.mark.parametrize("spec", _warm_cold_specs(), ids=lambda s: s.kind)
    def test_warm_result_equals_cold(self, tmp_path, spec):
        store = TrialCache(root=str(tmp_path))
        [cold] = run_trials([spec], jobs=1, cache=store)
        [warm] = run_trials([spec], jobs=1, cache=store)
        assert not cold.cached and warm.cached
        assert warm.result == cold.result
        assert (warm.value, warm.unit) == (cold.value, cold.unit)
        cold_row, warm_row = _trial_record(cold), _trial_record(warm)
        for row in (cold_row, warm_row):
            del row["wall_clock_s"], row["cached"]
        assert warm_row == cold_row

    def test_partial_warm_run(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        specs = _specs()
        run_trials(specs[:2], jobs=1, cache=store)
        outcomes = run_trials(specs, jobs=1, cache=store)
        assert [o.cached for o in outcomes] == [True, True, False]

    def test_cache_false_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        run_trials(_specs()[:1], jobs=1, cache=True)
        outcomes = run_trials(_specs()[:1], jobs=1, cache=False)
        assert not outcomes[0].cached

    def test_env_disable_bypasses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path))
        run_trials(_specs()[:1], jobs=1, cache=True)
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        outcomes = run_trials(_specs()[:1], jobs=1, cache=None)
        assert not outcomes[0].cached

    def test_traced_trials_never_cached(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = checkpoint_spec(
            "lwfs", 2, 2, seed=100, state_bytes=2 * MiB, options=RunOptions(trace=True)
        )
        first = run_trials([spec], jobs=1, cache=store)
        second = run_trials([spec], jobs=1, cache=store)
        assert not first[0].cached and not second[0].cached
        assert second[0].result.trace is not None
        assert not any(tmp_path.iterdir())

    def test_entry_layout_on_disk(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = _specs()[0]
        run_trials([spec], jobs=1, cache=store)
        key = trial_key(spec)
        path = tmp_path / key[:2] / (key + ".json")
        assert path.is_file()
        doc = json.loads(path.read_text())
        assert doc["schema"] == CACHE_SCHEMA
        assert doc["outcome"]["unit"] == "MB/s"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = TrialCache(root=str(tmp_path))
        spec = _specs()[0]
        good = run_trials([spec], jobs=1, cache=store)
        key = trial_key(spec)
        (tmp_path / key[:2] / (key + ".json")).write_text("{not json")
        again = run_trials([spec], jobs=1, cache=store)
        assert not again[0].cached
        assert again[0].value == good[0].value
