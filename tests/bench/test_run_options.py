"""RunOptions: the unified typed run configuration.

Contract under test:

* resolution order for every knob is explicit value > ``REPRO_*`` env >
  default, with no exception: no environment variable beats an
  explicit value;
* the trial functions take run configuration only through
  ``options=RunOptions(...)``;
* the bench trial-cache key folds the resolved options in (a fault plan
  changes the key; fault-injected trials are never cached at all);
* ``REPRO_*`` environment reads stay behind the single
  ``repro.sim.config.env_str`` gateway.
"""

import os

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial
from repro.bench.cache import TrialCache, trial_key
from repro.bench.executor import checkpoint_spec
from repro.faults import FaultEvent, FaultPlan
from repro.sim.config import RunOptions
from repro.units import MiB

STATE = 8 * MiB


class TestResolutionOrder:
    def test_defaults(self, monkeypatch):
        for env in RunOptions._ENV.values():
            monkeypatch.delenv(env, raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        opts = RunOptions().resolved()
        assert (opts.collapse, opts.flow, opts.trace) == (False, False, False)
        assert opts.cache is True
        assert opts.fastforward is True
        assert opts.shards == 1
        assert opts.faults is None

    def test_shard_env_and_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "4")
        assert RunOptions().resolved().shards == 4
        assert RunOptions(shards=2).resolved().shards == 2
        # REPRO_SHARD=0 means single-process when the count is unset, but
        # like every other variable it never beats an explicit value.
        monkeypatch.setenv("REPRO_SHARD", "0")
        assert RunOptions().resolved().shards == 1
        assert RunOptions(shards=4).resolved().shards == 4

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLLAPSE", "1")
        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        opts = RunOptions().resolved()
        assert opts.collapse is True
        assert opts.cache is False

    def test_explicit_beats_env(self, monkeypatch):
        # No exception: every boolean knob's explicit value beats its
        # REPRO_* variable in both directions.
        for name, env in RunOptions._ENV.items():
            for explicit in (False, True):
                monkeypatch.setenv(env, "0" if explicit else "1")
                opts = RunOptions(**{name: explicit}).resolved()
                assert getattr(opts, name) is explicit, (name, env)

    def test_falsey_env_spellings(self, monkeypatch):
        for raw in ("0", "false", "no", "FALSE"):
            monkeypatch.setenv("REPRO_TRACE", raw)
            assert RunOptions().resolved().trace is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert RunOptions().resolved().trace is True

    def test_faults_path_resolves_from_env(self, monkeypatch, tmp_path):
        plan = FaultPlan(events=(FaultEvent(
            kind="server_crash", at=0.1, target="stor0", duration=0.1),), seed=3)
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        monkeypatch.setenv("REPRO_FAULTS", path)
        assert RunOptions().resolved().faults == plan

    def test_faults_string_is_loaded_as_a_path(self, tmp_path):
        plan = FaultPlan(seed=4, rpc_drop_rate=0.01)
        path = str(tmp_path / "plan.json")
        plan.dump(path)
        assert RunOptions(faults=path).resolved().faults == plan

    def test_describe_is_json_stable(self):
        doc = RunOptions().describe()
        assert set(doc) == set(RunOptions._ENV) | {
            "faults", "shards", "metrics_period", "workload", "tiers",
        }
        assert doc["metrics_period"] is None  # "auto" is a real state
        assert doc["faults"] == ""
        assert doc["workload"] == ""
        assert doc["tiers"] == ""
        plan = FaultPlan(seed=9)
        assert RunOptions(faults=plan).describe()["faults"] == plan.signature()

    def test_describe_folds_in_the_workload_signature(self):
        from repro.workload import diurnal_mixed

        mix = diurnal_mixed(tenants=100, rate=5.0, horizon=2.0, quantum=0.5)
        assert RunOptions(workload=mix).describe()["workload"] == mix.signature()

    def test_describe_folds_in_the_tier_signature(self):
        from repro.storage.buffer import TierSpec

        tier = TierSpec(mode="buffer")
        assert RunOptions(tiers=tier).describe()["tiers"] == tier.signature()


class TestLegacyKwargsRemoved:
    @pytest.mark.parametrize(
        "fn", [run_checkpoint_trial, run_create_trial], ids=["checkpoint", "create"]
    )
    @pytest.mark.parametrize("name", ["trace", "collapse", "flow", "tiers"])
    def test_legacy_kwargs_are_rejected(self, fn, name):
        with pytest.raises(TypeError, match=name):
            fn("lwfs", 4, 2, seed=5, **{name: True})


class TestCacheKeySeparation:
    def _spec(self, **params):
        return checkpoint_spec("lwfs", 4, 2, seed=5, state_bytes=STATE, **params)

    def test_fault_plan_changes_the_key(self):
        plan = FaultPlan(events=(FaultEvent(
            kind="server_crash", at=0.1, target="stor0", duration=0.1),), seed=3)
        clean = trial_key(self._spec())
        faulted = trial_key(self._spec(options=RunOptions(faults=plan)))
        assert clean != faulted
        other = FaultPlan(events=(FaultEvent(
            kind="server_crash", at=0.2, target="stor0", duration=0.1),), seed=3)
        assert faulted != trial_key(self._spec(options=RunOptions(faults=other)))

    def test_every_resolved_knob_is_in_the_key(self, monkeypatch):
        base = trial_key(self._spec())
        assert trial_key(self._spec(options=RunOptions(collapse=True))) != base
        assert trial_key(self._spec(options=RunOptions(flow=True))) != base
        monkeypatch.setenv("REPRO_COLLAPSE", "1")
        assert trial_key(self._spec()) != base

    def test_fault_trials_are_never_cached(self):
        plan = FaultPlan(seed=3, rpc_drop_rate=0.01)
        assert TrialCache.cacheable(self._spec()) is True
        assert TrialCache.cacheable(
            self._spec(options=RunOptions(faults=plan))) is False
        assert TrialCache.cacheable(self._spec(options=RunOptions(trace=True))) is False
        assert TrialCache.cacheable(self._spec(options=RunOptions(cache=False))) is False


class TestEnvReadWhitelist:
    #: The single env_str gateway.  Nothing else in src/repro may touch
    #: os.environ.
    WHITELIST = {os.path.join("sim", "config.py")}

    def test_no_stray_environment_reads(self):
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        offenders = []
        for dirpath, _, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                if ("os.environ" in source or "getenv" in source) \
                        and rel not in self.WHITELIST:
                    offenders.append(rel)
        assert not offenders, (
            f"REPRO_* reads outside repro.sim.config.env_str: {offenders}"
        )
