"""Symmetric-client collapsing: representatives + multiplicity weights.

Contract under test:

* multiplicity 1 (every equivalence class a singleton) reduces exactly to
  the unweighted code — bit-identical figures of merit;
* multiplicity > 1 approximates the exact run, tightly on the RAID-bound
  Red Storm model the feature targets, loosely at toy dev-cluster scale;
* collapsed trials advertise themselves (``ranks_simulated``,
  ``max_multiplicity``) so downstream tooling can tell approximation
  from measurement.
"""

import pytest

from repro.bench import run_checkpoint_trial, run_create_trial
from repro.machine import red_storm
from repro.sim import SimConfig
from repro.sim.config import RunOptions
from repro.units import MiB

IMPLS = ("lwfs", "lustre-fpp", "lustre-shared")


def _pair(impl, n, m, collapse_only=False, **kw):
    exact = run_checkpoint_trial(impl, n, m, seed=7, **kw)
    coll = run_checkpoint_trial(
        impl, n, m, seed=7, options=RunOptions(collapse=True), **kw
    )
    return exact, coll


class TestSingletonIdentity:
    """At multiplicity 1 the weighted paths must be the old code, exactly."""

    @pytest.mark.parametrize(
        "impl,state",
        [
            ("lwfs", 8 * MiB),
            ("lustre-fpp", 8 * MiB),
            # 4 MiB = one stripe per OST: every phase class is a singleton.
            ("lustre-shared", 4 * MiB),
        ],
    )
    def test_checkpoint_bit_identical(self, impl, state):
        exact, coll = _pair(impl, 4, 4, state_bytes=state)
        assert coll.extra["max_multiplicity"] == 1
        assert coll.extra["ranks_simulated"] == 4
        assert coll.throughput_mb_s == exact.throughput_mb_s
        assert coll.max_elapsed == exact.max_elapsed
        assert coll.mean_elapsed == exact.mean_elapsed


class TestCollapsedApproximation:
    @pytest.mark.parametrize("impl", IMPLS)
    def test_redstorm_midscale_within_tolerance(self, impl):
        """The target regime: RAID-bound machine, real multiplicities.

        Measured errors at this point: lwfs 2.0%, fpp 3.9%, shared 0.5%
        (and <1% at the full 128-client slice in bench_ext_redstorm).
        """
        kw = dict(
            spec=red_storm(), config=SimConfig(seed=7), state_bytes=16 * MiB
        )
        exact, coll = _pair(impl, 64, 16, **kw)
        assert coll.extra["max_multiplicity"] > 1
        assert coll.extra["ranks_simulated"] < 64 // 2
        rel = abs(coll.throughput_mb_s - exact.throughput_mb_s) / exact.throughput_mb_s
        assert rel <= 0.06, (impl, coll.throughput_mb_s, exact.throughput_mb_s)

    @pytest.mark.parametrize("impl", IMPLS)
    def test_devcluster_smallscale_sane(self, impl):
        """Toy scale is explicitly approximate — just keep it in the room."""
        exact, coll = _pair(impl, 8, 4, state_bytes=8 * MiB)
        assert coll.extra["max_multiplicity"] > 1
        rel = abs(coll.throughput_mb_s - exact.throughput_mb_s) / exact.throughput_mb_s
        assert rel <= 0.35, (impl, coll.throughput_mb_s, exact.throughput_mb_s)

    def test_create_trial_collapse(self):
        exact = run_create_trial("lwfs", 8, 4, seed=7, creates_per_client=8)
        coll = run_create_trial(
            "lwfs", 8, 4, seed=7, creates_per_client=8,
            options=RunOptions(collapse=True),
        )
        assert coll.extra["max_multiplicity"] > 1
        assert coll.extra["ranks_simulated"] < 8
        rel = abs(coll.extra["creates_per_s"] - exact.extra["creates_per_s"])
        rel /= exact.extra["creates_per_s"]
        assert rel <= 0.35

    def test_exact_trials_carry_no_collapse_fields(self):
        exact = run_checkpoint_trial("lwfs", 4, 2, seed=7, state_bytes=4 * MiB)
        assert "ranks_simulated" not in exact.extra
        assert "max_multiplicity" not in exact.extra
