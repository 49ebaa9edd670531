"""Self-tests of the benchmark's checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from layers import Probe  # noqa: E402
from workloads import WORKLOADS, Trial, Workload, check_pins, load_pins  # noqa: E402


def _perturbed(outputs, key, factor):
    out = dict(outputs)
    out[key] = out[key] * factor
    return out


def test_pins_cover_every_workload():
    assert set(load_pins()) == set(WORKLOADS)


def test_exact_workload_fails_on_one_ulp():
    pinned = load_pins()["paper_exact"]
    assert check_pins(WORKLOADS["paper_exact"], dict(pinned), pinned) == []
    key = "lwfs.dump.mb_s"
    out = dict(pinned)
    out[key] = math.nextafter(out[key], math.inf)
    errors = check_pins(WORKLOADS["paper_exact"], out, pinned)
    assert len(errors) == 1 and key in errors[0]


def test_approximate_workload_allows_one_percent():
    pinned = load_pins()["ckpt_crash"]
    workload = WORKLOADS["ckpt_crash"]
    assert check_pins(workload, _perturbed(pinned, "lwfs.mb_s", 1.005), pinned) == []
    assert check_pins(workload, _perturbed(pinned, "lwfs.mb_s", 1.02), pinned)
    assert check_pins(workload, _perturbed(pinned, "lwfs.buffer_lost_mb", 0.98), pinned)


def test_missing_output_fails():
    pinned = load_pins()["traffic_diurnal"]
    out = dict(pinned)
    out.pop(next(iter(out)))
    assert check_pins(WORKLOADS["traffic_diurnal"], out, pinned)


def _fake(run_fn, nominal=1000.0):
    return Workload("fake", exact=True, nominal_ops=nominal, run=run_fn)


def test_raising_trial_counts_all_its_ops_as_failed():
    def boom(seed, probe):
        raise RuntimeError("simulated crash")

    runner = run.Runner(_fake(boom), seed=7, probe=Probe())
    timed = runner.trial()
    assert timed.outcome is None and timed.wall >= 0.0
    assert (runner.trials, runner.bad_trials) == (1, 1)
    assert runner.attempted_ops == runner.failed_ops == 1000.0
    assert runner.failed_frac == 1.0
    assert "RuntimeError" in runner.problems[0]


def test_trial_that_changes_its_outputs_fails_the_check():
    values = iter([1.0, 1.0, 2.0])

    def drifting(seed, probe):
        return Trial(outputs={"x": next(values)}, attempted=10.0, failed=1.0)

    runner = run.Runner(_fake(drifting), seed=7, probe=Probe())
    for _ in range(3):
        runner.trial()
    assert (runner.trials, runner.bad_trials) == (3, 1)
    # Two good trials: 1 of 10 failed each; the drifting one: 10 of 10.
    assert runner.failed_frac == pytest.approx(12.0 / 30.0)


def test_invariant_violation_fails_the_check():
    def broken(seed, probe):
        return Trial(outputs={"x": 1.0}, attempted=4.0, errors=["3 of 4 ranks returned"])

    runner = run.Runner(_fake(broken), seed=7, probe=Probe())
    runner.trial()
    assert runner.bad_trials == 1 and runner.failed_frac == 1.0


def _bench(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_repro_env_guard_exits_nonzero():
    env = dict(os.environ, REPRO_FLOW="0")
    proc = _bench(["--workload", "paper_exact", "--seconds", "1"], ROOT, env)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "REPRO_FLOW" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = _bench(["--workload", "paper_exact", "--seconds", "1"], tmp_path, env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _constant(seed, probe):
    return Trial(outputs={"x": 1.0}, attempted=10.0)


def test_reported_metrics_are_the_declared_ones():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    runner = run.Runner(_fake(_constant), seed=7, probe=Probe())
    end_to_end = run.measure_end_to_end(runner, seconds=0.0)
    assert list(end_to_end)[:4] == [m["name"] for m in doc["end_to_end"]]
    assert list(run.END_TO_END) == [m["name"] for m in doc["end_to_end"]]
    assert end_to_end["durable_frac"][0] == 1.0
    probe = Probe().install()
    try:
        runner = run.Runner(_fake(_constant), seed=7, probe=probe)
        per_layer = run.measure_layers(runner, 0.0, 0.1, "selftest")
    finally:
        probe.uninstall()
    assert sorted(per_layer) == sorted(m["name"] for m in doc["per_layer"])
    assert runner.bad_trials == 0
