"""Host-time benchmark of the LWFS simulator on four named workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ckpt_redstorm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload, one table

``--trace 0`` times whole trials with tracing off and reports the
end-to-end metrics (``trial_s``, ``setup_s``, ``peak_rss_mb``,
``durable_frac``; the raw ``trial_wall_s`` and ``failed_frac`` are printed
beside them).  ``--trace 1`` alternates untraced and traced trials and
reports the per-layer metrics.
Every trial's simulated outputs are checked (see ``README.md``).  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (trials, and trials that raised or failed
the check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Trials timed in a run at the least, whatever ``--seconds`` says.
MIN_TRIALS = 3
#: The end-to-end metrics of ``BENCHMARK.json``, in its order.
END_TO_END = ("trial_s", "setup_s", "peak_rss_mb", "durable_frac")


def refuse_repro_env() -> None:
    """``REPRO_*`` variables override explicit ``RunOptions`` inside the
    program (some are read at import), so a run under them measures
    another configuration."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if names:
        sys.exit(f"perfbench: refusing to run with {', '.join(names)} set; unset them")


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


#: Seconds the calibration loop takes on the reference host.  ``trial_s``
#: and ``setup_s`` are host seconds scaled to that speed.
CALIB_REF_S = 0.2


class _Node:
    __slots__ = ("t", "nxt", "data")

    def __init__(self, t: int, data: dict) -> None:
        self.t = t
        self.nxt = None
        self.data = data

    def __lt__(self, other: "_Node") -> bool:
        return self.t < other.t


def calibration_loop() -> float:
    """Seconds of a fixed pure-Python job shaped like the simulator's hot
    path: allocate a few MiB of small linked objects, chase the links,
    and keep a heap of them ordered by a Python ``__lt__``.  It does not
    use the program, so a change to the program cannot move it."""
    start = time.perf_counter()
    n = 40_000
    nodes = [_Node((i * 7919) % 100_003, {"i": i}) for i in range(n)]
    for i, node in enumerate(nodes):
        node.nxt = nodes[(i + 7_919) % n]
    heap: list = []
    node = nodes[0]
    for _ in range(n):
        node.data["i"] += 1
        heapq.heappush(heap, node)
        if len(heap) > 5_000:
            heapq.heappop(heap)
        node = node.nxt
    return time.perf_counter() - start


def calibrate() -> float:
    """``host.calib_s``: the median of three calibration loops."""
    return statistics.median(calibration_loop() for _ in range(3))


def settle() -> None:
    """Collect garbage twice: the second pass frees what the first one's
    finalizers left.  The previous trial's heap then costs the next
    timed region nothing."""
    gc.collect()
    gc.collect()


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux), so the
    peak covers trials only, not the calibration loop between them."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # no reset: the peak then covers the whole process


def read_peak_rss_mb() -> float:
    """High-water resident set since the last reset, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance() -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, check=False).stdout
        dirty = bool(status.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least 10 samples beyond it, or None."""
    n = len(values)
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = (p, statistics.quantiles(values, n=100, method="inclusive")[p - 1])
    return best


class Timed(NamedTuple):
    wall: float
    setup: float
    outcome: object


class Runner:
    """Runs, times and checks trials of one workload."""

    def __init__(self, workload, seed: int, probe) -> None:
        from workloads import DEFAULT_SEED, check_pins, load_pins

        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.pinned = load_pins()[workload.name] if seed == DEFAULT_SEED else None
        self._check_pins = check_pins
        self.reference = None
        self.attempted_ops = 0.0
        self.failed_ops = 0.0
        self.trials = 0
        self.bad_trials = 0
        self.problems: list = []
        #: Calibration-loop seconds taken before calibrated trials.
        self.calibration: list = []
        #: High-water resident set over the trials, in MiB.
        self.peak_rss_mb = 0.0

    def trial(self, profiler=None, gc_timer=None, calibrated=False) -> Timed:
        """One checked trial; its ``outcome`` is None if it failed.

        ``profiler`` and ``gc_timer`` are switched on for the trial call
        only, after the between-trial collections.  ``calibrated`` runs
        the calibration loop just before the trial.
        """
        settle()
        if calibrated:
            self.calibration.append(calibration_loop())
            settle()
        self.probe.reset()
        reset_peak_rss()
        self.trials += 1
        if gc_timer is not None:
            gc.callbacks.append(gc_timer)
        if profiler is not None:
            profiler.enable()
        start = time.perf_counter()
        try:
            outcome = self.workload.run(self.seed, self.probe)
        except Exception as exc:  # a raising trial is a measured failure
            outcome = None
            error = f"trial raised {type(exc).__name__}: {exc}"
        finally:
            wall = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
            if gc_timer is not None:
                gc.callbacks.remove(gc_timer)
        if outcome is None:
            self._fail(error, self.workload.nominal_ops)
        self.peak_rss_mb = max(self.peak_rss_mb, read_peak_rss_mb())
        if outcome is not None:
            outcome = self._check(outcome)
        return Timed(wall, self.probe.setup_s(), outcome)

    def _check(self, outcome):
        """The checked outcome, or None when the output check fails."""
        errors = list(outcome.errors)
        if self.reference is None:
            self.reference = outcome.outputs
            if self.pinned is not None:
                errors += self._check_pins(self.workload, outcome.outputs, self.pinned)
        elif outcome.outputs != self.reference:
            errors.append("simulated outputs differ from the run's first trial")
        if errors:
            self._fail("; ".join(errors), outcome.attempted)
            return None
        self.attempted_ops += outcome.attempted
        self.failed_ops += outcome.failed
        return outcome

    def _fail(self, problem: str, ops: float) -> None:
        """Count a trial that raised or failed its check: all its ops failed."""
        self.bad_trials += 1
        self.attempted_ops += ops
        self.failed_ops += ops
        problem = problem[:300]
        if problem not in self.problems:
            self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed_ops / self.attempted_ops if self.attempted_ops else 1.0


def measure_end_to_end(runner, seconds: float) -> dict:
    """Timed trials, tracing off, until the budget is spent.

    Returns ``{name: (value, unit, samples or None)}``; the first four
    are the end-to-end metrics, the rest are printed beside them.
    """
    runner.trial()  # warm-up: lazy imports; its outputs are the reference
    runs = []
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(runner.trial(calibrated=True))
        spent = time.perf_counter() - begin
        if len(runs) >= MIN_TRIALS and spent + (time.perf_counter() - t) > seconds:
            break
    settle()
    runner.calibration.append(calibration_loop())
    # Co-tenants swing a shared host's speed by up to 2x within seconds.
    # Scaling by the calibration loop, run between trials, reports each
    # time at the reference host's speed.
    scale = CALIB_REF_S / statistics.median(runner.calibration)
    walls = [r.wall for r in runs]
    setups = [r.setup for r in runs]
    trial_s = [w * scale for w in walls]
    setup_s = [s * scale for s in setups]
    return {
        "trial_s": (statistics.median(trial_s), "s", trial_s),
        "setup_s": (statistics.median(setup_s), "s", setup_s),
        "peak_rss_mb": (runner.peak_rss_mb, "MiB", None),
        "durable_frac": (1.0 - runner.failed_frac, "ratio", None),
        "trial_wall_s": (statistics.median(walls), "s", walls),
        "setup_wall_s": (statistics.median(setups), "s", setups),
        "failed_frac": (runner.failed_frac, "ratio", None),
    }


def measure_layers(runner, seconds: float, calib_s: float, name: str) -> dict:
    """Untraced and traced trials in turn; per-layer metrics of the traced ones."""
    import cProfile

    from layers import PACKAGES, SETUP_KEYS, GCTimer, chrome_doc, layer_self_s, self_times
    from repro.trace import validate_chrome_trace

    untraced = runner.probe
    traced = type(untraced)(traced=True)
    runner.trial()  # warm-up and reference outputs
    profiler = cProfile.Profile()
    gc_timer = GCTimer(traced)
    plain_walls, plain_loops, traced_walls = [], [], []
    setup = dict.fromkeys(SETUP_KEYS, 0.0)
    counters: dict = {}
    begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain_walls.append(runner.trial().wall)
        plain_loops.append(untraced.loop_s())
        untraced.uninstall()
        traced.install()
        runner.probe = traced
        try:
            timed = runner.trial(profiler, gc_timer)
        finally:
            traced.uninstall()
            untraced.install()
            runner.probe = untraced
        traced_walls.append(timed.wall)
        for key in SETUP_KEYS:
            setup[key] += traced.setup.get(key, 0.0)
        if timed.outcome is not None:
            counters = timed.outcome.counters
        spent = time.perf_counter() - begin
        if spent + (time.perf_counter() - t) > seconds:
            break

    n = len(traced_walls)
    traced_wall = statistics.median(traced_walls)
    self_s = {k: v / n for k, v in layer_self_s(self_times(profiler)).items()}
    loop_s = statistics.median(plain_loops)
    events = counters.get("events", 0.0)
    ops = counters.get("workload_ops", 0.0)
    absorbed = counters.get("absorbed_mb", 0.0)
    ff = counters.get("fast_forwarded", 0.0)
    metrics = {key: (value, "s") for key, value in self_s.items()}
    # Packages, other repro modules and non-repro code partition the
    # profile; modules are subsets of their packages.
    covered = sum(self_s[f"{pkg}.self_s"] for pkg in PACKAGES)
    covered += self_s["repro.other.self_s"] + self_s["other.self_s"]
    metrics["profile.coverage"] = (covered / (sum(traced_walls) / n), "ratio")
    metrics.update({key: (value / n, "s") for key, value in setup.items()})
    metrics.update({
        "simkernel.loop_s": (loop_s, "s"),
        "simkernel.events": (events, "count"),
        "simkernel.events_per_s": (events / loop_s if loop_s else 0.0, "1/s"),
        "simkernel.peak_queue": (counters.get("peak_queue", 0.0), "count"),
        "simkernel.cancelled_frac": (
            counters.get("skipped", 0.0) / (counters.get("skipped", 0.0) + events)
            if events else 0.0, "ratio"),
        "gc.pause_s": (gc_timer.pause_s / n, "s"),
        "gc.collections": (gc_timer.collections / n, "count"),
        "network.flow.fast_forwarded": (ff, "count"),
        "network.flow.ff_frac": (ff / (ff + events) if events else 0.0, "ratio"),
        "network.flow.rate_recomputes": (counters.get("rate_recomputes", 0.0), "count"),
        "sim.ranks_simulated": (counters.get("ranks_simulated", 0.0), "count"),
        "sim.max_multiplicity": (counters.get("max_multiplicity", 0.0), "count"),
        "workload.ops": (ops, "count"),
        "workload.events_per_op": (events / ops if ops else 0.0, "ratio"),
        "faults.retries": (counters.get("retries", 0.0), "count"),
        "faults.recovered_ops": (counters.get("recovered_ops", 0.0), "count"),
        "faults.ckpt_restarts": (counters.get("ckpt_restarts", 0.0), "count"),
        "storage.buffer.absorbed_mb": (absorbed, "MiB"),
        "storage.buffer.lost_frac": (
            counters.get("lost_mb", 0.0) / absorbed if absorbed else 0.0, "ratio"),
        "storage.buffer.drain_retries": (counters.get("drain_retries", 0.0), "count"),
        "storage.buffer.backpressure_s": (counters.get("backpressure_s", 0.0), "sim_s"),
        "failed_frac": (runner.failed_frac, "ratio"),
        "trace.overhead_s": (traced_wall - statistics.median(plain_walls), "s"),
        "host.calib_s": (calib_s, "s"),
    })
    doc = chrome_doc(traced.spans, {"workload": name, "seed": runner.seed})
    errors = validate_chrome_trace(doc)
    if errors:
        runner.problems.append(f"chrome trace invalid: {errors[0]}")
        runner.bad_trials += 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-trace.json", "w") as fh:
        json.dump(doc, fh)
    return {key: (value, unit, None) for key, (value, unit) in metrics.items()}


def run_one(args) -> int:
    import_program()
    from layers import Probe
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(WORKLOADS)} or all")
    if args.pin:
        return write_pin(workload, Probe().install())
    calib_s = calibrate()
    runner = Runner(workload, args.seed, Probe().install())
    if args.trace:
        metrics = measure_layers(runner, args.seconds, calib_s, workload.name)
    else:
        metrics = measure_end_to_end(runner, args.seconds)

    info = provenance()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"trials={runner.trials} host.calib_s={calib_s:.4f} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, (value, unit, samples) in metrics.items():
        line = f"  {key:32s} {value:.6g} {unit}"
        if samples is not None:
            tail = tail_percentile(samples)
            line += f"  (median of {len(samples)}; " + (
                f"p{tail[0]} {tail[1]:.6g})" if tail else "no percentile has 10 beyond it)")
        print(line)
    print(f"  ({runner.failed_ops:.6g} of {runner.attempted_ops:.6g} simulated ops failed)")
    correct = runner.bad_trials == 0
    print("  check: " + ("ok" if correct else "FAILED: " + " | ".join(runner.problems)))

    declared = END_TO_END if not args.trace else metrics
    result = {
        "correct": correct,
        "attempted": runner.trials,
        "failed": runner.bad_trials,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  provenance=info, host_calib_s=calib_s, calibration_s=runner.calibration,
                  samples={k: s for k, (_, _, s) in metrics.items() if s is not None})
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def write_pin(workload, probe) -> int:
    """Record one default-seed trial's outputs as the workload's pins."""
    from workloads import DEFAULT_SEED, PINS, load_pins

    outcome = workload.run(DEFAULT_SEED, probe)
    if outcome.errors:
        sys.exit(f"perfbench: not pinning {workload.name}: {'; '.join(outcome.errors)}")
    pins = load_pins() if PINS.exists() else {}
    pins[workload.name] = outcome.outputs
    with open(PINS, "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(outcome.outputs)} outputs of {workload.name}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own; the
    last line sums up every workload's result."""
    import_program()
    from workloads import WORKLOADS

    status = 0
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        status |= 0 if rows[name]["correct"] else 1
    print(json.dumps({"correct": status == 0, "workloads": rows}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ckpt_redstorm, traffic_diurnal, paper_exact, ckpt_crash or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write the workload's default-seed outputs to pins.json")
    args = parser.parse_args(argv)
    refuse_repro_env()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
