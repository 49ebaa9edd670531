PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench gates

# Tier-1 suite; deprecation warnings are errors, and a run must leave
# the worktree clean (no test writes a tracked file).
test:
	$(PYTHON) -m pytest -x -q -W error::DeprecationWarning

# Full benchmark grid (prints tables; writes results/*.json).
bench:
	$(PYTHON) -m pytest benchmarks -q -s

# Every CI gate of repro.gates in one process, in CI order: bench,
# scale, flow, shard, chaos, traffic, buffer, metrics, trace, kernel
# (see the repro.gates docstring for what each checks).  Prints one
# [ok  ]/[FAIL] line per check, writes results/gates.json (per-gate
# wall_s and checks), and fails if any check failed.  The sweep gates
# record to BENCH_sweep.json on purpose.
gates:
	$(PYTHON) -m repro.gates

# One gate by name: make bench-quick, make kernel-quick, ...
%-quick: ; $(PYTHON) -m repro.gates $*
