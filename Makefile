PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-quick trace-quick scale-quick flow-quick chaos-quick shard-quick metrics-quick traffic-quick buffer-quick

# Tier-1 suite; deprecation warnings are errors, and a run must leave
# the worktree clean (no test writes a tracked file).
test:
	$(PYTHON) -m pytest -x -q -W error::DeprecationWarning

# Full benchmark grid (prints tables; writes results/*.json).
bench:
	$(PYTHON) -m pytest benchmarks -q -s

# CI smoke: a quick sweep fanned over 2 worker processes, re-run serially,
# asserted bit-identical.  Per-trial stats land in BENCH_sweep.json.
bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m repro.bench.executor --jobs 2 --check-determinism

# Scale-out smoke: cold-vs-warm trial cache (identical aggregates, all
# hits on the warm pass), kernel perf guard (fails if events/s drops
# below 0.7x the BENCH_kernel.json baseline), and one collapsed
# checkpoint point printed next to its representative/multiplicity stats.
scale-quick:
	REPRO_BENCH_QUICK=1 REPRO_BENCH_CACHE_DIR=$$(mktemp -d) \
		$(PYTHON) -m repro.bench.executor --jobs 2 --check-cache
	$(PYTHON) benchmarks/check_kernel_perf.py
	$(PYTHON) -m repro checkpoint --impl lustre-fpp --clients 64 --servers 16 \
		--state-mb 16 --collapse

# Flow-level smoke: the flow accuracy grid run exact and fluid, failing
# if any point's figure of merit drifts more than 1%; then the kernel
# events/s guard in the same job so a flow-engine slowdown on the exact
# path cannot hide behind the fluid one.
flow-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m repro.bench.executor --jobs 2 --check-flow
	$(PYTHON) benchmarks/check_kernel_perf.py

# Fast-forward / sharding smoke: the fast-forward equivalence gate (a
# small grid run with the analytic epoch-skip engine ON and OFF must be
# bit-identical) and the shard tolerance gate (a 128-client Red Storm
# slice run single-process vs 2 shards must agree within 1%, and a
# sharded re-run must be bit-identical); then the kernel events/s guard
# so the fast-forward path cannot regress raw event throughput either.
shard-quick:
	$(PYTHON) -m repro.bench.executor --check-fastforward --check-shard
	$(PYTHON) benchmarks/check_kernel_perf.py

# Chaos smoke: a seeded fault plan exercising every injector kind runs
# twice and must produce bit-identical fault logs / recovery counters /
# timelines; then the three stacks run faults-off and must match the
# pinned pre-fault-subsystem timelines exactly (the subsystem is free
# when disabled).  Finishes with one fault-injected CLI trial so the
# --faults path stays wired.
chaos-quick:
	$(PYTHON) -m repro.faults
	$(PYTHON) -m repro checkpoint --clients 8 --servers 4 --state-mb 8 \
		--seed 42 --faults examples/faults/storage_crash.json

# Metrics smoke: four gates in one module run — (1) a metered run's
# simulated timeline is bit-identical to an unmetered one and the event
# count grows by exactly the sampler's ticks, (2) metered wall-clock
# stays within 5% of plain (best-of-5, interleaved), (3) the exported
# document validates against repro-metrics/v1 and round-trips JSON,
# (4) the storage-crash health check: a degraded-goodput window is
# reported and the series-derived time-to-recovery lands within 5% of
# the injector's degraded_seconds.  Writes results/metrics_quick.json
# and the rendered results/metrics_dashboard.html (the CI artifact).
metrics-quick:
	$(PYTHON) -m repro.metrics

# Traffic smoke: five gates in one module run — workload-spec JSON
# round-trip, seeded-run determinism, the REPRO_TENANT_COLLAPSE kill
# switch bit-identical at multiplicity 1, collapse accuracy within 1%
# at class sizes of 10^3, and scale invariance (100x the tenants at
# constant rate: same session count, same event count).  Writes
# results/traffic_quick.json; finishes with one CLI trial driven by the
# example workload so the --workload path stays wired.
traffic-quick:
	$(PYTHON) -m repro.workload
	$(PYTHON) -m repro traffic --workload examples/workloads/diurnal_mixed.json \
		--servers 8 --seed 1

# Burst-buffer smoke: five gates in one module run — TierSpec JSON
# round-trip + signature stability, the REPRO_TIERS kill switch
# (passthrough bit-identical to the direct path with collapse/flow off
# and on), the absorb speedup with the burst fitting the pool, visible
# backpressure when it does not, and seeded-bit-identical crash-mid-
# drain recovery (buffer loses, hostlog re-drives).  Writes
# results/buffer_quick.json; then the buffer crossover gate on the Red
# Storm slice (>= 5x over direct, drain-limited point attributed), and
# one CLI trial driven by an example tier spec so --tiers stays wired.
buffer-quick:
	$(PYTHON) -m repro.storage.buffer
	REPRO_BENCH_QUICK=1 $(PYTHON) -m repro.bench.executor --check-buffer
	$(PYTHON) -m repro checkpoint --clients 8 --servers 4 --state-mb 8 \
		--tiers examples/tiers/nvram_node_local.json

# One traced checkpoint trial: phase report, timeline, and Chrome trace
# JSON (results/trace_quick.json), schema-validated.
trace-quick:
	$(PYTHON) -m repro trace --clients 8 --servers 4 --state-mb 8 \
		--out results/trace_quick.json
	$(PYTHON) -c "import json, sys; sys.path.insert(0, 'src'); \
		from repro.trace import validate_chrome_trace; \
		errors = validate_chrome_trace(json.load(open('results/trace_quick.json'))); \
		sys.exit('\n'.join(errors) if errors else 0)"
