# Stable collection order and hashes across runs: the differential oracle
# (tests/test_differential.py) compares every route to an exhibit with the
# cold serial answer bit for bit, so the harness itself must be deterministic.
# -p no:randomly is a no-op unless pytest-randomly happens to be installed.
PYTEST = PYTHONHASHSEED=0 PYTHONPATH=src python -m pytest -p no:randomly

.PHONY: check test parallel stress bench-pairs

# Fast development loop, the differential oracle included: everything
# except the multi-million-row stress guards and the pool-spawning tests.
check:
	$(PYTEST) -x -q -m "not stress and not parallel"

# The full tier-1 suite, stress guards included.
test:
	$(PYTEST) -x -q

# Only the pool-spawning tests (slow on few cores): pooled what-if sweeps
# equal to serial ones at jobs=N, traced pooled sweeps, the fabric units.
parallel:
	$(PYTEST) -x -q -m parallel

# Only the scale guards (generate + analyze millions of rows, serve
# across many appends; takes minutes).
stress:
	$(PYTEST) -q -m stress

# Alternating perfbench pairs from two checkouts, e.g.
#   make bench-pairs A=../base B=. WORKLOADS=fleet_whatif
# runs each workload and run length of B's BENCHMARK.json (WORKLOADS
# picks some) and prints each end-to-end metric's median, quartiles and
# B's win count (BENCH_TRACE=1: each per-layer metric of traced runs).
# Two checkouts of one commit give the A/A noise floor.
PAIRS ?= 10
WORKLOADS ?=
BENCH_TRACE ?= 0
bench-pairs:
	python3 tools/bench_pairs.py $(A) $(B) --pairs $(PAIRS) --workloads "$(WORKLOADS)" \
		--trace $(BENCH_TRACE)
