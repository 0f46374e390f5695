# Stable collection order and hashes across runs: the differential suite
# compares stores bit-for-bit, so the harness itself must be deterministic.
# -p no:randomly is a no-op unless pytest-randomly happens to be installed.
PYTEST = PYTHONHASHSEED=0 PYTHONPATH=src python -m pytest -p no:randomly

.PHONY: check test parallel stress bench bench-analysis bench-generate bench-serve serve-tests obs-tests bench-obs stream-tests bench-stream fabric-tests whatif-tests bench-whatif federation-tests bench-federation spec-tests bench-spec

# Fast development loop: everything except the multi-million-row stress
# guards and the (pool-spawning, slow on few cores) differential suite.
check:
	$(PYTEST) -x -q -m "not stress and not parallel"

# The full tier-1 suite, stress guards included.
test:
	$(PYTEST) -x -q

# Only the pool-spawning tests: ingest/what-if differentials (serial vs
# jobs=N equivalence) and the fabric units.
parallel:
	$(PYTEST) -x -q -m parallel

# Only the scale guards (generate + analyze millions of rows; takes minutes).
stress:
	$(PYTEST) -q -m stress tests/test_stress.py

# Full pytest-benchmark sweep over benchmarks/ (writes benchmarks/results/).
bench:
	$(PYTEST) -q benchmarks

# Just the analysis-throughput benchmark; writes BENCH_analysis.json.
bench-analysis:
	$(PYTEST) -q benchmarks/bench_facility.py

# Just the generator and object-path throughput benchmarks.
bench-generate:
	$(PYTEST) -q benchmarks/bench_generator.py

# Fabric unit tests for ingest/what-if fan-out: sweep arenas, tracker
# ownership (no worker unlinks an arena), leak-proof cleanup, planners.
fabric-tests:
	$(PYTEST) -x -q tests/test_fabric.py

# Only the serving-subsystem invariants (coalescing/backpressure/equivalence).
serve-tests:
	$(PYTEST) -x -q tests/test_serve.py

# Closed-loop serving load generator; writes BENCH_serve.json
# (cold / warm / coalesced throughput and latency percentiles).
bench-serve:
	$(PYTEST) -q benchmarks/bench_serve.py

# Append-log ingest + delta invalidation: format/reader/ingestor units,
# the differential + property harness (incremental == cold recompute),
# serve-refresh behavior, and the hostile-tail fuzz corpus.
stream-tests:
	$(PYTEST) -x -q -m "stream and not stress"

# Streaming throughput + delta-vs-cold refresh benchmark; writes
# BENCH_stream.json and gates delta >= 5x cold on a >=100k-row store.
bench-stream:
	$(PYTEST) -q benchmarks/bench_stream.py

# What-if subsystem: scenario catalog + engine (identity differential,
# cache-semantics properties, fan-out invariance) and the activated
# fault/contention model goldens.
whatif-tests:
	$(PYTEST) -x -q tests/test_whatif.py tests/test_faults.py tests/test_contention.py

# Sweep throughput + identity/cache gates; writes BENCH_whatif.json.
bench-whatif:
	$(PYTEST) -q benchmarks/bench_whatif.py

# Multi-store federation: catalog manifest units, the K-store
# differential (catalog == merged store, bit-identical), per-member
# cache isolation, remote members, compare queries, CLI paths.
federation-tests:
	$(PYTEST) -x -q tests/test_federation.py

# Scatter-gather throughput + warm-compare cache gates; writes
# BENCH_federation.json (throughput ratio gated only on multi-core).
bench-federation:
	$(PYTEST) -q benchmarks/bench_federation.py

# Workload-spec DSL: schema/loader rejection contract, pattern compile
# units, the paper_mix byte-identity differential (jobs 1 and 4), and
# the scenario-pack goldens + end-to-end flow.
spec-tests:
	$(PYTEST) -x -q tests/test_spec.py tests/test_spec_packs.py tests/test_mixes.py

# Spec-compilation overhead gate (<= 5% over the direct archetype
# path, byte-identity asserted); writes BENCH_spec.json.
bench-spec:
	$(PYTEST) -q benchmarks/bench_spec.py

# Span-tracing subsystem + public-API surface tests (tracer semantics,
# export formats, worker round trip, --trace plumbing, API snapshot).
obs-tests:
	$(PYTEST) -x -q tests/test_obs.py tests/test_api.py

# Tracing overhead benchmark; writes BENCH_obs.json (disabled-path
# cost, enabled cost, export throughput).
bench-obs:
	$(PYTEST) -q benchmarks/bench_obs.py
