# Stable collection order and hashes across runs: the differential suite
# compares stores bit-for-bit, so the harness itself must be deterministic.
# -p no:randomly is a no-op unless pytest-randomly happens to be installed.
PYTEST = PYTHONHASHSEED=0 PYTHONPATH=src python -m pytest -p no:randomly

.PHONY: check test parallel stress

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

# Only the scale guards (generate + analyze millions of rows, serve
# across many appends; takes minutes).
stress:
	$(PYTEST) -q -m stress
