"""Stress: the pipeline holds up at 4x the reference scale in bounded time.

Not a benchmark (``perfbench/`` measures speed end to end) — a guard
that nothing in the generate→analyze path degrades to quadratic
behaviour or balloons memory when the population grows. Its rate
floors are the vectorization net: a per-row Python loop would land
orders of magnitude below them. Runs under the ``stress`` marker;
``make check`` skips it, ``make stress`` runs it.
"""

import time

import pytest

from repro.analysis import (
    layer_volumes,
    performance_by_bin,
    request_cdfs,
    transfer_cdfs,
)
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

pytestmark = pytest.mark.stress


def _run_four_analyses(store):
    layer_volumes(store)
    transfer_cdfs(store)
    request_cdfs(store)
    performance_by_bin(store)


@pytest.mark.parametrize("platform", ["summit"])
def test_generate_and_analyze_at_4x_scale(platform):
    t0 = time.time()
    gen = WorkloadGenerator(platform, GeneratorConfig(scale=4e-3))
    store = gen.generate(99, shadows=True)
    gen_seconds = time.time() - t0
    assert len(store.files) > 3_000_000

    t1 = time.time()
    _run_four_analyses(store)
    analyze_seconds = time.time() - t1

    # Rates, not absolute times: robust across machines. The shared
    # analysis context gathers columns instead of copying full rows, so
    # the cold pass runs well above this floor; a per-row regression
    # would land orders of magnitude below it.
    assert len(store.files) / gen_seconds > 100_000, gen_seconds
    assert len(store.files) / analyze_seconds > 300_000, analyze_seconds

    # A warm rerun serves memoized results off the shared context, so it
    # must beat the cold pass handily — if it doesn't, result caching
    # broke and every multi-exhibit report path pays the rescan again.
    t2 = time.time()
    _run_four_analyses(store)
    warm_seconds = time.time() - t2
    assert analyze_seconds > 5 * warm_seconds, (analyze_seconds, warm_seconds)

    # Memory sanity: the file table dominates; its nbytes must stay near
    # the dtype's nominal row cost (no accidental object columns).
    per_row = store.files.nbytes / len(store.files)
    assert per_row < 400
