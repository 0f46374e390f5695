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
from repro.store.merge import merge_stores
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


def test_fleet_merge_rate():
    """Three ~1M-row summit members merged in fleet mode (DESIGN.md §14).

    The members are one generated population three times over: a merge
    moves rows and rewrites columns whatever their values, and one
    generation keeps the guard's memory near 1 GB. On a 2-core host one
    cold merge ran at 2.3–4.7M merged rows/s (7 processes), against
    2.1–2.4M when rows moved as the structured dtype; the floor is half
    the lowest reading.
    """
    member = WorkloadGenerator(
        "summit", GeneratorConfig(scale=6.5e-4)
    ).generate(99, shadows=True)
    assert len(member.files) > 900_000
    t0 = time.perf_counter()
    merged = merge_stores([member] * 3, remap_log_ids=True, remap_job_ids=True)
    seconds = time.perf_counter() - t0
    assert len(merged.files) == 3 * len(member.files)
    assert len(merged.files) / seconds > 1_100_000, seconds
