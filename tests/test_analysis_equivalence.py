"""Golden equivalence: the context path must match the seed path bit-for-bit.

The seed's per-analysis scans were kept as a frozen oracle until their
results were pinned in ``tests/goldens/analysis_results.json``, from
code that matched them bit for bit. Every public analysis entry point,
called directly and cold on a fresh store, must reproduce the pinned
result of the registry query it answers: same dataclasses, same ints,
bit-equal floats, same rendered report rows. A change that makes the
fast path faster but shifts any paper number fails here.

:func:`~tests.conftest.assert_equivalent` is the recursive bit-equality
the differential oracle (``tests/test_differential.py``) compares every
path's results with; the dtype test below pins its strictness.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro import analysis as fast

from tests.conftest import (
    assert_equivalent, fresh_store, load_golden, pin, rendered_rows,
)


#: Each entry point (keyword variants included) and the registry query
#: whose pinned result it must reproduce.
ENTRY_POINTS = {
    "dataset_summary": ("table2", fast.dataset_summary),
    "layer_volumes": ("table3", fast.layer_volumes),
    "large_files": ("table4", fast.large_files),
    "layer_exclusivity": ("table5", fast.layer_exclusivity),
    "interface_usage": ("table6", fast.interface_usage),
    "transfer_cdfs": ("fig3", fast.transfer_cdfs),
    "interface_transfer_cdfs": ("fig9", fast.interface_transfer_cdfs),
    "request_cdfs": ("fig4", fast.request_cdfs),
    "request_cdfs_large_jobs": (
        "fig5", functools.partial(fast.request_cdfs, large_jobs_only=True)
    ),
    "file_classification": ("fig6", fast.file_classification),
    "file_classification_stdio": (
        "fig8", functools.partial(fast.file_classification, stdio_only=True)
    ),
    "insystem_domain_usage": ("fig7", fast.insystem_domain_usage),
    "stdio_domain_usage": ("fig10", fast.stdio_domain_usage),
    "performance_by_bin": ("fig11", fast.performance_by_bin),
    "bandwidth_variability": ("variability", fast.bandwidth_variability),
}


@pytest.fixture(params=["summit", "cori"], scope="module")
def store_name(request):
    return f"{request.param}_store_small"


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_context_path_matches_seed_path(store_name, name, request):
    query, fn = ENTRY_POINTS[name]
    result = fn(fresh_store(request.getfixturevalue(store_name)))
    assert pin(result) == load_golden()[store_name][query]["result"]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_rendered_rows_match(store_name, name, request):
    """The report layer sees the pinned strings (formatting included)."""
    query, fn = ENTRY_POINTS[name]
    result = fn(request.getfixturevalue(store_name))
    assert rendered_rows(result) == load_golden()[store_name][query]["rows"]


def test_warm_rerun_returns_identical_objects(summit_store_small):
    """Memoized rerun serves the exact same result object, not a rebuild."""
    first = fast.layer_volumes(summit_store_small)
    second = fast.layer_volumes(summit_store_small)
    assert second is first


def test_arrays_must_match_in_dtype():
    """Equal values in another dtype are a drift, not a match."""
    ints = np.arange(4, dtype=np.int64)
    with pytest.raises(AssertionError):
        assert_equivalent(ints, ints.astype(np.float64))
    assert_equivalent(ints, ints.copy())
