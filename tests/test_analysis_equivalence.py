"""Golden equivalence: the context path must match the seed path bit-for-bit.

Every analysis entry point runs twice on the same fixed-seed store —
once through :mod:`repro.analysis.legacy` (the pre-context per-analysis
scan implementations, preserved verbatim) and once through the shared
:class:`~repro.analysis.context.AnalysisContext` path — and the results
must be *identical*: same dataclasses, same ints, bit-equal floats, same
rendered report rows. This pins the refactor: a change that makes the
fast path faster but shifts any paper number fails here.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from repro import analysis as fast
from repro.analysis import legacy


def assert_equivalent(a, b, where="result"):
    """Recursive bit-equality, treating NaN as equal to NaN."""
    assert type(a) is type(b), f"{where}: {type(a)} vs {type(b)}"
    if is_dataclass(a) and not isinstance(a, type):
        for f in fields(a):
            assert_equivalent(
                getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}"
            )
    elif isinstance(a, dict):
        assert list(a.keys()) == list(b.keys()), f"{where}: keys differ"
        for k in a:
            assert_equivalent(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{where}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_equivalent(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where)
    elif isinstance(a, float):
        assert (math.isnan(a) and math.isnan(b)) or a == b, f"{where}: {a} vs {b}"
    else:
        assert a == b, f"{where}: {a!r} vs {b!r}"


#: (name, fast entry point, legacy twin). Lambdas take the store.
CASES = [
    ("dataset_summary", fast.dataset_summary, legacy.dataset_summary),
    ("layer_volumes", fast.layer_volumes, legacy.layer_volumes),
    ("large_files", fast.large_files, legacy.large_files),
    ("layer_exclusivity", fast.layer_exclusivity, legacy.layer_exclusivity),
    ("interface_usage", fast.interface_usage, legacy.interface_usage),
    ("transfer_cdfs", fast.transfer_cdfs, legacy.transfer_cdfs),
    (
        "interface_transfer_cdfs",
        fast.interface_transfer_cdfs,
        legacy.interface_transfer_cdfs,
    ),
    ("request_cdfs", fast.request_cdfs, legacy.request_cdfs),
    (
        "request_cdfs_large_jobs",
        lambda s: fast.request_cdfs(s, large_jobs_only=True),
        lambda s: legacy.request_cdfs(s, large_jobs_only=True),
    ),
    ("file_classification", fast.file_classification, legacy.file_classification),
    (
        "file_classification_stdio",
        lambda s: fast.file_classification(s, stdio_only=True),
        lambda s: legacy.file_classification(s, stdio_only=True),
    ),
    ("insystem_domain_usage", fast.insystem_domain_usage, legacy.insystem_domain_usage),
    ("stdio_domain_usage", fast.stdio_domain_usage, legacy.stdio_domain_usage),
    ("performance_by_bin", fast.performance_by_bin, legacy.performance_by_bin),
    ("bandwidth_variability", fast.bandwidth_variability, legacy.bandwidth_variability),
]

_IDS = [name for name, _, _ in CASES]


@pytest.fixture(params=["summit", "cori"], scope="module")
def store(request, summit_store_small, cori_store_small):
    return summit_store_small if request.param == "summit" else cori_store_small


@pytest.mark.parametrize("name,fast_fn,legacy_fn", CASES, ids=_IDS)
def test_context_path_matches_seed_path(store, name, fast_fn, legacy_fn):
    assert_equivalent(fast_fn(store), legacy_fn(store), name)


@pytest.mark.parametrize("name,fast_fn,legacy_fn", CASES, ids=_IDS)
def test_rendered_rows_match(store, name, fast_fn, legacy_fn):
    """The report layer sees identical strings (formatting included)."""
    new, old = fast_fn(store), legacy_fn(store)

    def rows(result):
        if isinstance(result, list):
            return [row for item in result for row in item.to_rows()]
        return result.to_rows()

    assert rows(new) == rows(old)


def test_warm_rerun_returns_identical_objects(summit_store_small):
    """Memoized rerun serves the exact same result object, not a rebuild."""
    first = fast.layer_volumes(summit_store_small)
    second = fast.layer_volumes(summit_store_small)
    assert second is first

