"""Pinned results of every registry query on the suite's small stores.

For ``summit_store_small`` and ``cori_store_small``,
``tests/goldens/analysis_results.json`` holds the full result of each
:func:`~repro.serve.registry.default_registry` query run through
:func:`repro.api.run_query`: the paper's tables and figures, ``users``,
``temporal``, ``variability``, ``tuning``, ``shapes``, both advisors and
every ``whatif_*`` default point. One recursive :func:`pin` turns a
result into JSON: dataclasses by field name, dicts with their key
order, ndarrays by dtype, shape and a SHA-256 of their bytes, and
floats by ``float.hex``, so the comparison is bit for bit. A tabular
query also pins its rendered ``to_rows()``.

The golden was committed from code that the frozen seed scans matched
bit for bit, so it carries their results forward. The coverage test
reads the registry: a new query fails here until it is pinned.

Regenerate the golden file only for an intended change of results::

    PYTHONPATH=src python -m tests.test_analysis_results
"""

from __future__ import annotations

import json

import pytest

from repro.api import run_query
from repro.serve.registry import default_registry

from tests.conftest import GOLDEN_PATH, load_golden, pin, rendered_rows

STORES = ("summit_store_small", "cori_store_small")
REGISTRY = default_registry()
QUERIES = sorted(REGISTRY)


def pin_query(store, name: str) -> dict:
    result = run_query(store, name)
    pinned = {"result": pin(result)}
    if REGISTRY[name].kind == "table":
        pinned["rows"] = rendered_rows(result)
    return pinned


def pin_store(store) -> dict:
    return {name: pin_query(store, name) for name in QUERIES}


def test_golden_covers_every_store_and_query():
    golden = load_golden()
    assert sorted(golden) == sorted(STORES)
    for fixture in STORES:
        assert sorted(golden[fixture]) == QUERIES


def test_golden_pins_trajectories():
    # A pin of an empty tuple would not pin the group-by at all.
    for fixture in STORES:
        assert load_golden()[fixture]["tuning"]["result"]["trajectories"]


@pytest.mark.parametrize("name", QUERIES)
@pytest.mark.parametrize("fixture", STORES)
def test_pinned(fixture, name, request):
    store = request.getfixturevalue(fixture)
    assert pin_query(store, name) == load_golden()[fixture][name]


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    from repro.workloads.generator import GeneratorConfig, WorkloadGenerator
    from tests.conftest import SEED, SMALL_SCALE

    golden = {}
    for fixture in STORES:
        platform = fixture.split("_")[0]
        gen = WorkloadGenerator(platform, GeneratorConfig(scale=SMALL_SCALE))
        golden[fixture] = pin_store(gen.generate(SEED, shadows=True))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
