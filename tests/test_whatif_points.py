"""Pinned what-if reports and one materialized twin's bytes.

The what-if differential tests compare neutral points against their
own baseline, so a drift in how a *non-neutral* point is computed
passes them. This module pins the numbers instead: for a summit and a
cori store (scale 2e-4, seed 7), ``tests/goldens/whatif_points.json``
holds every scenario's default point, the ``stripe`` sweep at four
factors, and the SHA-256 of the ``bb_offload`` twin's file table.
Floats are stored by ``float.hex``, so the comparison is bit for bit.

Regenerate the golden file only for an intended change of what-if
results::

    PYTHONPATH=src python -m tests.test_whatif_points
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

import repro
from repro.whatif import compute_point, materialize, scenario_catalog, sweep

GOLDEN_PATH = Path(__file__).parent / "goldens" / "whatif_points.json"
SCALE = 2e-4
SEED = 7
PLATFORMS = ("summit", "cori")
STRIPE_FACTORS = (0.5, 2.0, 4.0, 8.0)


@lru_cache(maxsize=None)
def _store(platform: str):
    return repro.generate_store(platform, scale=SCALE, seed=SEED)


def _metrics(pool) -> list[dict]:
    return [
        {
            "layer": m.layer,
            "direction": m.direction,
            "files": m.files,
            "seconds": float.hex(m.seconds),
            "median_bw": float.hex(m.median_bw),
            "peak_util": float.hex(m.peak_util),
        }
        for m in pool
    ]


def encode(report) -> dict:
    return {
        "platform": report.platform,
        "scenario": report.scenario,
        "params": [[k, float.hex(v)] for k, v in report.params],
        "baseline": _metrics(report.baseline),
        "outcome": _metrics(report.outcome),
        "moved_files": report.moved_files,
    }


def defaults(platform: str) -> dict:
    store = _store(platform)
    return {
        name: encode(compute_point(store, name))
        for name in sorted(scenario_catalog())
    }


def stripe(platform: str) -> list[dict]:
    points = [{"factor": f} for f in STRIPE_FACTORS]
    return [encode(r) for r in sweep(_store(platform), "stripe", points, jobs=1)]


def bb_offload_digest(platform: str) -> dict:
    twin = materialize(_store(platform), "bb_offload")
    return {
        "files_rows": len(twin.files),
        "files_sha256": hashlib.sha256(twin.files.tobytes()).hexdigest(),
        "jobs_sha256": hashlib.sha256(twin.jobs.tobytes()).hexdigest(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    golden = _golden()
    assert golden["scale"] == SCALE and golden["seed"] == SEED
    assert sorted(golden["platforms"]) == sorted(PLATFORMS)
    for entry in golden["platforms"].values():
        assert sorted(entry["defaults"]) == sorted(scenario_catalog())
        assert len(entry["stripe"]) == len(STRIPE_FACTORS)


@pytest.mark.parametrize("platform", PLATFORMS)
def test_default_points_match_golden(platform):
    assert defaults(platform) == _golden()["platforms"][platform]["defaults"]


@pytest.mark.parametrize("platform", PLATFORMS)
def test_stripe_sweep_matches_golden(platform):
    assert stripe(platform) == _golden()["platforms"][platform]["stripe"]


@pytest.mark.parametrize("platform", PLATFORMS)
def test_bb_offload_twin_matches_golden(platform):
    golden = _golden()["platforms"][platform]["bb_offload_materialize"]
    assert bb_offload_digest(platform) == golden


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    platforms = {
        p: {
            "defaults": defaults(p),
            "stripe": stripe(p),
            "bb_offload_materialize": bb_offload_digest(p),
        }
        for p in PLATFORMS
    }
    GOLDEN_PATH.write_text(
        json.dumps(
            {"scale": SCALE, "seed": SEED, "platforms": platforms},
            indent=1, sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
