"""Pinned bytes of the generator's output.

The differential tests elsewhere compare two paths that both call the
generator, so a drift in the generator itself passes them. This module
pins the raw bytes instead: for each platform, seed and shadow setting,
``tests/goldens/generator_digests.json`` holds the SHA-256 of
``files.tobytes()`` and ``jobs.tobytes()`` and both row counts.

Regenerate the golden file only for an intended change of the
generated population::

    PYTHONPATH=src python -m tests.test_generator_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro

GOLDEN_PATH = Path(__file__).parent / "goldens" / "generator_digests.json"
SCALE = 2e-4
CASES = [
    (platform, seed, shadows)
    for platform in ("summit", "cori")
    for seed in (7, 11)
    for shadows in (False, True)
]


def _key(platform: str, seed: int, shadows: bool) -> str:
    return f"{platform}.seed{seed}.{'shadows' if shadows else 'raw'}"


def digest(platform: str, seed: int, shadows: bool) -> dict:
    store = repro.generate_store(
        platform, scale=SCALE, seed=seed, shadows=shadows
    )
    return {
        "files_rows": len(store.files),
        "jobs_rows": len(store.jobs),
        "files_sha256": hashlib.sha256(store.files.tobytes()).hexdigest(),
        "jobs_sha256": hashlib.sha256(store.jobs.tobytes()).hexdigest(),
    }


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scale"] == SCALE
    assert sorted(golden["stores"]) == sorted(_key(*c) for c in CASES)


@pytest.mark.parametrize(
    "platform,seed,shadows", CASES, ids=[_key(*c) for c in CASES]
)
def test_generated_bytes_match_golden(platform, seed, shadows):
    golden = json.loads(GOLDEN_PATH.read_text())["stores"]
    assert digest(platform, seed, shadows) == golden[_key(platform, seed, shadows)]


def _write_golden() -> None:  # pragma: no cover - maintenance entry point
    stores = {_key(*c): digest(*c) for c in CASES}
    GOLDEN_PATH.write_text(
        json.dumps({"scale": SCALE, "stores": stores}, indent=1, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    _write_golden()
