"""Shared fixtures: small generated stores, platforms, and studies.

Stores are session-scoped — generation is the expensive step, and every
analysis test can share the same synthetic population read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CharacterizationStudy, StudyConfig
from repro.platforms import cori, summit
from repro.store.recordstore import RecordStore
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

#: Seed used across the suite; tests that need a different stream derive
#: their own generators.
SEED = 20220627

#: Small scale for unit-level store tests. 5e-4 guarantees at least one
#: SCNL-pipeline job on Summit (floor(0.0095 * 141) = 1), so in-system
#: analyses always have data.
SMALL_SCALE = 5e-4
SHAPE_SCALE = 1e-3


def fresh_store(store: RecordStore) -> RecordStore:
    """A new store over ``store``'s arrays, with an empty analysis cache.

    A store has one analysis context, so a test that needs a cold
    recompute (rather than the shared store's memoized results) queries
    a fresh store over the same rows.
    """
    return RecordStore(
        store.platform, store.files, store.jobs,
        domains=store.domains, extensions=store.extensions,
        scale=store.scale, schema_version=store.schema_version,
    )


@pytest.fixture(scope="session")
def summit_machine():
    return summit()


@pytest.fixture(scope="session")
def cori_machine():
    return cori()


@pytest.fixture(scope="session")
def summit_store_small():
    gen = WorkloadGenerator("summit", GeneratorConfig(scale=SMALL_SCALE))
    return gen.generate(SEED, shadows=True)


@pytest.fixture(scope="session")
def cori_store_small():
    gen = WorkloadGenerator("cori", GeneratorConfig(scale=SMALL_SCALE))
    return gen.generate(SEED, shadows=True)


@pytest.fixture(scope="session")
def study():
    """A full study at shape-check scale, shared by integration tests."""
    return CharacterizationStudy(StudyConfig(seed=SEED, scale=SHAPE_SCALE))


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)
