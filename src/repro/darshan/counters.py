"""Counter registries for each instrumentation module.

Each module defines an ordered tuple of **integer counters** and an ordered
tuple of **floating-point counters** (timers and timestamps, seconds). The
order is the on-disk order used by :mod:`repro.darshan.format` and the
column order used by the accumulator, so it is part of the format contract:
**append only, never reorder**.

Names follow real Darshan 3.x: the study's analyses are written against
``<MODULE>_BYTES_READ/WRITTEN``, ``<MODULE>_F_READ/WRITE_TIME`` and the
``<MODULE>_SIZE_{READ,WRITE}_<bin>`` histogram counters (§2.2 of the paper).
STDIO deliberately has *no* size-histogram counters — that instrumentation
gap is one of the paper's findings (Recommendation 4).
"""

from __future__ import annotations

from typing import Mapping

from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.darshan.constants import ModuleId

_SIZE_READ = tuple(f"SIZE_READ_{label}" for label in ACCESS_SIZE_BINS.labels)
_SIZE_WRITE = tuple(f"SIZE_WRITE_{label}" for label in ACCESS_SIZE_BINS.labels)

#: POSIX module integer counters.
POSIX_COUNTERS: tuple[str, ...] = (
    "OPENS",
    "READS",
    "WRITES",
    "SEEKS",
    "STATS",
    "FSYNCS",
    "BYTES_READ",
    "BYTES_WRITTEN",
    "CONSEC_READS",
    "CONSEC_WRITES",
    "SEQ_READS",
    "SEQ_WRITES",
    "RW_SWITCHES",
    "MAX_BYTE_READ",
    "MAX_BYTE_WRITTEN",
    *_SIZE_READ,
    *_SIZE_WRITE,
)

#: POSIX module floating-point counters (seconds).
POSIX_FCOUNTERS: tuple[str, ...] = (
    "F_OPEN_START_TIMESTAMP",
    "F_READ_START_TIMESTAMP",
    "F_WRITE_START_TIMESTAMP",
    "F_CLOSE_END_TIMESTAMP",
    "F_READ_TIME",
    "F_WRITE_TIME",
    "F_META_TIME",
)

#: MPI-IO module integer counters.
MPIIO_COUNTERS: tuple[str, ...] = (
    "INDEP_OPENS",
    "COLL_OPENS",
    "INDEP_READS",
    "INDEP_WRITES",
    "COLL_READS",
    "COLL_WRITES",
    "NB_READS",
    "NB_WRITES",
    "SYNCS",
    "BYTES_READ",
    "BYTES_WRITTEN",
    "RW_SWITCHES",
    *_SIZE_READ,
    *_SIZE_WRITE,
)

#: MPI-IO module floating-point counters (seconds).
MPIIO_FCOUNTERS: tuple[str, ...] = (
    "F_OPEN_START_TIMESTAMP",
    "F_READ_START_TIMESTAMP",
    "F_WRITE_START_TIMESTAMP",
    "F_CLOSE_END_TIMESTAMP",
    "F_READ_TIME",
    "F_WRITE_TIME",
    "F_META_TIME",
)

#: STDIO module integer counters. Note: no SIZE_ histogram — Darshan does
#: not instrument per-request sizes for STDIO (§2.2), and the paper's
#: Recommendation 4 asks for exactly that capability to be added.
STDIO_COUNTERS: tuple[str, ...] = (
    "OPENS",
    "READS",
    "WRITES",
    "SEEKS",
    "FLUSHES",
    "BYTES_READ",
    "BYTES_WRITTEN",
    "MAX_BYTE_READ",
    "MAX_BYTE_WRITTEN",
)

#: STDIO module floating-point counters (seconds).
STDIO_FCOUNTERS: tuple[str, ...] = (
    "F_OPEN_START_TIMESTAMP",
    "F_READ_START_TIMESTAMP",
    "F_WRITE_START_TIMESTAMP",
    "F_CLOSE_END_TIMESTAMP",
    "F_READ_TIME",
    "F_WRITE_TIME",
    "F_META_TIME",
)

#: LUSTRE module integer counters: file-layout metadata, no data path.
LUSTRE_COUNTERS: tuple[str, ...] = (
    "OSTS",
    "MDTS",
    "STRIPE_OFFSET",
    "STRIPE_SIZE",
    "STRIPE_WIDTH",
)

#: LUSTRE module has no timers.
LUSTRE_FCOUNTERS: tuple[str, ...] = ()

_REGISTRY: Mapping[ModuleId, tuple[tuple[str, ...], tuple[str, ...]]] = {
    ModuleId.POSIX: (POSIX_COUNTERS, POSIX_FCOUNTERS),
    ModuleId.MPIIO: (MPIIO_COUNTERS, MPIIO_FCOUNTERS),
    ModuleId.STDIO: (STDIO_COUNTERS, STDIO_FCOUNTERS),
    ModuleId.LUSTRE: (LUSTRE_COUNTERS, LUSTRE_FCOUNTERS),
}


def module_counters(module: ModuleId) -> tuple[str, ...]:
    """Ordered integer-counter names for a module."""
    return _REGISTRY[module][0]


def module_fcounters(module: ModuleId) -> tuple[str, ...]:
    """Ordered float-counter names for a module."""
    return _REGISTRY[module][1]


def counter_slot(module: ModuleId, name: str) -> tuple[bool, int]:
    """``(is_float, index)`` of a counter in its module's arrays.

    ``name`` may be bare (``"BYTES_READ"``) or fully qualified with the
    module prefix (``"POSIX_BYTES_READ"``); ``is_float`` says whether it
    indexes the fcounter array. Unknown names raise ``KeyError``.
    """
    try:
        return _SLOTS[module][name]
    except KeyError:
        raise KeyError(f"{module.prefix} has no counter {name!r}") from None


def counter_index(module: ModuleId, name: str) -> int:
    """Index of an integer counter (bare or qualified name) in its array."""
    is_float, i = _SLOTS[module].get(name, (True, -1))
    if is_float:
        raise KeyError(f"{module.prefix} has no counter {name!r}")
    return i


def fcounter_index(module: ModuleId, name: str) -> int:
    """Index of a float counter (bare or qualified name) in its array."""
    is_float, i = _SLOTS[module].get(name, (False, -1))
    if not is_float:
        raise KeyError(f"{module.prefix} has no fcounter {name!r}")
    return i


def qualified_name(module: ModuleId, bare: str) -> str:
    """``(POSIX, "BYTES_READ") -> "POSIX_BYTES_READ"``."""
    return f"{module.prefix}_{bare}"


def _slots(module: ModuleId) -> dict[str, tuple[bool, int]]:
    """Every counter name of a module, bare and qualified, to its slot."""
    table = {}
    for is_float, names in enumerate(_REGISTRY[module]):
        for i, bare in enumerate(names):
            table[bare] = table[qualified_name(module, bare)] = (bool(is_float), i)
    return table


_SLOTS = {module: _slots(module) for module in _REGISTRY}


def has_size_histogram(module: ModuleId) -> bool:
    """Whether the module records per-request size histograms.

    True for POSIX and MPI-IO; False for STDIO (the gap Recommendation 4
    highlights) and LUSTRE (metadata only).
    """
    return any(c.startswith("SIZE_READ_") for c in _REGISTRY[module][0])
