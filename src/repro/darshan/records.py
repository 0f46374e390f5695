"""In-memory record types for the Darshan-style log.

A log (one per application instance, §2.2) contains:

* one :class:`JobRecord` — job id, user, process count, start/end times,
  and free-form metadata (platform name, science domain when the
  scheduler logs were merged in, §3.3.2);
* :class:`NameRecord` entries mapping a 64-bit record id to a file path
  and the mount point / storage layer it resolved to;
* per-module :class:`FileRecord` entries holding the counter arrays.

Shared files accessed collectively by all ranks are collapsed by the
runtime into a single record with ``rank == SHARED_FILE_RANK`` (−1); §3.4
of the paper restricts its performance analysis to exactly these records,
and so does :mod:`repro.analysis.performance`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from repro.darshan.constants import ModuleId
from repro.darshan.counters import (
    counter_slot,
    module_counters,
    module_fcounters,
)

#: Rank value marking a record that aggregates all ranks of a shared file.
SHARED_FILE_RANK = -1


def record_id_for_path(path: str) -> int:
    """Stable 64-bit record id for a path (Darshan hashes path names too)."""
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class JobRecord:
    """Execution-level metadata recorded once per log."""

    job_id: int
    user_id: int
    nprocs: int
    start_time: float
    end_time: float
    #: e.g. "summit" or "cori"; real Darshan gets this from the hostname.
    platform: str = ""
    #: Science domain when scheduler/project logs were merged (may be "").
    domain: str = ""
    #: Free-form key/value metadata (exe name, darshan version, ...).
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {self.nprocs}")
        if self.end_time < self.start_time:
            raise ValueError(
                f"end_time {self.end_time} precedes start_time {self.start_time}"
            )

    @property
    def runtime(self) -> float:
        """Wall-clock seconds covered by this log."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class NameRecord:
    """Maps a record id to the path and the storage layer it lives on."""

    record_id: int
    path: str
    #: Mount point string, e.g. "/gpfs/alpine" or "/mnt/bb" — the analyses
    #: use :attr:`layer` which the runtime resolves from the platform's
    #: mount table.
    mount_point: str = ""
    #: Storage-layer key, e.g. "pfs" or "insystem" (see repro.platforms).
    layer: str = ""

    @classmethod
    def for_path(cls, path: str, mount_point: str = "", layer: str = "") -> "NameRecord":
        return cls(record_id_for_path(path), path, mount_point, layer)


class FileRecord:
    """One module's counters for one (file, rank) pair.

    Counter storage is a pair of NumPy arrays in registry order; named
    access goes through :meth:`get`/:meth:`set` (and the ``[]`` operator),
    which accept bare or module-qualified counter names.
    """

    __slots__ = ("module", "record_id", "rank", "counters", "fcounters")

    def __init__(
        self,
        module: ModuleId,
        record_id: int,
        rank: int = SHARED_FILE_RANK,
        counters: np.ndarray | None = None,
        fcounters: np.ndarray | None = None,
    ):
        ncounters = len(module_counters(module))
        nfcounters = len(module_fcounters(module))
        if counters is None:
            counters = np.zeros(ncounters, dtype=np.int64)
        else:
            counters = np.asarray(counters, dtype=np.int64)
            if counters.shape != (ncounters,):
                raise ValueError(
                    f"{module.prefix} expects {ncounters} counters, "
                    f"got shape {counters.shape}"
                )
        if fcounters is None:
            fcounters = np.zeros(nfcounters, dtype=np.float64)
        else:
            fcounters = np.asarray(fcounters, dtype=np.float64)
            if fcounters.shape != (nfcounters,):
                raise ValueError(
                    f"{module.prefix} expects {nfcounters} fcounters, "
                    f"got shape {fcounters.shape}"
                )
        if rank < SHARED_FILE_RANK:
            raise ValueError(f"rank must be >= -1, got {rank}")
        self.module = module
        self.record_id = record_id
        self.rank = rank
        self.counters = counters
        self.fcounters = fcounters

    # -- named access -----------------------------------------------------
    def get(self, name: str) -> float:
        """Read a counter by (bare or qualified) name."""
        is_float, i = counter_slot(self.module, name)
        return float(self.fcounters[i]) if is_float else int(self.counters[i])

    def set(self, name: str, value: float) -> None:
        """Write a counter by (bare or qualified) name."""
        is_float, i = counter_slot(self.module, name)
        array, cast = (self.fcounters, float) if is_float else (self.counters, int)
        array[i] = cast(value)

    def add(self, name: str, value: float) -> None:
        """Increment a counter by (bare or qualified) name."""
        is_float, i = counter_slot(self.module, name)
        array, cast = (self.fcounters, float) if is_float else (self.counters, int)
        array[i] += cast(value)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __setitem__(self, name: str, value: float) -> None:
        self.set(name, value)

    # -- derived quantities the paper's analyses use ----------------------
    @property
    def bytes_read(self) -> int:
        return int(self._get_or_zero("BYTES_READ"))

    @property
    def bytes_written(self) -> int:
        return int(self._get_or_zero("BYTES_WRITTEN"))

    @property
    def read_time(self) -> float:
        return float(self._get_or_zero("F_READ_TIME"))

    @property
    def write_time(self) -> float:
        return float(self._get_or_zero("F_WRITE_TIME"))

    @property
    def is_shared(self) -> bool:
        """True when this record aggregates all ranks (§3.4's rank −1)."""
        return self.rank == SHARED_FILE_RANK

    def transfer_size(self) -> int:
        """Total read+write bytes — the paper's per-file transfer size (§3.1)."""
        return self.bytes_read + self.bytes_written

    def read_bandwidth(self) -> float:
        """Bytes/second for reads; 0 when no time was accumulated."""
        t = self.read_time
        return self.bytes_read / t if t > 0 else 0.0

    def write_bandwidth(self) -> float:
        """Bytes/second for writes; 0 when no time was accumulated."""
        t = self.write_time
        return self.bytes_written / t if t > 0 else 0.0

    def _get_or_zero(self, name: str) -> float:
        try:
            return self.get(name)
        except KeyError:
            return 0

    def named_counters(self) -> Mapping[str, int]:
        """Dict view of integer counters (for debugging and report dumps)."""
        names = module_counters(self.module)
        return {n: int(v) for n, v in zip(names, self.counters)}

    def __repr__(self) -> str:
        return (
            f"FileRecord({self.module.prefix}, id={self.record_id:#x}, "
            f"rank={self.rank}, R={self.bytes_read}B, W={self.bytes_written}B)"
        )


def iter_size_bins(record: FileRecord, direction: str) -> Iterator[tuple[str, int]]:
    """Yield ``(bin_label, count)`` for a POSIX/MPI-IO record's histogram.

    ``direction`` is ``"read"`` or ``"write"``. Raises ``KeyError`` for
    modules without size histograms (STDIO, LUSTRE).
    """
    if direction not in ("read", "write"):
        raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")
    prefix = f"SIZE_{direction.upper()}_"
    names = module_counters(record.module)
    found = False
    for i, name in enumerate(names):
        if name.startswith(prefix):
            found = True
            yield name[len(prefix):], int(record.counters[i])
    if not found:
        raise KeyError(f"{record.module.prefix} has no {direction} size histogram")
