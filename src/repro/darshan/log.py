"""The in-memory log object: one Darshan-style log per application instance."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.darshan.constants import ModuleId
from repro.darshan.records import FileRecord, JobRecord, NameRecord


class DarshanLog:
    """A complete log: job record, name records, and per-module file records.

    Mirrors the structure in Figure 2 of the paper: header / job record /
    name records / one region per instrumented module.
    """

    def __init__(self, job: JobRecord):
        self.job = job
        self._names: dict[int, NameRecord] = {}
        self._records: dict[ModuleId, list[FileRecord]] = {}
        #: Optional DXT traces (disabled by default on the target systems,
        #: like real Darshan — §2.2). Keyed by (module, record_id).
        self._traces: dict[tuple[ModuleId, int], "object"] = {}

    # -- construction ------------------------------------------------------
    def register_name(self, name: NameRecord) -> None:
        """Register (or re-register, idempotently) a record-id → path entry."""
        existing = self._names.get(name.record_id)
        if existing is not None and existing != name:
            raise ValueError(
                f"record id {name.record_id:#x} already bound to "
                f"{existing.path!r}, refusing rebind to {name.path!r}"
            )
        self._names[name.record_id] = name

    def add_record(self, record: FileRecord) -> None:
        """Append a file record; its record id must have a name record."""
        if record.record_id not in self._names:
            raise KeyError(
                f"no name record for record id {record.record_id:#x}; "
                "register_name() first"
            )
        self._records.setdefault(record.module, []).append(record)

    def extend(self, records: Iterable[FileRecord]) -> None:
        for r in records:
            self.add_record(r)

    # -- access ------------------------------------------------------------
    @property
    def modules(self) -> tuple[ModuleId, ...]:
        """Modules with at least one record, in ModuleId order."""
        return tuple(sorted(self._records, key=int))

    def records(self, module: ModuleId) -> list[FileRecord]:
        """File records for one module (empty list when not instrumented)."""
        return self._records.get(module, [])

    def iter_records(self) -> Iterator[FileRecord]:
        """All file records across modules, module-major."""
        for module in self.modules:
            yield from self._records[module]

    def name_records(self) -> dict[int, NameRecord]:
        return dict(self._names)

    def name_of(self, record_id: int) -> NameRecord:
        return self._names[record_id]

    def path_of(self, record_id: int) -> str:
        return self._names[record_id].path

    # -- DXT traces ----------------------------------------------------------
    def attach_trace(self, trace) -> None:
        """Attach a :class:`repro.darshan.dxt.DxtTrace` for a file record.

        The record id must be named, and a file record for the module must
        exist (DXT augments counters, it does not replace them).
        """
        if trace.record_id not in self._names:
            raise KeyError(
                f"no name record for DXT trace of {trace.record_id:#x}"
            )
        if not any(
            r.record_id == trace.record_id
            for r in self._records.get(trace.module, [])
        ):
            raise KeyError(
                f"no {trace.module.prefix} file record for DXT trace of "
                f"{trace.record_id:#x}"
            )
        self._traces[(trace.module, trace.record_id)] = trace

    def traces(self) -> list:
        """All attached DXT traces (module-major, record order)."""
        return [self._traces[k] for k in sorted(self._traces, key=lambda k: (int(k[0]), k[1]))]

    def trace_for(self, module: ModuleId, record_id: int):
        """The trace for one record, or None when DXT was not enabled."""
        return self._traces.get((module, record_id))

    @property
    def dxt_enabled(self) -> bool:
        return bool(self._traces)

    # -- summary statistics --------------------------------------------------
    def nfiles(self) -> int:
        """Number of unique files (unique record ids with any data record)."""
        return len({r.record_id for r in self.iter_records()})

    def total_bytes(self) -> tuple[int, int]:
        """(read, written) bytes summed over data modules.

        Follows the paper's §3.1 accounting: when a file is accessed via
        MPI-IO, the POSIX record underneath reflects the actual file-system
        traffic, so summing POSIX + STDIO (and not MPI-IO) avoids double
        counting. LUSTRE records no data.
        """
        read = written = 0
        for module in (ModuleId.POSIX, ModuleId.STDIO):
            for r in self.records(module):
                read += r.bytes_read
                written += r.bytes_written
        return read, written

    def __repr__(self) -> str:
        counts = ", ".join(
            f"{m.prefix}:{len(rs)}" for m, rs in sorted(self._records.items(), key=lambda kv: int(kv[0]))
        )
        return (
            f"DarshanLog(job={self.job.job_id}, nprocs={self.job.nprocs}, "
            f"files={self.nfiles()}, records=[{counts}])"
        )
