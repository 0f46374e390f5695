"""A minimal HDF5-like library over the simulated substrates.

The paper names HDF5 as the place its optimizations belong: collective
buffering, request aggregation, layer-aware placement. This module
implements the core of such a library — hierarchical files holding
chunked datasets, hyperslab writes/reads translated to byte extents —
wired to this repository's machinery:

* chunking routes through :class:`~repro.middleware.chunkcache.WriteBackChunkCache`
  when aggregation is enabled (Recommendation 4/6 applied);
* every downstream operation is recorded and accumulated into a real
  :class:`~repro.darshan.records.FileRecord` at close, so the library is
  *observable the way the paper observes applications*;
* transfer times are priced by the performance model, so "aggregation
  on vs off" is a measurable experiment (see
  ``tests/test_h5sim.py::TestAggregationEffect``).

Datasets are C-order arrays carved into fixed chunks; a hyperslab selects
``[start, start+count)`` per dimension. Only the byte-extent math matters
for I/O behaviour, so element data is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.darshan.accumulate import (
    OP_CLOSE,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    accumulate,
    empty_ops,
)
from repro.darshan.constants import ModuleId
from repro.darshan.records import FileRecord, record_id_for_path
from repro.errors import ConfigurationError, SimulationError
from repro.iosim.perfmodel import PerfModel, TransferSpec
from repro.middleware.chunkcache import WriteBackChunkCache
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.units import MiB


@dataclass(frozen=True)
class DatasetSpec:
    """Shape/layout of one dataset."""

    name: str
    shape: tuple[int, ...]
    itemsize: int
    chunk_shape: tuple[int, ...]
    #: Byte offset of the dataset within the file's address space.
    base_offset: int

    def __post_init__(self) -> None:
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ConfigurationError(f"{self.name}: bad shape {self.shape}")
        if len(self.chunk_shape) != len(self.shape):
            raise ConfigurationError(f"{self.name}: chunk rank mismatch")
        if any(c <= 0 for c in self.chunk_shape):
            raise ConfigurationError(f"{self.name}: bad chunks {self.chunk_shape}")
        if self.itemsize <= 0:
            raise ConfigurationError(f"{self.name}: bad itemsize")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    def slab_extents(
        self, start: tuple[int, ...], count: tuple[int, ...]
    ) -> list[tuple[int, int]]:
        """Contiguous (offset, length) byte extents of a hyperslab.

        C-order: the last dimension is contiguous, so each run along it
        is one extent; outer dimensions iterate. Runs are merged when a
        full inner selection makes consecutive rows adjacent.
        """
        if len(start) != len(self.shape) or len(count) != len(self.shape):
            raise SimulationError(f"{self.name}: slab rank mismatch")
        for s, c, dim in zip(start, count, self.shape):
            if s < 0 or c <= 0 or s + c > dim:
                raise SimulationError(
                    f"{self.name}: slab [{s}, {s + c}) outside dim {dim}"
                )
        # Row length in elements along the last axis.
        inner = count[-1]
        outer_dims = list(zip(start[:-1], count[:-1], self.shape[:-1]))
        strides = np.cumprod([1] + list(self.shape[::-1][:-1]))[::-1]

        extents: list[tuple[int, int]] = []
        for outer_index in np.ndindex(*[c for _, c, _ in outer_dims] or (1,)):
            flat = start[-1]
            for (s, _c, _d), idx, stride in zip(
                outer_dims, outer_index, strides[:-1]
            ):
                flat += (s + idx) * stride
            offset = self.base_offset + flat * self.itemsize
            length = inner * self.itemsize
            if extents and extents[-1][0] + extents[-1][1] == offset:
                extents[-1] = (extents[-1][0], extents[-1][1] + length)
            else:
                extents.append((offset, length))
        return extents


class H5Dataset:
    """A dataset handle; writes/reads record operations on the file."""

    def __init__(self, file: "H5File", spec: DatasetSpec):
        self._file = file
        self.spec = spec

    def write_slab(self, start: tuple[int, ...], count: tuple[int, ...]) -> int:
        """Write a hyperslab; returns the bytes written."""
        total = 0
        for offset, length in self.spec.slab_extents(start, count):
            self._file._record_write(offset, length)
            total += length
        return total

    def read_slab(self, start: tuple[int, ...], count: tuple[int, ...]) -> int:
        """Read a hyperslab; returns the bytes read."""
        total = 0
        for offset, length in self.spec.slab_extents(start, count):
            self._file._record_read(offset, length)
            total += length
        return total


class H5File:
    """An HDF5-ish container bound to a platform storage layer."""

    def __init__(
        self,
        machine: Machine,
        layer_key: str,
        path: str,
        *,
        perf: PerfModel | None = None,
        aggregate: bool = True,
        cache_chunk_bytes: int = 1 * MiB,
        cache_capacity_chunks: int = 64,
        nprocs: int = 1,
    ):
        if layer_key not in machine.layers:
            raise ConfigurationError(f"no layer {layer_key!r} on {machine.name}")
        self.machine = machine
        self.layer = machine.layers[layer_key]
        self.path = path
        self.perf = perf or PerfModel(deterministic=True)
        self.aggregate = aggregate
        self.nprocs = nprocs
        self._cache = (
            WriteBackChunkCache(cache_chunk_bytes, cache_capacity_chunks)
            if aggregate
            else None
        )
        self._datasets: dict[str, DatasetSpec] = {}
        self._next_offset = 0
        self._writes: list[tuple[int, int]] = []  # direct (uncached) writes
        self._reads: list[tuple[int, int]] = []
        self._closed = False

    # ------------------------------------------------------------------
    def create_dataset(
        self,
        name: str,
        shape: tuple[int, ...],
        *,
        itemsize: int = 8,
        chunks: tuple[int, ...] | None = None,
    ) -> H5Dataset:
        if self._closed:
            raise SimulationError("file is closed")
        if name in self._datasets:
            raise SimulationError(f"dataset {name!r} exists")
        if chunks is None:
            chunks = tuple(min(d, 128) for d in shape)
        spec = DatasetSpec(
            name=name,
            shape=tuple(shape),
            itemsize=itemsize,
            chunk_shape=tuple(chunks),
            base_offset=self._next_offset,
        )
        self._next_offset += spec.nbytes
        self._datasets[name] = spec
        return H5Dataset(self, spec)

    def dataset(self, name: str) -> H5Dataset:
        try:
            return H5Dataset(self, self._datasets[name])
        except KeyError:
            raise SimulationError(f"no dataset {name!r}") from None

    # ------------------------------------------------------------------
    def _record_write(self, offset: int, length: int) -> None:
        if self._closed:
            raise SimulationError("file is closed")
        if self._cache is not None:
            self._cache.write(offset, length)
        else:
            self._writes.append((offset, length))

    def _record_read(self, offset: int, length: int) -> None:
        if self._closed:
            raise SimulationError("file is closed")
        self._reads.append((offset, length))

    # ------------------------------------------------------------------
    def close(self) -> "H5CloseReport":
        """Flush, price the I/O, and emit the Darshan-style record."""
        if self._closed:
            raise SimulationError("file already closed")
        self._closed = True
        if self._cache is not None:
            self._cache.flush()
            flushed = self._cache._flushed
        else:
            flushed = self._writes

        n_reads, n_writes = len(self._reads), len(flushed)
        ops = empty_ops(n_reads + n_writes + 2)
        ops["kind"][0] = OP_OPEN
        ops["kind"][-1] = OP_CLOSE
        idx = 1
        for offset, length in self._reads:
            ops["kind"][idx] = OP_READ
            ops["offset"][idx] = offset
            ops["size"][idx] = length
            idx += 1
        for offset, length in flushed:
            ops["kind"][idx] = OP_WRITE
            ops["offset"][idx] = offset
            ops["size"][idx] = length
            idx += 1

        read_bytes = int(sum(l for _, l in self._reads))
        write_bytes = int(sum(l for _, l in flushed))
        times = {}
        rng = np.random.default_rng(0)
        for direction, nbytes, nops in (
            ("read", read_bytes, n_reads),
            ("write", write_bytes, n_writes),
        ):
            if nbytes == 0:
                times[direction] = 0.0
                continue
            spec = TransferSpec(
                nbytes=np.array([float(nbytes)]),
                request_size=np.array([max(nbytes / max(nops, 1), 1.0)]),
                nprocs=np.array([float(self.nprocs)]),
                file_parallelism=np.array([1.0]),
                shared=np.array([self.nprocs > 1]),
            )
            times[direction] = float(
                self.perf.transfer_time(
                    self.layer, IOInterface.POSIX, direction, spec, rng
                )[0]
            )
        # Spread durations and stamp times so accumulation validates.
        ops["duration"][1 : 1 + n_reads] = (
            times["read"] / n_reads if n_reads else 0.0
        )
        ops["duration"][1 + n_reads : 1 + n_reads + n_writes] = (
            times["write"] / n_writes if n_writes else 0.0
        )
        ops["start"] = np.concatenate(
            ([0.0], np.cumsum(ops["duration"][:-1]))
        )
        record = accumulate(
            ModuleId.POSIX, record_id_for_path(self.path), 0, ops
        )
        return H5CloseReport(
            path=self.path,
            record=record,
            read_seconds=times["read"],
            write_seconds=times["write"],
            app_writes=(
                self._cache.stats.app_writes if self._cache else n_writes
            ),
            downstream_writes=n_writes,
        )


@dataclass(frozen=True)
class H5CloseReport:
    """What the library did for one file."""

    path: str
    record: FileRecord
    read_seconds: float
    write_seconds: float
    app_writes: int
    downstream_writes: int

    @property
    def aggregation_factor(self) -> float:
        return (
            self.app_writes / self.downstream_writes
            if self.downstream_writes
            else float("inf")
        )
