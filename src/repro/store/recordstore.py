"""The RecordStore: a platform's synthetic year in columnar form."""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.errors import StoreError
from repro.platforms.interfaces import IOInterface
from repro.store.schema import (
    FILE_DTYPE,
    JOB_DTYPE,
    LAYER_CODES,
    OPCLASS_READ_ONLY,
    OPCLASS_READ_WRITE,
    OPCLASS_WRITE_ONLY,
    SCHEMA_VERSION,
    concat_rows,
    raw_rows,
    take_rows,
)

#: Guards building a store's analysis context, so threads that ask a
#: store for it at once all get the same object. Module-level rather
#: than per store: stores are pickled across the pool pipe and
#: deep-copied, and a lock attribute survives neither.
_ANALYSIS_LOCK = threading.Lock()


class RecordStore:
    """File and job tables for one platform, plus categorical catalogs.

    ``scale`` records what fraction of the real year the synthetic
    population represents; analyses multiply counts by ``1/scale`` when
    reporting extrapolated totals (distribution-shaped results are
    scale-free). See DESIGN.md §5.
    """

    def __init__(
        self,
        platform: str,
        files: np.ndarray,
        jobs: np.ndarray,
        *,
        domains: Sequence[str] = (),
        extensions: Sequence[str] = (),
        scale: float = 1.0,
        schema_version: int = SCHEMA_VERSION,
    ):
        if files.dtype != FILE_DTYPE:
            raise StoreError(f"files table has dtype {files.dtype}, want FILE_DTYPE")
        if jobs.dtype != JOB_DTYPE:
            raise StoreError(f"jobs table has dtype {jobs.dtype}, want JOB_DTYPE")
        if not 0 < scale <= 1:
            raise StoreError(f"scale must be in (0, 1], got {scale}")
        self.platform = platform
        self.files = files
        self.jobs = jobs
        self.domains = tuple(domains)
        self.extensions = tuple(extensions)
        self.scale = scale
        # Schema version of the file this store was loaded from (or the
        # library's current version for in-memory stores); merge and
        # federation refuse to union stores that disagree.
        self.schema_version = schema_version
        self._generation = 0
        self._analysis = None
        # Set by the raw-layout loader: path of the on-disk files.npy,
        # letting what-if sweep workers mmap rows instead of receiving
        # them through shared memory.
        self.files_path = None
        # Capacity-backed buffer behind the append path: append() keeps
        # ``files`` as a view of an over-allocated array so repeated
        # small appends write just the tail instead of copying O(n).
        self._files_buf = None
        if len(files) and files["domain"].max() >= len(self.domains):
            raise StoreError("file domain code out of catalog range")
        if len(jobs) and jobs["domain"].max() >= len(self.domains):
            raise StoreError("job domain code out of catalog range")

    # The capacity buffer is a transient optimization; pickling it would
    # ship up to 1.5x the live rows (and the copy breaks the view
    # anchoring anyway), so it is dropped and rebuilt on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_files_buf"] = None  # numpy pickles the view's rows only
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__.setdefault("_files_buf", None)
        self.__dict__.setdefault("files_path", None)
        self.__dict__.setdefault("schema_version", SCHEMA_VERSION)

    # -- analysis cache ------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation counter; bumped by :meth:`invalidate` and :meth:`append`.

        The :class:`~repro.analysis.context.AnalysisContext` returned by
        :meth:`analysis` is keyed on this value — a context built against
        an older generation refuses to serve its cached index arrays.
        """
        return self._generation

    def invalidate(self) -> None:
        """Bust the analysis cache after any in-place table mutation.

        Filtering/concat build *new* stores (each with a fresh cache), so
        only code that writes into ``files``/``jobs`` directly needs to
        call this; :meth:`append` keeps the cache consistent itself.
        """
        self._generation += 1
        self._analysis = None

    def analysis(self):
        """The store's shared :class:`AnalysisContext` (built lazily).

        Repeated analyses over the same store reuse one context, so the
        common masks, index arrays, and derived columns are computed at
        most once per store generation. Thread-safe: concurrent callers
        (serve workers, federation scatter threads) get the same object.
        """
        ctx = self._analysis
        if ctx is None or ctx.generation != self._generation:
            from repro.analysis.context import AnalysisContext

            with _ANALYSIS_LOCK:
                ctx = self._analysis
                if ctx is None or ctx.generation != self._generation:
                    ctx = self._analysis = AnalysisContext(self)
        return ctx

    # -- append-only growth (delta-aware) ------------------------------------
    def append(
        self,
        files: np.ndarray,
        jobs: np.ndarray | None = None,
        *,
        new_extensions: Sequence[str] = (),
    ) -> None:
        """Append rows with delta-aware cache invalidation.

        When a fresh :class:`~repro.analysis.context.AnalysisContext` is
        live, its cached masks, index arrays, and foldable memoized
        results are *extended* over the new rows instead of discarded
        (see :meth:`AnalysisContext.apply_append`); otherwise the tables
        grow and :meth:`invalidate` drops the context. Either way the
        generation advances, so generation-keyed consumers (the serve
        result cache) observe the mutation.

        ``jobs`` rows whose ``job_id`` already exists are *merged*, not
        duplicated, mirroring batch ingest's last-log-wins accounting:
        ``nlogs`` adds, ``used_bb`` ORs, and the remaining fields take
        the new row's values. ``new_extensions`` appends names to the
        extension catalog (append-only: existing codes keep meaning).
        """
        if files.dtype != FILE_DTYPE:
            raise StoreError(f"files table has dtype {files.dtype}, want FILE_DTYPE")
        new_extensions = tuple(new_extensions)
        if new_extensions:
            dupes = set(new_extensions) & set(self.extensions)
            if dupes or len(set(new_extensions)) != len(new_extensions):
                raise StoreError(
                    f"append: extension names already cataloged or repeated: "
                    f"{sorted(dupes) or sorted(new_extensions)}"
                )
            self.extensions = self.extensions + new_extensions
        if len(files):
            if files["domain"].max() >= len(self.domains):
                raise StoreError("file domain code out of catalog range")
            if files["ext"].max() >= len(self.extensions):
                raise StoreError("file extension code out of catalog range")
        merged_jobs = self._merged_jobs_for_append(jobs)
        grown = self._grown_files(files)
        ctx = self._analysis
        if ctx is not None and not ctx.stale:
            ctx.apply_append(grown, files, merged_jobs)
        else:
            self.files = grown
            self.jobs = merged_jobs
            self.invalidate()

    def _grown_files(self, tail: np.ndarray) -> np.ndarray:
        """The grown file table as a view of the capacity buffer."""
        n, k = len(self.files), len(tail)
        buf = self._files_buf
        if buf is None or self.files.base is not buf or len(buf) < n + k:
            cap = max(1024, int((n + k) * 3 // 2))
            buf = np.empty(cap, dtype=FILE_DTYPE)
            raw_rows(buf)[:n] = raw_rows(self.files)
            self._files_buf = buf
        raw_rows(buf)[n : n + k] = raw_rows(tail)
        return buf[: n + k]

    def _merged_jobs_for_append(self, jobs: np.ndarray | None) -> np.ndarray:
        """The post-append job table (duplicate job ids merged)."""
        if jobs is None or not len(jobs):
            return self.jobs
        if jobs.dtype != JOB_DTYPE:
            raise StoreError(f"jobs table has dtype {jobs.dtype}, want JOB_DTYPE")
        if jobs["domain"].max() >= len(self.domains):
            raise StoreError("job domain code out of catalog range")
        index = {int(j): i for i, j in enumerate(self.jobs["job_id"])}
        fresh = np.ones(len(jobs), dtype=bool)
        merged = None
        for i, job_id in enumerate(jobs["job_id"]):
            at = index.get(int(job_id))
            if at is None:
                continue
            if merged is None:
                merged = self.jobs.copy()
            row = jobs[i]
            # Batch ingest rebuilds a job's row from each of its logs in
            # turn (last log wins) while counting nlogs and OR-ing
            # used_bb; replaying that here keeps a streamed store
            # byte-identical to a batch ingest of the same logs.
            for field in ("user_id", "nnodes", "nprocs", "domain",
                          "runtime", "start_time"):
                merged[field][at] = row[field]
            merged["nlogs"][at] += row["nlogs"]
            merged["used_bb"][at] = max(merged["used_bb"][at], row["used_bb"])
            fresh[i] = False
        new_rows = jobs[fresh]
        if len(np.unique(new_rows["job_id"])) != len(new_rows):
            raise StoreError("append: duplicate job ids within one batch")
        return np.concatenate([self.jobs if merged is None else merged, new_rows])

    # -- basic shape ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.files)

    @property
    def njobs(self) -> int:
        return len(self.jobs)

    @property
    def nlogs(self) -> int:
        """Distinct Darshan logs represented in the file table."""
        if not len(self.files):
            return 0
        return len(np.unique(self.files["log_id"]))

    def scaled(self, count: float) -> float:
        """Extrapolate a count to full-year scale."""
        return count / self.scale

    # -- filtering -------------------------------------------------------------
    def filter(self, mask: np.ndarray) -> "RecordStore":
        """New store with file rows selected by a boolean mask.

        The job table is restricted to jobs that still have file rows (or
        had none to begin with: job-level analyses use
        :meth:`filter_jobs`).
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self.files),):
            raise StoreError(
                f"mask must be bool of shape ({len(self.files)},), "
                f"got {mask.dtype} {mask.shape}"
            )
        files = take_rows(self.files, mask)
        keep_jobs = np.isin(self.jobs["job_id"], np.unique(files["job_id"]))
        return RecordStore(
            self.platform, files, take_rows(self.jobs, keep_jobs),
            domains=self.domains, extensions=self.extensions, scale=self.scale,
            schema_version=self.schema_version,
        )

    def where(
        self,
        *,
        layer: str | None = None,
        interface: IOInterface | None = None,
        shared: bool | None = None,
        domain: str | None = None,
        min_nprocs: int | None = None,
    ) -> "RecordStore":
        """Keyword-sugar filter over the common analysis axes."""
        mask = np.ones(len(self.files), dtype=bool)
        if layer is not None:
            try:
                mask &= self.files["layer"] == LAYER_CODES[layer]
            except KeyError:
                raise StoreError(f"unknown layer {layer!r}") from None
        if interface is not None:
            mask &= self.files["interface"] == int(interface)
        if shared is not None:
            mask &= (self.files["rank"] == -1) == shared
        if domain is not None:
            try:
                code = self.domains.index(domain)
            except ValueError:
                raise StoreError(
                    f"unknown domain {domain!r}; catalog: {self.domains}"
                ) from None
            mask &= self.files["domain"] == code
        if min_nprocs is not None:
            mask &= self.files["nprocs"] > min_nprocs
        return self.filter(mask)

    def filter_jobs(self, mask: np.ndarray) -> "RecordStore":
        """New store with job rows (and their files) selected by a mask."""
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self.jobs),):
            raise StoreError("job mask shape/dtype mismatch")
        jobs = take_rows(self.jobs, mask)
        keep = np.isin(self.files["job_id"], jobs["job_id"])
        return RecordStore(
            self.platform, take_rows(self.files, keep), jobs,
            domains=self.domains, extensions=self.extensions, scale=self.scale,
            schema_version=self.schema_version,
        )

    # -- derived columns ----------------------------------------------------------
    def transfer_sizes(self) -> np.ndarray:
        """Per-file total transfer size (read + written), §3.1."""
        return self.files["bytes_read"] + self.files["bytes_written"]

    def opclass(self) -> np.ndarray:
        """Read-only / read-write / write-only code per file (Figures 6, 8).

        Files with zero bytes both ways (metadata-only opens) are classed
        read-only, matching how zero-transfer records skew neither volume.
        """
        r = self.files["bytes_read"] > 0
        w = self.files["bytes_written"] > 0
        out = np.full(len(self.files), OPCLASS_READ_ONLY, dtype=np.uint8)
        out[r & w] = OPCLASS_READ_WRITE
        out[~r & w] = OPCLASS_WRITE_ONLY
        return out

    def read_bandwidth(self) -> np.ndarray:
        """Per-file read bytes/s; NaN where no read time was recorded."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.files["read_time"] > 0,
                self.files["bytes_read"] / self.files["read_time"],
                np.nan,
            )

    def write_bandwidth(self) -> np.ndarray:
        """Per-file write bytes/s; NaN where no write time was recorded."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self.files["write_time"] > 0,
                self.files["bytes_written"] / self.files["write_time"],
                np.nan,
            )

    def domain_names(self, codes: np.ndarray) -> list[str]:
        """Map domain codes to names ('' for unknown)."""
        return ["" if c < 0 else self.domains[c] for c in np.asarray(codes)]

    # -- combination -----------------------------------------------------------------
    @classmethod
    def concat(cls, stores: Iterable["RecordStore"]) -> "RecordStore":
        """Concatenate stores of the same platform/catalogs/scale.

        The result is a *new* store at generation 0 with its own (empty)
        analysis cache; the inputs keep their generations and any live
        :class:`~repro.analysis.context.AnalysisContext` they hold. For
        shard-local stores with differing catalogs or colliding id
        spaces, use :func:`repro.store.merge.merge_stores` instead.
        """
        stores = list(stores)
        if not stores:
            raise StoreError("cannot concat zero stores")
        first = stores[0]
        for s in stores[1:]:
            if (
                s.platform != first.platform
                or s.domains != first.domains
                or s.extensions != first.extensions
                or s.scale != first.scale
            ):
                raise StoreError("stores differ in platform/catalogs/scale")
        return cls(
            first.platform,
            concat_rows([s.files for s in stores]),
            concat_rows([s.jobs for s in stores]),
            domains=first.domains,
            extensions=first.extensions,
            scale=first.scale,
            schema_version=first.schema_version,
        )

    def __repr__(self) -> str:
        return (
            f"RecordStore({self.platform!r}, files={len(self.files):,}, "
            f"jobs={len(self.jobs):,}, scale={self.scale:g})"
        )
