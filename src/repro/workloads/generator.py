"""The vectorized year-long workload generator.

Produces a :class:`~repro.store.recordstore.RecordStore` for one platform:
jobs sampled from the platform mix, application instances (Darshan logs)
per job, and per-file records for every file group — all in NumPy batches
per (archetype, group), never a per-file Python loop (hpc-parallel guide:
vectorize the hot path).

Per §3.1 accounting, every MPI-IO file also emits a POSIX *shadow row*
with the same bytes/times: MPI-IO performs its I/O through POSIX on these
file systems, and Darshan records both. Analyses that count unique files
or sum volumes select POSIX+STDIO rows; interface-usage analyses count
MPI-IO rows separately (Table 6 semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.errors import ConfigurationError
from repro.iosim.perfmodel import PerfModel, TransferSpec
from repro.obs.tracer import trace_span
from repro.platforms import get_platform
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.rng import RngHub
from repro.scheduler.trace import SECONDS_PER_YEAR, ArrivalProcess, TraceConfig
from repro.store.recordstore import RecordStore
from repro.store.schema import FILE_DTYPE, LAYER_CODES, empty_jobs, raw_rows
from repro.units import GB, MiB
from repro.workloads.archetypes import ArchetypeSpec, FileGroupSpec
from repro.workloads.domains import (
    CORI_UNKNOWN_DOMAIN_FRACTION,
    domain_catalog,
)
from repro.workloads.mixes import cori_mix, summit_mix

#: Real yearly job counts (Table 2); scaled by ``GeneratorConfig.scale``.
TARGET_JOBS = {"summit": 281_600, "cori": 749_500}

#: Cap on per-file operation counts: keeps multinomial sampling bounded
#: while preserving byte totals (request sizes then skew large, which only
#: happens for the rare giant files where that is physically accurate).
MAX_OPS_PER_FILE = 2_000_000

#: Logs per file-generation RNG block. Randomness is keyed by name per
#: (archetype, group, block) unit, so no unit's stream depends on
#: another unit's draws (DESIGN.md §8, §15); spec goldens and the
#: ``paper_mix`` byte-identity rest on this. Large enough that
#: per-block stream setup is noise.
LOGS_PER_BLOCK = 128


#: Fraction of jobs whose Darshan logs carry no layer-attributed file
#: records (container-local scratch, pipes, /tmp): Table 5's exclusivity
#: partition sums to 244.9K of Summit's 281.6K jobs (13%) and 719.3K of
#: Cori's 749.5K (4%).
NO_IO_FRACTION = {"summit": 0.13, "cori": 0.04}


@dataclass(frozen=True)
class GeneratorConfig:
    """Scale and horizon of the synthetic year."""

    #: Fraction of the platform's real yearly jobs to generate.
    scale: float = 2e-3
    horizon: float = SECONDS_PER_YEAR
    #: Override the yearly job target (None = Table 2 value).
    target_jobs: int | None = None
    #: Override the no-I/O job fraction (None = platform default).
    no_io_fraction: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ConfigurationError(f"scale must be in (0, 1], got {self.scale}")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")


def _consistent_histograms(
    rng: np.random.Generator,
    profile,
    nops: np.ndarray,
    nbytes: np.ndarray,
) -> np.ndarray:
    """Request-size histograms consistent with per-file byte totals.

    Draw from the profile's multinomial, then repair the (rare) files
    whose histogram cannot realize their byte total — floor too high
    (every op at its bin's lower edge already exceeds the bytes) or
    capacity too low (every op maxed out still falls short). Repaired
    files put all ops in the bin containing their mean request size,
    which always brackets the total. This keeps the log-level invariant
    ``sum(lower_edges) <= bytes <= sum(upper_edges)`` that
    :mod:`repro.darshan.validate` enforces and the object-path runtime
    relies on.
    """
    hist = profile.histograms(rng, nops)
    edges = np.asarray(ACCESS_SIZE_BINS.edges)
    lower = edges[:-1].copy()
    lower[0] = 1.0  # a data op moves at least one byte
    upper = edges[1:] - 1.0  # inf stays inf
    floor = hist @ lower
    capacity = hist @ np.where(np.isfinite(upper), upper, 0.0)
    capacity[(hist[:, -1] > 0)] = np.inf
    nbytes_f = nbytes.astype(np.float64)
    bad = ((floor > nbytes_f) | (capacity < nbytes_f)) & (nops > 0)
    if bad.any():
        idx = np.flatnonzero(bad)
        mean_req = nbytes_f[idx] / np.maximum(nops[idx], 1)
        bins = ACCESS_SIZE_BINS.index_array(np.maximum(mean_req, 1.0))
        hist[idx] = 0
        hist[idx, bins] = nops[idx]
    return hist


@dataclass(frozen=True)
class _FileUnit:
    """One RNG block of one (archetype, file-group): the unit of generation."""

    archetype: int
    group: int
    block: int
    log_lo: int
    log_hi: int


@dataclass
class _JobBatch:
    """Columnar job attributes for one archetype's jobs."""

    job_ids: np.ndarray
    user_ids: np.ndarray
    nnodes: np.ndarray
    nprocs: np.ndarray
    runtime: np.ndarray
    start: np.ndarray
    domain: np.ndarray
    instances: np.ndarray
    bb_nodes: np.ndarray  # DataWarp BB nodes (0 = no allocation)
    no_io: np.ndarray = field(default=None)  # type: ignore[assignment]
    # Per-log expansion (filled by _expand_logs):
    log_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    log_job_index: np.ndarray = field(default=None)  # type: ignore[assignment]


class WorkloadGenerator:
    """Generates one platform's synthetic year."""

    def __init__(
        self,
        platform: str,
        config: GeneratorConfig | None = None,
        mix: list[tuple[float, ArchetypeSpec]] | None = None,
        perf: PerfModel | None = None,
        machine: Machine | None = None,
    ):
        # ``machine`` lets a compiled spec generate against a degraded
        # variant (fault overlays) while keeping the platform's name,
        # domain catalog, and RNG namespace.
        self.machine: Machine = machine if machine is not None else get_platform(platform)
        self.platform = platform.lower()
        self.config = config or GeneratorConfig()
        if mix is None:
            mix = summit_mix() if self.platform == "summit" else cori_mix()
        weights = np.array([w for w, _ in mix], dtype=np.float64)
        if (weights <= 0).any():
            raise ConfigurationError("mix weights must be positive")
        self.mix = [spec for _, spec in mix]
        self.weights = weights / weights.sum()
        self.domains = domain_catalog(self.platform)
        self._domain_code = {d: i for i, d in enumerate(self.domains)}
        if perf is None:
            from repro.iosim.netmodel import network_for

            perf = PerfModel(network=network_for(self.platform))
        self.perf = perf
        # Extension catalog is fixed up-front from the mix so codes are
        # stable across filters/concats.
        exts: list[str] = []
        for spec in self.mix:
            for g in spec.groups:
                for e in g.ext_probs:
                    if e and e not in exts:
                        exts.append(e)
        self.extensions = tuple(exts)
        self._ext_code = {e: i for i, e in enumerate(self.extensions)}

    # ------------------------------------------------------------------
    def generate(
        self, seed_or_hub: int | RngHub, *, shadows: bool = False
    ) -> RecordStore:
        """Generate the synthetic year. Deterministic in the seed.

        File-row randomness is keyed per (archetype, group, log-block)
        unit (:data:`LOGS_PER_BLOCK`; DESIGN.md §8, §15). ``shadows``
        appends a POSIX shadow row for every MPI-IO file row (§3.1
        accounting), in the MPI-IO rows' order, after all other rows:
        the representation every analysis and the study pipeline expect.
        """
        hub = seed_or_hub if isinstance(seed_or_hub, RngHub) else RngHub(seed_or_hub)
        hub = hub.child(f"workload.{self.platform}")

        with trace_span("workloads.generate", "workloads") as sp:
            batches = self._sample_jobs(hub)
            units = self._plan_units(batches)
            if sp is not None:
                sp.add(platform=self.platform, units=len(units))
            return self._assemble(hub, batches, units, shadows)

    def _plan_units(self, batches: list[_JobBatch | None]) -> list[_FileUnit]:
        """The deterministic unit list: every (archetype, group, block)."""
        units: list[_FileUnit] = []
        for ai, (spec, batch) in enumerate(zip(self.mix, batches)):
            if batch is None:
                continue
            nlogs = len(batch.log_ids)
            if nlogs == 0:
                continue
            for gi, group in enumerate(spec.groups):
                for b, lo in enumerate(range(0, nlogs, LOGS_PER_BLOCK)):
                    hi = min(lo + LOGS_PER_BLOCK, nlogs)
                    units.append(_FileUnit(ai, gi, b, lo, hi))
        return units

    def _assemble(
        self,
        hub: RngHub,
        batches: list[_JobBatch | None],
        units: list[_FileUnit],
        shadows: bool,
    ) -> RecordStore:
        """The store: every unit's file rows plus the job table.

        Two phases over one allocation. Each unit first opens its
        substream and draws its per-log file counts, so every row's
        position is known before any row exists; then each unit fills
        its slice of the table in place, drawing from the same
        substream in the same order as before. MPI-IO shadows are copies
        of those slices into the tail.
        """
        with trace_span("workloads.assemble", "workloads") as sp:
            plans = []
            pos = 0
            for unit in units:
                spec = self.mix[unit.archetype]
                group = spec.groups[unit.group]
                batch = batches[unit.archetype]
                rng = hub.generator(
                    f"files.{spec.name}.{group.name}.{unit.group}.b{unit.block}"
                )
                logs = batch.log_job_index[unit.log_lo:unit.log_hi]
                counts = rng.poisson(group.files_per_run, size=len(logs))
                # Jobs flagged no-I/O keep their logs (Darshan still runs)
                # but produce no layer-attributed file records (Table 5's
                # gap between the exclusivity partition and the job count).
                counts[batch.no_io[logs]] = 0
                total = int(counts.sum())
                if total:
                    sl = slice(pos, pos + total)
                    plans.append((unit, group, batch, rng, counts, sl))
                    pos += total
            rows = pos
            mpiio = [
                sl for _, group, _, _, _, sl in plans
                if group.interface == IOInterface.MPIIO
            ] if shadows else []
            # Zeroed: each block writes its own rows' domain, rank and ext.
            files = np.zeros(
                rows + sum(sl.stop - sl.start for sl in mpiio), dtype=FILE_DTYPE
            )
            insystem_jobs = [np.empty(0, dtype=np.int64)]
            for unit, group, batch, rng, counts, sl in plans:
                self._generate_block(group, batch, rng, unit.log_lo, counts, files[sl])
                if group.layer == "insystem":
                    logs = batch.log_job_index[unit.log_lo:unit.log_hi]
                    insystem_jobs.append(batch.job_ids[logs[counts > 0]])
            if sp is not None:
                sp.add(units=len(units), rows=rows)
        with trace_span("workloads.shadows", "workloads") as sp:
            if sp is not None:
                sp.add(shadow_rows=len(files) - rows)
            for sl in mpiio:
                tail = files[pos:pos + sl.stop - sl.start]
                raw_rows(tail)[...] = raw_rows(files[sl])
                tail["interface"] = int(IOInterface.POSIX)
                pos += len(tail)
        jobs = self._job_table(batches, np.concatenate(insystem_jobs))
        target = self.config.target_jobs or TARGET_JOBS[self.platform]
        return RecordStore(
            self.platform,
            files,
            jobs,
            domains=self.domains,
            extensions=self.extensions,
            scale=max(1, round(target * self.config.scale)) / target,
        )

    # ------------------------------------------------------------------
    def _sample_jobs(self, hub: RngHub) -> list[_JobBatch | None]:
        """Sample job-level attributes, grouped by archetype."""
        with trace_span("workloads.sample_jobs", "workloads"):
            return self._sample_jobs_inner(hub)

    def _sample_jobs_inner(self, hub: RngHub) -> list[_JobBatch | None]:
        rng = hub.generator("jobs")
        target = self.config.target_jobs or TARGET_JOBS[self.platform]
        njobs = max(1, round(target * self.config.scale))

        arrivals = ArrivalProcess(
            TraceConfig(target_jobs=njobs, horizon=self.config.horizon)
        ).sample(rng)
        # Poisson count may differ slightly from njobs; use what we got.
        njobs = len(arrivals)
        if njobs == 0:
            arrivals = np.array([0.0])
            njobs = 1

        assignment = self._stratified_assignment(rng, njobs)
        job_ids = np.arange(1, njobs + 1, dtype=np.int64)
        # A small user pool with skewed activity (few users run many jobs).
        npool = max(4, njobs // 8)
        user_ids = 1000 + (rng.zipf(1.6, size=njobs) % npool).astype(np.int64)

        out: list[_JobBatch | None] = []
        for ai, spec in enumerate(self.mix):
            mask = assignment == ai
            n = int(mask.sum())
            if n == 0:
                out.append(None)
                continue
            arng = hub.generator(f"jobs.{spec.name}")
            nnodes = spec.nnodes.sample(arng, n).astype(np.int64)
            nnodes = np.clip(nnodes, 1, self.machine.compute_nodes)
            nprocs = nnodes * spec.procs_per_node
            runtime = spec.runtime.sample(arng, n)
            instances = np.maximum(
                spec.instances.sample(arng, n).astype(np.int64), 1
            )
            domain = self._sample_domains(spec, arng, n)
            bb_nodes = np.zeros(n, dtype=np.int64)
            if spec.bb_capacity is not None:
                granularity = self.machine.in_system.params.get(
                    "granularity", 20 * GB
                )
                cap = spec.bb_capacity.sample(arng, n)
                bb_nodes = np.clip(
                    np.ceil(cap / granularity).astype(np.int64),
                    1,
                    self.machine.in_system.server_count,
                )
            no_io_frac = (
                self.config.no_io_fraction
                if self.config.no_io_fraction is not None
                else NO_IO_FRACTION.get(self.platform, 0.0)
            )
            out.append(
                _JobBatch(
                    job_ids=job_ids[mask],
                    user_ids=user_ids[mask],
                    nnodes=nnodes,
                    nprocs=nprocs,
                    runtime=runtime,
                    start=arrivals[mask],
                    domain=domain,
                    instances=instances,
                    bb_nodes=bb_nodes,
                    no_io=arng.random(n) < no_io_frac,
                )
            )
        for batch in out:
            if batch is not None:
                self._expand_logs(batch)
        return out

    def _stratified_assignment(
        self, rng: np.random.Generator, njobs: int
    ) -> np.ndarray:
        """Archetype per job, stratified to the expected counts.

        Plain multinomial sampling makes rare-but-heavy archetypes (the
        SCNL pipelines: ~1% of jobs carrying ~20% of all files, Table 5 vs
        Table 3) wildly variable at small scales. Instead each archetype
        gets ``floor(weight * njobs)`` jobs plus a Bernoulli for the
        fractional remainder — unbiased, with per-archetype variance < 1.
        The assignment is then shuffled over job slots so arrival times
        stay exchangeable.
        """
        expected = self.weights * njobs
        counts = np.floor(expected).astype(np.int64)
        frac = expected - counts
        counts += rng.random(len(counts)) < frac
        # Reconcile to exactly njobs (Bernoulli sum may be off by a few).
        diff = njobs - int(counts.sum())
        while diff != 0:
            i = int(rng.choice(len(counts), p=self.weights))
            if diff > 0:
                counts[i] += 1
                diff -= 1
            elif counts[i] > 0:
                counts[i] -= 1
                diff += 1
        assignment = np.repeat(np.arange(len(self.mix)), counts)
        rng.shuffle(assignment)
        return assignment

    def _sample_domains(
        self, spec: ArchetypeSpec, rng: np.random.Generator, n: int
    ) -> np.ndarray:
        names = list(spec.domains)
        probs = np.array([spec.domains[d] for d in names], dtype=np.float64)
        probs /= probs.sum()
        codes = np.array([self._domain_code[d] for d in names], dtype=np.int16)
        # Stratified like the archetype assignment: rare archetypes have
        # very few jobs, and a multinomial draw would make the per-domain
        # volume shares of Figures 7/10 pure noise at small scales.
        expected = probs * n
        counts = np.floor(expected).astype(np.int64)
        counts += rng.random(len(counts)) < (expected - counts)
        while counts.sum() > n:
            counts[np.argmax(counts)] -= 1
        while counts.sum() < n:
            counts[np.argmax(expected - counts)] += 1
        out = codes[np.repeat(np.arange(len(names)), counts)]
        rng.shuffle(out)
        if self.platform == "cori":
            # Projects without a NEWT domain record (§3.3.2).
            unknown = rng.random(n) < CORI_UNKNOWN_DOMAIN_FRACTION
            out = np.where(unknown, np.int16(-1), out)
        return out

    def _expand_logs(self, batch: _JobBatch) -> None:
        """Assign globally-unique log ids: one per application instance."""
        total = int(batch.instances.sum())
        # Job-id striping keeps ids unique across batches without global
        # coordination: id = job_id * 2^20 + per-job instance index.
        per_job_idx = np.concatenate(
            [np.arange(k, dtype=np.int64) for k in batch.instances]
        ) if total else np.empty(0, dtype=np.int64)
        job_index = np.repeat(
            np.arange(len(batch.job_ids), dtype=np.int64), batch.instances
        )
        batch.log_ids = batch.job_ids[job_index] * (1 << 20) + per_job_idx
        batch.log_job_index = job_index

    # ------------------------------------------------------------------
    def _generate_block(
        self,
        group: FileGroupSpec,
        batch: _JobBatch,
        rng: np.random.Generator,
        log_lo: int,
        counts: np.ndarray,
        files: np.ndarray,
    ) -> None:
        """Fill ``files``, one (archetype, group) log block's rows, in place.

        ``counts`` holds the block's per-log file counts, already drawn
        from ``rng``; ``files`` is the block's zero-initialized slice of
        the table (``len(files) == counts.sum()``).
        """
        total = len(files)
        log_index = log_lo + np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        job_index = batch.log_job_index[log_index]

        files["job_id"] = batch.job_ids[job_index]
        files["log_id"] = batch.log_ids[log_index]
        files["user_id"] = batch.user_ids[job_index]
        files["nprocs"] = batch.nprocs[job_index].astype(np.int32)
        files["domain"] = batch.domain[job_index]
        files["layer"] = LAYER_CODES[group.layer]
        files["interface"] = int(group.interface)
        files["record_id"] = rng.integers(
            0, np.iinfo(np.uint64).max, size=total, dtype=np.uint64
        )

        # Extensions.
        if group.ext_probs:
            names = list(group.ext_probs)
            p = np.array([group.ext_probs[e] for e in names], dtype=np.float64)
            p /= p.sum()
            codes = np.array(
                [self._ext_code.get(e, -1) for e in names], dtype=np.int16
            )
            files["ext"] = codes[rng.choice(len(names), size=total, p=p)]
        else:
            files["ext"] = -1

        # Op-class and byte volumes.
        opclass = rng.choice(3, size=total, p=np.asarray(group.opclass_probs))
        readers = opclass != 2  # RO or RW
        writers = opclass != 0  # RW or WO
        bytes_read = np.zeros(total, dtype=np.int64)
        bytes_written = np.zeros(total, dtype=np.int64)
        nr = int(readers.sum())
        nw = int(writers.sum())
        if nr:
            bytes_read[readers] = np.maximum(
                group.read_size.sample(rng, nr), 1
            ).astype(np.int64)
        if nw:
            bytes_written[writers] = np.maximum(
                group.write_size.sample(rng, nw), 1
            ).astype(np.int64)
        files["bytes_read"] = bytes_read
        files["bytes_written"] = bytes_written

        # Operation counts and request-size histograms. STDIO keeps byte
        # totals and op counts but no histogram (the Darshan gap).
        read_ops = np.minimum(
            group.read_profile.ops_for_bytes(bytes_read), MAX_OPS_PER_FILE
        )
        write_ops = np.minimum(
            group.write_profile.ops_for_bytes(bytes_written), MAX_OPS_PER_FILE
        )
        files["reads"] = read_ops
        files["writes"] = write_ops
        if group.interface.records_request_sizes:
            files["read_hist"] = _consistent_histograms(
                rng, group.read_profile, read_ops, bytes_read
            )
            files["write_hist"] = _consistent_histograms(
                rng, group.write_profile, write_ops, bytes_written
            )

        # Shared-file flag and ranks.
        shared = rng.random(total) < group.shared_prob
        nprocs_f = files["nprocs"].astype(np.int64)
        ranks = rng.integers(0, np.maximum(nprocs_f, 1))
        files["rank"] = np.where(shared, -1, ranks).astype(np.int32)

        # Transfer times from the performance model.
        self._assign_times(files, group, batch, job_index, shared, rng)

    # ------------------------------------------------------------------
    def _assign_times(
        self,
        files: np.ndarray,
        group: FileGroupSpec,
        batch: _JobBatch,
        job_index: np.ndarray,
        shared: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        layer = self.machine.layers[
            "pfs" if group.layer == "pfs" else "insystem"
        ]
        total = len(files)
        parallelism = self._file_parallelism(
            files, group, batch, job_index, rng
        )
        collective = np.full(total, group.collective)
        for direction, bytes_col, ops_col, time_col in (
            ("read", "bytes_read", "reads", "read_time"),
            ("write", "bytes_written", "writes", "write_time"),
        ):
            nbytes = files[bytes_col].astype(np.float64)
            ops = np.maximum(files[ops_col].astype(np.float64), 1.0)
            spec = TransferSpec(
                nbytes=nbytes,
                request_size=np.maximum(nbytes / ops, 1.0),
                nprocs=files["nprocs"].astype(np.float64),
                file_parallelism=parallelism,
                shared=shared,
                collective=collective,
                nnodes=batch.nnodes[job_index].astype(np.float64),
            )
            files[time_col] = self.perf.transfer_time(
                layer, group.interface, direction, spec, rng
            )
        # Metadata time: opens/closes/seeks at the layer's latency floor.
        nmeta = 2.0 + 0.01 * (files["reads"] + files["writes"])
        files["meta_time"] = nmeta * layer.base_latency * rng.lognormal(
            0.0, 0.4, size=total
        )

    def _file_parallelism(
        self,
        files: np.ndarray,
        group: FileGroupSpec,
        batch: _JobBatch,
        job_index: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Layout parallelism per file, per platform/layer semantics."""
        total = len(files)
        sizes = (files["bytes_read"] + files["bytes_written"]).astype(np.float64)
        if group.layer == "pfs":
            if self.platform == "summit":
                # GPFS: one NSD per 16 MiB block, up to the server pool.
                block = self.machine.pfs.params.get("block_size", 16 * MiB)
                return np.clip(
                    np.ceil(sizes / block), 1, self.machine.pfs.server_count
                )
            # Lustre on Cori: default stripe count 1; a minority of large
            # files belong to users who tuned striping (§2.1.2, §5).
            stripes = np.ones(total, dtype=np.float64)
            big = sizes > 10 * GB
            tuned = big & (rng.random(total) < 0.4)
            stripes[tuned] = 2 ** rng.integers(1, 6, size=int(tuned.sum()))
            return stripes
        if self.platform == "summit":
            # SCNL: one NVMe per job node, but a file only spans the nodes
            # holding its segments (UnifyFS laminates in ~128 MiB chunks),
            # so small files see a single device.
            segments = np.maximum(np.ceil(sizes / (128 * MiB)), 1.0)
            return np.minimum(batch.nnodes[job_index].astype(np.float64), segments)
        # CBB: bounded by the job's DataWarp allocation width and by how
        # many ~1 GiB substripes the file actually occupies.
        substripes = np.maximum(np.ceil(sizes / (1024 * MiB)), 1.0)
        return np.minimum(
            np.maximum(batch.bb_nodes[job_index], 1).astype(np.float64), substripes
        )

    # ------------------------------------------------------------------
    def _job_table(
        self, batches: list[_JobBatch | None], insystem_jobs: np.ndarray
    ) -> np.ndarray:
        njobs = sum(len(b.job_ids) for b in batches if b is not None)
        jobs = empty_jobs(njobs)
        pos = 0
        for batch in batches:
            if batch is None:
                continue
            n = len(batch.job_ids)
            sl = slice(pos, pos + n)
            jobs["job_id"][sl] = batch.job_ids
            jobs["user_id"][sl] = batch.user_ids
            jobs["nnodes"][sl] = batch.nnodes.astype(np.int32)
            jobs["nprocs"][sl] = batch.nprocs.astype(np.int32)
            jobs["domain"][sl] = batch.domain
            jobs["runtime"][sl] = batch.runtime
            jobs["start_time"][sl] = batch.start
            jobs["nlogs"][sl] = batch.instances.astype(np.int32)
            jobs["used_bb"][sl] = np.isin(batch.job_ids, insystem_jobs)
            pos += n
        return jobs[np.argsort(jobs["job_id"], kind="stable")]

