"""Property-based tests (hypothesis) on core data structures and invariants."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan.accumulate import (
    OP_CLOSE,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    accumulate,
    make_ops,
)
from repro.darshan.bins import ACCESS_SIZE_BINS, TRANSFER_SIZE_BINS
from repro.darshan.constants import ModuleId
from repro.darshan.format import read_log_bytes, write_log_bytes
from repro.darshan.log import DarshanLog
from repro.darshan.records import FileRecord, JobRecord, NameRecord
from repro.darshan.validate import validate_record
from repro.instrument.opstream import synthesize_ops
from repro.units import format_size, parse_size

sizes = st.integers(min_value=0, max_value=10**14)


class TestBinProperties:
    @given(sizes)
    def test_every_size_has_exactly_one_bin(self, size):
        for bins in (ACCESS_SIZE_BINS, TRANSFER_SIZE_BINS):
            idx = bins.index_of(size)
            assert 0 <= idx < bins.nbins
            lo, hi = bins.edges[idx], bins.edges[idx + 1]
            assert lo <= size < hi

    @given(st.lists(sizes, min_size=1, max_size=200))
    def test_histogram_conserves_count(self, values):
        hist = ACCESS_SIZE_BINS.histogram(np.array(values))
        assert hist.sum() == len(values)

    @given(st.lists(sizes, min_size=1, max_size=100))
    def test_vectorized_matches_scalar(self, values):
        arr = np.array(values)
        vec = TRANSFER_SIZE_BINS.index_array(arr)
        for v, i in zip(values, vec):
            assert TRANSFER_SIZE_BINS.index_of(v) == i


class TestUnitsProperties:
    @given(st.integers(min_value=1, max_value=10**17))
    def test_format_parse_within_rounding(self, n):
        text = format_size(n)
        back = parse_size(text.replace(" ", ""))
        assert abs(back - n) <= 0.01 * n + 1


class TestAccumulateProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([OP_READ, OP_WRITE]),
                st.integers(min_value=0, max_value=10**9),  # size
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_accumulation_conserves_bytes_and_counts(self, data_ops):
        kinds = [OP_OPEN] + [k for k, _ in data_ops] + [OP_CLOSE]
        op_sizes = [0] + [s for _, s in data_ops] + [0]
        n = len(kinds)
        ops = make_ops(
            kinds, offsets=[0] * n, sizes=op_sizes,
            starts=np.arange(n, dtype=float), durations=[0.001] * n,
        )
        rec = accumulate(ModuleId.POSIX, 1, 0, ops)
        expect_read = sum(s for k, s in data_ops if k == OP_READ)
        expect_write = sum(s for k, s in data_ops if k == OP_WRITE)
        assert rec.bytes_read == expect_read
        assert rec.bytes_written == expect_write
        assert rec["READS"] == sum(1 for k, _ in data_ops if k == OP_READ)
        # histogram totals match op counts
        hist_reads = sum(
            int(rec.get(f"SIZE_READ_{label}")) for label in ACCESS_SIZE_BINS.labels
        )
        assert hist_reads == rec["READS"]
        validate_record(rec)


class TestOpstreamProperties:
    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=80)
    def test_uniform_sizes_sum_exactly(self, nbytes, nops):
        ops = synthesize_ops(
            bytes_read=nbytes, bytes_written=0,
            read_ops=nops if nbytes else 0, write_ops=0,
            read_time=1.0 if nbytes else 0.0, write_time=0.0, meta_time=0.01,
        )
        assert ops["size"][ops["kind"] == OP_READ].sum() == nbytes
        assert (np.diff(ops["start"]) >= 0).all()

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=10, max_size=10)
    )
    @settings(max_examples=60)
    def test_histogram_realization_round_trips(self, hist_list):
        hist = np.array(hist_list, dtype=np.int64)
        nops = int(hist.sum())
        if nops == 0:
            return
        # Choose achievable bytes: midpoint of the histogram's range.
        edges = np.asarray(ACCESS_SIZE_BINS.edges)
        lower = edges[:-1].copy()
        lower[0] = 1
        floor = int(hist @ lower)
        upper = np.where(np.isfinite(edges[1:]), edges[1:] - 1, edges[:-1] * 4 + 100)
        cap = int(hist @ upper)
        nbytes = (floor + cap) // 2
        ops = synthesize_ops(
            bytes_read=nbytes, bytes_written=0, read_ops=nops, write_ops=0,
            read_time=1.0, write_time=0.0, meta_time=0.0, read_hist=hist,
        )
        reads = ops[ops["kind"] == OP_READ]["size"]
        assert reads.sum() == nbytes
        realized = ACCESS_SIZE_BINS.histogram(reads)
        # At most one op may drift a bin (the remainder carrier).
        assert int(np.abs(realized - hist).sum()) <= 2


class TestFormatProperties:
    @given(
        st.integers(min_value=0, max_value=2**63 - 1),
        st.integers(min_value=1, max_value=100_000),
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
        ),
    )
    @settings(max_examples=40)
    def test_round_trip_arbitrary_job(self, job_id, nprocs, domain):
        job = JobRecord(
            job_id, 1, nprocs, 0.0, 1.0, platform="summit", domain=domain
        )
        log = DarshanLog(job)
        log.register_name(NameRecord(1, "/gpfs/alpine/x"))
        rec = FileRecord(ModuleId.POSIX, 1)
        rec.set("BYTES_READ", 512)
        rec.set("READS", 1)
        rec.set("SIZE_READ_100_1K", 1)
        rec.set("F_READ_TIME", 0.25)
        log.add_record(rec)
        out = read_log_bytes(write_log_bytes(log))
        assert out.job.job_id == job_id
        assert out.job.nprocs == nprocs
        assert out.job.domain == domain

    @given(st.binary(max_size=400))
    @settings(max_examples=100)
    def test_parser_never_crashes_on_garbage(self, data):
        from repro.errors import LogFormatError

        try:
            read_log_bytes(data)
        except LogFormatError:
            pass  # rejecting garbage is the contract


# ---------------------------------------------------------------------------
# Shard-store merge invariants (the sharded-pipeline reassembly step).
# ---------------------------------------------------------------------------

from repro.errors import AnalysisError, StoreError  # noqa: E402
from repro.store.merge import merge_stores  # noqa: E402
from repro.store.recordstore import RecordStore  # noqa: E402
from repro.store.schema import empty_files, empty_jobs  # noqa: E402

EXT_POOL = ("h5", "dat", "txt", "nc", "bp", "chk")
DOM_POOL = ("physics", "chemistry", "biology", "climate")


@st.composite
def catalogs(draw, pool):
    """A random-length, random-order prefix-free subset of ``pool``."""
    k = draw(st.integers(min_value=0, max_value=len(pool)))
    return tuple(draw(st.permutations(list(pool)))[:k])


@st.composite
def shard_stores(draw, job_offset=0):
    """A small shard-local store with dense 0-based log ids.

    ``job_offset`` lets callers give each shard a disjoint job-id range,
    mirroring ingest shards over disjoint log sets. Static job attributes
    are pure functions of the job id so duplicated ids always agree.
    """
    domains = draw(catalogs(DOM_POOL))
    exts = draw(catalogs(EXT_POOL))
    njobs = draw(st.integers(min_value=1, max_value=4))
    job_ids = job_offset + np.array(
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=60),
                    min_size=njobs, max_size=njobs, unique=True,
                )
            )
        ),
        dtype=np.int64,
    )
    jobs = empty_jobs(njobs)
    jobs["job_id"] = job_ids
    jobs["user_id"] = 1000 + job_ids % 7
    jobs["nnodes"] = 1 + job_ids % 5
    jobs["nprocs"] = jobs["nnodes"] * 4
    jobs["runtime"] = 60.0 * (1 + job_ids % 3)
    jobs["start_time"] = 3600.0 * job_ids
    jobs["nlogs"] = draw(
        st.lists(
            st.integers(min_value=1, max_value=3),
            min_size=njobs, max_size=njobs,
        )
    )
    jobs["used_bb"] = draw(
        st.lists(st.integers(min_value=0, max_value=1),
                 min_size=njobs, max_size=njobs)
    )
    width = int(jobs["nlogs"].sum())
    nfiles = draw(st.integers(min_value=0, max_value=12))
    files = empty_files(nfiles)
    if nfiles:
        picks = draw(
            st.lists(st.integers(min_value=0, max_value=njobs - 1),
                     min_size=nfiles, max_size=nfiles)
        )
        files["job_id"] = job_ids[picks]
        files["user_id"] = jobs["user_id"][picks]
        files["nprocs"] = jobs["nprocs"][picks]
        files["log_id"] = draw(
            st.lists(st.integers(min_value=0, max_value=width - 1),
                     min_size=nfiles, max_size=nfiles)
        )
        files["record_id"] = np.arange(nfiles, dtype=np.uint64)
        files["domain"] = draw(
            st.lists(st.integers(min_value=-1, max_value=len(domains) - 1),
                     min_size=nfiles, max_size=nfiles)
        )
        files["ext"] = draw(
            st.lists(st.integers(min_value=-1, max_value=len(exts) - 1),
                     min_size=nfiles, max_size=nfiles)
        )
        files["bytes_read"] = draw(
            st.lists(st.integers(min_value=0, max_value=10**9),
                     min_size=nfiles, max_size=nfiles)
        )
    return RecordStore(
        "summit", files, jobs, domains=domains, extensions=exts, scale=1.0
    )


@st.composite
def shard_lists(draw):
    """1–4 shards with pairwise-disjoint job-id ranges (ingest style)."""
    n = draw(st.integers(min_value=1, max_value=4))
    return [draw(shard_stores(job_offset=1000 * i)) for i in range(n)]


def _names(catalog, codes):
    return ["" if c < 0 else catalog[c] for c in np.asarray(codes)]


class TestMergeProperties:
    @given(shard_lists())
    @settings(max_examples=50, deadline=None)
    def test_catalog_remap_preserves_names_and_sentinel(self, shards):
        merged = merge_stores(shards, remap_log_ids=True)
        assert len(merged.files) == sum(len(s.files) for s in shards)
        lo = 0
        for s in shards:
            part = merged.files[lo : lo + len(s.files)]
            assert _names(merged.extensions, part["ext"]) == _names(
                s.extensions, s.files["ext"]
            )
            assert _names(merged.domains, part["domain"]) == _names(
                s.domains, s.files["domain"]
            )
            # the -1 sentinel survives remapping exactly
            np.testing.assert_array_equal(
                part["ext"] == -1, s.files["ext"] == -1
            )
            lo += len(s.files)

    @given(shard_lists())
    @settings(max_examples=50, deadline=None)
    def test_log_id_remap_is_a_disjoint_bijection(self, shards):
        merged = merge_stores(shards, remap_log_ids=True)
        lo, base = 0, 0
        for s in shards:
            part = merged.files[lo : lo + len(s.files)]
            width = int(s.jobs["nlogs"].sum())
            if len(s.files):
                width = max(width, int(s.files["log_id"].max()) + 1)
                # per-shard map is an offset: injective, order-preserving
                np.testing.assert_array_equal(
                    part["log_id"], s.files["log_id"] + base
                )
                # and lands inside this shard's reserved range only
                assert int(part["log_id"].min()) >= base
                assert int(part["log_id"].max()) < base + width
            base += width
            lo += len(s.files)

    @given(shard_lists())
    @settings(max_examples=50, deadline=None)
    def test_job_id_remap_is_dense_and_consistent(self, shards):
        merged = merge_stores(
            shards, remap_log_ids=True, remap_job_ids=True
        )
        total = sum(len(np.unique(s.jobs["job_id"])) for s in shards)
        ids = merged.jobs["job_id"]
        assert len(ids) == total
        assert len(np.unique(ids)) == total  # bijection: no collisions
        assert int(ids.min()) == 1 and int(ids.max()) == total  # dense
        # files follow the same per-shard map as the job table
        flo = jlo = 0
        for s in shards:
            fpart = merged.files[flo : flo + len(s.files)]
            jpart = merged.jobs[jlo : jlo + len(s.jobs)]
            remap = dict(zip(s.jobs["job_id"].tolist(), jpart["job_id"].tolist()))
            expect = [remap[j] for j in s.files["job_id"].tolist()]
            assert fpart["job_id"].tolist() == expect
            flo += len(s.files)
            jlo += len(s.jobs)

    @given(shard_lists())
    @settings(max_examples=50, deadline=None)
    def test_merge_never_mutates_its_inputs(self, shards):
        before = [
            (s.files.copy(), s.jobs.copy(), s.generation) for s in shards
        ]
        merge_stores(shards, remap_log_ids=True, remap_job_ids=True)
        for s, (files, jobs, gen) in zip(shards, before):
            np.testing.assert_array_equal(s.files, files)
            np.testing.assert_array_equal(s.jobs, jobs)
            assert s.generation == gen

    @given(shard_stores())
    @settings(max_examples=50, deadline=None)
    def test_duplicate_job_rows_merge_with_or_and_rule(self, shard):
        """Ingest-style merge: a job whose logs split across shards."""
        twin = copy.deepcopy(shard)
        twin.jobs["used_bb"] = 1 - twin.jobs["used_bb"]  # disagree on BB use
        merged = merge_stores([shard, twin])
        assert len(merged.jobs) == len(shard.jobs)
        assert (merged.jobs["used_bb"] == 1).all()  # OR of {x, 1-x}
        np.testing.assert_array_equal(  # each shard saw a subset of logs
            merged.jobs["nlogs"], 2 * shard.jobs["nlogs"]
        )

    @given(shard_stores())
    @settings(max_examples=30, deadline=None)
    def test_static_field_disagreement_raises(self, shard):
        twin = copy.deepcopy(shard)
        twin.jobs["user_id"] += 1
        with pytest.raises(StoreError, match="user_id"):
            merge_stores([shard, twin])


class TestGenerationContract:
    """Merge/concat make fresh stores; extend invalidates live contexts."""

    @given(shard_lists())
    @settings(max_examples=20, deadline=None)
    def test_merged_store_starts_at_generation_zero(self, shards):
        merged = merge_stores(shards, remap_log_ids=True, remap_job_ids=True)
        assert merged.generation == 0
        assert merged.analysis().generation == 0

    @given(shard_stores())
    @settings(max_examples=20, deadline=None)
    def test_concat_is_fresh_and_leaves_sources_alone(self, shard):
        ctx = shard.analysis()
        out = RecordStore.concat([shard, copy.deepcopy(shard)])
        assert out.generation == 0
        assert len(out.files) == 2 * len(shard.files)
        assert shard.analysis() is ctx  # source context still live

    @given(shard_stores())
    @settings(max_examples=20, deadline=None)
    def test_extend_bumps_generation_and_stales_context(self, shard):
        ctx = shard.analysis()
        gen = shard.generation
        shard.files = np.concatenate([shard.files, empty_files(1)])
        shard.invalidate()
        assert shard.generation == gen + 1
        assert ctx.stale
        with pytest.raises(AnalysisError):
            ctx.transfer_sizes()
        # the store itself recovers with a fresh context
        fresh = shard.analysis()
        assert fresh is not ctx and not fresh.stale
