"""Tests for op-stream synthesis and the log materializer."""

import numpy as np
import pytest

from repro.darshan import read_log_bytes, validate_log, write_log_bytes
from repro.darshan.accumulate import OP_READ, OP_WRITE
from repro.darshan.bins import ACCESS_SIZE_BINS
from repro.darshan.constants import ModuleId
from repro.instrument.opstream import _sizes_for_histogram, synthesize_ops
from repro.instrument.runtime import LogMaterializer
from repro.platforms import cori, summit
from repro.store.ingest import ingest_logs


class TestSynthesizeOps:
    def test_uniform_sizes_exact_bytes(self):
        ops = synthesize_ops(
            bytes_read=1003, bytes_written=0, read_ops=4, write_ops=0,
            read_time=1.0, write_time=0.0, meta_time=0.1,
        )
        reads = ops[ops["kind"] == OP_READ]
        assert reads["size"].sum() == 1003
        assert len(reads) == 4

    def test_histogram_realized(self):
        hist = np.zeros(10, dtype=np.int64)
        hist[2] = 3  # 1K_10K
        hist[4] = 1  # 100K_1M
        ops = synthesize_ops(
            bytes_read=3 * 2000 + 500_000, bytes_written=0,
            read_ops=4, write_ops=0, read_time=1.0, write_time=0.0,
            meta_time=0.0, read_hist=hist,
        )
        reads = ops[ops["kind"] == OP_READ]
        assert reads["size"].sum() == 3 * 2000 + 500_000
        from repro.darshan.bins import ACCESS_SIZE_BINS

        realized = ACCESS_SIZE_BINS.histogram(reads["size"])
        np.testing.assert_array_equal(realized, hist)

    def test_sorted_by_start(self):
        ops = synthesize_ops(
            bytes_read=100, bytes_written=100, read_ops=2, write_ops=2,
            read_time=1.0, write_time=1.0, meta_time=0.1,
        )
        assert (np.diff(ops["start"]) >= 0).all()

    def test_sequential_offsets(self):
        ops = synthesize_ops(
            bytes_read=300, bytes_written=0, read_ops=3, write_ops=0,
            read_time=1.0, write_time=0.0, meta_time=0.0,
        )
        reads = ops[ops["kind"] == OP_READ]
        np.testing.assert_array_equal(
            reads["offset"], np.concatenate(([0], np.cumsum(reads["size"][:-1])))
        )

    def test_bytes_without_ops_rejected(self):
        with pytest.raises(ValueError):
            synthesize_ops(
                bytes_read=10, bytes_written=0, read_ops=0, write_ops=0,
                read_time=0.0, write_time=0.0, meta_time=0.0,
            )

    def test_floor_violation_rejected(self):
        hist = np.zeros(10, dtype=np.int64)
        hist[5] = 1  # 1M_4M: floor 1 MB
        with pytest.raises(ValueError, match="below histogram floor"):
            synthesize_ops(
                bytes_read=100, bytes_written=0, read_ops=1, write_ops=0,
                read_time=1.0, write_time=0.0, meta_time=0.0, read_hist=hist,
            )

    def test_timer_distribution(self):
        ops = synthesize_ops(
            bytes_read=100, bytes_written=0, read_ops=4, write_ops=0,
            read_time=2.0, write_time=0.0, meta_time=0.5,
        )
        reads = ops[ops["kind"] == OP_READ]
        assert reads["duration"].sum() == pytest.approx(2.0)
        meta = ops[(ops["kind"] != OP_READ) & (ops["kind"] != OP_WRITE)]
        assert meta["duration"].sum() == pytest.approx(0.5)


def _reference_sizes(hist: np.ndarray, total_bytes: int) -> np.ndarray:
    """The per-op loop ``_sizes_for_histogram`` must agree with."""
    hist = np.asarray(hist, dtype=np.int64)
    nops = int(hist.sum())
    edges = ACCESS_SIZE_BINS.edges
    sizes = np.empty(nops, dtype=np.int64)
    upper = np.empty(nops, dtype=np.float64)
    pos = 0
    for b in range(ACCESS_SIZE_BINS.nbins):
        n = int(hist[b])
        if n == 0:
            continue
        hi = edges[b + 1]
        sizes[pos : pos + n] = int(edges[b]) if edges[b] > 0 else 1
        upper[pos : pos + n] = hi - 1 if np.isfinite(hi) else np.inf
        pos += n
    remainder = total_bytes - int(sizes.sum())
    assert remainder >= 0
    for i in range(nops - 1, -1, -1):
        if remainder == 0:
            break
        room = upper[i] - sizes[i]
        add = int(min(room, remainder)) if np.isfinite(room) else remainder
        sizes[i] += add
        remainder -= add
    if remainder:
        sizes[-1] += remainder
    return sizes


def _floor_and_room(hist: np.ndarray) -> tuple[int, int]:
    """Byte floor of ``hist`` and the headroom of its finite bins."""
    edges = np.asarray(ACCESS_SIZE_BINS.edges)
    lo = np.maximum(edges[:-1], 1)
    hi = np.where(np.isfinite(edges[1:]), edges[1:] - 1, lo)
    return int(hist @ lo), int(hist @ (hi - lo))


class TestSizesForHistogram:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_on_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        hist = np.zeros(ACCESS_SIZE_BINS.nbins, dtype=np.int64)
        nbins = rng.integers(1, 4)
        hist[rng.choice(len(hist), size=nbins, replace=False)] = rng.integers(
            1, 300, size=nbins
        )
        floor, room = _floor_and_room(hist)
        for total in (floor, floor + int(rng.integers(0, room + 1)),
                      floor + room, floor + room + int(rng.integers(1, 10**6))):
            got = _sizes_for_histogram(hist, total)
            np.testing.assert_array_equal(got, _reference_sizes(hist, total))
            assert int(got.sum()) == total

    def test_infinite_bin_takes_the_rest(self):
        hist = np.zeros(ACCESS_SIZE_BINS.nbins, dtype=np.int64)
        hist[2] = 3
        hist[-1] = 2
        total = 3 * 1000 + 2 * 10**9 + 7 * 10**9
        got = _sizes_for_histogram(hist, total)
        np.testing.assert_array_equal(got, _reference_sizes(hist, total))
        assert got[-1] == 8 * 10**9 and (got[:-1] == [1000] * 3 + [10**9]).all()

    def test_ceiling_dump_on_largest_op(self):
        hist = np.zeros(ACCESS_SIZE_BINS.nbins, dtype=np.int64)
        hist[1] = 2  # [100, 1000): ceiling 999
        total = 2 * 999 + 50
        got = _sizes_for_histogram(hist, total)
        np.testing.assert_array_equal(got, _reference_sizes(hist, total))
        np.testing.assert_array_equal(got, [999, 1049])

    def test_zero_remainder_keeps_lower_edges(self):
        hist = np.zeros(ACCESS_SIZE_BINS.nbins, dtype=np.int64)
        hist[0] = 2
        hist[3] = 1
        total = 1 + 1 + 10_000
        got = _sizes_for_histogram(hist, total)
        np.testing.assert_array_equal(got, _reference_sizes(hist, total))
        np.testing.assert_array_equal(got, [1, 1, 10_000])


class TestMaterializer:
    @pytest.fixture(scope="class")
    def mat(self, summit_store_small, summit_machine):
        return LogMaterializer(summit_machine, summit_store_small)

    def test_materialized_logs_validate(self, mat):
        for log in mat.materialize_many(8):
            validate_log(log)

    def test_job_metadata(self, mat, summit_store_small):
        log_id = int(mat.log_ids(1)[0])
        log = mat.materialize(log_id)
        assert log.job.platform == "summit"
        assert log.job.nprocs > 0
        assert "nnodes" in log.job.metadata

    def test_paths_resolve_to_right_layer(self, mat, summit_machine):
        table = summit_machine.mount_table()
        log = mat.materialize(int(mat.log_ids(1)[0]))
        for nr in log.name_records().values():
            layer = table.resolve(nr.path)
            assert layer is not None
            assert layer.key == nr.layer

    def test_serialization_round_trip(self, mat):
        log = mat.materialize(int(mat.log_ids(1)[0]))
        out = read_log_bytes(write_log_bytes(log))
        assert out.nfiles() == log.nfiles()
        validate_log(out)

    def test_unknown_log_id(self, mat):
        from repro.errors import StoreError

        with pytest.raises(StoreError):
            mat.materialize(999_999_999_999)


class TestEndToEndEquivalence:
    """Columnar fast path == object path, for both platforms."""

    @pytest.mark.parametrize("platform", ["summit", "cori"])
    def test_ingest_matches_store(self, platform, request):
        store = request.getfixturevalue(f"{platform}_store_small")
        machine = summit() if platform == "summit" else cori()
        mat = LogMaterializer(machine, store)
        nlogs = 6
        logs = mat.materialize_many(nlogs)
        ingested = ingest_logs(
            logs, platform, machine.mount_table(),
            domains=store.domains, scale=store.scale,
        )
        ids = mat.log_ids(nlogs)
        orig = store.files[np.isin(store.files["log_id"], ids)]
        assert len(ingested.files) == len(orig)
        # Aggregate quantities the analyses consume must match exactly.
        for col in ("bytes_read", "bytes_written", "reads", "writes"):
            assert ingested.files[col].sum() == orig[col].sum(), col
        assert ingested.files["read_hist"].sum() == orig["read_hist"].sum()
        np.testing.assert_allclose(
            np.sort(ingested.files["read_time"]),
            np.sort(orig["read_time"]),
            rtol=1e-12,
        )
        # Layer and interface splits survive the round trip.
        for layer in np.unique(orig["layer"]):
            for iface in np.unique(orig["interface"]):
                a = ((orig["layer"] == layer) & (orig["interface"] == iface)).sum()
                b = (
                    (ingested.files["layer"] == layer)
                    & (ingested.files["interface"] == iface)
                ).sum()
                assert a == b

    def test_extension_preseed_shares_codes(self, summit_store_small):
        """``extensions=`` pins the catalog prefix, so an ingested store
        can share ext codes with the generated store it came from."""
        store = summit_store_small
        machine = summit()
        mat = LogMaterializer(machine, store)
        logs = mat.materialize_many(4)
        ingested = ingest_logs(
            logs, "summit", machine.mount_table(),
            domains=store.domains, extensions=store.extensions,
            scale=store.scale,
        )
        n = len(store.extensions)
        assert list(ingested.extensions[:n]) == list(store.extensions)
        ids = mat.log_ids(4)
        orig = store.files[np.isin(store.files["log_id"], ids)]
        names = lambda s, rows: sorted(  # noqa: E731
            s.extensions[c] for c in rows["ext"]
        )
        assert names(ingested, ingested.files) == names(store, orig)
