"""Failure injection against the binary log parser.

Systematically corrupt every header/region-table field of a valid log and
assert the parser either rejects the file with LogFormatError or returns
a structurally valid log (a flipped bit in, e.g., padding may be benign)
— never crashes with an unrelated exception, never hangs, never returns
garbage silently when a checksum should have caught it.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.darshan.constants import LOG_MAGIC, ModuleId
from repro.darshan.format import (
    _HEADER,
    _REGION,
    read_log_bytes,
    write_log,
    write_log_bytes,
)
from repro.darshan.log import DarshanLog
from repro.darshan.records import FileRecord, JobRecord, NameRecord
from repro.darshan.validate import validate_log
from repro.errors import LogFormatError, LogValidationError, ReproError


def _make_log(job_id=3, nfiles=4):
    job = JobRecord(job_id, 7, 8, 0.0, 60.0, platform="summit", domain="biology")
    log = DarshanLog(job)
    for i in range(nfiles):
        rid = 50 + i
        log.register_name(NameRecord(rid, f"/gpfs/alpine/x{i}", "/gpfs/alpine", "pfs"))
        rec = FileRecord(ModuleId.POSIX, rid)
        rec.set("BYTES_READ", 4096)
        rec.set("READS", 1)
        rec.set("SIZE_READ_1K_10K", 1)
        rec.set("F_READ_TIME", 0.5)
        log.add_record(rec)
    return log


@pytest.fixture(scope="module")
def blob():
    return write_log_bytes(_make_log())


@pytest.fixture(scope="module")
def blob_plain():
    """The same log without compression: strings sit raw in the file."""
    return write_log_bytes(_make_log(), compress=False)


def _regions(data):
    """Parse the region table: list of (kind, desc_offset, offset, raw, comp)."""
    nregions = struct.unpack_from("<I", data, _HEADER.size - 4)[0]
    out = []
    for r in range(nregions):
        base = _HEADER.size + r * _REGION.size
        kind, _mod, _codec, _r0, off, raw, comp, _crc, _r1 = _REGION.unpack_from(
            data, base
        )
        out.append((kind, base, off, raw, comp))
    return out


def _fix_crc(data: bytearray, desc_base: int) -> None:
    """Recompute a region's CRC after an in-place payload edit."""
    _k, _m, codec, _r0, off, raw, comp, _crc, _r1 = _REGION.unpack_from(
        data, desc_base
    )
    payload = bytes(data[off : off + comp])
    if codec:  # zlib codec: CRC covers the decompressed bytes
        payload = zlib.decompress(payload)
    struct.pack_into("<I", data, desc_base + 32, zlib.crc32(payload) & 0xFFFFFFFF)


def _expect_reject_or_valid(data: bytes) -> None:
    """The parser contract under corruption."""
    try:
        out = read_log_bytes(bytes(data))
    except (LogFormatError,):
        return  # rejected: fine
    # Accepted: must still be semantically valid.
    try:
        validate_log(out)
    except LogValidationError as exc:  # pragma: no cover - would be a bug
        pytest.fail(f"parser accepted a semantically broken log: {exc}")


class TestHeaderFuzz:
    def test_every_header_byte_flip(self, blob):
        for i in range(_HEADER.size):
            data = bytearray(blob)
            data[i] ^= 0xFF
            _expect_reject_or_valid(data)

    def test_region_count_inflated(self, blob):
        data = bytearray(blob)
        # region count lives at the end of the header
        off = _HEADER.size - 4
        struct.pack_into("<I", data, off, 10_000)
        with pytest.raises(LogFormatError):
            read_log_bytes(bytes(data))


class TestRegionTableFuzz:
    def test_every_region_field_mutation(self, blob):
        nregions = struct.unpack_from("<I", blob, _HEADER.size - 4)[0]
        for r in range(nregions):
            base = _HEADER.size + r * _REGION.size
            for field_off in range(0, _REGION.size, 2):
                data = bytearray(blob)
                data[base + field_off] ^= 0xA5
                _expect_reject_or_valid(data)

    def test_offset_pointing_past_eof(self, blob):
        data = bytearray(blob)
        base = _HEADER.size  # first region descriptor
        # offset field is at +8 within the descriptor
        struct.pack_into("<Q", data, base + 8, len(blob) + 1000)
        with pytest.raises(LogFormatError):
            read_log_bytes(bytes(data))

    def test_crc_mismatch_caught(self, blob):
        data = bytearray(blob)
        base = _HEADER.size
        struct.pack_into("<I", data, base + 32, 0xDEADBEEF)
        with pytest.raises(LogFormatError, match="CRC"):
            read_log_bytes(bytes(data))


class TestPayloadFuzz:
    def test_random_payload_corruption(self, blob):
        rng = np.random.default_rng(7)
        body_start = _HEADER.size
        for _ in range(200):
            data = bytearray(blob)
            i = int(rng.integers(body_start, len(blob)))
            data[i] ^= int(rng.integers(1, 256))
            _expect_reject_or_valid(data)

    def test_truncation_at_every_tenth_byte(self, blob):
        for end in range(0, len(blob), max(len(blob) // 50, 1)):
            with pytest.raises(LogFormatError):
                read_log_bytes(blob[:end])

    def test_appended_garbage_tolerated_or_rejected(self, blob):
        # Trailing bytes after the last region: regions are located by
        # offset, so extra bytes are ignorable; either behaviour is fine,
        # crashing is not.
        _expect_reject_or_valid(bytearray(blob + b"\x00" * 64))


class TestZlibFuzz:
    """Compressed-payload attacks must surface as LogFormatError."""

    def test_corrupt_zlib_stream(self, blob):
        for kind, base, off, raw, comp in _regions(blob):
            data = bytearray(blob)
            data[off + comp // 2] ^= 0xFF  # clobber mid-stream
            try:
                read_log_bytes(bytes(data))
            except LogFormatError:
                continue  # typed rejection (zlib error or CRC mismatch)
            except Exception as exc:  # pragma: no cover - the bug we guard
                pytest.fail(f"region {kind}: bare {type(exc).__name__} escaped")

    def test_declared_size_smaller_than_stream(self, blob):
        # Shrink raw_len: bounded decompression stops one byte past it and
        # the length check fires — a typed rejection, not a bad log.
        data = bytearray(blob)
        _, base, off, raw, comp = _regions(blob)[0]
        struct.pack_into("<Q", data, base + 16, max(raw // 2, 1))
        with pytest.raises(LogFormatError):
            read_log_bytes(bytes(data))

    def test_hostile_declared_size_does_not_allocate(self, blob):
        # A multi-exabyte raw_len must be rejected by arithmetic, not by
        # attempting the allocation (bounded zlib.decompressobj path).
        data = bytearray(blob)
        _, base, off, raw, comp = _regions(blob)[0]
        struct.pack_into("<Q", data, base + 16, 2**62)
        with pytest.raises(LogFormatError):
            read_log_bytes(bytes(data))

    def test_unknown_codec_rejected(self, blob):
        data = bytearray(blob)
        _, base, off, raw, comp = _regions(blob)[0]
        struct.pack_into("<H", data, base + 4, 77)
        with pytest.raises(LogFormatError, match="codec"):
            read_log_bytes(bytes(data))


class TestStringFuzz:
    def test_malformed_utf8_is_typed(self, blob_plain):
        # Overwrite the job platform string ("summit", right after the
        # fixed QQIdd prelude) with invalid UTF-8 and re-sign the CRC so
        # the decoder actually reaches the string field.
        data = bytearray(blob_plain)
        kind, base, off, raw, comp = _regions(blob_plain)[0]
        assert kind == 1  # job region is written first
        str_off = off + struct.calcsize("<QQIdd") + 4  # skip length prefix
        data[str_off : str_off + 4] = b"\xff\xfe\xff\xfe"
        _fix_crc(data, base)
        with pytest.raises(LogFormatError, match="UTF-8"):
            read_log_bytes(bytes(data))

    def test_string_length_past_region_end(self, blob_plain):
        data = bytearray(blob_plain)
        kind, base, off, raw, comp = _regions(blob_plain)[0]
        str_len_off = off + struct.calcsize("<QQIdd")
        struct.pack_into("<I", data, str_len_off, 10**6)
        _fix_crc(data, base)
        with pytest.raises(LogFormatError, match="truncated string"):
            read_log_bytes(bytes(data))


class TestSeededCorruptionHarness:
    """Randomized end-to-end sweep: whatever the mutation, only typed
    ``repro.errors`` exceptions may escape — a bare ``struct.error``,
    ``zlib.error``, or ``UnicodeDecodeError`` is a parser bug."""

    MUTATIONS = ("flip", "zero", "truncate", "slice_dup", "insert", "delete")

    @staticmethod
    def _mutate(rng, data: bytes) -> bytes:
        kind = rng.choice(TestSeededCorruptionHarness.MUTATIONS)
        buf = bytearray(data)
        n = len(buf)
        if kind == "flip":
            for _ in range(int(rng.integers(1, 8))):
                buf[int(rng.integers(0, n))] ^= int(rng.integers(1, 256))
        elif kind == "zero":
            i = int(rng.integers(0, n))
            j = min(n, i + int(rng.integers(1, 64)))
            buf[i:j] = b"\x00" * (j - i)
        elif kind == "truncate":
            del buf[int(rng.integers(0, n)):]
        elif kind == "slice_dup":
            i = int(rng.integers(0, n))
            j = min(n, i + int(rng.integers(1, 64)))
            buf[i:i] = buf[i:j]
        elif kind == "insert":
            i = int(rng.integers(0, n))
            buf[i:i] = bytes(rng.integers(0, 256, size=int(rng.integers(1, 32)), dtype=np.uint8))
        else:  # delete
            i = int(rng.integers(0, n))
            j = min(n, i + int(rng.integers(1, 32)))
            del buf[i:j]
        return bytes(buf)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("compressed", [True, False], ids=["zlib", "raw"])
    def test_only_typed_errors_escape(self, blob, blob_plain, seed, compressed):
        rng = np.random.default_rng(20220627 + seed)
        base = blob if compressed else blob_plain
        for _ in range(150):
            data = self._mutate(rng, base)
            try:
                out = read_log_bytes(data)
            except ReproError:
                continue  # typed rejection: the contract
            except Exception as exc:  # pragma: no cover - the bug we hunt
                pytest.fail(
                    f"bare {type(exc).__name__} escaped the parser: {exc}"
                )
            try:
                validate_log(out)
            except LogValidationError as exc:  # pragma: no cover
                pytest.fail(f"accepted a semantically broken log: {exc}")


class TestCorruptShardIngest:
    """A corrupt log fails the whole path ingest, naming the file."""

    @pytest.fixture()
    def log_dir(self, tmp_path):
        paths = []
        for i in range(8):
            p = str(tmp_path / f"log{i}.darshan")
            write_log(_make_log(job_id=100 + i), p)
            paths.append(p)
        return paths

    @staticmethod
    def _corrupt(path):
        with open(path, "r+b") as fh:
            fh.seek(0)
            fh.write(b"\x00" * 16)  # destroy the magic

    def test_serial_ingest_names_the_file(self, log_dir, summit_machine):
        from repro.store.ingest import ingest_log_paths

        self._corrupt(log_dir[5])
        with pytest.raises(LogFormatError, match="log5"):
            ingest_log_paths(log_dir, "summit", summit_machine.mount_table())


class TestStreamTailFuzz:
    """NDJSON append-log tail corpus: truncation, garbage, replay.

    The stream contract (DESIGN.md §11): a malformed or half-written
    tail yields a typed error (``raise`` policy) or a counted skip
    (``skip`` policy) — and *never* a corrupt store, because only lines
    that parsed cleanly reach ingest, and the reader's offset never
    advances past an unconsumed partial record.
    """

    @staticmethod
    def _lines(n=3):
        from repro.stream import dump_line

        return [dump_line(_make_log(job_id=200 + i)) for i in range(n)]

    @staticmethod
    def _fresh_store():
        from repro.store.recordstore import RecordStore
        from repro.store.schema import empty_files, empty_jobs
        from repro.workloads.domains import domain_catalog

        return RecordStore(
            "summit", empty_files(0), empty_jobs(0),
            domains=domain_catalog("summit"),
        )

    def test_mid_record_truncation_at_every_byte(self, tmp_path):
        """However many bytes of the tail record exist, the reader waits.

        The complete head record is always yielded; the offset always
        stops exactly at the truncation's line start, so a resumed
        reader re-reads only the unfinished record.
        """
        from repro.stream import LogTailReader

        head, tail = self._lines(2)
        path = str(tmp_path / "s.ndjson")
        step = max(1, len(tail) // 97)  # every byte on a small-prime grid
        for cut in range(0, len(tail) - 1, step):
            with open(path, "wb") as fh:
                fh.write(head.encode() + tail[:cut].encode())
            reader = LogTailReader(path)
            logs = reader.poll()
            assert [lg.job.job_id for lg in logs] == [200], f"cut={cut}"
            assert reader.offset == len(head), f"cut={cut}"
            # Completing the record makes the next poll yield it.
            with open(path, "ab") as fh:
                fh.write(tail[cut:].encode())
            assert [lg.job.job_id for lg in reader.poll()] == [201]

    def test_final_truncation_is_typed_at_every_byte(self, tmp_path):
        from repro.stream import LogTailReader

        (line,) = self._lines(1)
        path = str(tmp_path / "s.ndjson")
        step = max(1, len(line) // 53)
        for cut in range(1, len(line) - 1, step):
            with open(path, "wb") as fh:
                fh.write(line[:cut].encode())
            with pytest.raises(LogFormatError):
                LogTailReader(path).poll(final=True)

    GARBAGE = [
        b"\x00\xfe\xfd not even text",
        b"{truncated json",
        b"[1, 2, 3]",
        b'{"job": "wrong shape"}',
        b'{"job": {"job_id": 99999999999999999999}}',
    ]

    def test_interleaved_garbage_skip_policy_preserves_ingest(self, tmp_path):
        """Garbage between records: skipped+logged, store as if clean."""
        import numpy as np

        from repro.stream import LogTailReader, StreamIngestor

        lines = self._lines(3)
        path = str(tmp_path / "s.ndjson")
        with open(path, "wb") as fh:
            for line, junk in zip(lines, self.GARBAGE):
                fh.write(line.encode() + junk + b"\n")
        reader = LogTailReader(path, on_error="skip")
        logs = reader.poll(final=True)
        assert [lg.job.job_id for lg in logs] == [200, 201, 202]
        assert reader.skipped == 3 and reader.last_error is not None

        dirty, clean = self._fresh_store(), self._fresh_store()
        from repro.platforms import summit

        StreamIngestor(dirty, summit().mount_table()).apply(logs)
        with open(path, "wb") as fh:
            fh.writelines(line.encode() for line in lines)
        clean_logs = LogTailReader(path).poll(final=True)
        StreamIngestor(clean, summit().mount_table()).apply(clean_logs)
        np.testing.assert_array_equal(dirty.files, clean.files)
        np.testing.assert_array_equal(dirty.jobs, clean.jobs)

    def test_interleaved_garbage_raise_policy_is_resumable(self, tmp_path):
        """Raise policy: typed error, offset parked at the bad line."""
        from repro.stream import LogTailReader

        lines = self._lines(2)
        path = str(tmp_path / "s.ndjson")
        with open(path, "wb") as fh:
            fh.write(lines[0].encode() + b"{junk}\n" + lines[1].encode())
        reader = LogTailReader(path)
        # The record ahead of the junk is delivered, not lost; the error
        # surfaces on the next poll with the offset parked on the junk.
        assert [lg.job.job_id for lg in reader.poll()] == [200]
        with pytest.raises(LogFormatError, match="offset"):
            reader.poll()
        assert reader.offset == len(lines[0])
        # Switching policy (as an operator would) resumes in place.
        reader.on_error = "skip"
        assert [lg.job.job_id for lg in reader.poll()] == [201]
        assert reader.skipped == 1

    def test_duplicate_offset_replay_never_reaches_the_store(self, tmp_path):
        """A stale checkpoint is a typed refusal; the store is untouched."""
        import numpy as np

        from repro.errors import CheckpointError
        from repro.platforms import summit
        from repro.stream import StreamCheckpoint, ingest_stream

        path = str(tmp_path / "s.ndjson")
        ckpt = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            fh.writelines(self._lines(3))
        store = self._fresh_store()
        mounts = summit().mount_table()
        ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        before_files, before_jobs = store.files.copy(), store.jobs.copy()
        StreamCheckpoint(path, 0, 0).save(ckpt)  # rewound: would replay
        with pytest.raises(CheckpointError):
            ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        np.testing.assert_array_equal(store.files, before_files)
        np.testing.assert_array_equal(store.jobs, before_jobs)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_seeded_stream_mutations_only_typed_errors(self, tmp_path, seed):
        """Whole-stream corruption sweep, both error policies.

        However the bytes are mangled, only typed ``repro.errors``
        exceptions escape, and whatever *was* ingested forms a store the
        analysis layer accepts.
        """
        from repro.analysis import layer_volumes
        from repro.platforms import summit
        from repro.stream import LogTailReader, StreamIngestor

        base = "".join(self._lines(3)).encode()
        rng = np.random.default_rng(20220627 + seed)
        path = str(tmp_path / "s.ndjson")
        mounts = summit().mount_table()
        for _ in range(40):
            data = TestSeededCorruptionHarness._mutate(rng, base)
            for policy in ("skip", "raise"):
                with open(path, "wb") as fh:
                    fh.write(data)
                store = self._fresh_store()
                reader = LogTailReader(path, on_error=policy)
                try:
                    logs = reader.poll(final=True)
                    StreamIngestor(store, mounts).apply(logs)
                except ReproError:
                    continue  # typed rejection: the contract
                except Exception as exc:  # pragma: no cover - the bug we hunt
                    pytest.fail(
                        f"bare {type(exc).__name__} escaped the stream "
                        f"path: {exc}"
                    )
                layer_volumes(store)  # whatever landed is analyzable
