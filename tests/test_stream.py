"""Unit coverage for the NDJSON stream package.

Codec round trips and typed rejection, tail-reader offset discipline,
checkpoint persistence, ingestor id-space remapping, the follow loop's
stop conditions, and the ``repro ingest`` CLI (subprocess, resume
included). The cross-layer correctness story — streamed stores
bit-identical to batch-built ones under randomized schedules — lives in
``test_stream_equivalence.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.darshan.constants import ModuleId
from repro.darshan.log import DarshanLog
from repro.darshan.records import FileRecord, JobRecord, NameRecord
from repro.errors import CheckpointError, LogFormatError, StreamError
from repro.platforms import summit
from repro.store.ingest import ingest_logs
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs
from repro.stream import (
    FollowStats,
    LogTailReader,
    StreamCheckpoint,
    StreamIngestor,
    dump_line,
    follow,
    ingest_stream,
    log_from_json,
    log_to_json,
    parse_line,
)
from repro.workloads.domains import domain_catalog

pytestmark = pytest.mark.stream


def make_log(job_id=3, nfiles=4, ext="x", domain="biology"):
    job = JobRecord(
        job_id, 7, 8, 0.0, 60.0, platform="summit", domain=domain,
        metadata={"nnodes": "2"},
    )
    log = DarshanLog(job)
    for i in range(nfiles):
        rid = 50 + i
        log.register_name(
            NameRecord(rid, f"/gpfs/alpine/f{i}.{ext}", "/gpfs/alpine", "pfs")
        )
        rec = FileRecord(ModuleId.POSIX, rid)
        rec.set("BYTES_READ", 4096 * (i + 1))
        rec.set("READS", i + 1)
        rec.set("SIZE_READ_1K_10K", i + 1)
        rec.set("F_READ_TIME", 0.5)
        log.add_record(rec)
    return log


def make_store(platform="summit", scale=1.0):
    return RecordStore(
        platform, empty_files(0), empty_jobs(0),
        domains=domain_catalog(platform), scale=scale,
    )


def write_stream(path, logs):
    with open(path, "w") as fh:
        for log in logs:
            fh.write(dump_line(log))
    return os.path.getsize(path)


class TestFormat:
    def test_round_trip_preserves_wire_dict(self):
        log = make_log()
        back = parse_line(dump_line(log))
        assert log_to_json(back) == log_to_json(log)
        assert back.total_bytes() == log.total_bytes()

    def test_dump_line_framing(self):
        line = dump_line(make_log())
        assert line.endswith("\n")
        assert line.count("\n") == 1  # newline is the record terminator
        assert line.isascii()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("job"),
            lambda o: o.pop("names"),
            lambda o: o.pop("records"),
            lambda o: o["job"].pop("job_id"),
            lambda o: o["job"].__setitem__("job_id", "7"),
            lambda o: o["job"].__setitem__("job_id", True),
            lambda o: o["job"].__setitem__("job_id", -1),
            lambda o: o["job"].__setitem__("job_id", 2**70),
            lambda o: o["job"].__setitem__("nprocs", 0),
            lambda o: o["job"].__setitem__("end_time", -1.0),
            lambda o: o["job"].__setitem__("metadata", {"a": 1}),
            lambda o: o["names"].__setitem__(0, "not-a-dict"),
            lambda o: o["names"][0].__setitem__("id", 2**65),
            lambda o: o["records"][0].__setitem__("module", "DXT_POSIX"),
            lambda o: o["records"][0].__setitem__("rank", -2),
            lambda o: o["records"][0].__setitem__("counters", [1, 2, 3]),
            lambda o: o["records"][0].__setitem__("counters", ["x"] * 73),
            lambda o: o["records"][0].__setitem__("id", 10**6),  # no name
        ],
        ids=[
            "no-job", "no-names", "no-records", "missing-key", "str-int",
            "bool-int", "negative-id", "overflow-id", "zero-nprocs",
            "time-order", "metadata-type", "name-not-dict", "name-id-range",
            "unknown-module", "bad-rank", "counter-shape", "counter-type",
            "unregistered-name",
        ],
    )
    def test_malformed_objects_raise_typed(self, mutate):
        obj = log_to_json(make_log())
        mutate(obj)
        with pytest.raises(LogFormatError):
            log_from_json(obj)

    @pytest.mark.parametrize(
        "line",
        [b"{not json}", b"[1,2,3]", b'"scalar"', b"\xff\xfe\x00"],
        ids=["bad-json", "non-object", "scalar", "bad-utf8"],
    )
    def test_malformed_lines_raise_typed(self, line):
        with pytest.raises(LogFormatError):
            parse_line(line)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        StreamCheckpoint("s.ndjson", 123, 4).save(path)
        back = StreamCheckpoint.load(path)
        assert back == StreamCheckpoint("s.ndjson", 123, 4)
        assert not os.path.exists(path + ".tmp")  # atomic replace

    def test_missing_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError):
            StreamCheckpoint.load(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize(
        "payload",
        [
            "not json", "[]", '{"stream": "s"}',
            '{"stream": 3, "offset": 0, "logs": 0}',
            '{"stream": "s", "offset": -1, "logs": 0}',
            '{"stream": "s", "offset": true, "logs": 0}',
            '{"stream": "s", "offset": 1.5, "logs": 0}',
        ],
        ids=["garbage", "non-dict", "missing", "stream-type", "negative",
             "bool-offset", "float-offset"],
    )
    def test_malformed_is_typed(self, tmp_path, payload):
        path = str(tmp_path / "c.json")
        with open(path, "w") as fh:
            fh.write(payload)
        with pytest.raises(CheckpointError):
            StreamCheckpoint.load(path)


class TestReader:
    def test_partial_tail_left_unconsumed(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        full = dump_line(make_log(job_id=1))
        partial = dump_line(make_log(job_id=2))[:-20]
        with open(path, "w") as fh:
            fh.write(full + partial)
        reader = LogTailReader(path)
        logs = reader.poll()
        assert [lg.job.job_id for lg in logs] == [1]
        assert reader.offset == len(full)  # not past the half-written line
        # The writer finishes the record: the next poll picks it up.
        with open(path, "a") as fh:
            fh.write(dump_line(make_log(job_id=2))[len(partial):])
        assert [lg.job.job_id for lg in reader.poll()] == [2]
        assert reader.poll() == []

    def test_blank_separator_lines_are_legal(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write("\n" + dump_line(make_log(job_id=1)) + "\n\n"
                     + dump_line(make_log(job_id=2)))
        reader = LogTailReader(path)
        assert [lg.job.job_id for lg in reader.poll()] == [1, 2]

    def test_max_logs_is_checkpoint_exact(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        lines = [dump_line(make_log(job_id=i)) for i in range(5)]
        write_stream(path, [make_log(job_id=i) for i in range(5)])
        reader = LogTailReader(path)
        assert len(reader.poll(max_logs=2)) == 2
        assert reader.offset == len(lines[0]) + len(lines[1])
        # A fresh reader from that offset sees exactly the rest.
        rest = LogTailReader(path, offset=reader.offset).poll()
        assert [lg.job.job_id for lg in rest] == [2, 3, 4]

    def test_final_truncated_tail_raises(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write(dump_line(make_log())[:-5])
        with pytest.raises(LogFormatError, match="truncated record"):
            LogTailReader(path).poll(final=True)

    def test_final_truncated_tail_skips(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write(dump_line(make_log(job_id=1)) + dump_line(make_log())[:-5])
        reader = LogTailReader(path, on_error="skip")
        logs = reader.poll(final=True)
        assert [lg.job.job_id for lg in logs] == [1]
        assert reader.skipped == 1 and reader.last_error is not None
        assert reader.offset == os.path.getsize(path)

    def test_raise_policy_does_not_advance_past_bad_line(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        good = dump_line(make_log(job_id=1))
        with open(path, "w") as fh:
            fh.write(good + "{garbled}\n" + dump_line(make_log(job_id=2)))
        reader = LogTailReader(path)
        # Parsed records ahead of the bad line are delivered, not lost.
        assert [lg.job.job_id for lg in reader.poll()] == [1]
        assert reader.offset == len(good)  # parked on the bad line
        with pytest.raises(LogFormatError, match="offset"):
            reader.poll()
        assert reader.offset == len(good)  # a retry sees the same bytes

    def test_skip_policy_consumes_and_counts(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            fh.write(dump_line(make_log(job_id=1)) + "{garbled}\n"
                     + dump_line(make_log(job_id=2)))
        reader = LogTailReader(path, on_error="skip")
        assert [lg.job.job_id for lg in reader.poll()] == [1, 2]
        assert reader.skipped == 1

    def test_shrunk_stream_is_typed(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        write_stream(path, [make_log()])
        with pytest.raises(StreamError, match="shrank"):
            LogTailReader(path, offset=10**6).poll()

    def test_missing_stream_is_typed(self, tmp_path):
        with pytest.raises(StreamError, match="cannot read"):
            LogTailReader(str(tmp_path / "nope")).poll()

    @pytest.mark.parametrize("kwargs", [{"on_error": "ignore"}, {"offset": -1}])
    def test_bad_construction_is_typed(self, tmp_path, kwargs):
        with pytest.raises(StreamError):
            LogTailReader(str(tmp_path / "s"), **kwargs)


class TestIngestor:
    def test_empty_apply_is_noop(self):
        store = make_store()
        ing = StreamIngestor(store, summit().mount_table())
        gen = store.generation
        assert ing.apply([]) == 0
        assert store.generation == gen and ing.logs_applied == 0

    def test_log_ids_continue_across_batches(self):
        store = make_store()
        ing = StreamIngestor(store, summit().mount_table())
        ing.apply([make_log(job_id=1), make_log(job_id=2)])
        ing.apply([make_log(job_id=3)])
        assert ing.logs_applied == 3
        assert sorted(np.unique(store.files["log_id"])) == [0, 1, 2]
        # A new ingestor over the same store resumes the id space.
        assert StreamIngestor(store, summit().mount_table()).logs_applied == 3

    def test_extension_catalog_unions_first_seen(self):
        store = make_store()
        ing = StreamIngestor(store, summit().mount_table())
        ing.apply([make_log(job_id=1, ext="h5")])
        ing.apply([make_log(job_id=2, ext="dat"), make_log(job_id=3, ext="h5")])
        assert store.extensions == ("h5", "dat")
        batch = ingest_logs(
            [make_log(job_id=1, ext="h5"), make_log(job_id=2, ext="dat"),
             make_log(job_id=3, ext="h5")],
            "summit", summit().mount_table(), domains=store.domains,
        )
        np.testing.assert_array_equal(store.files["ext"], batch.files["ext"])

    def test_checkpoint_mismatch_is_typed(self):
        store = make_store()
        ing = StreamIngestor(store, summit().mount_table())
        ing.apply([make_log()])
        with pytest.raises(CheckpointError, match="refusing"):
            ing.verify_checkpoint(StreamCheckpoint("s", 0, 0))
        ing.verify_checkpoint(StreamCheckpoint("s", 10, 1))  # consistent


class TestFollow:
    def test_batching_stats_and_callback(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        write_stream(path, [make_log(job_id=i) for i in range(5)])
        store = make_store()
        generations = []
        stats = follow(
            LogTailReader(path),
            StreamIngestor(store, summit().mount_table()),
            batch_logs=2, final=True,
            on_append=lambda s: generations.append(s.generation),
        )
        assert stats == FollowStats(
            batches=3, logs=5, rows=len(store.files), skipped=0,
            offset=os.path.getsize(path),
        )
        assert generations == [store.generation - 2, store.generation - 1,
                               store.generation]

    def test_max_batches_stops_early(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        write_stream(path, [make_log(job_id=i) for i in range(5)])
        store = make_store()
        stats = follow(
            LogTailReader(path),
            StreamIngestor(store, summit().mount_table()),
            batch_logs=2, max_batches=1, final=True,
        )
        assert stats.batches == 1 and stats.logs == 2

    def test_idle_polls_exit(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        write_stream(path, [make_log()])
        store = make_store()
        stats = follow(
            LogTailReader(path),
            StreamIngestor(store, summit().mount_table()),
            poll_interval=0.0, idle_polls=2,
        )
        assert stats.batches == 1 and stats.logs == 1

    def test_checkpoint_written_per_batch(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        ckpt = str(tmp_path / "c.json")
        write_stream(path, [make_log(job_id=i) for i in range(4)])
        store = make_store()
        follow(
            LogTailReader(path),
            StreamIngestor(store, summit().mount_table()),
            batch_logs=2, final=True, checkpoint_path=ckpt,
        )
        back = StreamCheckpoint.load(ckpt)
        assert back.offset == os.path.getsize(path) and back.logs == 4


class TestIngestStream:
    def test_resume_from_checkpoint(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        ckpt = str(tmp_path / "c.json")
        mounts = summit().mount_table()
        logs = [make_log(job_id=i) for i in range(6)]
        write_stream(path, logs[:4])
        store = make_store()
        first = ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        assert first.logs == 4
        write_stream(path, logs)  # file grows by two records
        second = ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        assert second.logs == 2  # only the new tail, no replay
        reference = make_store()
        StreamIngestor(reference, mounts).apply(logs)
        np.testing.assert_array_equal(store.files, reference.files)
        np.testing.assert_array_equal(store.jobs, reference.jobs)

    def test_stale_checkpoint_replay_is_rejected(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        ckpt = str(tmp_path / "c.json")
        mounts = summit().mount_table()
        write_stream(path, [make_log(job_id=i) for i in range(3)])
        store = make_store()
        ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        StreamCheckpoint(path, 0, 0).save(ckpt)  # duplicate-offset replay
        before = store.files.copy()
        with pytest.raises(CheckpointError, match="refusing"):
            ingest_stream(path, store, mounts, checkpoint_path=ckpt)
        np.testing.assert_array_equal(store.files, before)  # untouched

    def test_checkpoint_for_other_stream_is_rejected(self, tmp_path):
        path = str(tmp_path / "s.ndjson")
        ckpt = str(tmp_path / "c.json")
        write_stream(path, [make_log()])
        StreamCheckpoint(str(tmp_path / "other.ndjson"), 0, 0).save(ckpt)
        with pytest.raises(CheckpointError, match="tracks stream"):
            ingest_stream(path, make_store(), summit().mount_table(),
                          checkpoint_path=ckpt)


def _run_cli(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, cwd=str(cwd),
    )


class TestIngestCli:
    def test_create_resume_and_analyze(self, tmp_path):
        logs = [make_log(job_id=i) for i in range(6)]
        write_stream(tmp_path / "s.ndjson", logs[:4])
        out = _run_cli(
            "ingest", "s.ndjson", "--store", "y.npz", "--platform", "summit",
            "--checkpoint", "y.ckpt", cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "ingested 4 logs" in out.stdout
        write_stream(tmp_path / "s.ndjson", logs)
        out = _run_cli(
            "ingest", "s.ndjson", "--store", "y.npz",
            "--checkpoint", "y.ckpt", cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "ingested 2 logs" in out.stdout
        out = _run_cli(
            "analyze", "y.npz", "--exhibit", "table3", cwd=tmp_path
        )
        assert out.returncode == 0, out.stderr
        assert "Table 3" in out.stdout

    def test_skip_policy_reports_skipped(self, tmp_path):
        with open(tmp_path / "s.ndjson", "w") as fh:
            fh.write(dump_line(make_log(job_id=1)) + "{garbled}\n"
                     + dump_line(make_log(job_id=2)))
        out = _run_cli(
            "ingest", "s.ndjson", "--store", "y.npz", "--on-error", "skip",
            cwd=tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "ingested 2 logs" in out.stdout
        assert "1 lines skipped" in out.stdout

    def test_raise_policy_fails_on_garbled_line(self, tmp_path):
        with open(tmp_path / "s.ndjson", "w") as fh:
            fh.write("{garbled}\n")
        out = _run_cli(
            "ingest", "s.ndjson", "--store", "y.npz", cwd=tmp_path
        )
        assert out.returncode == 1
        assert out.stderr.startswith("ingest: stream line: invalid JSON")
        assert "Traceback" not in out.stderr
