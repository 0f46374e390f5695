"""Stream folds and checkpoints: the properties beyond path equality.

That a live store, appended log by log with its context warm, answers
every registry query exactly as a cold batch build of the same prefix
is the ``appended`` path of the differential oracle
(``tests/test_differential.py``). This suite pins what that path
relies on:

* **NDJSON end to end** — ``dump_line`` -> tail reader -> ingestor
  builds the batch-built store byte for byte.
* **Fold associativity** (Hypothesis) — any segmentation of the same
  rows folds to the identical result, with no ``delta_fallback``.
* **Checkpoint/resume idempotence** (Hypothesis) — interrupting after
  any batch and resuming from the saved checkpoint reproduces the
  one-pass store exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platforms import cori, summit
from repro.serve.registry import default_registry
from repro.stream import (
    LogTailReader,
    StreamCheckpoint,
    StreamIngestor,
    dump_line,
    follow,
    ingest_stream,
)

from tests.conftest import (
    N_LOGS, apply_folding, assert_equivalent, assert_stores_identical,
    batch_store, empty_like,
)

pytestmark = pytest.mark.stream


@pytest.fixture(params=["summit", "cori"], scope="module")
def case(request, summit_logs, cori_logs, summit_store_small, cori_store_small):
    if request.param == "summit":
        return summit(), summit_logs, summit_store_small
    return cori(), cori_logs, cori_store_small


class TestRandomizedSchedules:
    """The stream front door; the schedules themselves run in the oracle."""

    def test_ndjson_end_to_end_equals_batch_build(self, case, tmp_path):
        """dump_line -> tail reader -> ingestor == ingest_logs, bytewise."""
        machine, logs, src = case
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            for log in logs:
                fh.write(dump_line(log))
        live = empty_like(src)
        stats = ingest_stream(path, live, machine.mount_table(), batch_logs=5)
        assert stats.logs == len(logs) and stats.skipped == 0
        assert_stores_identical(
            live, batch_store(logs, machine, src), "end-to-end", canonical=False
        )


class TestFoldAssociativity:
    """Folding is associative: any segmentation, the identical result.

    Hypothesis draws the segmentation (a list of cut points); the folded
    results — including the exact int64 sums and histogram tallies
    inside them — must be bit-identical however the rows arrived.
    """

    FOLDED = [
        (name, lambda s, spec=spec: spec.run(s, {}))
        for name, spec in sorted(default_registry().items())
        if spec.foldable
    ]

    @given(cuts=st.lists(st.integers(1, N_LOGS - 1), max_size=6))
    @settings(max_examples=12, deadline=None)
    def test_any_segmentation_folds_identically(self, case, cuts):
        machine, logs, src = case
        bounds = sorted({0, *cuts, len(logs)})
        live = empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        ingestor.apply(logs[:bounds[1]])
        context = live.analysis()
        for name, fn in self.FOLDED:
            fn(live)  # memoize, so later appends must fold it
        for lo, hi in zip(bounds[1:], bounds[2:]):
            apply_folding(ingestor, logs[lo:hi])
        assert live.analysis() is context
        cold = batch_store(logs, machine, src)
        for name, fn in self.FOLDED:
            assert_equivalent(fn(live), fn(cold), name)

    @given(split=st.integers(1, N_LOGS - 1))
    @settings(max_examples=10, deadline=None)
    def test_one_fold_equals_cold(self, case, split):
        """fold(compute(A), tail(B)) == compute(A + B) for every fold."""
        machine, logs, src = case
        live = empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        ingestor.apply(logs[:split])
        for name, fn in self.FOLDED:
            fn(live)
        apply_folding(ingestor, logs[split:])
        cold = batch_store(logs, machine, src)
        for name, fn in self.FOLDED:
            assert_equivalent(fn(live), fn(cold), name)


class TestCheckpointResume:
    """Interrupt anywhere, resume from the checkpoint, same store."""

    @given(batch_logs=st.integers(1, 7), stop_after=st.integers(1, 5))
    @settings(max_examples=12, deadline=None)
    def test_resume_is_idempotent(self, case, tmp_path_factory,
                                  batch_logs, stop_after):
        machine, logs, src = case
        tmp = tmp_path_factory.mktemp("resume")
        path = str(tmp / "s.ndjson")
        ckpt = str(tmp / "c.json")
        with open(path, "w") as fh:
            for log in logs:
                fh.write(dump_line(log))

        # Interrupted run: stop after `stop_after` applied batches.
        live = empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        follow(
            LogTailReader(path), ingestor, batch_logs=batch_logs,
            max_batches=stop_after, final=True, checkpoint_path=ckpt,
        )
        saved = StreamCheckpoint.load(ckpt)
        assert saved.logs == ingestor.logs_applied

        # Resume: a *new* ingestor + reader pick up from the checkpoint.
        stats = ingest_stream(
            path, live, machine.mount_table(),
            checkpoint_path=ckpt, batch_logs=batch_logs,
        )
        assert stats.logs == len(logs) - saved.logs
        one_pass = empty_like(src)
        StreamIngestor(one_pass, machine.mount_table()).apply(logs)
        assert_stores_identical(live, one_pass, "resume", canonical=False)
        # Resuming again at end-of-stream applies nothing.
        again = ingest_stream(
            path, live, machine.mount_table(), checkpoint_path=ckpt,
        )
        assert again.logs == 0 and again.batches == 0
        assert_stores_identical(live, one_pass, "resume-noop", canonical=False)
