"""The differential harness: incremental == cold recompute, bit for bit.

The delta-invalidation contract (DESIGN.md §11) says an analysis context
updated in place across appends must be indistinguishable from one built
cold on the final store. This suite enforces the strongest version of
that claim:

* **Randomized append schedules** — single-row logs, large batches, and
  interleaved mixes, drawn from a seeded RNG — are streamed onto a live
  store whose context (and every memoized primitive and result) stays
  warm. After *every* append, every registry query is compared against
  a cold store batch-built from the same log prefix, using the
  recursive bit-equality `assert_equivalent`.
* **Table identity** — the streamed store's files/jobs arrays and
  catalogs equal the batch-built store's byte for byte at every prefix.
* **Hypothesis properties** — fold associativity (any segmentation of
  the same rows folds to the identical result) and checkpoint/resume
  idempotence (interrupting after any batch and resuming from the saved
  checkpoint reproduces the one-pass store exactly).
* **No escape by fallback** — a fold that raises makes the context drop
  its memo and recompute cold, which still compares equal. Every append
  here therefore also proves that each foldable result warmed before it
  is still memoized afterwards and that no ``analysis.delta_fallback``
  event fired.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.context import foldable_merge
from repro.api import run_query
from repro.instrument.runtime import LogMaterializer
from repro.obs.tracer import Tracer, set_tracer
from repro.platforms import cori, summit
from repro.serve.registry import default_registry
from repro.store.ingest import ingest_logs
from repro.store.recordstore import RecordStore
from repro.store.schema import empty_files, empty_jobs
from repro.stream import (
    LogTailReader,
    StreamCheckpoint,
    StreamIngestor,
    dump_line,
    follow,
    ingest_stream,
)

from tests.test_analysis_equivalence import assert_equivalent

pytestmark = pytest.mark.stream

#: Logs per platform for the schedules. Materialization is the slow part;
#: module-scoped fixtures pay it once.
N_LOGS = 18


@pytest.fixture(scope="module")
def summit_logs(summit_store_small):
    return LogMaterializer(summit(), summit_store_small).materialize_many(N_LOGS)


@pytest.fixture(scope="module")
def cori_logs(cori_store_small):
    return LogMaterializer(cori(), cori_store_small).materialize_many(N_LOGS)


@pytest.fixture(params=["summit", "cori"], scope="module")
def case(request, summit_logs, cori_logs, summit_store_small, cori_store_small):
    if request.param == "summit":
        return summit(), summit_logs, summit_store_small
    return cori(), cori_logs, cori_store_small


def _empty_like(src: RecordStore) -> RecordStore:
    return RecordStore(
        src.platform, empty_files(0), empty_jobs(0),
        domains=src.domains, scale=src.scale,
    )


def _batch_store(logs, machine, src: RecordStore) -> RecordStore:
    built = ingest_logs(
        logs, src.platform, machine.mount_table(),
        domains=src.domains, scale=src.scale,
    )
    # A fresh store around copies: nothing shared with the live one.
    return RecordStore(
        built.platform, built.files.copy(), built.jobs.copy(),
        domains=built.domains, extensions=built.extensions, scale=built.scale,
    )


def _outcome(store, name):
    """Result or raised-error type: errors must match across paths too."""
    try:
        return run_query(store, name)
    except Exception as exc:
        return ("raised", type(exc))


def _assert_all_queries_equal(live: RecordStore, cold: RecordStore, where):
    for name in sorted(default_registry()):
        got, want = _outcome(live, name), _outcome(cold, name)
        if isinstance(want, tuple) and want and want[0] == "raised":
            assert got == want, f"{where}:{name}: {got!r} vs {want!r}"
        else:
            assert_equivalent(got, want, f"{where}:{name}")


def _assert_tables_equal(live: RecordStore, cold: RecordStore, where):
    np.testing.assert_array_equal(live.files, cold.files, err_msg=where)
    np.testing.assert_array_equal(live.jobs, cold.jobs, err_msg=where)
    assert live.extensions == cold.extensions, where
    assert live.domains == cold.domains, where


def _folded_keys(context) -> set:
    """Memo keys of the foldable results ``context`` holds."""
    return {
        k for k in context._memo
        if isinstance(k, tuple) and k[0] == "result" and foldable_merge(k[1])
    }


def _apply_folding(ingestor, logs):
    """Apply ``logs`` and prove the warm foldable results folded."""
    context = ingestor.store._analysis
    if context is None:  # nothing warm yet: a plain append
        ingestor.apply(logs)
        return
    warmed = _folded_keys(context)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        ingestor.apply(logs)
    finally:
        set_tracer(previous)
    fallbacks = [
        r.args for r in tracer.records()
        if r.name == "analysis.delta_fallback"
    ]
    assert not fallbacks, fallbacks
    assert ingestor.store.analysis() is context and not context.stale
    assert warmed <= _folded_keys(context), warmed - _folded_keys(context)


def _schedule(rng, n):
    """A randomized batch schedule mixing single logs and large batches."""
    sizes = []
    remaining = n
    while remaining:
        size = int(rng.choice([1, 1, 2, rng.integers(3, max(4, n // 2 + 1))]))
        size = min(size, remaining)
        sizes.append(size)
        remaining -= size
    return sizes


class TestRandomizedSchedules:
    """Every registry query, after every append, against a cold rebuild."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_matches_cold_recompute(self, case, seed):
        machine, logs, src = case
        rng = np.random.default_rng(20220627 + seed)
        live = _empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        applied = 0
        context = None
        for size in _schedule(rng, len(logs)):
            _apply_folding(ingestor, logs[applied:applied + size])
            applied += size
            if context is None:
                # Warm the context now so every later append exercises
                # the delta path, not a cold rebuild.
                context = live.analysis()
            assert live.analysis() is context, "append must not invalidate"
            cold = _batch_store(logs[:applied], machine, src)
            _assert_tables_equal(live, cold, f"prefix={applied}")
            _assert_all_queries_equal(live, cold, f"prefix={applied}")
        assert applied == len(logs)

    def test_single_row_and_large_batch_interleaved(self, case):
        """The two extremes back to back: 1-log appends between bulk ones."""
        machine, logs, src = case
        live = _empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        context = None
        applied = 0
        for size in (len(logs) // 2, 1, 1, len(logs) - len(logs) // 2 - 2):
            _apply_folding(ingestor, logs[applied:applied + size])
            applied += size
            if context is None:
                context = live.analysis()
            cold = _batch_store(logs[:applied], machine, src)
            _assert_tables_equal(live, cold, f"prefix={applied}")
            _assert_all_queries_equal(live, cold, f"prefix={applied}")

    def test_ndjson_end_to_end_equals_batch_build(self, case, tmp_path):
        """dump_line -> tail reader -> ingestor == ingest_logs, bytewise."""
        machine, logs, src = case
        path = str(tmp_path / "s.ndjson")
        with open(path, "w") as fh:
            for log in logs:
                fh.write(dump_line(log))
        live = _empty_like(src)
        stats = ingest_stream(path, live, machine.mount_table(), batch_logs=5)
        assert stats.logs == len(logs) and stats.skipped == 0
        _assert_tables_equal(
            live, _batch_store(logs, machine, src), "end-to-end"
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
        live = _empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        ingestor.apply(logs[:bounds[1]])
        context = live.analysis()
        for name, fn in self.FOLDED:
            fn(live)  # memoize, so later appends must fold it
        for lo, hi in zip(bounds[1:], bounds[2:]):
            _apply_folding(ingestor, logs[lo:hi])
        assert live.analysis() is context
        cold = _batch_store(logs, machine, src)
        for name, fn in self.FOLDED:
            assert_equivalent(fn(live), fn(cold), name)

    @given(split=st.integers(1, N_LOGS - 1))
    @settings(max_examples=10, deadline=None)
    def test_one_fold_equals_cold(self, case, split):
        """fold(compute(A), tail(B)) == compute(A + B) for every fold."""
        machine, logs, src = case
        live = _empty_like(src)
        ingestor = StreamIngestor(live, machine.mount_table())
        ingestor.apply(logs[:split])
        for name, fn in self.FOLDED:
            fn(live)
        _apply_folding(ingestor, logs[split:])
        cold = _batch_store(logs, machine, src)
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
        live = _empty_like(src)
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
        one_pass = _empty_like(src)
        StreamIngestor(one_pass, machine.mount_table()).apply(logs)
        _assert_tables_equal(live, one_pass, "resume")
        # Resuming again at end-of-stream applies nothing.
        again = ingest_stream(
            path, live, machine.mount_table(), checkpoint_path=ckpt,
        )
        assert again.logs == 0 and again.batches == 0
        _assert_tables_equal(live, one_pass, "resume-noop")
