"""The whole-row kernel equals numpy's structured row operations.

:func:`~repro.store.schema.concat_rows` and
:func:`~repro.store.schema.take_rows` move rows as opaque bytes. Under
Hypothesis they must give byte for byte what ``np.concatenate`` and
fancy indexing give on the structured dtype, for tables in memory,
memory-mapped from ``.npy`` files, strided views, empty tables, and
integer indices with repeats and negative values. A table whose dtype
differs from the first one's is refused, because there numpy converts
rows by field name while a byte copy would scramble them.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store.schema import FILE_DTYPE, JOB_DTYPE, concat_rows, take_rows

KINDS = ("array", "memmap", "strided")


def _rows(dtype: np.dtype, n: int, seed: int) -> np.ndarray:
    """``n`` rows of arbitrary bytes."""
    raw = np.random.default_rng(seed).integers(
        0, 256, size=n * dtype.itemsize, dtype=np.uint8
    )
    return raw.view(dtype)


def _table(dtype: np.dtype, n: int, seed: int, kind: str, tmp: str) -> np.ndarray:
    if kind == "strided":  # every other row, last first: a negative stride
        return _rows(dtype, 2 * n, seed)[::-2]
    rows = _rows(dtype, n, seed)
    if kind == "memmap":
        path = os.path.join(tmp, f"t{seed}.npy")
        np.save(path, rows)
        return np.load(path, mmap_mode="r")
    return rows


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, seed, draw(st.sampled_from(KINDS))


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [FILE_DTYPE, JOB_DTYPE], ids=["files", "jobs"])
@given(spec=tables(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_take_rows_equals_fancy_indexing(dtype, spec, data):
    n, seed, kind = spec
    with tempfile.TemporaryDirectory() as tmp:
        table = _table(dtype, n, seed, kind, tmp)
        if n and data.draw(st.booleans(), label="integer index"):
            idx = np.array(
                data.draw(st.lists(st.integers(min_value=-n, max_value=n - 1), max_size=60)),
                dtype=np.int64,
            )
        else:
            idx = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        got = take_rows(table, idx)
        _same(got, table[idx])
        assert not np.shares_memory(got, table)
        del table  # release the mapping before the directory goes


@pytest.mark.parametrize("dtype", [FILE_DTYPE, JOB_DTYPE], ids=["files", "jobs"])
@given(specs=st.lists(tables(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_concat_rows_equals_concatenate(dtype, specs):
    with tempfile.TemporaryDirectory() as tmp:
        parts = [_table(dtype, n, seed + i, kind, tmp) for i, (n, seed, kind) in enumerate(specs)]
        got = concat_rows(parts)
        _same(got, np.concatenate(parts))
        assert not any(np.shares_memory(got, p) for p in parts)
        del parts


# FILE_DTYPE's fields in reverse order: the same itemsize, so only the
# dtype check stops a byte copy from scrambling it.
REVERSED = np.dtype([(name, FILE_DTYPE.fields[name][0]) for name in reversed(FILE_DTYPE.names)])


@pytest.mark.parametrize("other", [REVERSED, JOB_DTYPE], ids=["reordered", "jobs"])
def test_mismatched_dtypes_are_refused(other):
    assert REVERSED.itemsize == FILE_DTYPE.itemsize
    files = _rows(FILE_DTYPE, 3, 2)
    with pytest.raises(StoreError) as exc:
        concat_rows([files, np.zeros(2, dtype=other)])
    assert str(FILE_DTYPE) in str(exc.value)
    assert str(other) in str(exc.value)
