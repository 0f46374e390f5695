"""Synthesizing operation streams for the object-path runtime.

Given a file's target statistics — bytes moved, operation count, optional
request-size histogram — produce a concrete operation batch
(:data:`repro.darshan.accumulate.OP_DTYPE`) whose accumulation reproduces
those statistics: byte totals exactly, histograms bin-for-bin, sequential
offsets (the dominant HPC pattern), and timers spread across operations.
"""

from __future__ import annotations

import numpy as np

from repro.darshan.accumulate import (
    OP_CLOSE,
    OP_OPEN,
    OP_READ,
    OP_WRITE,
    empty_ops,
)
from repro.darshan.bins import ACCESS_SIZE_BINS

_EDGES = np.asarray(ACCESS_SIZE_BINS.edges, dtype=np.float64)
#: Per bin: the smallest op size (1 byte in the 0-bin, so a zero-size
#: read never appears) and the bytes an op can add without leaving its
#: bin (0 for the open-ended top bin, which takes any remainder whole).
_LOWEST = np.where(_EDGES[:-1] > 0, _EDGES[:-1], 1).astype(np.int64)
_ROOM = np.where(
    np.isfinite(_EDGES[1:]), _EDGES[1:] - 1 - _LOWEST, 0
).astype(np.int64)


def _sizes_for_histogram(hist: np.ndarray, total_bytes: int) -> np.ndarray:
    """Request sizes matching a bin histogram and summing to total_bytes.

    Each op starts at its bin's lower edge (+1 byte for the 0-bin so a
    zero-size read never appears); leftover bytes are distributed to ops
    with headroom in their bin, largest bins first, so no op leaves its
    bin and the sum is exact. Raises ``ValueError`` when the histogram
    cannot realize the byte total (checked by log validation too).
    """
    hist = np.asarray(hist, dtype=np.int64)
    nops = int(hist.sum())
    if nops == 0:
        if total_bytes:
            raise ValueError("bytes without operations")
        return np.empty(0, dtype=np.int64)
    sizes = np.repeat(_LOWEST, hist)
    remainder = total_bytes - int(sizes.sum())
    if remainder < 0:
        raise ValueError(
            f"total_bytes {total_bytes} below histogram floor {int(sizes.sum())}"
        )
    if hist[-1]:
        # The largest op sits in the open-ended top bin: it takes it all.
        sizes[-1] += remainder
        return sizes
    # Fill headroom from the largest op down: each op takes its whole
    # room until the remainder runs out, the next one what is left.
    room = np.repeat(_ROOM, hist)[::-1]
    add = np.clip(remainder - (np.cumsum(room) - room), 0, room)
    sizes += add[::-1]
    # Every op is at its bin ceiling and bytes may remain (possible only
    # for histograms built from integer-rounded means). Dump the rest on
    # the largest op: byte totals stay exact at the cost of that one op
    # drifting a bin — the accumulator recomputes the histogram from
    # actual sizes, so the log stays self-consistent.
    sizes[-1] += remainder - int(add.sum())
    return sizes


def _uniform_sizes(nops: int, total_bytes: int) -> np.ndarray:
    """Near-equal op sizes summing exactly to total_bytes (STDIO path)."""
    if nops == 0:
        if total_bytes:
            raise ValueError("bytes without operations")
        return np.empty(0, dtype=np.int64)
    base = total_bytes // nops
    sizes = np.full(nops, base, dtype=np.int64)
    sizes[: total_bytes - base * nops] += 1
    return sizes


def synthesize_ops(
    *,
    bytes_read: int,
    bytes_written: int,
    read_ops: int,
    write_ops: int,
    read_time: float,
    write_time: float,
    meta_time: float,
    read_hist: np.ndarray | None = None,
    write_hist: np.ndarray | None = None,
    start_time: float = 0.0,
) -> np.ndarray:
    """Build a sorted operation batch realizing the target statistics.

    Reads come first, then writes (the common read-inputs/write-outputs
    job phase structure), bracketed by open/close carrying the metadata
    time. Histograms, when given, must sum to the op counts.
    """
    if bytes_read < 0 or bytes_written < 0:
        raise ValueError("byte totals must be non-negative")
    read_sizes = (
        _sizes_for_histogram(read_hist, bytes_read)
        if read_hist is not None and np.asarray(read_hist).sum() > 0
        else _uniform_sizes(read_ops, bytes_read)
    )
    write_sizes = (
        _sizes_for_histogram(write_hist, bytes_written)
        if write_hist is not None and np.asarray(write_hist).sum() > 0
        else _uniform_sizes(write_ops, bytes_written)
    )
    nr, nw = len(read_sizes), len(write_sizes)
    n = nr + nw + 2  # + open + close
    ops = empty_ops(n)
    ops["kind"][0] = OP_OPEN
    ops["kind"][1 : 1 + nr] = OP_READ
    ops["kind"][1 + nr : 1 + nr + nw] = OP_WRITE
    ops["kind"][-1] = OP_CLOSE

    # Sequential offsets within each direction.
    ops["size"][1 : 1 + nr] = read_sizes
    ops["size"][1 + nr : 1 + nr + nw] = write_sizes
    if nr:
        ops["offset"][1 : 1 + nr] = np.concatenate(
            ([0], np.cumsum(read_sizes[:-1]))
        )
    if nw:
        ops["offset"][1 + nr : 1 + nr + nw] = np.concatenate(
            ([0], np.cumsum(write_sizes[:-1]))
        )

    # Durations: split timers evenly; open/close split the metadata time.
    ops["duration"][0] = meta_time / 2
    ops["duration"][-1] = meta_time / 2
    if nr:
        ops["duration"][1 : 1 + nr] = read_time / nr
    if nw:
        ops["duration"][1 + nr : 1 + nr + nw] = write_time / nw
    # Start times: strictly ordered, back-to-back.
    starts = start_time + np.concatenate(([0.0], np.cumsum(ops["duration"][:-1])))
    ops["start"] = starts
    return ops
