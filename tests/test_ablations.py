"""Ablations over the performance-model choices DESIGN.md calls out.

1. **STDIO buffering off**: without FILE* coalescing and latency hiding
   the Figure 11 POSIX/STDIO gap widens far past the paper's moderate
   small-transfer gaps, so the buffered-stream model (not the caps
   alone) produces them.
2. **Stream caps equalized**: giving STDIO the POSIX caps collapses the
   in-system read gap, so the per-stream cap is what separates the
   interfaces at low parallelism.
3. **Scale invariance**: the scale knob changes counts, not shapes
   (DESIGN.md §5).

The baseline is ``summit_store_small``; each ablation regenerates the
same seed and scale under a modified model.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import layer_volumes, performance_by_bin, transfer_cdfs
from repro.analysis.performance import panel
from repro.iosim.perfmodel import DEFAULT_CAPS, PerfModel
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator

from tests.conftest import SEED, SMALL_SCALE


def _summit(scale=SMALL_SCALE, perf=None):
    gen = WorkloadGenerator("summit", GeneratorConfig(scale=scale), perf=perf)
    return gen.generate(SEED, shadows=True)


def _gap(store, layer):
    return panel(
        performance_by_bin(store), layer, "read"
    ).median_speedup("100M_1G")


def _below_1gb(store):
    return {
        (c.layer, c.direction): c.percent_below(1e9)
        for c in transfer_cdfs(store)
    }


def test_stdio_buffering_off_widens_the_gap(summit_store_small):
    no_buffer = _summit(perf=PerfModel(stdio_buffering=False))
    assert _gap(no_buffer, "pfs") > _gap(summit_store_small, "pfs") * 3


def test_equal_stream_caps_collapse_the_gap(summit_store_small):
    caps = dict(DEFAULT_CAPS)
    for fs in ("GPFS", "NVMe"):
        caps[fs] = replace(
            caps[fs],
            stdio_read=caps[fs].posix_read, stdio_write=caps[fs].posix_write,
        )
    equal = _summit(perf=PerfModel(caps=caps))
    assert (
        _gap(equal, "insystem") < _gap(summit_store_small, "insystem") * 0.7
    )


def test_scale_changes_counts_not_shapes():
    small, large = _summit(scale=4e-4), _summit(scale=1.2e-3)
    vol_s, vol_l = layer_volumes(small), layer_volumes(large)
    ratio = (vol_s.pfs.files / small.scale) / (vol_l.pfs.files / large.scale)
    assert 0.8 < ratio < 1.25
    below_s, below_l = _below_1gb(small), _below_1gb(large)
    for key, val in below_s.items():
        if key in below_l:
            assert abs(val - below_l[key]) < 2.5, key
