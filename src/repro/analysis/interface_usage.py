"""Table 6: files using each I/O interface, per storage layer.

Table 6 counts *interface usage*: a file written through MPI-IO appears in
both the MPI-IO count and the POSIX count (Darshan records both modules),
which is why the paper's per-layer interface counts exceed the unique
file counts of Table 3. The store's POSIX shadow rows reproduce exactly
that semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.context import AnalysisContext, register_foldable
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM, LAYER_PFS
from repro.units import format_count


@dataclass(frozen=True)
class InterfaceUsage:
    platform: str
    scale: float
    #: {layer: {interface: file count}} at store scale.
    counts: dict[str, dict[str, int]]

    def stdio_share(self) -> float:
        """STDIO files over all interface-usage counts (Summit: 39.8%,
        Cori: 14.2%)."""
        total = sum(sum(per.values()) for per in self.counts.values())
        stdio = sum(per["STDIO"] for per in self.counts.values())
        return stdio / total if total else float("nan")

    def stdio_over_posix(self, layer: str) -> float:
        """STDIO:POSIX ratio on a layer (Summit SCNL: 4.37x)."""
        per = self.counts[layer]
        return per["STDIO"] / per["POSIX"] if per["POSIX"] else float("inf")

    def to_rows(self) -> list[list[str]]:
        rows = []
        for layer in ("insystem", "pfs"):
            per = self.counts[layer]
            rows.append(
                [
                    self.platform,
                    layer,
                    format_count(per["POSIX"] / self.scale),
                    format_count(per["MPI-IO"] / self.scale),
                    format_count(per["STDIO"] / self.scale),
                ]
            )
        return rows


def interface_usage(store: RecordStore) -> InterfaceUsage:
    """Compute Table 6 for one platform."""
    ctx = store.analysis()
    return ctx.cached(("result", "interface_usage"), lambda: _compute(ctx))


def _compute(ctx: AnalysisContext) -> InterfaceUsage:
    store = ctx.store
    counts: dict[str, dict[str, int]] = {}
    for name, code in (("insystem", LAYER_INSYSTEM), ("pfs", LAYER_PFS)):
        counts[name] = {
            iface.label: len(ctx.idx(("layer", code), ("interface", int(iface))))
            for iface in IOInterface
        }
    return InterfaceUsage(platform=store.platform, scale=store.scale, counts=counts)


def merge(results: Sequence[InterfaceUsage]) -> InterfaceUsage:
    """Table 6 over disjoint row sets: per-cell counts add."""
    first = results[0]
    counts = {
        layer: {
            iface: sum(r.counts[layer][iface] for r in results)
            for iface in first.counts[layer]
        }
        for layer in first.counts
    }
    return InterfaceUsage(
        platform=first.platform, scale=first.scale, counts=counts
    )


register_foldable("interface_usage", _compute, merge)
