"""Figures 7 and 10: data transfer grouped by science domain.

Figure 7: in-system-layer usage (POSIX+STDIO transfer volume) per domain.
Figure 10: STDIO transfer volume per domain across both layers, plus the
job-coverage statistic (the paper could attach a domain to 90.02% of
Cori's STDIO jobs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import AnalysisContext
from repro.platforms.interfaces import IOInterface
from repro.store.recordstore import RecordStore
from repro.store.schema import LAYER_INSYSTEM
from repro.units import format_size


@dataclass(frozen=True)
class DomainUsage:
    platform: str
    scale: float
    #: "insystem" (Figure 7) or "stdio" (Figure 10).
    flavor: str
    #: domain -> (bytes_read, bytes_written) at store scale; "" = unknown.
    volumes: dict[str, tuple[int, int]]
    #: Jobs contributing, and how many had a known domain.
    jobs_total: int
    jobs_with_domain: int
    #: domain -> number of contributing jobs (Figure 7a counts jobs).
    jobs_by_domain: dict[str, int] = None  # type: ignore[assignment]

    def job_share(self, *domains: str) -> float:
        """Share of contributing jobs from the given domains (Figure 7a:
        computer science + physics cover ~60% of SCNL jobs)."""
        if not self.jobs_total:
            return float("nan")
        hits = sum(self.jobs_by_domain.get(d, 0) for d in domains)
        return hits / self.jobs_total

    def domain_coverage(self) -> float:
        """Fraction of jobs with a known domain (Cori STDIO: 90.02%)."""
        return (
            self.jobs_with_domain / self.jobs_total
            if self.jobs_total
            else float("nan")
        )

    def top_domain(self, direction: str) -> str:
        """Domain with the largest volume in a direction (Figure 7b:
        physics carries 71.95% of CBB transfer)."""
        idx = 0 if direction == "read" else 1
        named = {d: v for d, v in self.volumes.items() if d}
        if not named:
            return ""
        return max(named, key=lambda d: named[d][idx])

    def domain_share(self, domain: str) -> float:
        """Domain's share of total (read+write) volume."""
        total = sum(r + w for r, w in self.volumes.values())
        r, w = self.volumes.get(domain, (0, 0))
        return (r + w) / total if total else float("nan")

    def to_rows(self) -> list[list[str]]:
        rows = []
        for domain in sorted(self.volumes, key=lambda d: (d == "", d)):
            r, w = self.volumes[domain]
            rows.append(
                [
                    self.platform,
                    self.flavor,
                    domain or "(unknown)",
                    format_size(r / self.scale),
                    format_size(w / self.scale),
                ]
            )
        return rows


def _collect(ctx: AnalysisContext, flavor: str, *keys) -> DomainUsage:
    store = ctx.store
    codes = ctx.gather("domain", *keys)
    bytes_read = ctx.gather("bytes_read", *keys)
    bytes_written = ctx.gather("bytes_written", *keys)
    volumes: dict[str, tuple[int, int]] = {}
    for code in np.unique(codes):
        per = codes == code
        name = store.domains[code] if code >= 0 else ""
        volumes[name] = (
            int(bytes_read[per].sum()),
            int(bytes_written[per].sum()),
        )
    job_ids = np.unique(ctx.gather("job_id", *keys))
    jobs = store.jobs[np.isin(store.jobs["job_id"], job_ids)]
    jobs_by_domain: dict[str, int] = {}
    for code in np.unique(jobs["domain"]):
        name = store.domains[code] if code >= 0 else ""
        jobs_by_domain[name] = int((jobs["domain"] == code).sum())
    return DomainUsage(
        platform=store.platform,
        scale=store.scale,
        flavor=flavor,
        volumes=volumes,
        jobs_total=len(jobs),
        jobs_with_domain=int((jobs["domain"] >= 0).sum()),
        jobs_by_domain=jobs_by_domain,
    )


def insystem_domain_usage(store: RecordStore) -> DomainUsage:
    """Figure 7: per-domain POSIX+STDIO transfer on the in-system layer."""
    ctx = store.analysis()
    return ctx.cached(
        ("result", "insystem_domain_usage"),
        lambda: _collect(ctx, "insystem", ("layer", LAYER_INSYSTEM), "unique"),
    )


def stdio_domain_usage(store: RecordStore) -> DomainUsage:
    """Figure 10: per-domain STDIO transfer across both layers."""
    ctx = store.analysis()
    return ctx.cached(
        ("result", "stdio_domain_usage"),
        lambda: _collect(ctx, "stdio", ("interface", int(IOInterface.STDIO))),
    )
