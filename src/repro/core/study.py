"""The end-to-end study pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.analysis.report import HEADERS, render_results
from repro.core.config import StudyConfig
from repro.store.recordstore import RecordStore
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator


@dataclass
class StudyResults:
    """All analyses for one platform, keyed like the paper's exhibits."""

    platform: str
    table2: object = None
    table3: object = None
    table4: object = None
    table5: object = None
    table6: object = None
    fig3: list = field(default_factory=list)
    fig4: list = field(default_factory=list)
    fig5: list = field(default_factory=list)
    fig6: object = None
    fig7: object = None
    fig8: object = None
    fig9: list = field(default_factory=list)
    fig10: object = None
    fig11_12: list = field(default_factory=list)


def compute_results(store: RecordStore) -> StudyResults:
    """Run every table/figure analysis over one store.

    The single exhibit pipeline behind both :meth:`CharacterizationStudy.run`
    and the ``shapes`` query of :mod:`repro.serve`. Each field is the
    answer of the registry query of the same name (``fig11_12`` is
    ``fig11``), run through :func:`repro.api.run_query`: one shared
    analysis context, and one ``analysis.<query>`` span per exhibit.
    """
    # Imported here: repro.api imports this module.
    from repro.api import run_query

    results = StudyResults(platform=store.platform)
    for f in fields(StudyResults):
        if f.name != "platform":
            query = "fig11" if f.name == "fig11_12" else f.name
            setattr(results, f.name, run_query(store, query))
    return results


class CharacterizationStudy:
    """Generates each platform's synthetic year and runs every analysis."""

    def __init__(self, config: StudyConfig | None = None):
        self.config = config or StudyConfig()
        self._stores: dict[str, RecordStore] = {}
        self._results: dict[str, StudyResults] = {}

    # ------------------------------------------------------------------
    def store(self, platform: str) -> RecordStore:
        """The platform's synthetic year (generated once, then cached)."""
        key = platform.lower()
        if key not in self.config.platforms:
            raise ValueError(
                f"{platform!r} not in configured platforms {self.config.platforms}"
            )
        if key not in self._stores:
            gen = WorkloadGenerator(key, self.config.generator_config())
            self._stores[key] = gen.generate(self.config.seed, shadows=True)
        return self._stores[key]

    def run(self, platform: str) -> StudyResults:
        """Run every table/figure analysis for one platform (cached)."""
        key = platform.lower()
        if key in self._results:
            return self._results[key]
        store = self.store(key)
        results = compute_results(store)
        results.platform = key
        self._results[key] = results
        return results

    def run_all(self) -> dict[str, StudyResults]:
        return {p: self.run(p) for p in self.config.platforms}

    # ------------------------------------------------------------------
    def shape_checks(self, platform: str):
        """Paper-vs-measured shape checks for one platform."""
        from repro.core.compare import run_shape_checks

        return run_shape_checks(self.run(platform))

    def render(self, platform: str) -> str:
        """Full ASCII report for one platform."""
        r = self.run(platform)
        perf_fig = "Figure 11" if r.platform == "summit" else "Figure 12"
        sections = [
            render_results("Table 2 - dataset summary (full-year extrapolation)",
                           HEADERS["table2"], r.table2),
            render_results("Table 3 - files and transfer volume per layer",
                           HEADERS["table3"], r.table3),
            render_results("Table 4 - files with >1TB transfer",
                           HEADERS["table4"], r.table4),
            render_results("Table 5 - job layer exclusivity",
                           HEADERS["table5"], r.table5),
            render_results("Table 6 - interface usage per layer",
                           HEADERS["table6"], r.table6),
            render_results("Figure 3 - per-file transfer-size CDFs",
                           HEADERS["fig3"], r.fig3),
            render_results("Figure 4 - request-size CDFs (cumulative % of calls)",
                           HEADERS["fig4"], r.fig4),
            render_results("Figure 5 - request-size CDFs, jobs >1024 procs",
                           HEADERS["fig4"], r.fig5),
            render_results("Figure 6 - RO/RW/WO classification (POSIX+STDIO)",
                           HEADERS["fig6"], r.fig6),
            render_results("Figure 7 - in-system usage by domain",
                           HEADERS["fig7"], r.fig7),
            render_results("Figure 8 - RO/RW/WO classification (STDIO only)",
                           HEADERS["fig6"], r.fig8),
            render_results("Figure 9 - transfer CDFs per interface",
                           HEADERS["fig9"], r.fig9),
            render_results("Figure 10 - STDIO transfer by domain",
                           HEADERS["fig7"], r.fig10),
            render_results(f"{perf_fig} - POSIX vs STDIO bandwidth by bin",
                           HEADERS["fig11"], r.fig11_12),
        ]
        return "\n\n".join(sections)
