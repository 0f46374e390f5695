"""Compiling workload specs down to the generator's native inputs.

A validated :class:`~repro.spec.schema.WorkloadSpec` lowers to exactly
the three things :class:`~repro.workloads.generator.WorkloadGenerator`
already consumes:

* a **mix** — ``[(weight, ArchetypeSpec)]``: every phase expands to one
  or more ordinary archetypes (the ``paper`` pattern expands to the
  platform's whole calibrated mix; custom patterns build a fresh
  archetype named after the phase);
* an optional **machine** — the platform with a fault overlay's layer
  degraded via :func:`repro.iosim.faults.degrade_machine`;
* an optional **perf model** — contention reshaped by fault and/or
  noisy-neighbor overlays.

Nothing else changes, which is the whole determinism argument: the
generator keys all file randomness per (archetype-name, group-name,
log-block) RNG substream, so a compiled spec inherits seed determinism
*by construction* (DESIGN.md §15). In
particular the builtin ``paper_mix`` spec compiles to the identical
(mix, config, machine=None, perf=None) tuple the direct archetype path
uses, hence a byte-identical store.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Any, Callable, Mapping

from repro.errors import SpecError
from repro.iosim.perfmodel import PerfModel
from repro.platforms.interfaces import IOInterface
from repro.platforms.machine import Machine
from repro.spec.schema import FieldSpec, PhaseSpec, WorkloadSpec, load_spec
from repro.store.recordstore import RecordStore
from repro.units import GB, KB, MB, TB
from repro.workloads.archetypes import ArchetypeSpec, FileGroupSpec
from repro.workloads.distributions import DiscreteLogUniform, LogNormal
from repro.workloads.generator import GeneratorConfig, WorkloadGenerator
from repro.workloads.mixes import (
    BULK_STREAMING,
    CKPT_EXTS,
    COLLECTIVE_IO,
    DATA_EXTS,
    PFS_SMALL_WRITES,
    PFS_TINY_READS,
    STDIO_EXTS,
    cori_mix,
    small_files,
    summit_mix,
)

#: The generator's seed convention (the paper's submission date).
DEFAULT_SEED = 20220627

#: Domains present in *both* platforms' catalogs — custom patterns may
#: only use these, so one spec compiles on either platform.
_SAFE_DOMAINS = (
    "biology", "chemistry", "computer science", "earth science",
    "engineering", "machine learning", "materials", "physics",
)

_PROCS_PER_NODE = {"summit": 6, "cori": 32}


@dataclass(frozen=True)
class Pattern:
    """One workload pattern: a parameterized archetype template."""

    name: str
    title: str
    doc: str
    fields: tuple[FieldSpec, ...]
    #: (phase, platform, path) -> [(fraction, archetype)] with fractions
    #: summing to 1 within the phase.
    build: Callable[[PhaseSpec, str, str], list[tuple[float, ArchetypeSpec]]]

    def describe(self) -> dict:
        return {
            "name": self.name, "title": self.title, "doc": self.doc,
            "params": [f.describe() for f in self.fields],
        }


@cache
def _platform_mix(platform: str) -> tuple[tuple[float, ArchetypeSpec], ...]:
    """The platform's calibrated mix, built once per process.

    Archetypes are frozen, and a tuple keeps a caller from changing the
    mix the next compile reads; builders copy it into their own list.
    """
    return tuple(summit_mix() if platform == "summit" else cori_mix())


# ---------------------------------------------------------------------------
# Pattern builders.
# ---------------------------------------------------------------------------
def _build_paper(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    # Fractions are the calibrated mix weights themselves (they sum to
    # 1.0 on both platforms), so a weight-1.0 paper phase reproduces the
    # direct path's weights bit-for-bit.
    return list(_platform_mix(platform))


def _build_archetype(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    params = phase.param_dict()
    name = params["name"]
    if name is None:
        raise SpecError(f"{path}.params.name", "required key is missing")
    available = {spec.name: spec for _, spec in _platform_mix(platform)}
    if name not in available:
        raise SpecError(
            f"{path}.params.name",
            f"unknown {platform} archetype {name!r}; available: "
            f"{', '.join(sorted(available))}",
        )
    return [(1.0, available[name])]


def _layer_interface(layer: str) -> IOInterface:
    # Bulk data on the PFS rides MPI-IO collectives in the paper's
    # populations; in-system layers are POSIX/STDIO territory.
    return IOInterface.MPIIO if layer == "pfs" else IOInterface.POSIX


def _bb_capacity(layer: str, typical_bytes: float) -> LogNormal | None:
    if layer != "insystem":
        return None
    median = min(max(4.0 * typical_bytes, 20 * GB), 10 * TB)
    return LogNormal(median, 1.0, lo=20 * GB, hi=50 * TB)


def _build_checkpoint_storm(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    p = phase.param_dict()
    layer = p["layer"]
    ckpt = p["ckpt_gb"] * GB
    wf = p["write_fraction"]
    ckpt_size = LogNormal(ckpt, 0.6, lo=max(1 * MB, ckpt / 64), hi=6 * TB)
    groups = (
        FileGroupSpec(
            name="ckpt",
            layer=layer, interface=_layer_interface(layer),
            files_per_run=p["files_per_run"],
            opclass_probs=((1 - wf) * 0.4, (1 - wf) * 0.6, wf),
            read_size=ckpt_size, write_size=ckpt_size,
            read_profile=COLLECTIVE_IO, write_profile=COLLECTIVE_IO,
            shared_prob=p["shared_fraction"],
            collective=layer == "pfs", ext_probs=CKPT_EXTS,
        ),
        FileGroupSpec(
            name="ckpt_logs",
            layer=layer, interface=IOInterface.STDIO,
            files_per_run=max(p["files_per_run"] * 0.2, 1.0),
            opclass_probs=(0.10, 0.15, 0.75),
            read_size=small_files(24 * KB), write_size=small_files(32 * KB),
            read_profile=PFS_TINY_READS, write_profile=PFS_SMALL_WRITES,
            shared_prob=0.1, ext_probs=STDIO_EXTS,
        ),
    )
    spec = ArchetypeSpec(
        name=phase.name,
        domains={"physics": 0.50, "materials": 0.20,
                 "chemistry": 0.15, "earth science": 0.15},
        nnodes=DiscreteLogUniform(2, p["nodes_max"]),
        procs_per_node=_PROCS_PER_NODE[platform],
        runtime=LogNormal(4800, 0.9, lo=300, hi=86400),
        instances=DiscreteLogUniform(1, 50),
        bb_capacity=_bb_capacity(layer, ckpt),
        groups=groups,
    )
    return [(1.0, spec)]


def _build_epoch_training(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    p = phase.param_dict()
    layer = p["layer"]
    shard = max(p["dataset_gb"] * GB / p["shards"], 1.0)
    groups = (
        FileGroupSpec(
            # One epoch re-reads every shard; epochs are app instances,
            # so each log carries the full shard sweep.
            name="epoch_reads",
            layer=layer, interface=IOInterface.POSIX,
            files_per_run=float(p["shards"]),
            opclass_probs=(0.97, 0.01, 0.02),
            read_size=LogNormal(shard, 0.4, lo=1.0, hi=max(4 * shard, 1 * GB)),
            write_size=small_files(16 * KB),
            read_profile=BULK_STREAMING, write_profile=PFS_SMALL_WRITES,
            shared_prob=0.02, ext_probs=DATA_EXTS,
        ),
        FileGroupSpec(
            name="train_logs",
            layer=layer, interface=IOInterface.STDIO,
            files_per_run=max(float(p["shards"]) * 0.25, 1.0),
            opclass_probs=(0.08, 0.30, 0.62),
            read_size=small_files(24 * KB), write_size=small_files(24 * KB),
            read_profile=PFS_TINY_READS, write_profile=PFS_SMALL_WRITES,
            ext_probs=STDIO_EXTS,
        ),
    )
    spec = ArchetypeSpec(
        name=phase.name,
        domains={"machine learning": 0.55, "computer science": 0.25,
                 "biology": 0.20},
        nnodes=DiscreteLogUniform(1, 48),
        procs_per_node=_PROCS_PER_NODE[platform],
        runtime=LogNormal(7200, 0.8, lo=600, hi=86400),
        instances=DiscreteLogUniform(1, p["epochs"]),
        bb_capacity=_bb_capacity(layer, p["dataset_gb"] * GB),
        groups=groups,
    )
    return [(1.0, spec)]


def _build_producer_consumer(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    p = phase.param_dict()
    layer = p["layer"]
    obj = LogNormal(p["object_mb"] * MB, 0.8, lo=1.0, hi=1 * TB)
    groups = (
        FileGroupSpec(
            name="staged_out",
            layer=layer, interface=IOInterface.POSIX,
            files_per_run=p["fanout"],
            opclass_probs=(0.0, 0.05, 0.95),
            read_size=obj, write_size=obj,
            read_profile=BULK_STREAMING, write_profile=BULK_STREAMING,
            shared_prob=0.05, ext_probs=DATA_EXTS,
        ),
        FileGroupSpec(
            name="staged_in",
            layer=layer, interface=IOInterface.POSIX,
            files_per_run=p["fanout"],
            opclass_probs=(0.95, 0.05, 0.0),
            read_size=obj, write_size=obj,
            read_profile=BULK_STREAMING, write_profile=BULK_STREAMING,
            shared_prob=0.05, ext_probs=DATA_EXTS,
        ),
        FileGroupSpec(
            name="pipeline_logs",
            layer="pfs", interface=IOInterface.STDIO,
            files_per_run=max(p["fanout"] * 0.1, 1.0),
            opclass_probs=(0.25, 0.15, 0.60),
            read_size=small_files(24 * KB), write_size=small_files(24 * KB),
            read_profile=PFS_TINY_READS, write_profile=PFS_SMALL_WRITES,
            ext_probs=STDIO_EXTS,
        ),
    )
    spec = ArchetypeSpec(
        name=phase.name,
        domains={"biology": 0.30, "physics": 0.25,
                 "computer science": 0.25, "earth science": 0.20},
        nnodes=DiscreteLogUniform(2, 128),
        procs_per_node=_PROCS_PER_NODE[platform],
        runtime=LogNormal(3600, 0.8, lo=300, hi=86400),
        instances=DiscreteLogUniform(2, 60),
        bb_capacity=_bb_capacity(layer, p["fanout"] * p["object_mb"] * MB),
        groups=groups,
    )
    return [(1.0, spec)]


def _build_metadata_sweep(
    phase: PhaseSpec, platform: str, path: str
) -> list[tuple[float, ArchetypeSpec]]:
    p = phase.param_dict()
    layer = p["layer"]
    rf = p["read_fraction"]
    tiny = LogNormal(p["file_kb"] * KB, 1.2, lo=1.0, hi=1 * GB)
    opclass = (rf * 0.9, 0.10, 0.90 - rf * 0.9)
    groups = (
        FileGroupSpec(
            name="meta_small",
            layer=layer, interface=IOInterface.POSIX,
            files_per_run=p["files_per_run"] * 0.5,
            opclass_probs=opclass,
            read_size=tiny, write_size=tiny,
            read_profile=PFS_TINY_READS, write_profile=PFS_SMALL_WRITES,
            ext_probs=DATA_EXTS,
        ),
        FileGroupSpec(
            name="meta_text",
            layer=layer, interface=IOInterface.STDIO,
            files_per_run=p["files_per_run"] * 0.5,
            opclass_probs=opclass,
            read_size=tiny, write_size=tiny,
            read_profile=PFS_TINY_READS, write_profile=PFS_SMALL_WRITES,
            ext_probs=STDIO_EXTS,
        ),
    )
    spec = ArchetypeSpec(
        name=phase.name,
        domains={"computer science": 0.35, "biology": 0.25,
                 "engineering": 0.20, "chemistry": 0.20},
        nnodes=DiscreteLogUniform(1, 16),
        procs_per_node=_PROCS_PER_NODE[platform],
        runtime=LogNormal(1200, 1.0, lo=60, hi=43200),
        instances=DiscreteLogUniform(1, 40),
        bb_capacity=_bb_capacity(layer, p["files_per_run"] * p["file_kb"] * KB),
        groups=groups,
    )
    return [(1.0, spec)]


_LAYER_FIELD = lambda default: FieldSpec(  # noqa: E731 - table below reads flat
    "layer", "string", default, "storage layer the pattern targets",
    choices=("pfs", "insystem"),
)

_PATTERNS: dict[str, Pattern] = {
    p.name: p
    for p in (
        Pattern(
            name="paper",
            title="the platform's full calibrated paper mix",
            doc="Expands to every archetype of the platform's published "
                "mix with its calibrated weight — the byte-identical "
                "baseline other phases compose against.",
            fields=(),
            build=_build_paper,
        ),
        Pattern(
            name="archetype",
            title="one builtin archetype by name",
            doc="Selects a single archetype out of the platform's paper "
                "mix (e.g. sim_checkpoint, bb_exclusive) at this phase's "
                "weight.",
            fields=(
                FieldSpec("name", "string", None,
                          "builtin archetype name (platform-specific)"),
            ),
            build=_build_archetype,
        ),
        Pattern(
            name="checkpoint_storm",
            title="bulk-synchronous checkpoint storms",
            doc="Write-dominated collective checkpoint traffic with "
                "restart reads and STDIO diagnostics.",
            fields=(
                _LAYER_FIELD("pfs"),
                FieldSpec("ckpt_gb", "number", 128.0,
                          "median checkpoint size in GB",
                          minimum=1e-3, maximum=4096.0),
                FieldSpec("files_per_run", "number", 60.0,
                          "checkpoint files per application run",
                          minimum=0.1, maximum=1e4),
                FieldSpec("write_fraction", "number", 0.9,
                          "fraction of files that are write-only",
                          minimum=0.05, maximum=1.0),
                FieldSpec("nodes_max", "integer", 512,
                          "upper bound of the job-size distribution",
                          minimum=2, maximum=4608),
                FieldSpec("shared_fraction", "number", 0.75,
                          "fraction of checkpoint files opened shared",
                          minimum=0.0, maximum=1.0),
            ),
            build=_build_checkpoint_storm,
        ),
        Pattern(
            name="epoch_training",
            title="epoch-structured training reads",
            doc="Read-intensive ML training: every epoch re-streams the "
                "dataset's shards; epochs are application instances.",
            fields=(
                _LAYER_FIELD("pfs"),
                FieldSpec("dataset_gb", "number", 512.0,
                          "total dataset size per job in GB",
                          minimum=1e-2, maximum=1e5),
                FieldSpec("shards", "integer", 200,
                          "dataset shard files read per epoch",
                          minimum=1, maximum=1e5),
                FieldSpec("epochs", "integer", 5,
                          "upper bound of epochs (app instances) per job",
                          minimum=1, maximum=1000),
            ),
            build=_build_epoch_training,
        ),
        Pattern(
            name="producer_consumer",
            title="producer-consumer staging pipelines",
            doc="Symmetric write-then-read staging through a layer: one "
                "group lands objects, a peer group consumes them.",
            fields=(
                _LAYER_FIELD("insystem"),
                FieldSpec("object_mb", "number", 64.0,
                          "median staged object size in MB",
                          minimum=1e-3, maximum=1e5),
                FieldSpec("fanout", "number", 40.0,
                          "staged objects per application run per side",
                          minimum=0.1, maximum=1e4),
            ),
            build=_build_producer_consumer,
        ),
        Pattern(
            name="metadata_sweep",
            title="metadata-heavy small-file sweeps",
            doc="Huge counts of tiny POSIX/STDIO files: open/close "
                "latency and metadata time dominate transfer time.",
            fields=(
                _LAYER_FIELD("pfs"),
                FieldSpec("files_per_run", "number", 900.0,
                          "small files touched per application run",
                          minimum=1.0, maximum=1e5),
                FieldSpec("file_kb", "number", 16.0,
                          "median file size in KB",
                          minimum=1e-2, maximum=1e5),
                FieldSpec("read_fraction", "number", 0.5,
                          "read-leaning share of the sweep",
                          minimum=0.0, maximum=1.0),
            ),
            build=_build_metadata_sweep,
        ),
    )
}


def pattern_catalog() -> dict[str, Pattern]:
    """Every pattern a phase may name, keyed by name."""
    return dict(_PATTERNS)


def get_pattern(name: Any, path: str = "pattern") -> Pattern:
    """Look a pattern up by name, with the SpecError contract."""
    if not isinstance(name, str) or name not in _PATTERNS:
        raise SpecError(
            path,
            f"unknown pattern {name!r}; available: "
            f"{', '.join(sorted(_PATTERNS))}",
        )
    return _PATTERNS[name]


# ---------------------------------------------------------------------------
# Overlays -> (machine, perf).
# ---------------------------------------------------------------------------
def _base_perf(platform: str) -> PerfModel:
    from repro.iosim.netmodel import network_for

    return PerfModel(network=network_for(platform))


def _apply_overlays(
    spec: WorkloadSpec, platform: str
) -> tuple[Machine | None, PerfModel | None]:
    from repro.iosim.contention import ContentionModel
    from repro.iosim.faults import (
        degrade_machine,
        degraded_perf_model,
        preset,
    )
    from repro.platforms import get_platform

    machine: Machine | None = None
    perf: PerfModel | None = None
    if spec.fault is not None:
        scenario = preset(spec.fault.preset)
        overrides = {}
        if spec.fault.servers_offline is not None:
            overrides["servers_offline"] = spec.fault.servers_offline
        if spec.fault.rebuild_overhead is not None:
            overrides["rebuild_overhead"] = spec.fault.rebuild_overhead
        if overrides:
            scenario = replace(scenario, **overrides)
        machine = degrade_machine(
            get_platform(platform), spec.fault.layer, scenario
        )
        perf = degraded_perf_model(
            _base_perf(platform), spec.fault.layer, scenario
        )
    if spec.contention is not None:
        base = perf if perf is not None else _base_perf(platform)
        crowded = dict(base.contention)
        for kind in ("pfs", "insystem"):
            model = crowded.get(kind) or ContentionModel.for_layer_kind(kind)
            crowded[kind] = model.crowded(spec.contention.factor)
        perf = replace(base, contention=crowded)
    return machine, perf


# ---------------------------------------------------------------------------
# The compiler.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledSpec:
    """A spec lowered to the generator's native inputs."""

    spec: WorkloadSpec
    platform: str
    config: GeneratorConfig
    mix: tuple[tuple[float, ArchetypeSpec], ...]
    machine: Machine | None
    perf: PerfModel | None

    def generator(self) -> WorkloadGenerator:
        return WorkloadGenerator(
            self.platform,
            self.config,
            mix=list(self.mix),
            perf=self.perf,
            machine=self.machine,
        )

    def generate(
        self, seed: int = DEFAULT_SEED, *, shadows: bool = True
    ) -> RecordStore:
        """Generate the spec's store (deterministic in ``seed``)."""
        return self.generator().generate(seed, shadows=shadows)


def _scale_intensity(spec: ArchetypeSpec, intensity: float) -> ArchetypeSpec:
    # Skipped entirely at 1.0 so identity-intensity phases keep the
    # builtin ArchetypeSpec objects (and exact files_per_run floats).
    groups = tuple(
        replace(g, files_per_run=g.files_per_run * intensity)
        for g in spec.groups
    )
    return replace(spec, groups=groups)


def compile_spec(
    source: Mapping | WorkloadSpec | str,
    *,
    platform: str | None = None,
    scale: float | None = None,
) -> CompiledSpec:
    """Lower a spec to a :class:`CompiledSpec`.

    ``platform`` and ``scale`` fill gaps the spec leaves open; fields
    the spec *does* set win over the caller's arguments (a pack pinned
    to one platform always compiles for that platform).
    """
    spec = load_spec(source)
    resolved = spec.platform or platform
    if resolved is None:
        raise SpecError(
            "platform",
            f"spec {spec.name!r} does not set a platform; pass platform=... "
            "(CLI: --platform)",
        )
    config_kwargs: dict[str, Any] = {}
    effective_scale = spec.scale if spec.scale is not None else scale
    if effective_scale is not None:
        config_kwargs["scale"] = effective_scale
    if spec.target_jobs is not None:
        config_kwargs["target_jobs"] = spec.target_jobs
    if spec.no_io_fraction is not None:
        config_kwargs["no_io_fraction"] = spec.no_io_fraction
    config = GeneratorConfig(**config_kwargs)

    mix: list[tuple[float, ArchetypeSpec]] = []
    produced: dict[str, str] = {}  # archetype name -> producing phase path
    for i, phase in enumerate(spec.phases):
        path = f"phases[{i}]"
        pattern = get_pattern(phase.pattern, path=f"{path}.pattern")
        for fraction, archetype in pattern.build(phase, resolved, path):
            if phase.intensity != 1.0:
                archetype = _scale_intensity(archetype, phase.intensity)
            if archetype.name in produced:
                raise SpecError(
                    path,
                    f"compiles to archetype {archetype.name!r} already "
                    f"produced by {produced[archetype.name]}; archetype "
                    "names key RNG substreams and must be unique "
                    "(rename the phase or drop the duplicate pattern)",
                )
            produced[archetype.name] = path
            mix.append((phase.weight * fraction, archetype))

    machine, perf = _apply_overlays(spec, resolved)
    return CompiledSpec(
        spec=spec, platform=resolved, config=config,
        mix=tuple(mix), machine=machine, perf=perf,
    )


def generate_from_spec(
    source: Mapping | WorkloadSpec | str,
    *,
    seed: int = DEFAULT_SEED,
    shadows: bool = True,
    platform: str | None = None,
    scale: float | None = None,
) -> RecordStore:
    """Compile ``source`` and generate its store in one step."""
    compiled = compile_spec(source, platform=platform, scale=scale)
    return compiled.generate(seed, shadows=shadows)
