"""Declarative workload-pattern specs (DESIGN.md §15).

The spec subsystem in three layers:

* :mod:`repro.spec.schema` — the dict/JSON/TOML-friendly spec model and
  its strict, field-path-reporting validation (:func:`load_spec`);
* :mod:`repro.spec.compile` — lowering to the generator's native mix /
  machine / perf-model inputs (:func:`compile_spec`,
  :func:`generate_from_spec`), preserving seed determinism by
  construction;
* :mod:`repro.spec.packs` — the builtin scenario packs
  (:func:`pack_catalog`), including the byte-identical ``paper_mix``.
"""

from repro.spec.compile import (
    CompiledSpec,
    Pattern,
    compile_spec,
    generate_from_spec,
    get_pattern,
    pattern_catalog,
)
from repro.spec.packs import get_pack, pack_catalog, pack_names
from repro.spec.schema import (
    ContentionOverlay,
    FaultOverlay,
    FieldSpec,
    PhaseSpec,
    WorkloadSpec,
    load_spec,
    validate_spec,
)

__all__ = [
    "CompiledSpec",
    "ContentionOverlay",
    "FaultOverlay",
    "FieldSpec",
    "Pattern",
    "PhaseSpec",
    "WorkloadSpec",
    "compile_spec",
    "generate_from_spec",
    "get_pack",
    "get_pattern",
    "load_spec",
    "pack_catalog",
    "pack_names",
    "pattern_catalog",
    "validate_spec",
]
