"""The declarative workload-pattern spec: data model + strict validation.

A workload spec is a plain dict (JSON/TOML-friendly: scalars, lists,
string-keyed objects only) describing a synthetic population as a *mix of
phases* plus optional *overlays*::

    {
      "name": "bb-heavy-month",
      "platform": "summit",            # optional; CLI/API can fill it
      "scale": 1e-3,                   # optional; CLI/API can fill it
      "phases": [
        {"name": "paper", "pattern": "paper", "weight": 0.6},
        {"name": "storms", "pattern": "checkpoint_storm", "weight": 0.4,
         "params": {"ckpt_gb": 200, "layer": "insystem"}},
      ],
      "overlays": {
        "fault": {"layer": "insystem", "preset": "eviction-storm"},
        "contention": {"factor": 2.0},
      },
    }

Each phase names a **pattern** — a parameterized archetype template
(checkpoint storms, epoch-structured training reads, producer-consumer
staging, metadata-heavy small-file sweeps, a single paper archetype, or
the platform's whole paper mix) — with a mix weight and an ``intensity``
scale factor. :mod:`repro.spec.compile` lowers the validated spec onto
the existing generator: every phase becomes ordinary
:class:`~repro.workloads.archetypes.ArchetypeSpec` entries of the
generator's mix, so all randomness still flows through the
per-(archetype, group, log-block) RNG substreams and seed determinism
holds by construction (DESIGN.md §15).

Validation here is deliberately strict: unknown keys and out-of-range
values raise :class:`~repro.errors.SpecError` carrying the dotted field
path (``phases[1].params.ckpt_gb``) and the allowed range — never a bare
``KeyError``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import SpecError

#: Platforms a spec may target (mirrors the generator's catalog).
PLATFORMS = ("summit", "cori")

#: Storage layers a pattern may target.
LAYERS = ("pfs", "insystem")


# ---------------------------------------------------------------------------
# Field schema: one declared, bounded, documented parameter.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FieldSpec:
    """One declared spec field: typed, bounded, defaulted, documented."""

    name: str
    kind: str  # "number" | "integer" | "string" | "boolean"
    default: Any
    doc: str
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None

    def resolve(self, value: Any, path: str) -> Any:
        """Validated value (or the default when ``value`` is None)."""
        if value is None:
            return self.default
        if self.kind == "boolean":
            if not isinstance(value, bool):
                raise SpecError(path, f"must be a boolean, got {value!r}")
            return value
        if self.kind == "string":
            if not isinstance(value, str):
                raise SpecError(path, f"must be a string, got {value!r}")
            if self.choices and value not in self.choices:
                raise SpecError(
                    path,
                    f"must be one of {', '.join(self.choices)}; got {value!r}",
                )
            return value
        # Numeric kinds. bool is an int subclass; reject it explicitly.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(path, f"must be a number, got {value!r}")
        if self.kind == "integer":
            if float(value) != int(value):
                raise SpecError(path, f"must be an integer, got {value!r}")
            value = int(value)
        else:
            value = float(value)
        if self.minimum is not None and value < self.minimum:
            raise SpecError(
                path, f"must be >= {self.minimum:g}, got {value:g}"
            )
        if self.maximum is not None and value > self.maximum:
            raise SpecError(
                path, f"must be <= {self.maximum:g}, got {value:g}"
            )
        return value

    def describe(self) -> dict:
        """JSON-shaped self-description (for ``--list-specs --json``)."""
        out: dict[str, Any] = {
            "name": self.name, "kind": self.kind,
            "default": self.default, "doc": self.doc,
        }
        if self.minimum is not None:
            out["minimum"] = self.minimum
        if self.maximum is not None:
            out["maximum"] = self.maximum
        if self.choices is not None:
            out["choices"] = list(self.choices)
        return out


def _require_mapping(value: Any, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SpecError(path, f"must be an object, got {type(value).__name__}")
    bad = [k for k in value if not isinstance(k, str)]
    if bad:
        raise SpecError(path, f"keys must be strings, got {bad[0]!r}")
    return value


def _reject_unknown(
    data: Mapping, allowed: tuple[str, ...], path: str
) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecError(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown key; allowed keys: {', '.join(allowed)}",
        )


# ---------------------------------------------------------------------------
# Validated spec model.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseSpec:
    """One phase of the mix: a pattern instance with weight and params."""

    name: str
    pattern: str
    weight: float
    #: Multiplies every file group's ``files_per_run`` (1.0 = as built).
    intensity: float = 1.0
    #: Pattern parameters, resolved against the pattern's field schema
    #: (sorted items, hashable — compile results can be cached/compared).
    params: tuple[tuple[str, Any], ...] = ()

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name, "pattern": self.pattern, "weight": self.weight,
        }
        if self.intensity != 1.0:
            out["intensity"] = self.intensity
        if self.params:
            out["params"] = self.param_dict()
        return out


@dataclass(frozen=True)
class FaultOverlay:
    """A degradation preset applied to one layer for the whole horizon."""

    layer: str
    preset: str
    #: None = the preset's own magnitude.
    servers_offline: float | None = None
    rebuild_overhead: float | None = None

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"layer": self.layer, "preset": self.preset}
        if self.servers_offline is not None:
            out["servers_offline"] = self.servers_offline
        if self.rebuild_overhead is not None:
            out["rebuild_overhead"] = self.rebuild_overhead
        return out


@dataclass(frozen=True)
class ContentionOverlay:
    """Noisy-neighbor scaling of the contention model on both layers."""

    factor: float

    def to_dict(self) -> dict:
        return {"factor": self.factor}


@dataclass(frozen=True)
class WorkloadSpec:
    """A validated workload spec — the DSL's AST.

    Construct via :func:`load_spec` (dict / JSON / TOML / pack name);
    the constructor assumes already-validated values.
    """

    name: str
    phases: tuple[PhaseSpec, ...]
    platform: str | None = None
    scale: float | None = None
    target_jobs: int | None = None
    no_io_fraction: float | None = None
    description: str = ""
    fault: FaultOverlay | None = None
    contention: ContentionOverlay | None = None
    seed: int | None = field(default=None, compare=False)  # reserved

    def to_dict(self) -> dict:
        """The spec's canonical dict form (round-trips via load_spec)."""
        out: dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        for key in ("platform", "scale", "target_jobs", "no_io_fraction"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["phases"] = [p.to_dict() for p in self.phases]
        overlays: dict[str, Any] = {}
        if self.fault is not None:
            overlays["fault"] = self.fault.to_dict()
        if self.contention is not None:
            overlays["contention"] = self.contention.to_dict()
        if overlays:
            out["overlays"] = overlays
        return out


# -- top-level field schemas -------------------------------------------------
_TOP_KEYS = (
    "name", "description", "platform", "scale", "target_jobs",
    "no_io_fraction", "phases", "overlays",
)
_PHASE_KEYS = ("name", "pattern", "weight", "intensity", "params")
_OVERLAY_KEYS = ("fault", "contention")
_FAULT_KEYS = ("layer", "preset", "servers_offline", "rebuild_overhead")

_SCALE = FieldSpec("scale", "number", None,
                   "fraction of the platform's yearly jobs",
                   minimum=1e-7, maximum=1.0)
_TARGET_JOBS = FieldSpec("target_jobs", "integer", None,
                         "override the yearly job target", minimum=1)
_NO_IO = FieldSpec("no_io_fraction", "number", None,
                   "fraction of jobs producing no file records",
                   minimum=0.0, maximum=0.999)
_WEIGHT = FieldSpec("weight", "number", None,
                    "phase's share of the job mix", minimum=1e-9)
_INTENSITY = FieldSpec("intensity", "number", 1.0,
                       "multiplier on files per application run",
                       minimum=0.01, maximum=100.0)
_FRACTION = FieldSpec("fraction", "number", None,
                      "fraction of a layer's servers/bandwidth",
                      minimum=0.0, maximum=0.99)
_FACTOR = FieldSpec("factor", "number", None,
                    "interfering-load multiplier",
                    minimum=0.0625, maximum=64.0)


def _validate_name(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError(path, f"must be a non-empty string, got {value!r}")
    ok = value.replace("_", "").replace("-", "").replace(".", "")
    if not ok.isalnum():
        raise SpecError(
            path,
            f"must be alphanumeric plus '._-', got {value!r}",
        )
    return value


def _validate_phase(data: Any, path: str) -> PhaseSpec:
    from repro.spec.compile import get_pattern  # cycle-free at call time

    data = _require_mapping(data, path)
    _reject_unknown(data, _PHASE_KEYS, path)
    for key in ("name", "pattern"):
        if key not in data:
            raise SpecError(f"{path}.{key}", "required key is missing")
    name = _validate_name(data["name"], f"{path}.name")
    pattern = get_pattern(data["pattern"], path=f"{path}.pattern")
    if "weight" not in data:
        raise SpecError(f"{path}.weight", "required key is missing")
    weight = _WEIGHT.resolve(data["weight"], f"{path}.weight")
    intensity = _INTENSITY.resolve(data.get("intensity"), f"{path}.intensity")
    raw = _require_mapping(data.get("params", {}), f"{path}.params")
    allowed = tuple(f.name for f in pattern.fields)
    _reject_unknown(raw, allowed, f"{path}.params")
    params = {
        f.name: f.resolve(raw.get(f.name), f"{path}.params.{f.name}")
        for f in pattern.fields
    }
    return PhaseSpec(
        name=name, pattern=pattern.name, weight=weight,
        intensity=intensity, params=tuple(sorted(params.items())),
    )


def _validate_fault(data: Any, path: str) -> FaultOverlay:
    from repro.iosim.faults import PRESETS

    data = _require_mapping(data, path)
    _reject_unknown(data, _FAULT_KEYS, path)
    layer = data.get("layer")
    if layer not in LAYERS:
        raise SpecError(
            f"{path}.layer",
            f"must be one of {', '.join(LAYERS)}; got {layer!r}",
        )
    preset = data.get("preset")
    if preset not in PRESETS:
        raise SpecError(
            f"{path}.preset",
            f"unknown fault preset; available: {', '.join(sorted(PRESETS))}",
        )
    return FaultOverlay(
        layer=layer,
        preset=preset,
        servers_offline=_FRACTION.resolve(
            data.get("servers_offline"), f"{path}.servers_offline"
        ),
        rebuild_overhead=_FRACTION.resolve(
            data.get("rebuild_overhead"), f"{path}.rebuild_overhead"
        ),
    )


def validate_spec(data: Mapping) -> WorkloadSpec:
    """A :class:`WorkloadSpec` from a raw dict, or :class:`SpecError`."""
    data = _require_mapping(data, "")
    _reject_unknown(data, _TOP_KEYS, "")
    if "name" not in data:
        raise SpecError("name", "required key is missing")
    name = _validate_name(data["name"], "name")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise SpecError("description", "must be a string")
    platform = data.get("platform")
    if platform is not None and platform not in PLATFORMS:
        raise SpecError(
            "platform",
            f"must be one of {', '.join(PLATFORMS)}; got {platform!r}",
        )
    scale = _SCALE.resolve(data.get("scale"), "scale")
    target_jobs = _TARGET_JOBS.resolve(data.get("target_jobs"), "target_jobs")
    no_io = _NO_IO.resolve(data.get("no_io_fraction"), "no_io_fraction")

    raw_phases = data.get("phases")
    if not isinstance(raw_phases, (list, tuple)) or not raw_phases:
        raise SpecError("phases", "must be a non-empty list of phase objects")
    phases = tuple(
        _validate_phase(p, f"phases[{i}]") for i, p in enumerate(raw_phases)
    )
    seen: dict[str, int] = {}
    for i, phase in enumerate(phases):
        if phase.name in seen:
            raise SpecError(
                f"phases[{i}].name",
                f"duplicate phase name {phase.name!r} (also phases"
                f"[{seen[phase.name]}]); phase names key RNG substreams "
                "and must be unique",
            )
        seen[phase.name] = i

    fault = contention = None
    if "overlays" in data:
        overlays = _require_mapping(data["overlays"], "overlays")
        _reject_unknown(overlays, _OVERLAY_KEYS, "overlays")
        if "fault" in overlays:
            fault = _validate_fault(overlays["fault"], "overlays.fault")
        if "contention" in overlays:
            cdata = _require_mapping(
                overlays["contention"], "overlays.contention"
            )
            _reject_unknown(cdata, ("factor",), "overlays.contention")
            if "factor" not in cdata:
                raise SpecError(
                    "overlays.contention.factor", "required key is missing"
                )
            contention = ContentionOverlay(
                factor=_FACTOR.resolve(
                    cdata["factor"], "overlays.contention.factor"
                )
            )
    return WorkloadSpec(
        name=name, phases=phases, platform=platform, scale=scale,
        target_jobs=target_jobs, no_io_fraction=no_io,
        description=description, fault=fault, contention=contention,
    )


# ---------------------------------------------------------------------------
# Loading: dict, JSON path, TOML path, or builtin pack name.
# ---------------------------------------------------------------------------
def _load_toml(path: str) -> Mapping:
    try:
        import tomllib  # Python >= 3.11
    except ImportError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise SpecError(
                path,
                "TOML specs need Python >= 3.11 (tomllib) or the tomli "
                "package; re-serialize the spec as JSON",
            ) from None
    with open(path, "rb") as fh:
        try:
            return tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(path, f"malformed TOML: {exc}") from exc


def load_spec(source: Mapping | WorkloadSpec | str | os.PathLike) -> WorkloadSpec:
    """A validated :class:`WorkloadSpec` from any accepted source.

    ``source`` may be an already-validated spec (returned as-is), a raw
    dict (validated), a builtin scenario-pack name (see
    :func:`repro.spec.packs.pack_names`), or a path to a ``.json`` /
    ``.toml`` file. All rejections are :class:`~repro.errors.SpecError`
    with the offending field path.
    """
    if isinstance(source, WorkloadSpec):
        return source
    if isinstance(source, Mapping):
        return validate_spec(source)
    path = os.fspath(source)
    from repro.spec.packs import pack_catalog

    packs = pack_catalog()
    if path in packs:
        return packs[path]
    if not os.path.exists(path):
        raise SpecError(
            path,
            "not a builtin pack name or an existing spec file; packs: "
            f"{', '.join(sorted(packs))}",
        )
    if path.endswith(".toml"):
        return validate_spec(_load_toml(path))
    with open(path, "rb") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(path, f"malformed JSON: {exc}") from exc
    return validate_spec(data)
