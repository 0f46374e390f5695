"""Storage-substrate simulators.

These model the behaviour of the systems underneath the measurements:

* :mod:`repro.iosim.gpfs` — GPFS/Spectrum Scale block placement over NSD
  servers (Alpine: 16 MiB blocks, round-robin from a random NSD, §2.1.1).
* :mod:`repro.iosim.lustre` — Lustre striping (stripe size/count/offset),
  MDS namespace partitioning, OST placement (Cori Scratch, §2.1.2).
* :mod:`repro.iosim.datawarp` — Cray DataWarp burst-buffer allocations
  with scheduler-driven stage-in/out directives (Cori CBB).
* :mod:`repro.iosim.contention` — production-load contention model.
* :mod:`repro.iosim.perfmodel` — the end-to-end bandwidth model that maps
  (layer, interface, request size, parallelism) to transfer times; the
  POSIX-vs-STDIO contrasts of Figures 11/12 emerge from this model's
  mechanisms (per-stream caps, buffering, latency floors), not from
  hard-coded answers.
* :mod:`repro.iosim.staging` — data movement between layers.
"""

from repro.iosim.gpfs import GpfsFilesystem, GpfsFileLayout
from repro.iosim.lustre import LustreFilesystem, StripeLayout
from repro.iosim.datawarp import DataWarpManager, StageDirective
from repro.iosim.contention import ContentionModel
from repro.iosim.perfmodel import PerfModel, TransferSpec
from repro.iosim.staging import StagePlan, StagingEngine, StagingStyle
from repro.iosim.ior import IorConfig, IorResult, probe_series, run_ior
from repro.iosim.replay import FacilityReplay, LayerDemand
from repro.iosim.netmodel import InterconnectModel, Topology, network_for
from repro.iosim.faults import (
    BB_DRAIN,
    REBUILD_STORM,
    DegradationScenario,
    degrade_layer,
    degrade_machine,
    degraded_perf_model,
)

__all__ = [
    "DegradationScenario",
    "REBUILD_STORM",
    "BB_DRAIN",
    "degrade_layer",
    "degrade_machine",
    "degraded_perf_model",
    "InterconnectModel",
    "Topology",
    "network_for",
    "FacilityReplay",
    "LayerDemand",
    "IorConfig",
    "IorResult",
    "run_ior",
    "probe_series",
    "StagePlan",
    "StagingEngine",
    "StagingStyle",
    "GpfsFilesystem",
    "GpfsFileLayout",
    "LustreFilesystem",
    "StripeLayout",
    "DataWarpManager",
    "StageDirective",
    "ContentionModel",
    "PerfModel",
    "TransferSpec",
]
