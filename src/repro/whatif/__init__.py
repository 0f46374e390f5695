"""What-if scenario sweeps: digital-twin queries over the perf model.

The paper characterizes how the *deployed* subsystems behaved under
production load; an operator's next question is counterfactual — what if
the stripe count doubled, the checkpoints moved to the burst buffer, an
OSS enclosure died mid-rebuild, the machine got twice as crowded? This
package answers those as first-class queries over a stored population:

* :mod:`repro.whatif.scenarios` — the named, parameterized scenario
  catalog, each resolving to a picklable :class:`ScenarioPlan`;
* :mod:`repro.whatif.transfers` — reconstructing per-file transfer
  specs from stored columns (mirroring the generator's layout rules);
* :mod:`repro.whatif.engine` — ratio-based counterfactual re-timing by
  column, delta reports against a memoized baseline, and sweeps.

Every scenario is also registered in the serve registry as
``whatif_<name>`` (kind ``table``), so ``repro analyze``, ``repro
serve``/``query``, and the engine's LRU cache — keyed on (query, params,
store generation) — treat what-ifs exactly like the paper's exhibits.
"""

from repro.whatif.engine import (
    PointMetrics,
    WhatIfReport,
    compute_point,
    materialize,
    retime_columns,
    sweep,
)
from repro.whatif.scenarios import (
    ParamSpec,
    Scenario,
    ScenarioPlan,
    get_scenario,
    scenario_catalog,
)

__all__ = [
    "ParamSpec",
    "PointMetrics",
    "Scenario",
    "ScenarioPlan",
    "WhatIfReport",
    "compute_point",
    "get_scenario",
    "materialize",
    "retime_columns",
    "scenario_catalog",
    "sweep",
]
