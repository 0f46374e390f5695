"""Batch-job substrate: year-long job arrival traces.

The paper's dataset is *jobs* (281.6K on Summit, 749.5K on Cori) each
producing 1..many Darshan logs (application instances). This subpackage
provides the year-long arrival process with diurnal/weekly structure
(:mod:`trace`) that places the generator's job submissions in time.
"""

from repro.scheduler.trace import ArrivalProcess, TraceConfig

__all__ = [
    "ArrivalProcess",
    "TraceConfig",
]
