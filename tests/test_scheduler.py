"""Tests for the year-long job arrival process."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scheduler.trace import (
    SECONDS_PER_DAY,
    SECONDS_PER_YEAR,
    ArrivalProcess,
    TraceConfig,
)


class TestArrivalProcess:
    def test_count_near_target(self, rng):
        cfg = TraceConfig(target_jobs=5000, horizon=SECONDS_PER_YEAR)
        times = ArrivalProcess(cfg).sample(rng)
        assert 4000 < len(times) < 6000

    def test_sorted_within_horizon(self, rng):
        cfg = TraceConfig(target_jobs=1000)
        times = ArrivalProcess(cfg).sample(rng)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0 and times.max() <= cfg.horizon

    def test_weekend_dip(self, rng):
        cfg = TraceConfig(target_jobs=200_000, weekend_factor=0.3,
                          downtime_fraction=0.0)
        times = ArrivalProcess(cfg).sample(rng)
        dow = (times // SECONDS_PER_DAY) % 7
        weekday_rate = (dow < 5).sum() / 5
        weekend_rate = (dow >= 5).sum() / 2
        assert weekend_rate < 0.5 * weekday_rate

    def test_diurnal_peak_afternoon(self, rng):
        cfg = TraceConfig(target_jobs=200_000, diurnal_peak=2.0,
                          downtime_fraction=0.0)
        times = ArrivalProcess(cfg).sample(rng)
        hour = (times % SECONDS_PER_DAY) // 3600
        assert (hour == 15).sum() > 1.5 * (hour == 3).sum()

    def test_downtime_windows_empty(self, rng):
        cfg = TraceConfig(target_jobs=100_000, downtime_fraction=0.05)
        times = ArrivalProcess(cfg).sample(rng)
        period = 28 * SECONDS_PER_DAY
        in_window = (times % period) < 0.05 * period
        assert in_window.sum() == 0

    def test_intensity_nonnegative(self):
        cfg = TraceConfig(target_jobs=10)
        proc = ArrivalProcess(cfg)
        t = np.linspace(0, cfg.horizon, 10_000)
        assert (proc.intensity(t) >= 0).all()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(target_jobs=0)
        with pytest.raises(ConfigurationError):
            TraceConfig(target_jobs=1, diurnal_peak=0.5)
        with pytest.raises(ConfigurationError):
            TraceConfig(target_jobs=1, weekend_factor=0)
