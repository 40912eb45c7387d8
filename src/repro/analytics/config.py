"""Analytics knobs (one block per gmetad, default: fully off).

Attached via ``GmetadConfig(analytics=AnalyticsConfig(...))``.  ``None``
-- the default everywhere, including every paper-figure runner --
compiles the whole stage out: no flush hook is registered, no
``__analytics__`` source exists, and served output stays byte-identical
to the ungated daemon (the equivalence suite pins this, like every
prior feature gate).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The synthetic data-source name analytics signals are mounted under.
#: Same double-underscore convention as ``__gmetad__`` (repro.obs).
ANALYTICS_SOURCE = "__analytics__"


@dataclass
class AnalyticsConfig:
    """Configuration for the streaming analytics stage (``repro.analytics``)."""

    #: how many finest-resolution archive rows each pass reads (the
    #: trend/anomaly window; bounded so a pass is O(window x series))
    window_rows: int = 16
    #: EWMA smoothing factor for the anomaly baseline (0 < alpha <= 1)
    ewma_alpha: float = 0.25
    #: rows required before a series reports a slope or z-score;
    #: fewer and the kernels return NaN (alarm rules then skip it)
    min_points: int = 4
    #: |z| at or above this counts as an anomaly in the published
    #: ``analytics_anomalies`` gauge (rule thresholds are independent)
    anomaly_z: float = 4.0
    #: minimum seconds between analytics passes (0 = every distinct
    #: flush timestamp; passes within one timestamp always coalesce)
    cadence: float = 0.0
    #: publish the ``__analytics__`` in-band cluster (off leaves the
    #: readings query-able by alarm rules but out of the datastore)
    publish: bool = True
    #: minimum seconds between ``__analytics__`` publishes
    publish_interval: float = 15.0
    #: z-score denominator floor: ``max(std, abs + rel * |mean|)`` --
    #: keeps near-constant series from alarming on float dust
    z_floor_abs: float = 1e-6
    z_floor_rel: float = 0.05

    def __post_init__(self) -> None:
        if self.window_rows < 2:
            raise ValueError("window_rows must be >= 2")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.min_points < 2:
            raise ValueError("min_points must be >= 2")
        if self.anomaly_z <= 0:
            raise ValueError("anomaly_z must be positive")
        if self.cadence < 0:
            raise ValueError("cadence must be non-negative")
        if self.publish_interval < 0:
            raise ValueError("publish_interval must be non-negative")
        if self.z_floor_abs < 0 or self.z_floor_rel < 0:
            raise ValueError("z-score floors must be non-negative")
