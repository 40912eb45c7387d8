"""Delta summarization: re-reduce only the hosts that changed.

The eager path (:func:`repro.core.summarize.summarize_cluster`) folds
every numeric sample of every host into a fresh :class:`SummaryInfo` on
each poll -- O(H*M) work even when one host moved.  With conditional
polls most *sources* skip ingest entirely; this tracker makes the
remaining ingests cheap too: it remembers each host's last summary
contribution, and when a new snapshot arrives it **subtracts** the stale
contribution of changed/removed hosts and **adds** the new one, touching
only the k hosts that differ.

The additive reduction of §2.2 is what makes this sound: a summary is a
(SUM, NUM) pair per metric, so removing a host's contribution is exact
integer arithmetic on NUM -- but *not* exact float arithmetic on SUM.
Naive ``total += / -=`` accumulates rounding error across churn, and a
sequence that drains a metric back toward zero can leave a residue like
``-7.1e-15`` that the 4-decimal wire formatting renders as ``"-0"``
while an eager re-fold serves ``"0"``.  Two mechanisms keep incremental
totals wire-identical to an eager re-fold:

- every accumulator uses **Neumaier-compensated** addition (a running
  compensation term recovers the low-order bits each naive add drops),
  so the exposed total is the correctly rounded sum of the surviving
  contributions, not the drifted telescoped one;
- when a metric's reporter count drains to zero its accumulator is
  dropped (an eager re-fold would not produce the metric at all), and
  when the *source's* contribution count drains to zero the whole
  running summary is rebuilt from nothing -- exact zeros, no residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.wire.model import (
    ClusterElement,
    HostElement,
    MetricSummary,
    SummaryInfo,
)


class NeumaierSum:
    """Compensated accumulator: ``value`` is the corrected running sum.

    Kahan-Babuska ("improved Kahan") summation: each add folds the
    rounding error of the naive add into a compensation term, so adding
    and later subtracting the same float leaves ``value`` at exactly the
    sum of the remaining terms (to the final rounding), regardless of
    the order the churn arrived in.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self, initial: float = 0.0) -> None:
        self._sum = initial
        self._comp = 0.0

    def add(self, v: float) -> None:
        s = self._sum
        t = s + v
        if abs(s) >= abs(v):
            self._comp += (s - t) + v
        else:
            self._comp += (v - t) + s
        self._sum = t

    def subtract(self, v: float) -> None:
        self.add(-v)

    @property
    def value(self) -> float:
        return self._sum + self._comp


@dataclass
class HostContribution:
    """One host's share of the running cluster summary."""

    up: bool
    #: metric name -> (value, mtype, units, slope); num is always 1
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)


def _host_contribution(
    host: HostElement, heartbeat_window: float
) -> HostContribution:
    """What :func:`summarize_cluster` would fold in for this host."""
    up = host.is_up(heartbeat_window)
    contribution = HostContribution(up=up)
    if not up:
        return contribution  # stale values are excluded from the sums
    for metric in host.metrics.values():
        if not metric.is_numeric:
            continue
        try:
            value = metric.numeric()
        except ValueError:
            continue  # malformed value from a broken reporter
        contribution.metrics[metric.name] = MetricSummary(
            name=metric.name,
            total=value,
            num=1,
            mtype=metric.mtype,
            units=metric.units,
            slope=metric.slope,
        )
    return contribution


def _contributions_equal(a: HostContribution, b: HostContribution) -> bool:
    if a.up != b.up:
        return False
    if a.metrics.keys() != b.metrics.keys():
        return False
    for name, ms in a.metrics.items():
        other = b.metrics[name]
        if (
            ms.total != other.total
            or ms.mtype != other.mtype
            or ms.units != other.units
            or ms.slope != other.slope
        ):
            return False
    return True


class ClusterSummaryTracker:
    """Running summary for one cluster source, updated host-by-host.

    The scalar reference of
    :class:`~repro.columnar.summarize.ColumnarSummaryTracker`, which is
    what the N-level gmetad runs; the differential suites hold the two
    bit-identical.
    """

    def __init__(self, heartbeat_window: float = 80.0) -> None:
        self.heartbeat_window = heartbeat_window
        self._running = SummaryInfo()
        self._contributions: Dict[str, HostContribution] = {}
        #: metric name -> compensated SUM accumulator backing
        #: ``_running.metrics[name].total``
        self._accums: Dict[str, NeumaierSum] = {}
        #: diagnostic: how many times the drain-to-zero rebuild fired
        self.rebuilds = 0

    def _add(self, contribution: HostContribution) -> int:
        ops = 0
        if contribution.up:
            self._running.hosts_up += 1
        else:
            self._running.hosts_down += 1
        for name, ms in contribution.metrics.items():
            existing = self._running.metrics.get(name)
            if existing is None:
                self._running.metrics[name] = ms.copy()
                self._accums[name] = NeumaierSum(ms.total)
            else:
                accum = self._accums[name]
                accum.add(ms.total)
                existing.total = accum.value
                existing.num += ms.num
                if not existing.units:
                    existing.units = ms.units
            ops += 1
        return ops

    def _subtract(self, contribution: HostContribution) -> int:
        ops = 0
        if contribution.up:
            self._running.hosts_up -= 1
        else:
            self._running.hosts_down -= 1
        for name, ms in contribution.metrics.items():
            existing = self._running.metrics[name]
            existing.num -= ms.num
            if existing.num == 0:
                # last reporter of this metric left; drop the reduction
                # and its accumulator (an eager re-fold would simply not
                # produce it) -- the next reporter starts from exact 0
                del self._running.metrics[name]
                del self._accums[name]
            else:
                accum = self._accums[name]
                accum.subtract(ms.total)
                existing.total = accum.value
            ops += 1
        return ops

    def update(self, cluster: ClusterElement) -> Tuple[SummaryInfo, int]:
        """Fold a fresh full-form snapshot into the running summary.

        Returns ``(summary, samples_changed)`` mirroring the signature
        of ``summarize_cluster`` -- the second element counts only the
        samples of hosts that actually changed, which is what the CPU
        model charges.  The returned summary is an independent clone
        (the datastore may hold it across later updates).
        """
        ops = 0
        had_contributions = bool(self._contributions)
        # removed hosts: subtract their stale contributions
        for name in list(self._contributions):
            if name not in cluster.hosts:
                ops += self._subtract(self._contributions.pop(name)) + 1
        # changed or new hosts: subtract old, add new
        for name, host in cluster.hosts.items():
            fresh = _host_contribution(host, self.heartbeat_window)
            previous = self._contributions.get(name)
            if previous is not None and _contributions_equal(previous, fresh):
                continue  # untouched host: zero summarization work
            if previous is not None:
                ops += self._subtract(previous)
            ops += self._add(fresh) + 1
            self._contributions[name] = fresh
        if had_contributions and not self._contributions:
            # contribution count drained to zero: rebuild exactly --
            # whatever float residue or bookkeeping the churn left
            # behind must not outlive the hosts that produced it
            self._running = SummaryInfo()
            self._accums.clear()
            self.rebuilds += 1
        return self._running.copy(), ops

    def reset(self) -> None:
        """Forget all state (source removed or re-pointed)."""
        self._running = SummaryInfo()
        self._contributions.clear()
        self._accums.clear()


def eager_summary(
    cluster: ClusterElement, heartbeat_window: float = 80.0
) -> SummaryInfo:
    """Reference re-fold used by the property tests (no tracker state)."""
    from repro.core.summarize import summarize_cluster

    summary, _ = summarize_cluster(cluster, heartbeat_window)
    return summary
