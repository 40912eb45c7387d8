"""The columnar tracker's batched same-layout path, against the scalar
reference.

When a poll repeats the previous one's layout and liveness, the
:class:`ColumnarSummaryTracker` folds every changed host in one batch
instead of one host at a time.  These tests drive both trackers through
the same snapshot streams -- heavy churn, values whose compensated sums
need the compensation term, signed zeros, NaN, units that appear late,
sole-reporter metrics and permuted metric orders -- and require raw bit
identity with :class:`ClusterSummaryTracker` plus identical op counts
(the CPU charge), while checking the batch really ran.
"""

import random
import struct

import pytest

from repro.columnar import (
    ColumnarSummaryTracker,
    InternPool,
    columns_from_cluster,
)
from repro.core.delta_summary import ClusterSummaryTracker
from repro.metrics.types import MetricType
from repro.wire.model import ClusterElement, HostElement, MetricElement, Slope

VALUES = [
    0.0, -0.0, 1e16, -1e16, 1.0, 0.1, 0.2, 0.3, 1e-300, 7e15, -2.5,
    float("nan"), 123456.789,
]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def random_value(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.5:
        return rng.choice(VALUES)
    if r < 0.8:
        return rng.uniform(-1e6, 1e6)
    return rng.uniform(-1, 1) * 10 ** rng.randint(-10, 17)


def build(metrics, values, units, down, meta=None) -> ClusterElement:
    """``meta`` maps (host, metric) to a (TYPE, SLOPE) other than the
    default (double, both)."""
    cluster = ClusterElement(name="c", localtime=100.0)
    for h, names in metrics.items():
        host = HostElement(
            name=f"h{h}", tn=200.0 if h in down else 1.0, reported=99.0
        )
        for name in names:
            mtype, slope = (meta or {}).get(
                (h, name), (MetricType.DOUBLE, Slope.BOTH)
            )
            host.add_metric(
                MetricElement(
                    name, repr(values[h, name]), mtype,
                    units=units.get((h, name), ""), slope=slope,
                )
            )
        cluster.add_host(host)
    return cluster


def assert_bit_identical(ours, ref):
    assert (ours.hosts_up, ours.hosts_down) == (ref.hosts_up, ref.hosts_down)
    assert list(ours.metrics) == list(ref.metrics)  # dict ORDER too
    for name, ms in ref.metrics.items():
        mine = ours.metrics[name]
        assert mine.num == ms.num, name
        assert bits(mine.total) == bits(ms.total), (name, mine.total, ms.total)
        assert (mine.mtype, mine.units, mine.slope) == (
            ms.mtype, ms.units, ms.slope,
        )


@pytest.fixture
def batch_outcomes(monkeypatch):
    """The result of every batched update (None when it declined and
    the changed hosts were folded one at a time)."""
    seen = []
    original = ColumnarSummaryTracker._update_batched

    def spy(self, cols, changed):
        result = original(self, cols, changed)
        seen.append(result)
        return result

    monkeypatch.setattr(ColumnarSummaryTracker, "_update_batched", spy)
    return seen


@pytest.fixture
def fresh_states(monkeypatch):
    """The host index of every per-host state the tracker extracts."""
    seen = []
    original = ColumnarSummaryTracker._fresh_state

    def spy(self, cols, h, up):
        seen.append(h)
        return original(self, cols, h, up)

    monkeypatch.setattr(ColumnarSummaryTracker, "_fresh_state", spy)
    return seen


def run_stream(seed: int, polls: int = 16) -> None:
    rng = random.Random(seed)
    names = [f"m{i}" for i in range(rng.randint(1, 8))]
    metrics = {}
    for h in range(rng.randint(1, 12)):
        metrics[h] = [n for n in names if rng.random() < 0.8] or names[:1]
        if rng.random() < 0.2:
            metrics[h].append(f"solo{h}")  # a sole-reporter metric
    values = {(h, n): random_value(rng) for h in metrics for n in metrics[h]}
    units = {key: rng.choice(["", "", "B", "s"]) for key in values}
    meta = {
        key: (
            rng.choice([MetricType.DOUBLE, MetricType.FLOAT]),
            rng.choice([Slope.BOTH, Slope.ZERO]),
        )
        for key in values
    }
    down = set()
    pool = InternPool()
    for name in reversed(names):  # ids in another order than the document's
        pool.intern(name)
    columnar, scalar = ColumnarSummaryTracker(), ClusterSummaryTracker()
    for _ in range(polls):
        r = rng.random()
        if r < 0.08:
            down = {h for h in metrics if rng.random() < 0.2}
        elif r < 0.12:
            rng.shuffle(metrics[rng.choice(list(metrics))])
        churn = rng.choice([0.0, 0.1, 0.5, 1.0])
        for key in values:
            if rng.random() < churn:
                values[key] = random_value(rng)
        cluster = build(metrics, values, units, down, meta)
        ours, our_ops = columnar.update(columns_from_cluster(cluster, pool))
        ref, ref_ops = scalar.update(cluster)
        assert_bit_identical(ours, ref)
        assert our_ops == ref_ops


@pytest.mark.parametrize("seed", range(40))
def test_random_streams_stay_bit_identical(seed):
    run_stream(seed)


def test_full_churn_takes_the_batch(batch_outcomes):
    """A uniform cluster under full churn: every poll after the first
    is one batch, and it matches the scalar walk bit for bit."""
    rng = random.Random(7)
    metrics = {h: ["load_one", "bytes_in", "cpu_user"] for h in range(30)}
    values = {(h, n): random_value(rng) for h in metrics for n in metrics[h]}
    units = {(5, "bytes_in"): "B"}  # units that only a later host carries
    pool = InternPool()
    columnar, scalar = ColumnarSummaryTracker(), ClusterSummaryTracker()
    for _ in range(12):
        for key in values:
            values[key] = random_value(rng)
        cluster = build(metrics, values, units, set())
        ours, our_ops = columnar.update(columns_from_cluster(cluster, pool))
        ref, ref_ops = scalar.update(cluster)
        assert_bit_identical(ours, ref)
        assert our_ops == ref_ops
    # the first poll is the per-host walk; every later one is one batch
    assert len(batch_outcomes) == 11
    assert all(n is not None and n > 0 for n in batch_outcomes)


def test_sole_reporter_change_declines_the_batch(batch_outcomes, fresh_states):
    """A changed host that alone reports some metric drains it and
    re-adds it at the end of the order; the batch declines that poll and
    only the changed host is folded, one host at a time, which
    reproduces the reorder."""
    metrics = {0: ["only", "a"], 1: ["a"], 2: ["a"], 3: ["a"]}
    values = {(h, "a"): 1.0 + h for h in metrics}
    pool = InternPool()
    columnar, scalar = ColumnarSummaryTracker(), ClusterSummaryTracker()
    for step in range(3):
        values[0, "only"] = 2.0 + step
        cluster = build(metrics, values, {}, set())
        ours, our_ops = columnar.update(columns_from_cluster(cluster, pool))
        ref, ref_ops = scalar.update(cluster)
        assert_bit_identical(ours, ref)
        assert our_ops == ref_ops
    assert batch_outcomes == [None] * 2
    # the first poll walks all four hosts; each declined poll folds host 0
    assert fresh_states == [0, 1, 2, 3, 0, 0]
    assert list(ours.metrics) == ["a", "only"]  # drained, then re-added
