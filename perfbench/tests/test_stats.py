"""Percentile and sample-count selection."""

import pytest

from stats import highest_tail, percentile, supports


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_ignores_input_order():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_tail_leaves_ten_samples_beyond(n, expected):
    assert highest_tail(n) == expected


def test_supports_matches_the_ladder():
    assert supports(200, 95.0) and not supports(199, 95.0)
    assert supports(1000, 99.0) and not supports(999, 99.0)


def test_apportion_is_exact_and_proportional():
    from episode import apportion

    assert apportion(10, [1.0, 1.0]) == [5, 5]
    assert sum(apportion(1050, [1.0 / r ** 1.1 for r in range(1, 23)])) == 1050
    assert apportion(3, [0.0, 0.0, 1.0]) == [0, 0, 3]
    assert apportion(0, [0.5, 0.5]) == [0, 0]


def test_query_plan_seed_orders_but_never_changes_the_mix():
    import random

    from episode import query_plan
    from workloads import WORKLOADS

    paths = [f"/p{i}" for i in range(22)]
    share = WORKLOADS["viewer_mix"].replica_share
    a = query_plan(paths, 900, share, random.Random(1))
    b = query_plan(paths, 900, share, random.Random(2))
    assert a != b and sorted(a) == sorted(b) and len(a) == 900
    servers = [server for _, server in a]
    # an even split, each path's odd query to the ingest daemon
    assert 0 <= servers.count("ingest") - servers.count("replica") <= len(paths)
    assert {s for _, s in query_plan(paths, 50, 0.0, random.Random(1))} == {
        "ingest"
    }


def test_machine_scale_maps_kernel_time_to_the_reference():
    import machine

    assert machine.kernel() == machine.kernel()  # fixed work
    assert machine.scale(machine.REFERENCE_MS) == 1.0
    assert machine.scale(2 * machine.REFERENCE_MS) == 0.5
    probe = machine.SpeedProbe()
    for _ in range(3):
        probe.sample()
    assert len(probe.samples_ms) == 3 and min(probe.samples_ms) > 0


def test_each_unit_is_scaled_by_the_samples_around_it():
    import machine

    ref = machine.REFERENCE_MS
    # a slow phase (kernel twice as slow) in the middle of five units
    samples = [ref, ref, 2 * ref, ref, ref]
    scales = machine.local_scales(samples)
    assert len(scales) == 5
    w = machine.WINDOW
    assert scales[2] == machine.scale(sum(samples[2 - w: 3 + w]) / (2 * w + 1))
    assert scales[0] == machine.scale(sum(samples[: 1 + w]) / (1 + w))
    assert machine.local_scales([ref] * 4) == [1.0] * 4
