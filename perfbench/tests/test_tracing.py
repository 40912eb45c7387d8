"""Self time on span trees, and the tracer's parent links."""

import pytest

from tracing import Tracer, self_times


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # substrate [0, 10] -> ingest [1, 7] -> parse [2, 5], archive [5, 6]
    #                   -> gmond [8, 9]
    spans = [
        ["substrate", 0.0, 10.0, -1],
        ["ingest", 1.0, 7.0, 0],
        ["parse.tree", 2.0, 5.0, 1],
        ["archive", 5.0, 6.0, 1],
        ["gmond", 8.0, 9.0, 0],
        ["substrate", 10.0, 12.0, -1],
    ]
    totals = self_times(spans)
    assert totals == pytest.approx({
        "substrate": 10.0 - 6.0 - 1.0 + 2.0,
        "ingest": 6.0 - 3.0 - 1.0,
        "parse.tree": 3.0,
        "archive": 1.0,
        "gmond": 1.0,
    })
    # self times account for exactly the top-level wall time
    assert sum(totals.values()) == pytest.approx(12.0)


def test_same_layer_nesting_is_not_double_counted():
    spans = [["storage", 0.0, 4.0, -1], ["storage", 1.0, 3.0, 0]]
    assert self_times(spans) == pytest.approx({"storage": 4.0})


def test_tracer_links_nested_calls_and_records_only_while_active():
    tracer = Tracer()

    def inner():
        return tracer.call("parse.tree", lambda: 42)

    assert tracer.call("substrate", inner) == 42
    assert tracer.spans == []  # inactive: plain calls
    tracer.active = True
    assert tracer.call("substrate", inner) == 42
    (outer, nested) = tracer.spans
    assert outer[0] == "substrate" and outer[3] == -1
    assert nested[0] == "parse.tree" and nested[3] == 0
    assert outer[1] <= nested[1] <= nested[2] <= outer[2]


def test_a_span_closes_when_its_call_raises():
    tracer = Tracer()
    tracer.active = True

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("query", boom)
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    tracer.call("substrate", lambda: None)
    assert tracer.spans[1][3] == -1  # the stack unwound


def test_active_layers_follow_each_workloads_gates():
    from run import active_layers
    from workloads import WORKLOADS

    paper = active_layers(WORKLOADS["fig2_paper"])
    full = active_layers(WORKLOADS["fig2_full"])
    viewer = active_layers(WORKLOADS["viewer_mix"])
    assert "parse.tree" in paper and "binfmt.decode" not in paper
    assert {"storage", "analytics", "obs", "readtier.feed"} <= full
    assert "arena" in viewer and not {"storage", "analytics", "obs"} & viewer
