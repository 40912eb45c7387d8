"""The gmond stand-in, and seeds that change payloads but not outcomes."""

import dataclasses

import pytest

from episode import (
    EPISODE_END_SIM_S,
    HORIZON_SIM_S,
    reference_digest,
    run_episode,
)
from replay import Exchange, ReplayGmond, ReplayMismatch, record_payloads
from repro.net.fabric import Fabric
from repro.net.tcp import Response, TcpNetwork
from repro.sim.engine import Engine
import workloads
from workloads import WORKLOADS


def _stand_in(log):
    engine = Engine()
    fabric = Fabric()
    return engine, ReplayGmond(
        engine, fabric, TcpNetwork(engine, fabric), "c0", log
    )


def _log():
    return [
        Exchange(0.0, "gmeta-a", "/?filter=summary", Response("<x/>", 0.002), "<x/>"),
        Exchange(0.0, "gmeta-a", "/?filter=summary", Response("<y/>", 0.002), "<y/>"),
    ]


def test_stand_in_serves_the_recorded_responses_in_order():
    log = _log()
    _, gmond = _stand_in(log)
    assert gmond._handle("gmeta-a", "/?filter=summary") is log[0].response
    assert gmond._handle("gmeta-a", "/?filter=summary") is log[1].response
    with pytest.raises(ReplayMismatch, match="beyond the recording"):
        gmond._handle("gmeta-a", "/?filter=summary")


@pytest.mark.parametrize(
    "client, request_line, when",
    [
        ("gmeta-a", "/?filter=summary gen=7", 0.0),  # different text
        ("gmeta-b", "/?filter=summary", 0.0),        # different sender
        ("gmeta-a", "/?filter=summary", 1.0),        # different time
    ],
)
def test_stand_in_rejects_a_mismatched_request(client, request_line, when):
    engine, gmond = _stand_in(_log())
    engine.run_until(when)
    with pytest.raises(ReplayMismatch):
        gmond._handle(client, request_line)
    assert gmond.served == 0


def test_xml_only_stand_in_checks_time_and_answers_plain_xml():
    engine = Engine()
    fabric = Fabric()
    gmond = ReplayGmond(
        engine, fabric, TcpNetwork(engine, fabric), "c0", _log(), xml_only=True
    )
    response = gmond._handle("gmeta-z", "/")
    assert response.payload == "<x/>" and response.service_seconds == 0.002


def _tiny(name):
    # three viewer queries per simulated second
    clients = min(WORKLOADS[name].viewer_clients, 3 * workloads.REFRESH_S)
    return dataclasses.replace(WORKLOADS[name], hosts=3, viewer_clients=clients)


@pytest.mark.parametrize("name", ["fig2_paper", "fig2_full", "viewer_mix"])
def test_another_seed_changes_payloads_not_check_outcomes(name, monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_QUERIES", 20)
    workload = _tiny(name)
    until = EPISODE_END_SIM_S + 1.0
    outcomes = []
    first_payloads = []
    for seed in (1, 2):
        store = record_payloads(workload, seed, until)
        first_payloads.append(store.logs["sdsc-c0"][0].xml)
        result = run_episode(workload, store, seed, speed=True)
        assert result.speed_ms > 0
        outcomes.append((
            result.failures,
            result.probe_digest == reference_digest(workload, store, seed),
            result.host_reports > 0,
            len(result.query_ms) == workload.sweep_queries
            + workload.viewer_queries_by(HORIZON_SIM_S),
        ))
    assert first_payloads[0] != first_payloads[1]
    assert outcomes[0] == outcomes[1] == ([], True, True, True)
