"""Byte-identical equivalence: binary wire codec vs the XML baseline.

Twin Fig. 2 federations are built from the same seed -- one all-XML,
one with ``binary_wire=True`` so every poll offers ``accept=bin1`` and
binary-capable peers answer with :mod:`repro.wire.binfmt` frames -- and
driven through identical event sequences.  At every checkpoint every
gmetad in both trees must serve **byte-identical** XML: the codec only
changes the bytes that carried the state, never the state itself.

The suite also covers the negotiation edges the flag exists for: mixed
fleets where some gmonds stay XML-only (per-link fallback), injected
frame corruption (FrameError -> quarantine -> one-shot XML re-request,
never a partial install), and the pub-sub replication feed running the
same frames to a read replica.
"""

import pytest

from repro.bench.topology import build_paper_tree
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.faults.injector import FaultInjector
from repro.gmond.pseudo import PseudoGmond
from repro.obs.config import ObservabilityConfig
from repro.readtier.config import ReadTierConfig
from repro.readtier.replica import ReadReplica

HOSTS = 5
REQUESTS = ["/", "/?filter=summary"]
PATH_REQUESTS = ["/sdsc", "/ucsd", "/sdsc-c0", "/sdsc-c0/sdsc-c0-0-0"]


def build_twins(**kwargs):
    """(xml, binary) federations built from the same seed.

    Both arms run the columnar ingest pipeline -- the binary decoder
    rebuilds columnar documents directly, and the XML arm's fast lane
    is the baseline the codec is benchmarked against.
    """
    xml = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS,
        binary_wire=False, **kwargs
    ).start()
    binf = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS,
        binary_wire=True, **kwargs
    ).start()
    return xml, binf


def run_both(xml, binf, duration):
    xml.engine.run_for(duration)
    binf.engine.run_for(duration)
    assert xml.engine.now == binf.engine.now


def assert_identical_everywhere(xml, binf, requests=REQUESTS):
    for name in xml.gmetads:
        for request in requests:
            expected, _ = xml.gmetad(name).serve_query(request)
            actual, _ = binf.gmetad(name).serve_query(request)
            assert actual == expected, (
                f"{name} diverged on {request!r} at t={xml.engine.now}"
            )


def assert_frames_engaged(binf, names=None):
    """Guard against vacuous equality: polls really rode the codec."""
    for name in names or binf.gmetads:
        g = binf.gmetad(name)
        if not g.pollers:
            continue
        assert g.frames_ingested > 0, f"{name} never ingested a frame"


@pytest.mark.parametrize("incremental", [False, True])
def test_binary_wire_serves_identical_bytes(incremental):
    """Steady churn: binary transport is invisible in the served bytes,
    across both the eager and incremental ingest pipelines."""
    xml, binf = build_twins(incremental=incremental)
    for _ in range(6):
        run_both(xml, binf, 30.0)
        assert_identical_everywhere(xml, binf)
    assert_identical_everywhere(xml, binf, PATH_REQUESTS)
    assert_frames_engaged(binf)
    for name in xml.gmetads:
        a, b = xml.gmetad(name), binf.gmetad(name)
        assert b.polls_ingested == a.polls_ingested, name
        assert b.parse_errors == a.parse_errors, name
        assert b.frame_errors == 0, name


def test_mutations_and_host_death_identical():
    """Partial mutations, a host dying past the heartbeat window, and
    its recovery all arrive identically through frames."""
    xml, binf = build_twins(freeze_values=True)
    run_both(xml, binf, 45.0)
    for fed in (xml, binf):
        assert fed.pseudos["sdsc-c0"].mutate(hosts=[0, 2]) == 2
        fed.pseudos["attic-c2"].set_host_down(1)
    run_both(xml, binf, 120.0)  # past the heartbeat window: host is down
    assert_identical_everywhere(xml, binf)
    for fed in (xml, binf):
        fed.pseudos["attic-c2"].set_host_down(1, down=False)
    run_both(xml, binf, 60.0)
    assert_identical_everywhere(xml, binf)
    assert_frames_engaged(binf)


def test_mixed_fleet_converges_identically():
    """XML-only gmonds coexist with binary ones: the daemon's offers
    fall back per-link and the installed state never notices."""
    legacy = {"sdsc-c0": False, "physics-c0": False}
    xml = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS,
        binary_wire=False,
    ).start()
    binf = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS,
        binary_wire=True, binary_gmonds=legacy,
    ).start()
    run_both(xml, binf, 90.0)
    assert_identical_everywhere(xml, binf)
    # the legacy links really answered XML, the rest really answered binary
    sdsc = binf.gmetad("sdsc")
    assert sdsc.pollers["sdsc-c0"].frames_received == 0
    assert sdsc.pollers["sdsc-c1"].frames_received > 0
    physics = binf.gmetad("physics")
    assert physics.pollers["physics-c0"].frames_received == 0
    assert physics.pollers["physics-c1"].frames_received > 0


def test_negotiation_counters_track_both_outcomes():
    """With observability attached, every resolved ``accept=`` handshake
    lands in codec_negotiations_{accepted,fell_back}."""
    obs = ObservabilityConfig(
        self_cluster_interval=0.0, drift_check_interval=0.0
    )
    binf = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS,
        binary_wire=True, binary_gmonds={"sdsc-c0": False},
        observability=obs,
    ).start()
    binf.engine.run_for(90.0)
    registry = binf.gmetad("sdsc").obs.registry
    assert registry.counter("codec_negotiations_accepted").value > 0
    assert registry.counter("codec_negotiations_fell_back").value > 0


def test_frame_corruption_quarantines_then_recovers():
    """A poisoned link mangles frames: every damaged frame is a clean
    FrameError -> source quarantined, poller re-requests XML once --
    never a partial install -- and after the link heals the federation
    converges back to byte identity with the clean twin."""
    xml, binf = build_twins(freeze_values=True)
    run_both(xml, binf, 45.0)
    assert_identical_everywhere(xml, binf)

    injector = FaultInjector(binf.engine, binf.fabric)
    injector.corrupt_links(
        ["gmeta-physics"], ["pgmond-physics-c0"],
        probability=1.0, at=0.0, duration=40.0,
    )
    run_both(xml, binf, 45.0)
    physics = binf.gmetad("physics")
    assert physics.frame_errors > 0
    assert physics.polls_quarantined > 0
    frames_before = physics.frames_ingested

    # link healed: binary resumes and the trees re-converge everywhere
    run_both(xml, binf, 90.0)
    assert physics.frames_ingested > frames_before
    assert_identical_everywhere(xml, binf)
    assert_identical_everywhere(xml, binf, ["/physics-c0"])


QUERIES = [
    "/",
    "/?filter=summary",
    "/meteor",
    "/meteor?filter=summary",
    "/torus/torus-node-1",
]


def _feed_world(engine, fabric, tcp, rngs):
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
        read_tier=ReadTierConfig(), binary_wire=True,
    )
    pseudos = {}
    for i, name in enumerate(("meteor", "torus")):
        pseudo = PseudoGmond(
            engine, fabric, tcp, name, num_hosts=3 + i,
            rng=rngs.stream(f"pg:{name}"), binary_capable=True,
        )
        pseudos[name] = pseudo
        config.add_source(name, [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    broker = daemon.attach_pubsub()
    return daemon, broker, pseudos


def test_binary_feed_replica_matches_xml_feed_replica(
    engine, fabric, tcp, rngs
):
    """Two replicas on the same broker -- one fed JSON deltas, one fed
    PUBSUB frames -- serve the same bytes as the ingest daemon."""
    daemon, broker, pseudos = _feed_world(engine, fabric, tcp, rngs)
    replica_xml = ReadReplica(
        engine, fabric, tcp, daemon, name="rx", host="gmeta-sdsc-rx",
        config=ReadTierConfig(binary_feed=False),
    ).start()
    replica_bin = ReadReplica(
        engine, fabric, tcp, daemon, name="rb", host="gmeta-sdsc-rb",
        config=ReadTierConfig(binary_feed=True),
    ).start()
    engine.run_for(60.0)
    pseudos["meteor"].mutate(hosts=[0])
    pseudos["torus"].set_host_down(2)
    engine.run_for(60.0)

    # the negotiation really split: one link binary, the other JSON
    assert broker.codecs.get("replica:rb") == "bin1"
    assert "replica:rx" not in broker.codecs
    assert replica_xml.synced and replica_bin.synced
    for request in QUERIES:
        expected, _ = daemon.serve_query(request)
        assert replica_xml.serve_query(request)[0] == expected, request
        assert replica_bin.serve_query(request)[0] == expected, request
