"""One serving front: the ingest gmetad and its read replica answer alike.

A read replica serves viewers through the same request handling the
ingest daemon uses: load shedding, the generation-token / NOT-MODIFIED
handshake, ``accept=bin1`` with XML fallback, and the query engine's
CPU charges.  These tests drive both processes over simulated TCP, the
way a viewer reaches them, and pin what may differ between them and
what may not:

- XML replies are byte-equal, and a bin1 frame decodes to the XML the
  other process sends;
- NOT-MODIFIED comes only for a current token minted on the answering
  process's own epoch;
- the replica answers bin1 only for ``/<cluster>`` detail queries (it
  never serves the federation's summary poll in binary).

The shedding test mirrors the daemon's
``TestLoadShedding`` in ``test_resilience.py`` for a replica.
"""

from __future__ import annotations

import pytest

from repro.bench.topology import build_paper_tree
from repro.core.gmetad import Gmetad
from repro.core.resilience import Overloaded
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.readtier.config import ReadTierConfig
from repro.readtier.fleet import build_read_tier
from repro.readtier.replica import ReadReplica
from repro.wire.binfmt import BinaryFrame, decode_to_xml, with_accept
from repro.wire.conditional import NotModified, TaggedXml, with_generation
from repro.wire.parser import parse_document
from repro.wire.writer import write_document

CLUSTER = "sdsc-c0"
PATHS = {
    "root": "/",
    "summary": "/?filter=summary",
    "cluster": f"/{CLUSTER}",
    "host": f"/{CLUSTER}/{CLUSTER}-0-0",
}
#: requests each process answers in bin1 when the viewer offers it
BIN1_ON_SDSC = {"summary", "cluster"}
BIN1_ON_REPLICA = {"cluster"}


class Front:
    """The Fig. 2 tree with every fast gate on, plus one synced replica
    of ``sdsc``, reached by one viewer host over TCP."""

    def __init__(self) -> None:
        self.fed = build_paper_tree(
            "nlevel", hosts_per_cluster=3, incremental=True,
            columnar=True, columnar_serve=True, binary_wire=True,
        ).start()
        self.daemon = self.fed.gmetad("sdsc")
        tier = build_read_tier(
            self.fed.engine, self.fed.fabric, self.fed.tcp, self.daemon,
            config=ReadTierConfig(replicas=1, columnar_serve=True),
        )
        self.replica = tier.replicas[0]
        self.servers = {"sdsc": self.daemon, "replica": self.replica}
        self.fed.fabric.add_host("viewer")
        self.fed.engine.run_for(60.0)

    def view(self):
        """The ingest version triple both processes must be showing."""
        store = self.daemon.datastore
        return (store.generation, store.content_version, store.detail_version)

    def after_next_ingest(self) -> None:
        """Step to just after the next ingest the replica has applied,
        so a batch of requests lands well inside a quiet window."""
        before = self.view()
        for _ in range(200):
            self.fed.engine.run_for(0.1)
            view = self.view()
            if view != before and self.replica.ingest_versions == view:
                return
        raise AssertionError("no ingest reached the replica")

    def ask(self, requests):
        """Send ``{key: (server, request)}`` at one instant; collect the
        replies."""
        view = self.view()
        assert self.replica.ingest_versions == view
        replies = {}
        for key, (server, request) in requests.items():
            self.fed.tcp.request(
                "viewer", self.servers[server].address, request,
                on_response=lambda payload, rtt, key=key: replies.__setitem__(
                    key, payload
                ),
                timeout=5.0,
            )
        self.fed.engine.run_for(0.5)
        assert self.view() == view, "an ingest landed mid-batch"
        assert set(replies) == set(requests)
        return replies


def request_for(path: str, bin1: bool, token=None) -> str:
    request = with_accept(path) if bin1 else path
    return request if token is None else with_generation(request, token)


def token_of(payload) -> str:
    if isinstance(payload, BinaryFrame):
        return payload.generation
    assert isinstance(payload, TaggedXml)
    return payload.generation


def text_of(payload) -> str:
    """The XML a reply stands for: frames are decoded back to text."""
    if isinstance(payload, BinaryFrame):
        return decode_to_xml(payload.data)
    assert isinstance(payload, (str, TaggedXml)), payload
    return str(payload)


def assert_same_answer(kind: str, sdsc, replica) -> None:
    expected, got = text_of(sdsc), text_of(replica)
    if kind == "summary" and isinstance(sdsc, BinaryFrame):
        # a SUMMARY_DOC frame carries the document, not the order the
        # XML engine interleaves cluster and grid sources in
        expected = write_document(parse_document(expected))
        got = write_document(parse_document(got))
    assert got == expected, kind


def assert_codec(server: str, kind: str, bin1: bool, payload) -> None:
    offered = BIN1_ON_SDSC if server == "sdsc" else BIN1_ON_REPLICA
    binary = bin1 and kind in offered
    assert isinstance(payload, BinaryFrame) == binary, (server, kind, bin1)


@pytest.fixture(scope="module")
def front() -> Front:
    return Front()


class TestParity:
    def test_unconditional_stale_and_current_tokens(self, front):
        # mint a token per (process, request) ...
        front.after_next_ingest()
        first = front.ask({
            (server, kind, bin1): (server, request_for(path, bin1, "-"))
            for server in front.servers
            for kind, path in PATHS.items()
            for bin1 in (False, True)
        })
        minted = {key: token_of(reply) for key, reply in first.items()}
        # ... which the next ingest makes stale
        front.after_next_ingest()
        cases = [
            (kind, path, bin1)
            for kind, path in PATHS.items()
            for bin1 in (False, True)
        ]
        plain = front.ask({
            (server, kind, bin1, mode): (
                server,
                request_for(
                    path, bin1,
                    minted[server, kind, bin1] if mode == "stale" else None,
                ),
            )
            for server in front.servers
            for kind, path, bin1 in cases
            for mode in ("unconditional", "stale")
        })
        current = {
            (server, kind, bin1): token_of(plain[server, kind, bin1, "stale"])
            for server in front.servers
            for kind, _, bin1 in cases
        }
        other = {"sdsc": "replica", "replica": "sdsc"}
        tokened = front.ask({
            (server, kind, bin1, mode): (
                server,
                request_for(
                    path, bin1,
                    current[
                        (server if mode == "current" else other[server]),
                        kind, bin1,
                    ],
                ),
            )
            for server in front.servers
            for kind, path, bin1 in cases
            for mode in ("current", "foreign")
        })
        replies = {**plain, **tokened}

        for kind, _, bin1 in cases:
            for mode in ("unconditional", "stale", "foreign"):
                sdsc = replies["sdsc", kind, bin1, mode]
                replica = replies["replica", kind, bin1, mode]
                # a stale token, or one minted on the other process's
                # epoch, never gets NOT-MODIFIED
                for server, reply in (("sdsc", sdsc), ("replica", replica)):
                    assert not isinstance(reply, NotModified), (server, mode)
                    assert_codec(server, kind, bin1, reply)
                    if mode != "unconditional":
                        assert token_of(reply) == current[server, kind, bin1]
                assert_same_answer(kind, sdsc, replica)
            for server in front.servers:
                key = (server, kind, bin1)
                assert minted[key] != current[key], "the stale token is current"
                reply = replies[server, kind, bin1, "current"]
                assert isinstance(reply, NotModified), (server, kind, bin1)
                assert reply.generation == current[key]

    def test_tokens_are_scoped_to_their_process(self, front):
        front.after_next_ingest()
        replies = front.ask({
            server: (server, request_for("/", False, "-"))
            for server in front.servers
        })
        assert token_of(replies["sdsc"]) != token_of(replies["replica"])


class TestReplicaShedding:
    def test_query_storm_gets_explicit_overloaded_replies(
        self, engine, fabric, tcp, rngs
    ):
        config = GmetadConfig(
            name="sdsc", host="gmeta-sdsc", archive_mode="account",
            read_tier=ReadTierConfig(),
        )
        pseudo = PseudoGmond(
            engine, fabric, tcp, "meteor", num_hosts=6,
            rng=rngs.stream("pg:meteor"),
        )
        config.add_source("meteor", [pseudo.address])
        daemon = Gmetad(engine, fabric, tcp, config).start()
        daemon.attach_pubsub()
        replica = ReadReplica(
            engine, fabric, tcp, daemon, name="r1", host="gmeta-sdsc-r1",
            config=ReadTierConfig(serve_queue_limit=2),
        ).start()
        fabric.add_host("viewer")
        engine.run_for(35.0)
        assert replica.synced
        got = []
        for _ in range(6):
            tcp.request(
                "viewer",
                replica.address,
                "/",
                on_response=lambda p, rtt: got.append(p),
                timeout=8.0,
            )
        engine.run_for(10.0)
        assert len(got) == 6
        shed = [p for p in got if isinstance(p, Overloaded)]
        served = [p for p in got if isinstance(p, str)]
        assert len(shed) == 4  # oldest four shed by the storm
        assert len(served) == 2
        assert replica.queries_shed == 4
        assert daemon.queries_shed == 0
