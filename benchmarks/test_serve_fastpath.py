"""Columnar serve fast path vs DOM serving: cluster-size sweep.

A gmetad's serve side answers every viewer, parent poll and tool query;
§3.3/§4 price it per byte served.  The DOM path re-materializes a
snapshot's host tree on first touch and re-serializes the whole cluster
on every poll generation; the :mod:`repro.serve` fragment arena renders
only the hosts a poll actually changed and joins pre-rendered strings
for the rest.  This sweep measures the real wall-clock cost of serving
at 100/1000/10000 hosts, crossed with workload (``steady``: identical
polls, pure reuse; ``churn``: 10% of hosts mutate between polls) and a
query mix of full detail (``/src``), summary forms, and host-path
drill-downs.

Both arms consume the *same* pre-parsed columnar poll trace through the
same ``Gmetad.ingest_columnar`` entry point; only
``GmetadConfig.columnar_serve`` differs.  Replies are asserted
byte-identical between arms, and the arena arm must finish with
``datastore.materializations == 0`` -- serving never built a host DOM.

Acceptance (asserted below): at 1000 hosts under churn the arena arm's
detail-serve throughput is >= 3x the DOM arm's, with zero
materializations.  A second, simulated-time arm stands up the readtier
fleet twice (DOM-serving vs arena-serving replicas with ``bin1``
viewers) and reports the per-replica QPS-capacity lift (ok queries per
serving-CPU-second).  Everything lands in ``BENCH_serve.json`` at the
repo root plus a table in ``benchmarks/out/serve_fastpath.txt``.  A
CI-sized spot check runs as ``pytest benchmarks/test_serve_fastpath.py
-m smoke``.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.columnar import InternPool
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.readtier.config import ReadTierConfig
from repro.readtier.fleet import ViewerFleet, build_read_tier, viewer_paths
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.parser import parse_columnar

SIZES = (100, 1000, 10000)
POLLS = 6  # measured polls per arm (plus one warmup)
CHURN = 0.1  # fraction of hosts mutated between polls in the churn arm
POLL_INTERVAL = 15.0
DETAIL_PER_POLL = 4  # "/src" full-cluster dumps per poll
HOSTPATH_PER_POLL = 4  # "/src/<host>" drill-downs per poll
SUMMARY_REQUESTS = ["/?filter=summary", "/src?filter=summary"]

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def poll_docs(hosts: int, churn: float, polls: int = POLLS + 1):
    """One pre-parsed columnar poll trace both arms consume."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(14)
    pseudo = PseudoGmond(
        engine, fabric, tcp, "src", num_hosts=hosts, rng=rngs.stream("pg")
    )
    pool = InternPool()
    docs = [parse_columnar(pseudo.current_xml(), pool=pool, validate=False)]
    for _ in range(polls - 1):
        if churn:
            pseudo.mutate(fraction=churn)
        docs.append(
            parse_columnar(pseudo.current_xml(), pool=pool, validate=False)
        )
    return docs


@dataclass
class ServeRun:
    """One (size, workload, serve mode) measurement."""

    detail_seconds: float
    summary_seconds: float
    hostpath_seconds: float
    detail_serves: int
    summary_serves: int
    hostpath_serves: int
    detail_bytes: int             # size of one full detail reply
    materializations: int
    frag_invalidations: int
    replies: Dict[str, str]       # last-poll replies, for the identity diff

    @property
    def detail_qps(self) -> float:
        return self.detail_serves / self.detail_seconds

    @property
    def total_seconds(self) -> float:
        return self.detail_seconds + self.summary_seconds + self.hostpath_seconds


def run_serve(docs, columnar_serve: bool) -> ServeRun:
    """Feed the trace through a real daemon and time the query mix."""
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    config = GmetadConfig(
        name="serve", host="gmeta-serve", archive_mode="account",
        columnar_serve=columnar_serve,
    )
    daemon = Gmetad(engine, fabric, tcp, config)
    host_names = sorted(docs[0].clusters[0].host_names)
    step = max(1, len(host_names) // HOSTPATH_PER_POLL)
    host_requests = [
        f"/src/{name}" for name in host_names[::step][:HOSTPATH_PER_POLL]
    ]
    detail = summary = hostpath = 0.0
    measured_polls = 0
    replies: Dict[str, str] = {}
    detail_bytes = 0
    for i, cdoc in enumerate(docs):
        daemon.ingest_columnar("src", cdoc, i * POLL_INTERVAL)
        measured = i > 0  # poll 0 is warmup: pool/arena/DOM cold starts
        start = time.perf_counter()
        for _ in range(DETAIL_PER_POLL):
            xml, _ = daemon.serve_query("/src")
        if measured:
            detail += time.perf_counter() - start
            measured_polls += 1
        detail_bytes = len(xml)
        replies["/src"] = xml
        start = time.perf_counter()
        for request in SUMMARY_REQUESTS:
            replies[request], _ = daemon.serve_query(request)
        if measured:
            summary += time.perf_counter() - start
        start = time.perf_counter()
        for request in host_requests:
            replies[request], _ = daemon.serve_query(request)
        if measured:
            hostpath += time.perf_counter() - start
    return ServeRun(
        detail_seconds=detail,
        summary_seconds=summary,
        hostpath_seconds=hostpath,
        detail_serves=measured_polls * DETAIL_PER_POLL,
        summary_serves=measured_polls * len(SUMMARY_REQUESTS),
        hostpath_serves=measured_polls * len(host_requests),
        detail_bytes=detail_bytes,
        materializations=daemon.datastore.materializations,
        frag_invalidations=sum(
            a.frag_invalidations for a in daemon.datastore.arenas.values()
        ),
        replies=replies,
    )


def measure_size(hosts: int) -> Dict[str, Dict[str, ServeRun]]:
    out: Dict[str, Dict[str, ServeRun]] = {}
    for workload, churn in (("steady", 0.0), ("churn", CHURN)):
        docs = poll_docs(hosts, churn)
        dom = run_serve(docs, columnar_serve=False)
        arena = run_serve(docs, columnar_serve=True)
        assert arena.replies == dom.replies, (hosts, workload)
        assert arena.materializations == 0, (hosts, workload)
        out[workload] = {"dom": dom, "arena": arena}
    return out


@pytest.fixture(scope="module")
def sweep() -> Dict[int, Dict[str, Dict[str, ServeRun]]]:
    return {hosts: measure_size(hosts) for hosts in SIZES}


# -- readtier fleet arm: per-replica QPS capacity --------------------------

FLEET_SOURCES = 4
FLEET_HOSTS = 32
FLEET_REPLICAS = 2
FLEET_CLIENTS = 60_000  # ~200 QPS offered at ganglia-web's 300 s refresh
FLEET_WARMUP = 60.0
FLEET_MEASURE = 20.0


@dataclass
class FleetRun:
    """One readtier arm: ok queries per serving-CPU-second."""

    ok: int
    binary: int
    serve_cpu_seconds: float
    replies_identical: bool

    @property
    def qps_capacity(self) -> float:
        return self.ok / self.serve_cpu_seconds


def run_fleet(columnar_serve: bool) -> FleetRun:
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(23)
    config = GmetadConfig(
        name="sdsc", host="gmeta-sdsc", archive_mode="account",
    )
    for i in range(FLEET_SOURCES):
        name = f"c{i:02d}"
        pseudo = PseudoGmond(
            engine, fabric, tcp, name, num_hosts=FLEET_HOSTS,
            rng=rngs.stream(f"pg:{name}"),
        )
        config.add_source(name, [pseudo.address])
    daemon = Gmetad(engine, fabric, tcp, config).start()
    engine.run_for(FLEET_WARMUP)
    tier = build_read_tier(
        engine, fabric, tcp, daemon, replicas=FLEET_REPLICAS,
        config=ReadTierConfig(
            replicas=FLEET_REPLICAS, columnar_serve=columnar_serve
        ),
    )
    deadline = engine.now + 300.0
    while not tier.synced() and engine.now < deadline:
        engine.run_for(15.0)
    assert tier.synced()
    # arena replicas serve the ingest daemon's exact XML bytes
    identical = all(
        replica.serve_query("/c00")[0] == daemon.serve_query("/c00")[0]
        for replica in tier.replicas
    )
    fleet = ViewerFleet(
        engine, fabric, tcp, tier.address, viewer_paths(daemon),
        clients=FLEET_CLIENTS, per_client_qps=1.0 / 300.0,
        aggregators=64, seed=5, accept_binary=columnar_serve,
    ).start()
    engine.run_for(5.0)
    fleet.take_window()  # discard the ramp-in samples
    busy_before = sum(r.cpu.total_busy_seconds for r in tier.replicas)
    engine.run_for(FLEET_MEASURE)
    window = fleet.take_window()
    busy = sum(r.cpu.total_busy_seconds for r in tier.replicas) - busy_before
    fleet.stop()
    return FleetRun(
        ok=window.ok,
        binary=window.binary,
        serve_cpu_seconds=busy,
        replies_identical=identical,
    )


@pytest.fixture(scope="module")
def fleet_arms() -> Dict[str, FleetRun]:
    return {"dom": run_fleet(False), "arena": run_fleet(True)}


# -- reporting --------------------------------------------------------------


def render(sweep, fleet_arms) -> str:
    lines = [
        "Columnar serve fast path: query mix per poll "
        f"({DETAIL_PER_POLL} detail + {len(SUMMARY_REQUESTS)} summary + "
        f"{HOSTPATH_PER_POLL} host paths), {POLLS} polls, "
        f"churn arm mutates {CHURN:.0%}/poll",
        "",
        f"{'hosts':>6} {'workload':>8} {'reply MB':>9} "
        f"{'dom detail':>11} {'arena':>8} {'speedup':>8} "
        f"{'dom mix':>8} {'arena':>8} {'speedup':>8}",
    ]
    for hosts in SIZES:
        for workload in ("steady", "churn"):
            dom = sweep[hosts][workload]["dom"]
            arena = sweep[hosts][workload]["arena"]
            lines.append(
                f"{hosts:>6} {workload:>8} {dom.detail_bytes / 1e6:>8.2f} "
                f"{dom.detail_seconds:>10.3f}s {arena.detail_seconds:>7.3f}s "
                f"{dom.detail_qps and dom.detail_seconds / arena.detail_seconds:>7.1f}x "
                f"{dom.total_seconds:>7.3f}s {arena.total_seconds:>7.3f}s "
                f"{dom.total_seconds / arena.total_seconds:>7.1f}x"
            )
    dom, arena = fleet_arms["dom"], fleet_arms["arena"]
    lines += [
        "",
        f"readtier fleet ({FLEET_REPLICAS} replicas, "
        f"{FLEET_SOURCES}x{FLEET_HOSTS} hosts): per-replica QPS capacity "
        f"(ok / serving-CPU-second)",
        f"  dom   {dom.qps_capacity:>8.0f}  (ok={dom.ok})",
        f"  arena {arena.qps_capacity:>8.0f}  (ok={arena.ok}, "
        f"bin1 frames={arena.binary})",
        f"  lift  {arena.qps_capacity / dom.qps_capacity:>8.2f}x",
    ]
    return "\n".join(lines)


def sweep_json(sweep, fleet_arms) -> dict:
    rows: List[dict] = []
    for hosts in SIZES:
        for workload in ("steady", "churn"):
            dom = sweep[hosts][workload]["dom"]
            arena = sweep[hosts][workload]["arena"]
            rows.append(
                {
                    "hosts": hosts,
                    "workload": workload,
                    "detail_reply_bytes": dom.detail_bytes,
                    "dom_detail_seconds": round(dom.detail_seconds, 4),
                    "arena_detail_seconds": round(arena.detail_seconds, 4),
                    "detail_speedup": round(
                        dom.detail_seconds / arena.detail_seconds, 2
                    ),
                    "dom_mix_seconds": round(dom.total_seconds, 4),
                    "arena_mix_seconds": round(arena.total_seconds, 4),
                    "mix_speedup": round(
                        dom.total_seconds / arena.total_seconds, 2
                    ),
                    "arena_materializations": arena.materializations,
                    "arena_frag_invalidations": arena.frag_invalidations,
                    "replies_identical": arena.replies == dom.replies,
                }
            )
    dom, arena = fleet_arms["dom"], fleet_arms["arena"]
    return {
        "benchmark": "serve_fastpath",
        "query_mix_per_poll": {
            "detail": DETAIL_PER_POLL,
            "summary": len(SUMMARY_REQUESTS),
            "host_path": HOSTPATH_PER_POLL,
        },
        "polls": POLLS,
        "churn_fraction": CHURN,
        "poll_interval_seconds": POLL_INTERVAL,
        "rows": rows,
        "readtier_fleet": {
            "replicas": FLEET_REPLICAS,
            "sources": FLEET_SOURCES,
            "hosts_per_source": FLEET_HOSTS,
            "measure_seconds": FLEET_MEASURE,
            "dom_ok": dom.ok,
            "arena_ok": arena.ok,
            "arena_bin1_frames": arena.binary,
            "dom_qps_capacity": round(dom.qps_capacity, 1),
            "arena_qps_capacity": round(arena.qps_capacity, 1),
            "qps_capacity_lift": round(
                arena.qps_capacity / dom.qps_capacity, 2
            ),
        },
    }


def test_serve_fastpath_report(sweep, fleet_arms, save_report, bench_env):
    """Regenerates the sweep table and the committed JSON artifact."""
    save_report("serve_fastpath", render(sweep, fleet_arms))
    payload = {**sweep_json(sweep, fleet_arms), "environment": bench_env}
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")


def test_detail_speedup_at_1000_hosts_under_churn(sweep):
    """The acceptance bar: >= 3x detail-serve throughput, zero
    materializations, at 1000 hosts with 10% churn."""
    dom = sweep[1000]["churn"]["dom"]
    arena = sweep[1000]["churn"]["arena"]
    speedup = dom.detail_seconds / arena.detail_seconds
    assert speedup >= 3.0, (
        f"detail serving only {speedup:.1f}x "
        f"({dom.detail_seconds:.3f}s vs {arena.detail_seconds:.3f}s)"
    )
    assert arena.materializations == 0
    assert arena.frag_invalidations > 0  # churn really cycled fragments


def test_replies_identical_at_every_size(sweep):
    """Not a benchmark of different answers: every (size, workload)
    pairing already diffed byte-identical during the sweep."""
    for hosts, workloads in sweep.items():
        for workload, runs in workloads.items():
            assert runs["arena"].replies == runs["dom"].replies, (
                hosts, workload
            )
            assert runs["arena"].materializations == 0, (hosts, workload)


def test_replica_qps_capacity_lift(fleet_arms):
    """Arena-serving replicas answer measurably more queries per
    serving-CPU-second, and the bin1 negotiation really engaged."""
    dom, arena = fleet_arms["dom"], fleet_arms["arena"]
    assert dom.replies_identical and arena.replies_identical
    assert arena.binary > 0, "no GBF1 frames reached the viewers"
    lift = arena.qps_capacity / dom.qps_capacity
    assert lift > 1.05, f"per-replica QPS capacity lift only {lift:.2f}x"


@pytest.mark.smoke
def test_smoke_small_arm(save_report):
    """CI-sized spot check: 100 hosts, churn workload, identity + zero
    materializations (no timing assertions)."""
    docs = poll_docs(100, CHURN, polls=4)
    dom = run_serve(docs, columnar_serve=False)
    arena = run_serve(docs, columnar_serve=True)
    assert arena.replies == dom.replies
    assert arena.materializations == 0
    assert arena.frag_invalidations > 0
    save_report(
        "serve_fastpath_smoke",
        "Serve fast-path smoke: 100 hosts, 10% churn\n"
        f"dom detail {dom.detail_seconds:.4f}s, "
        f"arena detail {arena.detail_seconds:.4f}s, "
        f"speedup {dom.detail_seconds / arena.detail_seconds:.1f}x, "
        f"materializations={arena.materializations}",
    )
