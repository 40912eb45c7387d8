"""One measured episode of a workload, and the checks on its outputs.

An episode builds the Fig. 2 federation over replay stand-ins, starts
it, runs the first full poll cycle (set-up), then runs the timed region
in one-second engine steps.  Between steps the closed-loop viewer of a
read-heavy workload sends its queries; workloads without viewers run a
query sweep on the paused engine after the timed region instead.
Outputs are checked once the clock has stopped.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.topology import build_paper_tree
from repro.core.query import QueryError, QueryNotFound
from repro.readtier.config import ReadTierConfig
from repro.readtier.fleet import build_read_tier, viewer_paths

from machine import SpeedProbe
from replay import PayloadStore, replay_failures, replaying
from tracing import Tracer
from workloads import Workload, profile_kwargs

#: set-up runs one poll interval plus a second: every poller delivers once
SETUP_SIM_S = 16.0
#: simulated seconds in an episode's timed region; one value for every
#: workload, so all of them end at the same instant and their probe
#: replies can be compared
HORIZON_SIM_S = 60.0
#: simulated time at which every episode's timed region ends
EPISODE_END_SIM_S = SETUP_SIM_S + HORIZON_SIM_S
#: the timed region advances the engine in steps of this many sim seconds
STEP_SIM_S = 1.0
#: sweep queries between two machine-speed samples
SWEEP_CHUNK = 10
#: ingest daemon of the read tier and of the cluster-path probes
PROBE_GMETAD = "sdsc"
#: daemon whose summary must count every real host
ROOT_GMETAD = "root"
#: in-band self-monitoring clusters (observability, analytics): each
#: daemon reports itself as one extra host, which is not a real host of
#: the twelve clusters and is left out of the root host count
IN_BAND_CLUSTERS = ("__gmetad__", "__analytics__")
#: metric named by the metric-level probe
PROBE_METRIC = "load_one"


@dataclass
class EpisodeResult:
    """What one episode measured, counted and found wrong."""

    setup_s: float = 0.0
    #: wall seconds of each engine step of the timed region
    step_walls: List[float] = field(default_factory=list)
    #: wall seconds inside viewer query calls (timed region and sweep)
    query_wall_s: float = 0.0
    host_reports: int = 0
    ingest_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    not_modified: int = 0
    attempted: int = 0
    failed: int = 0
    probe_digest: str = ""
    failures: List[str] = field(default_factory=list)
    #: exact counts read from the daemons over the timed region
    counts: Dict[str, float] = field(default_factory=dict)
    #: simulated CPU seconds charged over the timed region, by category
    charged: Dict[str, float] = field(default_factory=dict)
    #: machine-speed kernel times (ms), one after each unit of work
    speed_samples: List[float] = field(default_factory=list)
    #: (engine steps, deliveries, queries) done by each speed sample:
    #: unit ``i`` of work lies between marks ``i - 1`` and ``i``
    marks: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def step_s(self) -> float:
        """Wall seconds inside engine steps of the timed region."""
        return sum(self.step_walls)

    @property
    def speed_ms(self) -> float:
        """Mean kernel time over the episode (ms).

        The mean, not the median: measured work integrates every slow
        burst it meets, and so does the mean of samples spread over it.
        """
        return statistics.fmean(self.speed_samples)


#: Zipf exponent of the viewer path popularity (as ``ViewerFleet``)
ZIPF_S = 1.1
#: orders the query plan; fixed, so every run sends the same query
#: sequence and the seed changes only the monitored data
PLAN_SEED = 2003


def apportion(total: int, weights: List[float]) -> List[int]:
    """Split ``total`` into integer counts proportional to ``weights``.

    Largest-remainder rounding: the counts sum to ``total`` exactly and
    depend only on the weights, never on a random draw.
    """
    scale = total / sum(weights)
    quotas = [w * scale for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - quotas[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def query_plan(
    paths: List[str], total: int, replica_share: float, rng: random.Random
) -> List[Tuple[str, str]]:
    """``total`` (path, server) queries in exact Zipf and server shares.

    Every seed sends the same multiset of queries; the seed only orders
    them.  So the latency percentiles never move because one run drew a
    few more of the large full-tree dumps than another.
    """
    plan: List[Tuple[str, str]] = []
    counts = apportion(total, [1.0 / rank ** ZIPF_S for rank in range(1, len(paths) + 1)])
    for path, count in zip(paths, counts):
        servers = apportion(count, [1.0 - replica_share, replica_share])
        for server, n in zip(("ingest", "replica"), servers):
            plan += [(path, server)] * n
    rng.shuffle(plan)
    return plan


class ViewerClient:
    """Closed-loop viewer: one query at a time, in a fixed query plan.

    A query goes to ``sdsc`` or to the replica.  With ``offer_bin1`` it
    asks that server's ``serve_binary`` first and its ``serve_query``
    when the server declines, as a bin1 viewer behind the front door
    does.  Counts DOM materializations the ingest daemon makes while
    serving, which the columnar serve path keeps at zero.
    """

    def __init__(self, daemon, replica, plan, offer_bin1, tracer=None) -> None:
        self.daemon = daemon
        self.replica = replica
        self.offer_bin1 = offer_bin1
        self._plan = iter(plan)
        self.tracer = tracer
        self.latencies_ms: List[float] = []
        self.wall_s = 0.0
        self.sent = 0
        self.failed = 0
        self.serve_materializations = 0

    def _one(self, path: str, server: str) -> None:
        target = self.replica if server == "replica" else self.daemon
        if self.offer_bin1 and target.serve_binary(path) is not None:
            return
        target.serve_query(path)  # no bin1 offer, or declined: XML

    def send(self, count: int) -> None:
        store = self.daemon.datastore
        for path, server in itertools.islice(self._plan, count):
            before = store.materializations
            self.sent += 1
            t0 = time.perf_counter()
            try:
                if self.tracer is not None:
                    self.tracer.call("viewer", self._one, path, server)
                else:
                    self._one(path, server)
                ok = True
            except (QueryError, QueryNotFound):
                ok = False
            elapsed = time.perf_counter() - t0
            self.wall_s += elapsed
            if not ok:
                self.failed += 1
                continue
            self.latencies_ms.append(elapsed * 1000.0)
            if server != "replica":
                self.serve_materializations += store.materializations - before


def probe_paths(daemon) -> List[str]:
    """Cluster-path probes over every local cluster of ``daemon``."""
    paths = []
    for name in daemon.datastore.source_names():
        snapshot = daemon.datastore.sources[name]
        if snapshot.kind != "cluster" or name in IN_BAND_CLUSTERS:
            continue
        host = f"{name}-0-0"  # the first host a pseudo-gmond names
        paths += [
            f"/{name}",
            f"/{name}/{host}",
            f"/{name}/{host}/{PROBE_METRIC}",
            f"/{name}?filter=summary",
        ]
    return paths


def probe(daemon) -> tuple[str, List[str]]:
    """(digest of the probe replies, probes that did not resolve)."""
    digest = hashlib.sha256()
    unresolved = []
    for path in probe_paths(daemon):
        try:
            daemon.resolve(path)
        except (QueryError, QueryNotFound):
            unresolved.append(path)
            continue
        xml, _ = daemon.serve_query(path)
        digest.update(path.encode())
        digest.update(xml.encode())
    return digest.hexdigest(), unresolved


def reference_digest(workload: Workload, store: PayloadStore, seed: int) -> str:
    """Probe digest of a paper-profile twin of the probe daemon.

    The twin polls the same recorded content at the same instants, over
    plain XML with every gate off, so the probe replies of any profile
    must match it byte for byte.
    """
    with replaying(store, xml_only=True):
        fed = build_paper_tree(
            "nlevel",
            hosts_per_cluster=workload.hosts,
            seed=seed,
            archive_mode="account",
        )
    daemon = fed.gmetad(PROBE_GMETAD)
    daemon.start()
    fed.engine.run_until(EPISODE_END_SIM_S)
    daemon.stop()
    digest, unresolved = probe(daemon)
    if unresolved:
        raise RuntimeError(f"reference probes did not resolve: {unresolved}")
    return digest


def real_root_hosts(fed) -> int:
    """Hosts in the root summary, less the in-band self-report hosts."""
    summary, _ = fed.gmetad(ROOT_GMETAD).datastore.root_summary()
    in_band = 0
    for daemon in fed.gmetads.values():
        for name in IN_BAND_CLUSTERS:
            snapshot = daemon.datastore.sources.get(name)
            if snapshot is not None and snapshot.summary is not None:
                in_band += snapshot.summary.hosts_total
    return summary.hosts_total - in_band


def _charged(fed, tier) -> Dict[str, float]:
    """Simulated CPU seconds charged so far, by category, daemons and replica."""
    totals: Dict[str, float] = {}
    accounts = [g.cpu for g in fed.gmetads.values()]
    if tier is not None:
        accounts += [replica.cpu for replica in tier.replicas]
    for account in accounts:
        for category, seconds in account.window.by_category.items():
            totals[category] = totals.get(category, 0.0) + seconds
    return totals


def _daemon_counts(fed, tier) -> Dict[str, float]:
    """Cumulative counters the daemons keep themselves."""
    counts = {
        "datastore.materializations": 0,
        "archive.series_updates": 0,
        "poll.polls": 0,
        "poll.errors": 0,
    }
    for g in fed.gmetads.values():
        counts["datastore.materializations"] += g.datastore.materializations
        a = g.archiver
        counts["archive.series_updates"] += (
            a.detail_updates + a.summary_updates + a.replayed_updates
        )
        counts["poll.errors"] += g.parse_errors + g.queries_shed
        for poller in g.pollers.values():
            counts["poll.polls"] += poller.polls
            counts["poll.errors"] += (
                poller.failovers + poller.overloaded_replies
                + poller.polls_skipped
            )
    counts["readtier.replica_materializations"] = (
        tier.replicas[0].datastore.materializations if tier is not None else 0
    )
    return counts


def set_up(workload: Workload, store: PayloadStore, seed: int):
    """Build and start the federation and run its first full poll cycle.

    Returns the federation, the probe daemon, its read tier (or None)
    and the wall seconds all of that took.
    """
    t0 = time.perf_counter()
    with replaying(store):
        fed = build_paper_tree(
            "nlevel",
            hosts_per_cluster=workload.hosts,
            seed=seed,
            archive_mode="full",
            **profile_kwargs(workload.profile),
        )
    fed.start()
    daemon = fed.gmetad(PROBE_GMETAD)
    tier = None
    if workload.replicas:
        # replicas serve bin1 exactly when viewers offer it, as in the
        # fleet arm the viewer model comes from
        tier = build_read_tier(
            fed.engine, fed.fabric, fed.tcp, daemon,
            config=ReadTierConfig(
                replicas=workload.replicas,
                columnar_serve=workload.offers_bin1,
            ),
        )
    fed.engine.run_for(SETUP_SIM_S)
    return fed, daemon, tier, time.perf_counter() - t0


def time_set_up(workload: Workload, store: PayloadStore, seed: int) -> float:
    """Wall seconds of one more set-up, torn down again unchecked."""
    fed, _, tier, seconds = set_up(workload, store, seed)
    if tier is not None:
        tier.stop()
    fed.stop()
    return seconds


def run_episode(
    workload: Workload,
    store: PayloadStore,
    seed: int,
    tracer: Optional[Tracer] = None,
    speed: bool = False,
) -> EpisodeResult:
    """Set up, run and check one episode; spans go to ``tracer``."""
    result = EpisodeResult()
    fed, daemon, tier, result.setup_s = set_up(workload, store, seed)

    silent = [
        f"{g}/{s}"
        for g, daemon_ in fed.gmetads.items()
        for s, p in daemon_.pollers.items()
        if p.successes == 0
    ]
    if silent:
        result.failures.append(f"sources silent after set-up: {silent}")
    if tier is not None and not tier.synced():
        result.failures.append("read replica not synced after set-up")

    # time every poll delivery: payload handed over -> install and
    # publish returned
    clusters = set(fed.pseudos)

    def timed(deliver):
        def on_data(source, payload, rtt):
            start = time.perf_counter()
            if tracer is not None:
                tracer.call("ingest", deliver, source, payload, rtt)
            else:
                deliver(source, payload, rtt)
            result.ingest_ms.append((time.perf_counter() - start) * 1000.0)
            if source in clusters:
                result.host_reports += workload.hosts
        return on_data

    def not_modified(deliver):
        def on_not_modified(source, notice, rtt):
            result.not_modified += 1
            deliver(source, notice, rtt)
        return on_not_modified

    for g in fed.gmetads.values():
        for poller in g.pollers.values():
            poller.on_data = timed(poller.on_data)
            if poller.on_not_modified is not None:
                poller.on_not_modified = not_modified(poller.on_not_modified)

    replica = tier.replicas[0] if tier is not None else None
    steps = int(round(HORIZON_SIM_S / STEP_SIM_S))
    # viewer queries sent by the end of each step: the rate need not be
    # a whole number per step
    due = [workload.viewer_queries_by((k + 1) * STEP_SIM_S) for k in range(steps)]
    plan = query_plan(
        viewer_paths(daemon),
        due[-1] + workload.sweep_queries,
        workload.replica_share,
        random.Random(PLAN_SEED),
    )
    client = ViewerClient(daemon, replica, plan, workload.offers_bin1, tracer)
    for gmond in fed.pseudos.values():
        gmond.tracer = tracer
    counts0 = _daemon_counts(fed, tier)
    charged0 = _charged(fed, tier)
    if tracer is not None:
        tracer.active = True

    engine = fed.engine
    # the machine-speed kernel runs between steps and sweep chunks,
    # outside every timing
    probe_speed = SpeedProbe() if speed else None

    def sample_speed() -> None:
        if probe_speed is not None:
            probe_speed.sample()
            result.marks.append(
                (len(result.step_walls), len(result.ingest_ms),
                 len(client.latencies_ms))
            )

    for k in range(steps):
        start = time.perf_counter()
        if tracer is not None:
            tracer.call("substrate", engine.run_for, STEP_SIM_S)
        else:
            engine.run_for(STEP_SIM_S)
        result.step_walls.append(time.perf_counter() - start)
        client.send(due[k] - client.sent)
        sample_speed()
    # the sweep reads a paused engine: no poll can interleave with it
    for sent in range(0, workload.sweep_queries, SWEEP_CHUNK):
        client.send(min(SWEEP_CHUNK, workload.sweep_queries - sent))
        sample_speed()
    if tracer is not None:
        tracer.active = False
    charged1 = _charged(fed, tier)
    counts1 = _daemon_counts(fed, tier)

    if probe_speed is not None:
        result.speed_samples = probe_speed.samples_ms
    result.query_ms = client.latencies_ms
    result.query_wall_s = client.wall_s
    result.charged = {k: charged1[k] - charged0.get(k, 0.0) for k in charged1}
    result.counts = {k: counts1[k] - counts0[k] for k in counts1}
    result.counts["poll.deliveries"] = len(result.ingest_ms)
    result.counts["poll.not_modified"] = result.not_modified
    result.counts["datastore.serve_materializations"] = (
        client.serve_materializations
    )

    # -- checks, on a stopped clock ------------------------------------
    end = EPISODE_END_SIM_S
    if engine.now != end:
        result.failures.append(f"episode ended at t={engine.now}, not {end}")
    missing = replay_failures(fed.pseudos, end)
    if missing:
        result.failures.append(missing)
    result.probe_digest, unresolved = probe(daemon)
    if unresolved:
        result.failures.append(f"probes did not resolve: {unresolved}")
    hosts = real_root_hosts(fed)
    if hosts != len(clusters) * workload.hosts:
        result.failures.append(
            f"root summary counts {hosts} real hosts, expected "
            f"{len(clusters) * workload.hosts}"
        )
    if workload.viewer_clients and client.serve_materializations:
        result.failures.append(
            f"{client.serve_materializations} DOM materializations on the "
            "ingest daemon's serve path"
        )
    result.attempted = (
        int(result.counts["poll.polls"]) + client.sent + len(probe_paths(daemon))
    )
    result.failed = (
        int(result.counts["poll.errors"]) + client.failed + len(unresolved)
    )
    if tier is not None:
        tier.stop()
    fed.stop()
    return result
