"""ReadReplica: a serving process fed off one ingest gmetad.

A replica owns its own simulated host, CPU account, datastore and query
engine; it subscribes to the ingest gmetad's pub-sub broker on the
hidden ``/__repl__`` path and mirrors the replication feed
(:mod:`repro.readtier.feed`).  Viewer queries land on the replica's own
``Address.gmetad`` endpoint and are answered by
:class:`~repro.core.serving.ServingFront`, the request handling the
ingest daemon inherits too -- same shedding, same conditional-poll and
``accept=bin1`` handshakes, same query engine and CPU charges -- so a
replica is a drop-in target for any existing viewer.  What differs is
data: a replica has no self-observability, and answers bin1 only for
``/<cluster>`` detail queries, and only with ``columnar_serve`` on.

Generation barrier
    Each applied feed message is one atomic diff of the broker's
    published state, so the mirror is always internally consistent.
    The replica still *stages* every changed source -- parses both
    fragments, rebuilds the snapshot -- before touching its datastore;
    only when the whole batch stages cleanly are the snapshots
    installed (and the ingest version triple from ``__repl__/@gen``
    adopted).  Any inconsistency aborts the batch and falls back to the
    pub-sub full-sync recovery path, so a query can never observe a
    half-applied generation.

Byte identity
    Shipped fragments are primed into each installed snapshot's
    ``frag_cache`` under the install's serialization stamps, so
    whole-tree dumps splice the ingest daemon's exact strings.  Path
    queries re-serialize from the re-parsed elements; the writer/parser
    round trip is stable (numeric attributes render through the same
    ``_fmt_num``, metric values stay verbatim strings), which the
    equivalence suite pins.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.datastore import Datastore, SourceSnapshot
from repro.core.gmetad_base import document_element_count
from repro.core.query import QueryEngine
from repro.core.serving import ServingFront
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.pubsub import messages
from repro.pubsub.client import PUSH_NOTIFY_PORT, PushClient
from repro.readtier.config import ReadTierConfig
from repro.readtier.feed import (
    GEN_KEY,
    REPL_PREFIX,
    detail_key,
    meta_key,
    summary_key,
)
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel, CpuAccount
from repro.wire.model import SummaryInfo
from repro.wire.parser import ParseError, parse_document

_PROLOG = '<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n'


class FeedError(RuntimeError):
    """The replication feed delivered an inconsistent or unparseable batch."""


class ReadReplica(ServingFront):
    """One serving replica of an ingest gmetad."""

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        ingest,
        name: Optional[str] = None,
        host: Optional[str] = None,
        config: Optional[ReadTierConfig] = None,
        costs: Optional[CostModel] = None,
        capacity: float = DEFAULT_CAPACITY,
        notify_port: int = PUSH_NOTIFY_PORT,
    ) -> None:
        self.engine = engine
        self.tcp = tcp
        self.ingest = ingest
        self.config = (
            config
            or getattr(ingest.config, "read_tier", None)
            or ReadTierConfig()
        )
        self.name = name or f"{ingest.config.name}-replica"
        self.host = host or f"{ingest.config.host}-replica"
        if not fabric.has_host(self.host):
            fabric.add_host(self.host)
        self.costs = costs if costs is not None else ingest.costs
        self.cpu = CpuAccount(self.name, capacity)
        self.datastore = Datastore()
        self.version = getattr(ingest, "version", "2.5.4")
        super().__init__(
            self.name,
            serve_queue_limit=self.config.serve_queue_limit,
            answers_bin1=self.config.columnar_serve,
            columnar_serve=self.config.columnar_serve,
        )
        self.query_engine = QueryEngine(
            self.datastore,
            grid_name=ingest.config.gridname,
            authority=ingest.config.authority_url,
            version=self.version,
            memoize=True,
            columnar_serve=self.columnar_serve,
        )
        #: intern pool of the columns rebuilt for columnar serving
        self._intern_pool = None
        self.address = Address.gmetad(self.host)
        self.client = PushClient(
            engine,
            fabric,
            tcp,
            Address.pubsub(ingest.config.host),
            path=f"/{REPL_PREFIX}",
            host=self.host,
            port=notify_port,
            sub_id=f"replica:{self.name}",
            lease=self.config.lease,
            accept_binary=self.config.binary_feed,
        )
        self.client.on_applied = self._on_feed
        #: ingest version triple (generation, content_version,
        #: detail_version) the replica's installed view corresponds to
        self.ingest_versions: Optional[Tuple[int, int, int]] = None
        self.installs = 0
        self.removals = 0
        self.barrier_aborts = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ReadReplica":
        """Listen for viewer queries and subscribe to the feed."""
        if self._started:
            raise RuntimeError(f"replica {self.name} already started")
        self._started = True
        self.tcp.listen(self.address, self._serve)
        self.client.start()
        return self

    def stop(self) -> None:
        """Unsubscribe and close the query listener."""
        self.client.stop()
        self.tcp.close(self.address)
        self._started = False

    @property
    def synced(self) -> bool:
        """Whether the replica has installed a consistent generation."""
        return self.client.stream.synced and self.ingest_versions is not None

    def charge(self, work_units: float, category: str) -> float:
        """Charge CPU work to this replica's own account."""
        return self.cpu.charge(work_units, category)

    # -- feed ingestion ----------------------------------------------------

    def _on_feed(self, message: dict, outcome: str) -> None:
        """PushClient post-apply hook: mirror changed, rebuild."""
        if outcome == "synced":
            self._rebuild(None)
        elif outcome == "applied":
            changed: Set[str] = set()
            for op in messages.ops_of(message):
                parts = op.path.split("/")
                if (
                    parts[0] != REPL_PREFIX
                    or len(parts) < 2
                    or parts[1].startswith("@")
                ):
                    continue
                changed.add(parts[1])
            self._rebuild(changed)

    def _feed_sources(self, mirror: Dict[str, str]) -> Set[str]:
        """Source names present in the mirrored feed (meta keys)."""
        names: Set[str] = set()
        for key in mirror:
            parts = key.split("/")
            if (
                parts[0] == REPL_PREFIX
                and len(parts) == 2
                and not parts[1].startswith("@")
            ):
                names.add(parts[1])
        return names

    def _rebuild(self, changed: Optional[Iterable[str]]) -> None:
        """Stage every changed source, then install atomically.

        ``changed`` is None after a full sync (reconcile everything).
        Any staging failure aborts the whole batch -- nothing installs
        -- and requests a full sync, the pub-sub gap-recovery path.
        """
        mirror = self.client.state
        gen = mirror.get(GEN_KEY)
        if gen is None:
            return  # broker has no feed (read_tier off upstream)
        if changed is None:
            names = self._feed_sources(mirror) | set(self.datastore.sources)
        else:
            names = set(changed)
        staged = {}
        removals = []
        for source in sorted(names):
            meta_raw = mirror.get(meta_key(source))
            if meta_raw is None:
                removals.append(source)
                continue
            detail = mirror.get(detail_key(source))
            summary = mirror.get(summary_key(source))
            if detail is None or summary is None:
                self._abort_barrier()
                return
            try:
                staged[source] = self._build_snapshot(
                    source, meta_raw, detail, summary
                )
            except (FeedError, ParseError, ValueError, KeyError):
                self._abort_barrier()
                return
        # barrier complete: every changed source staged cleanly
        now = self.engine.now
        for source in sorted(staged):
            snapshot, up, detail, summary = staged[source]
            self.datastore.install(snapshot, now)
            snapshot.up = up
            # the shipped strings ARE the serve output: prime the
            # memo cache under the install's fresh stamps so dumps
            # splice the ingest daemon's exact bytes
            snapshot.frag_cache["full"] = (snapshot.detail_stamp, detail)
            snapshot.frag_cache["summary"] = (snapshot.summary_stamp, summary)
            if self.columnar_serve and snapshot.kind == "cluster":
                self._install_columns(snapshot)
            self.installs += 1
        for source in removals:
            if self.datastore.remove_source(source):
                self.removals += 1
        try:
            triple = tuple(int(part) for part in gen.split(":"))
        except ValueError:
            self._abort_barrier()
            return
        if len(triple) == 3:
            self.ingest_versions = triple  # type: ignore[assignment]

    def _abort_barrier(self) -> None:
        self.barrier_aborts += 1
        self.client.request_sync()

    def _install_columns(self, snapshot: SourceSnapshot) -> None:
        """Rebuild SoA columns + fragment arena for one installed source.

        The feed ships text, so the replica re-derives the columnar
        layout from the parsed cluster (the same conversion the ingest
        daemon applies to tree-parsed salvage polls).  Unchanged hosts
        keep their pre-rendered fragments across installs -- the arena's
        delta diff sees the same layout and re-renders only movers.
        """
        cluster = snapshot.cluster
        if cluster is None or cluster.is_summary or not cluster.hosts:
            return
        from repro.columnar import InternPool, columns_from_cluster

        if self._intern_pool is None:
            self._intern_pool = InternPool()
        cols = columns_from_cluster(cluster, self._intern_pool)
        arena = self.datastore.arena(snapshot.name)
        arena.install(cols)
        snapshot.columns = cols
        snapshot.arena = arena

    def _build_snapshot(
        self, source: str, meta_raw: str, detail: str, summary: str
    ) -> Tuple[SourceSnapshot, bool, str, str]:
        """Parse one source's feed records back into a snapshot."""
        meta = json.loads(meta_raw)
        kind = "cluster" if meta.get("k", "cluster") == "cluster" else "grid"
        self.charge(
            self.costs.parse_byte * (len(detail) + len(summary)), "parse"
        )
        detail_doc = parse_document(self._wrap(detail))
        summary_doc = parse_document(self._wrap(summary))
        self.charge(
            self.costs.hash_insert * document_element_count(detail_doc),
            "parse",
        )
        elements = getattr(detail_doc, f"{kind}s")
        summaries = getattr(summary_doc, f"{kind}s")
        if not elements or not summaries:
            raise FeedError(f"feed for {source!r} lost its {kind}")
        element = next(iter(elements.values()))
        info = next(iter(summaries.values())).summary or SummaryInfo()
        if kind == "cluster" and meta.get("cs"):
            # restore the ingest-side aliasing the full-form
            # serialization dropped (see repro.readtier.feed)
            element.summary = info
        snapshot = SourceSnapshot(
            name=source,
            kind=kind,
            summary=info,
            authority=meta.get("a", ""),
            **{kind: element},
        )
        return snapshot, bool(meta.get("u", 1)), detail, summary

    def _wrap(self, fragment: str) -> str:
        return (
            f"{_PROLOG}"
            f'<GANGLIA_XML VERSION="{self.version}" SOURCE="gmetad">\n'
            f"{fragment}</GANGLIA_XML>\n"
        )

    # -- serving ------------------------------------------------------------

    # the shared entry points, bound in this class's own namespace because
    # the per-layer tracer (``perfbench/tracing.py``) wraps them per class
    serve_query = ServingFront.serve_query
    serve_binary = ServingFront.serve_binary
