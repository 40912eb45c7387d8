"""Shared plumbing for both gmetad designs.

The base class owns everything the two designs have in common: the CPU
account, the datastore, the RRD archiver, one poller per configured data
source (staggered so twelve clusters don't all land on the same tick),
and the TCP listener.  Subclasses define:

- :meth:`poll_request` -- what to ask children for (full dump vs
  summary query);
- :meth:`ingest` -- what to keep, summarize and archive;
- :meth:`serve_query` -- what a request gets back, when not the path
  query engine's answer.

The serving half (shedding, the conditional and ``accept=bin1``
handshakes, the query engine's charges) is
:class:`~repro.core.serving.ServingFront`, shared with the read
replicas.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import random

from repro.core.archiver import Archiver
from repro.core.datastore import Datastore
from repro.core.poller import DataSourcePoller
from repro.core.serving import ServingFront
from repro.core.tree import GmetadConfig
from repro.net.address import Address
from repro.net.fabric import Fabric
from repro.obs.observability import Observability
from repro.net.tcp import TcpNetwork
from repro.rrd.database import RraSpec, compact_rra_specs
from repro.rrd.store import RrdStore
from repro.sim.engine import Engine
from repro.sim.resources import DEFAULT_CAPACITY, CostModel, CpuAccount
from repro.sim.rng import derive_seed
from repro.wire.binfmt import (
    CLUSTER_DOC,
    BinaryFrame,
    FrameError,
    decode_document,
    materialize_document,
)
from repro.wire.conditional import NotModified
from repro.wire.model import ClusterElement, GangliaDocument, GridElement
from repro.wire.parser import (
    ColumnarFallback,
    ParseError,
    parse_columnar,
    parse_document,
    salvage_document,
)

#: root seed for the per-poller breaker-jitter streams; derived per
#: (gmetad, source) name so chaos runs replay identically
_BREAKER_SEED = 0x42524B52


def document_element_count(doc: GangliaDocument) -> int:
    """How many hash-table inserts building this document's state takes."""
    count = 0

    def count_cluster(cluster: ClusterElement) -> int:
        n = 1
        if cluster.is_summary:
            return n + 1 + len(cluster.summary.metrics)
        for host in cluster.hosts.values():
            n += 1 + len(host.metrics)
        return n

    def count_grid(grid: GridElement) -> int:
        n = 1
        if grid.summary is not None:
            n += 1 + len(grid.summary.metrics)
        for cluster in grid.clusters.values():
            n += count_cluster(cluster)
        for sub in grid.grids.values():
            n += count_grid(sub)
        return n

    for cluster in doc.clusters.values():
        count += count_cluster(cluster)
    for grid in doc.grids.values():
        count += count_grid(grid)
    return count


class GmetadBase(ServingFront):
    """Common daemon machinery; see :class:`Gmetad` / :class:`OneLevelGmetad`."""

    #: GANGLIA_XML VERSION emitted; set by subclasses.
    version = "2.5.x"

    #: whether this design implements :meth:`ingest_columnar`; the
    #: ``config.columnar`` switch is a no-op on designs that don't.
    supports_columnar = False

    def __init__(
        self,
        engine: Engine,
        fabric: Fabric,
        tcp: TcpNetwork,
        config: GmetadConfig,
        costs: Optional[CostModel] = None,
        capacity: float = DEFAULT_CAPACITY,
        rra_specs: Optional[List[RraSpec]] = None,
        validate_xml: bool = False,
    ) -> None:
        self.engine = engine
        self.fabric = fabric
        self.tcp = tcp
        self.config = config
        self.costs = costs if costs is not None else CostModel()
        self.cpu = CpuAccount(config.name, capacity)
        self.datastore = Datastore()
        self.validate_xml = validate_xml
        #: shared string-interning pool for the columnar parse fast path;
        #: metric names repeat across every host and every poll, so ids
        #: stabilize after the first poll and stay comparable across polls
        self._intern_pool = None
        if config.columnar and self.supports_columnar:
            from repro.columnar import InternPool

            self._intern_pool = InternPool()
        #: pool binary frames decode into: the columnar pool when the
        #: columnar path is on (ids stay stable across polls, so the
        #: delta trackers keep working), a dedicated one otherwise
        self._decode_pool = self._intern_pool
        if config.binary_wire and self._decode_pool is None:
            from repro.columnar import InternPool

            self._decode_pool = InternPool()
        if not fabric.has_host(config.host):
            fabric.add_host(config.host)
        if config.storage_tier is not None:
            from repro.storage.tier import StorageTier

            store = StorageTier(
                engine,
                config.storage_tier,
                mode=config.archive_mode,
                rra_specs=(
                    rra_specs if rra_specs is not None else compact_rra_specs()
                ),
                # storage-node work is clocked in seconds: one physical
                # RRD update costs its CPU work units at this daemon's
                # capacity (units/second)
                update_cost=self.costs.rrd_update / capacity,
            )
        else:
            store = RrdStore(
                mode=config.archive_mode,
                rra_specs=(
                    rra_specs if rra_specs is not None else compact_rra_specs()
                ),
            )
        self.archiver = Archiver(
            store, self.charge, self.costs, config.heartbeat_window
        )
        #: self-observability; None (the default) compiles the layer out
        #: -- every hook below is guarded by ``if self.obs is not None``
        self.obs: Optional[Observability] = (
            Observability(self, config.observability)
            if config.observability is not None
            else None
        )
        #: streaming analytics stage; None (the default) registers no
        #: flush hook, so the archiver path is untouched and output
        #: stays byte-identical to baseline
        self.analytics = None
        if config.analytics is not None:
            from repro.analytics.engine import AnalyticsEngine

            self.analytics = AnalyticsEngine(self, config.analytics)
        self.pollers: Dict[str, DataSourcePoller] = {}
        stride = (
            config.poll_interval / max(1, len(config.data_sources))
            if config.data_sources
            else config.poll_interval
        )
        for i, source in enumerate(config.data_sources):
            self.pollers[source.name] = self._new_poller(
                source, (i + 1) * stride  # stagger the poll phase
            )
        self._server = tcp.listen(Address.gmetad(config.host), self._serve)
        super().__init__(
            config.name,
            serve_queue_limit=(
                config.resilience.serve_queue_limit
                if config.resilience is not None
                else 0
            ),
            answers_bin1=config.binary_wire,
            columnar_serve=config.columnar_serve,
        )
        self._started = False
        # stats
        self.polls_ingested = 0
        self.polls_not_modified = 0
        self.parse_errors = 0
        self.polls_salvaged = 0
        self.polls_quarantined = 0
        self.frames_ingested = 0
        self.frame_errors = 0
        #: optional tap called as (source, xml, sim_time) before every
        #: ingest -- used by the trace recorder (repro.bench.trace)
        self.ingest_tap = None
        #: hooks called as (source, sim_time) after every datastore
        #: change -- successful ingest or failure marking.  The pub-sub
        #: broker (repro.pubsub) registers here to publish deltas.
        self.publish_hooks: List = []

    def _new_poller(self, source, initial_delay: float) -> DataSourcePoller:
        """A poller for one data source, wired to this daemon."""
        config = self.config
        rng = None
        if config.resilience is not None:
            # seeded breaker jitter, so chaos runs replay identically
            rng = random.Random(
                derive_seed(_BREAKER_SEED, f"{config.name}/{source.name}")
            )
        return DataSourcePoller(
            self.engine,
            self.tcp,
            config.host,
            source,
            on_data=self._on_data,
            on_source_down=self._on_source_down,
            request=self.poll_request(),
            initial_delay=initial_delay,
            conditional=config.incremental,
            on_not_modified=self._on_not_modified,
            resilience=config.resilience,
            rng=rng,
            obs=self.obs,
            accept_binary=config.binary_wire,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "GmetadBase":
        """Start every data-source poller."""
        if self._started:
            raise RuntimeError(f"gmetad {self.config.name} already started")
        self._started = True
        for poller in self.pollers.values():
            poller.start()
        if self.obs is not None:
            self.obs.start()
        if getattr(self.archiver.store, "is_storage_tier", False):
            self.archiver.store.start()
        return self

    def stop(self) -> None:
        """Stop pollers and close the query listener."""
        for poller in self.pollers.values():
            poller.stop()
        if self.obs is not None:
            self.obs.stop()
        if getattr(self.archiver.store, "is_storage_tier", False):
            self.archiver.store.stop()
        self.tcp.close(Address.gmetad(self.config.host))
        self._started = False

    # -- dynamic membership (used by the self-organizing tree, §4) --------

    def add_data_source(self, source, initial_delay: float = 1.0) -> DataSourcePoller:
        """Attach a new data source at runtime and start polling it."""
        if source.name in self.pollers:
            raise ValueError(f"data source {source.name!r} already attached")
        poller = self._new_poller(source, initial_delay)
        self.pollers[source.name] = poller
        self.config.data_sources.append(source)
        if self._started:
            poller.start()
        return poller

    def remove_data_source(self, name: str) -> None:
        """Detach a data source: stop polling and drop its state."""
        poller = self.pollers.pop(name, None)
        if poller is not None:
            poller.stop()
        self.config.data_sources = [
            s for s in self.config.data_sources if s.name != name
        ]
        self.datastore.remove_source(name)
        self.archiver.forget(name)

    def source_kind(self, source: str) -> str:
        """The configured kind of a source ("cluster" or "grid")."""
        poller = self.pollers.get(source)
        return poller.config.kind if poller is not None else "cluster"

    @property
    def address(self) -> Address:
        """The TCP endpoint this daemon serves queries on."""
        return Address.gmetad(self.config.host)

    @property
    def rrd_store(self) -> RrdStore:
        """The archive store behind the archiver."""
        return self.archiver.store

    # -- CPU accounting ---------------------------------------------------

    def charge(self, work_units: float, category: str) -> float:
        """Charge CPU work to this daemon's account."""
        return self.cpu.charge(work_units, category)

    # -- polling path (background timescale) ----------------------------------

    def _on_data(self, source: str, payload: object, rtt: float) -> None:
        if isinstance(payload, BinaryFrame):
            self._on_frame(source, payload, rtt)
            return
        xml = str(payload)
        now = self.engine.now
        if self.ingest_tap is not None:
            self.ingest_tap(source, xml, now)
        obs = self.obs
        busy0 = self.cpu.total_busy_seconds if obs is not None else 0.0
        self.charge(self.costs.tcp_connect, "network")
        self.charge(self.costs.parse_byte * len(xml), "parse")
        # The columnar fast path only handles plain gmond cluster dumps;
        # GRID-bearing responses (child gmetads) take the tree parser.
        # The "<GRID" sniff is a cheap pre-filter -- anything it lets
        # through that the columnar builder still can't shape raises
        # ColumnarFallback and re-parses below, costing wall time only
        # (CPU charges land once, after whichever parse succeeded).
        cdoc = None
        doc = None
        if (
            self.config.columnar
            and self.supports_columnar
            and self.source_kind(source) == "cluster"
            and "<GRID" not in xml
        ):
            try:
                cdoc = parse_columnar(
                    xml, pool=self._intern_pool, validate=self.validate_xml
                )
            except ColumnarFallback:
                cdoc = None
            except ParseError as exc:
                self._on_parse_error(source, xml, exc, now, busy0)
                return
        if cdoc is None:
            try:
                doc = parse_document(xml, validate=self.validate_xml)
            except ParseError as exc:
                self._on_parse_error(source, xml, exc, now, busy0)
                return
        if cdoc is not None and cdoc.fast_lane_misses and obs is not None:
            # a writer attribute-order drift silently degrades the regex
            # fast lane to the generic path; surface it (satellite of
            # the binary codec, which shares the canonical-order bet)
            obs.registry.counter("parse_fast_lane_misses").inc(
                cdoc.fast_lane_misses
            )
        element_count = (
            cdoc.element_count if cdoc is not None else document_element_count(doc)
        )
        self.charge(self.costs.hash_insert * element_count, "parse")
        self.polls_ingested += 1
        if obs is None:
            if cdoc is not None:
                self.ingest_columnar(source, cdoc, now)
            else:
                self.ingest(source, doc, now)
        else:
            parse_seconds = self.cpu.total_busy_seconds - busy0
            by_category = self.cpu.window.by_category
            summarize0 = by_category["summarize"]
            archive0 = by_category["archive"]
            if cdoc is not None:
                self.ingest_columnar(source, cdoc, now)
            else:
                self.ingest(source, doc, now)
            # stage timings come from the by-category charge deltas, so
            # the spans show exactly what the CPU account was billed
            obs.record_ingest(
                source, len(xml), now, parse_seconds,
                max(0.0, by_category["summarize"] - summarize0),
                max(0.0, by_category["archive"] - archive0),
                path="columnar" if cdoc is not None else "tree",
            )
        self._publish(source, now)

    def _on_frame(self, source: str, frame: BinaryFrame, rtt: float) -> None:
        """Ingest one binary-codec poll response.

        Decode feeds the same pipeline as XML -- the columnar ingest
        when that path is on, a materialized document tree otherwise --
        so datastore contents are identical whichever codec the link
        negotiated.  A frame that fails validation is quarantined whole:
        decode happens entirely before any install, so a truncated or
        bit-flipped frame can never leave partial state behind.
        """
        now = self.engine.now
        obs = self.obs
        busy0 = self.cpu.total_busy_seconds if obs is not None else 0.0
        self.charge(self.costs.tcp_connect, "network")
        self.charge(self.costs.binfmt_byte * len(frame.data), "parse")
        try:
            kind, document = decode_document(frame.data, self._decode_pool)
        except FrameError as exc:
            self._on_frame_error(source, frame, exc, now, busy0)
            return
        columnar = (
            kind == CLUSTER_DOC
            and self.config.columnar
            and self.supports_columnar
        )
        if kind == CLUSTER_DOC:
            element_count = document.element_count
            if not columnar:
                document = materialize_document(document)
        else:
            element_count = document_element_count(document)
        self.charge(self.costs.hash_insert * element_count, "parse")
        self.polls_ingested += 1
        self.frames_ingested += 1
        if obs is None:
            if columnar:
                self.ingest_columnar(source, document, now)
            else:
                self.ingest(source, document, now)
        else:
            parse_seconds = self.cpu.total_busy_seconds - busy0
            by_category = self.cpu.window.by_category
            summarize0 = by_category["summarize"]
            archive0 = by_category["archive"]
            if columnar:
                self.ingest_columnar(source, document, now)
            else:
                self.ingest(source, document, now)
            obs.record_ingest(
                source, len(frame.data), now, parse_seconds,
                max(0.0, by_category["summarize"] - summarize0),
                max(0.0, by_category["archive"] - archive0),
                path="columnar" if columnar else "tree",
                codec="binary",
            )
        self._publish(source, now)

    def _on_frame_error(
        self,
        source: str,
        frame: BinaryFrame,
        exc: FrameError,
        now: float,
        busy0: float,
    ) -> None:
        """A binary frame failed validation: quarantine, force XML retry.

        Unlike XML corruption there is no salvage here -- a frame is
        all-or-nothing by design (the CRC covers the whole body).  The
        source degrades to its last-good snapshot via ``mark_corrupt``
        and the poller drops to XML for its next attempt, where the
        salvage machinery can do its partial-recovery work if the link
        is persistently dirty.
        """
        self.parse_errors += 1
        self.frame_errors += 1
        if self.obs is not None:
            self.obs.record_ingest(
                source, len(frame.data), now,
                self.cpu.total_busy_seconds - busy0, 0.0, 0.0,
                outcome="frame_error", codec="binary",
            )
        self.datastore.mark_corrupt(
            source, now, f"bad binary frame: {exc}",
            kind=self.source_kind(source),
        )
        self.polls_quarantined += 1
        poller = self.pollers.get(source)
        if poller is not None:
            poller.note_frame_error()
            poller.note_bad_payload(salvaged=False)
        self._publish(source, now)

    def _on_parse_error(
        self, source: str, xml: str, exc: ParseError, now: float, busy0: float
    ) -> None:
        """Shared malformed-payload handling for both parse paths."""
        self.parse_errors += 1
        if self.obs is not None:
            self.obs.record_ingest(
                source, len(xml), now,
                self.cpu.total_busy_seconds - busy0, 0.0, 0.0,
                outcome="parse_error",
            )
        if self._try_salvage(source, xml, exc, now):
            return
        self.datastore.mark_failure(
            source, now, f"parse error: {exc}", kind=self.source_kind(source)
        )
        self._publish(source, now)

    def _on_not_modified(self, source: str, notice: NotModified, rtt: float) -> None:
        """A conditional poll found the source unchanged.

        The connection still happened (one tcp_connect of work), but
        there is nothing to transfer, parse, summarize, or archive.
        Liveness bookkeeping is refreshed as a successful poll, and the
        freshness timestamp the child would have stamped into its report
        is patched in so full-form output stays byte-identical to an
        eager re-download.  No publish: subscribers see no delta.
        """
        now = self.engine.now
        self.charge(self.costs.tcp_connect, "network")
        self.polls_not_modified += 1
        self.datastore.touch_success(source, now)
        if notice.localtime:
            self.datastore.patch_localtime(source, notice.localtime)
        # unchanged gauges still get their RRD write every step
        self.archiver.replay(source, now)

    def _try_salvage(
        self, source: str, xml: str, exc: ParseError, now: float
    ) -> bool:
        """Corruption-tolerant ingest; returns True when handled.

        Cluster sources: recover every individually well-formed
        ``<HOST>`` subtree, carry hosts the damage swallowed forward
        from the last-good snapshot, and ingest the result -- the
        source stays fresh, marked quarantined.  When nothing is
        recoverable (or for grid sources, whose summary form has no
        salvageable unit), quarantine on the last-good snapshot instead
        of evicting it.  Baseline mode (no resilience config) always
        returns False: the paper-faithful mark-failure path runs.
        """
        resilience = self.config.resilience
        if resilience is None or not resilience.salvage:
            return False
        poller = self.pollers.get(source)
        if self.source_kind(source) == "cluster":
            result = salvage_document(xml, cluster_hint=source)
            if result.document is not None:
                self.charge(
                    self.costs.hash_insert
                    * document_element_count(result.document),
                    "parse",
                )
                self._carry_forward(source, result.document)
                self.polls_salvaged += 1
                self.ingest(source, result.document, now)
                snapshot = self.datastore.source(source)
                if snapshot is not None:
                    snapshot.quarantined = True
                    snapshot.corrupt_polls += 1
                    snapshot.salvaged_hosts = result.hosts_salvaged
                    snapshot.last_error = (
                        f"salvaged {result.hosts_salvaged} hosts "
                        f"({result.hosts_dropped} dropped): {exc}"
                    )
                if poller is not None:
                    poller.note_bad_payload(salvaged=True)
                self._publish(source, now)
                return True
        # nothing recoverable: degrade to the last-good snapshot
        self.datastore.mark_corrupt(
            source, now, f"corrupt payload: {exc}", kind=self.source_kind(source)
        )
        self.polls_quarantined += 1
        if poller is not None:
            poller.note_bad_payload(salvaged=False)
        self._publish(source, now)
        return True

    def _carry_forward(self, source: str, doc: GangliaDocument) -> int:
        """Copy last-good hosts the salvage lost into the new document.

        A host whose span the corruption destroyed should degrade to
        its previous reading (which ages out via TN/TMAX like any
        silent host), not vanish from the cluster.
        """
        snapshot = self.datastore.source(source)
        if snapshot is None or snapshot.cluster is None:
            return 0
        columns = snapshot.columns
        if columns is not None and not snapshot.cluster.hosts:
            # columnar snapshot: materialize only the hosts the damage
            # swallowed, by row-slice, instead of the whole cluster
            carried = 0
            for cluster in doc.clusters.values():
                for i, name in enumerate(columns.host_names):
                    if name not in cluster.hosts:
                        cluster.hosts[name] = columns.materialize_host(i)
                        carried += 1
            return carried
        carried = 0
        for cluster in doc.clusters.values():
            for name, host in snapshot.cluster.hosts.items():
                if name not in cluster.hosts:
                    cluster.hosts[name] = host
                    carried += 1
        return carried

    def _on_source_down(self, source: str, error: str) -> None:
        self.datastore.mark_failure(
            source, self.engine.now, error, kind=self.source_kind(source)
        )
        self._publish(source, self.engine.now)

    def _publish(self, source: str, now: float) -> None:
        for hook in self.publish_hooks:
            hook(source, now)

    # -- subclass interface ---------------------------------------------------

    def poll_request(self) -> str:
        """What to send children when polling (design-specific)."""
        raise NotImplementedError

    def ingest(self, source: str, doc: GangliaDocument, now: float) -> None:
        """Fold one parsed poll response into local state (design-specific)."""
        raise NotImplementedError

    def ingest_columnar(self, source: str, cdoc, now: float) -> None:
        """Fold one columnar-parsed poll in; only designs with
        ``supports_columnar = True`` implement this."""
        raise NotImplementedError
