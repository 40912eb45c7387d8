"""One gmond agent: collect local metrics, multicast them, listen to peers.

The agent implements gmond's send discipline: each metric has a
collection period, a value threshold (send early when the value moved)
and a ``tmax`` (send anyway when stale).  Every agent also answers TCP
requests with the *entire* cluster state it has assembled from the
multicast channel -- the redundancy gmetad fail-over relies on.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.gmond import xdr
from repro.gmond.config import GmondConfig
from repro.gmond.state import ClusterState
from repro.metrics.generators import MetricSource
from repro.metrics.types import MetricSample, MetricType
from repro.net.address import Address
from repro.net.tcp import Response, TcpNetwork
from repro.net.udp import MulticastChannel
from repro.sim.engine import Engine, PeriodicTask
from repro.wire.binfmt import (
    CODEC_BINARY,
    BinaryFrame,
    encode_cluster_document,
    split_accept,
)
from repro.wire.conditional import (
    NotModified,
    TaggedXml,
    next_epoch,
    split_generation,
)
from repro.wire.model import GangliaDocument
from repro.wire.writer import XmlWriter, _fmt_num, write_document


@dataclass
class MetricMessage:
    """One metric report in logical form.

    The wire carries XDR bytes (see :mod:`repro.gmond.xdr`); this class
    is the decoded view plus the sender identity the receiving socket
    supplies.  ``size_bytes`` is the actual encoded length.
    """

    host: str
    ip: str
    sample: MetricSample

    def to_bytes(self) -> bytes:
        return xdr.encode_metric(self.sample)

    @classmethod
    def from_bytes(
        cls, data: bytes, src_host: str, src_ip: str, received_at: float
    ) -> "MetricMessage":
        sample = xdr.decode_metric(data, received_at=received_at)
        return cls(host=src_host, ip=src_ip, sample=sample)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


class GmondAgent:
    """Gmond daemon on one simulated cluster host."""

    def __init__(
        self,
        engine: Engine,
        channel: MulticastChannel,
        tcp: TcpNetwork,
        config: GmondConfig,
        source: MetricSource,
        ip: str = "",
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.channel = channel
        self.tcp = tcp
        self.config = config
        self.source = source
        self.host = source.host
        self.ip = ip or f"10.0.0.{zlib.crc32(self.host.encode()) % 250 + 1}"
        fabric_host = channel.fabric.host(self.host)
        if not fabric_host.ip:
            fabric_host.ip = self.ip
        self.state = ClusterState(config)
        self.decode_errors = 0
        self._rng = rng or random.Random(0)
        self._last_sent: Dict[str, tuple[float, object]] = {}  # name -> (time, value)
        self._tasks: List[PeriodicTask] = []
        self._started = False
        self.reports_sent = 0
        self.not_modified_served = 0
        self.binary_served = 0
        self._binfmt_pool = None  # lazy: XML-only pollers never build one
        # incremental serving state (only used when the config flag is on)
        self._serve_epoch = next_epoch(f"gmond-{self.host}")
        self._xml_cache: Optional[tuple[int, str]] = None
        self._host_frags: Dict[str, tuple[int, str]] = {}
        # The agent's own TCP endpoint serving the full cluster report.
        self._server = tcp.listen(Address.gmond(self.host), self._serve_xml)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Join the channel, arm collection timers, send initial reports."""
        if self._started:
            raise RuntimeError(f"gmond on {self.host} already started")
        self._started = True
        self.channel.join(self.host, self._on_datagram)
        jitter = self.config.send_jitter

        def jitter_fn(period: float):
            return lambda: self._rng.uniform(-jitter * period, jitter * period)

        # Group metrics by collection period: one timer per period class.
        by_period: Dict[float, List[str]] = {}
        for mdef in self.config.metric_defs:
            by_period.setdefault(mdef.collect_every, []).append(mdef.name)
        for period, names in by_period.items():
            task = self.engine.every(
                period,
                lambda ns=names: self._collect(ns),
                initial_delay=self._rng.uniform(0.0, period),
                jitter_fn=jitter_fn(period),
            )
            self._tasks.append(task)
        hb = self.config.heartbeat_interval
        self._tasks.append(
            self.engine.every(
                hb,
                self._heartbeat,
                initial_delay=self._rng.uniform(0.0, hb),
                jitter_fn=jitter_fn(hb),
            )
        )
        self._tasks.append(
            self.engine.every(
                self.config.cleanup_interval,
                lambda: self.state.expire(self.engine.now),
            )
        )
        # Announce everything shortly after startup so peers learn us
        # quickly.  The announce is deferred (not inline) so that a batch
        # of agents started in the same event all join the channel before
        # any of them bursts -- real daemons come up seconds apart and
        # rely on tmax retransmits, which also works here but takes
        # minutes for the slow constant metrics.
        self.engine.call_later(
            self._rng.uniform(0.1, 2.0),
            lambda: self._collect(
                [d.name for d in self.config.metric_defs], force=True
            ),
        )

    def stop(self) -> None:
        """Stop all timers and leave the channel (simulates daemon death)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        self.channel.leave(self.host)
        self.tcp.close(Address.gmond(self.host))
        self._started = False

    # -- sending -----------------------------------------------------------

    def _should_send(self, sample: MetricSample, now: float) -> bool:
        mdef = self.source.definition(sample.name)
        last = self._last_sent.get(sample.name)
        if last is None:
            return True
        last_time, last_value = last
        if now - last_time >= mdef.tmax:
            return True
        if sample.mtype is MetricType.STRING:
            return sample.value != last_value
        try:
            return abs(float(sample.value) - float(last_value)) >= mdef.value_threshold
        except (TypeError, ValueError):
            return True

    def _collect(self, names: List[str], force: bool = False) -> None:
        now = self.engine.now
        for name in names:
            sample = self.source.sample(name, now)
            if force or self._should_send(sample, now):
                self._send(sample, now)

    def _heartbeat(self) -> None:
        now = self.engine.now
        sample = MetricSample(
            name="heartbeat",
            value=int(now),
            mtype=MetricType.UINT32,
            tmax=self.config.heartbeat_interval,
            reported_at=now,
        )
        self._send(sample, now)

    def _send(self, sample: MetricSample, now: float) -> None:
        self._last_sent[sample.name] = (now, sample.value)
        data = xdr.encode_metric(sample)
        self.channel.send(self.host, data, len(data))
        self.reports_sent += 1

    # -- receiving -----------------------------------------------------------

    def _on_datagram(self, src: str, payload: object, size: int) -> None:
        if not isinstance(payload, (bytes, bytearray)):
            self.decode_errors += 1
            return  # foreign datagram on the channel; gmond ignores junk
        try:
            sample = xdr.decode_metric(bytes(payload), received_at=self.engine.now)
        except xdr.XdrError:
            self.decode_errors += 1
            return
        src_ip = self.channel.fabric.host(src).ip if self.channel.fabric.has_host(src) else ""
        self.state.on_metric(src, sample, self.engine.now, ip=src_ip)

    # -- serving ---------------------------------------------------------------

    def _serve_xml(self, client: str, request: object) -> Response:
        """Serve the complete cluster report.

        Plain gmond ignores the request entirely.  With
        ``incremental_serving`` on, an ``ifgen`` query parameter is
        honoured: an unchanged soft-state table answers NOT-MODIFIED,
        and full answers are assembled from per-host fragments keyed by
        each record's version.  The cached report freezes TN/LOCALTIME
        at render time -- the documented staleness trade; with the flag
        off (the default) every serve renders fresh, exactly as before.
        """
        now = self.engine.now
        base, accept = split_accept(str(request))
        wants_binary = (
            self.config.binary_serving and accept == CODEC_BINARY
        )
        if not self.config.incremental_serving:
            if wants_binary:
                return Response(self._render_frame(now))
            doc = GangliaDocument(version="2.5.4", source="gmond")
            doc.add_cluster(self.state.to_cluster_element(now))
            return Response(write_document(doc))
        _, presented = split_generation(base)
        current = f"{self._serve_epoch}:{self.state.version}"
        if presented is not None and presented == current:
            self.not_modified_served += 1
            return Response(NotModified(generation=current, localtime=now))
        if wants_binary:
            # binary always renders fresh (plain-mode semantics): the
            # fragment cache's TN/LOCALTIME freeze is an XML-layer trade
            # the codec does not mirror
            frame = self._render_frame(now)
            if presented is not None:
                return Response(BinaryFrame(frame.data, generation=current))
            return Response(frame)
        xml = self._render_cached(now)
        if presented is not None:
            return Response(TaggedXml(xml, current))
        return Response(xml)

    def _render_frame(self, now: float) -> BinaryFrame:
        """Encode the live cluster report as one binary frame."""
        from repro.columnar.layout import (
            ColumnarDocument,
            InternPool,
            columns_from_cluster,
        )

        if self._binfmt_pool is None:
            self._binfmt_pool = InternPool()
        doc = ColumnarDocument(
            version="2.5.4",
            source="gmond",
            clusters=[
                columns_from_cluster(
                    self.state.to_cluster_element(now), self._binfmt_pool
                )
            ],
        )
        self.binary_served += 1
        return BinaryFrame(encode_cluster_document(doc))

    def _render_cached(self, now: float) -> str:
        """Assemble the report from memoized per-host fragments."""
        version = self.state.version
        if self._xml_cache is not None and self._xml_cache[0] == version:
            return self._xml_cache[1]
        w = XmlWriter()
        w.raw('<?xml version="1.0" encoding="ISO-8859-1" standalone="yes"?>\n')
        w.open_tag("GANGLIA_XML", [("VERSION", "2.5.4"), ("SOURCE", "gmond")])
        attrs = [("NAME", self.config.cluster_name)]
        if self.config.owner:
            attrs.append(("OWNER", self.config.owner))
        attrs.append(("LOCALTIME", _fmt_num(now)))
        if self.config.url:
            attrs.append(("URL", self.config.url))
        w.open_tag("CLUSTER", attrs)
        live = set()
        for name in sorted(self.state.hosts):
            record = self.state.hosts[name]
            live.add(name)
            cached = self._host_frags.get(name)
            if cached is not None and cached[0] == record.version:
                w.raw(cached[1])
                continue
            sub = XmlWriter()
            sub.host(self.state.to_host_element(record, now))
            frag = sub.result()
            self._host_frags[name] = (record.version, frag)
            w.raw(frag)
        for name in list(self._host_frags):
            if name not in live:  # departed host: drop its fragment
                del self._host_frags[name]
        w.close_tag("CLUSTER")
        w.close_tag("GANGLIA_XML")
        xml = w.result()
        self._xml_cache = (version, xml)
        return xml
