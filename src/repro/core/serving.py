"""The query-serving half of a gmetad process (§2.3).

"Low-latency query response is a primary goal."  The ingest gmetad
(:class:`~repro.core.gmetad_base.GmetadBase`) and its read replicas
(:class:`~repro.readtier.replica.ReadReplica`) both answer requests
through :class:`ServingFront`, so each step of a reply exists once:
load shedding, the generation-token / NOT-MODIFIED handshake, the
``accept=bin1`` offer with XML fallback, the path query engine's XML
answer and the GBF1 ``/<cluster>`` detail frame, with their CPU
charges.  What differs per process is data set at construction
(``answers_bin1``, ``columnar_serve``) and ``obs``, None on a replica.
A subclass supplies ``engine``, ``costs``, ``datastore``, ``version``,
``query_engine`` and :meth:`charge`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.query import GmetadQuery, QueryError, ServeQueue
from repro.core.resilience import Overloaded
from repro.net.tcp import Response
from repro.wire.binfmt import CODEC_BINARY, BinaryFrame, split_accept
from repro.wire.conditional import (
    NotModified,
    TaggedXml,
    next_epoch,
    split_generation,
)


class ServingFront:
    """Request handling shared by the ingest gmetad and its read replicas."""

    #: self-observability (:class:`repro.obs.observability.Observability`);
    #: None compiles every serve-side hook out
    obs = None

    def __init__(
        self,
        name: str,
        serve_queue_limit: int,
        answers_bin1: bool,
        columnar_serve: bool,
    ) -> None:
        #: whether an ``accept=bin1`` offer is honoured at all; a request
        #: :meth:`serve_binary` declines still gets XML
        self.answers_bin1 = answers_bin1
        #: whether ``/<cluster>`` detail queries may answer from columns
        self.columnar_serve = columnar_serve
        self.serve_queue: Optional[ServeQueue] = (
            ServeQueue(serve_queue_limit) if serve_queue_limit > 0 else None
        )
        #: serve-side epoch: generation tokens are scoped to this process
        #: instance, so a restart, or a viewer failing over between the
        #: ingest daemon and its replicas, never gets a false NOT-MODIFIED
        self._serve_epoch = next_epoch(name)
        self.queries_served = 0
        self.queries_shed = 0
        self.not_modified_served = 0
        #: GBF1 ``/<cluster>`` detail frames served
        self.binary_served = 0
        #: frag-cache bytes of the most recent serve (read by the serve
        #: instrumentation)
        self.last_serve_cached_bytes = 0

    def _serve(self, client: str, request: object) -> Response:
        response = self._serve_response(client, request)
        if self.serve_queue is not None:
            now = self.engine.now
            # oldest-first shedding: completed serves purge for free;
            # anyone still waiting past the bound gets an explicit
            # OVERLOADED reply (their response payload is rewritten in
            # place before delivery) so clients see "busy", not "dead"
            for victim in self.serve_queue.make_room(now):
                victim.payload = Overloaded()
                self.queries_shed += 1
                if self.obs is not None:
                    self.obs.record_shed()
            self.serve_queue.push(now + response.service_seconds, response)
        return response

    def _serve_response(self, client: str, request: object) -> Response:
        self.queries_served += 1
        obs = self.obs
        seconds = self.charge(self.costs.tcp_connect, "network")
        base, presented = split_generation(str(request))
        base, accept = split_accept(base)
        # unconditional requests get a plain payload and no token
        current = None
        if presented is not None:
            current = self.serve_generation(base)
            if presented == current:
                # HTTP-304 analogue; localtime rides along so the poller
                # can refresh the report timestamp without a transfer
                # (the same way a 304 updates the Date header)
                self.not_modified_served += 1
                if obs is not None:
                    obs.record_serve(base, seconds, 0, outcome="not_modified")
                return Response(
                    NotModified(
                        generation=current,
                        localtime=float(f"{self.engine.now:.0f}"),
                    ),
                    service_seconds=seconds,
                )
        if accept == CODEC_BINARY and self.answers_bin1:
            binary = self.serve_binary(base)
            if binary is not None:
                frame, serve_seconds = binary
                if obs is not None:
                    obs.record_serve(
                        base, seconds + serve_seconds, len(frame),
                        cached_bytes=self.last_serve_cached_bytes,
                        codec="binary",
                    )
                return Response(
                    BinaryFrame(frame, generation=current),
                    service_seconds=seconds + serve_seconds,
                )
        self.last_serve_cached_bytes = 0
        xml, serve_seconds = self.serve_query(base)
        if obs is not None:
            obs.record_serve(
                base, seconds + serve_seconds, len(xml),
                cached_bytes=self.last_serve_cached_bytes,
            )
        return Response(
            xml if current is None else TaggedXml(xml, current),
            service_seconds=seconds + serve_seconds,
        )

    def serve_generation(self, request: str) -> str:
        """Opaque content-generation token for one request's answer.

        Summary-form answers key off ``content_version`` only; full-form
        answers also move with freshness patches (``detail_version``),
        so a full-dump poller re-fetches when a nested report timestamp
        moved while a summary poller keeps getting NOT-MODIFIED.
        """
        if self.request_is_summary(request):
            return f"{self._serve_epoch}:s{self.datastore.content_version}"
        return f"{self._serve_epoch}:f{self.datastore.detail_version}"

    def request_is_summary(self, request: str) -> bool:
        """Whether a request gets summary-form output."""
        try:
            return GmetadQuery.parse(request).summary
        except QueryError:
            return False

    def serve_query(self, request: str) -> Tuple[str, float]:
        """Serve one request through the path query engine.

        Returns ``(xml, service_seconds_charged)``.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            query = GmetadQuery()  # garbage in, full default dump out
        seconds = self.charge(self.costs.query_fixed, "query")
        xml, stats = self.query_engine.execute(query, self.engine.now)
        self.last_serve_cached_bytes = stats.bytes_from_cache
        seconds += self.charge(
            self.costs.hash_insert * stats.hash_lookups, "query"
        )
        return xml, self._charge_xml(
            seconds,
            stats.bytes_serialized - stats.bytes_from_cache,
            stats.bytes_from_cache,
        )

    def _charge_xml(
        self, seconds: float, fresh_bytes: int, cached_bytes: int
    ) -> float:
        """``seconds`` plus the serve charge for one XML reply.

        Freshly serialized bytes bill at ``serve_byte``; bytes spliced
        from a memoized fragment bill at the memcpy rate.
        """
        seconds += self.charge(self.costs.serve_byte * fresh_bytes, "serve")
        if cached_bytes:
            seconds += self.charge(
                self.costs.serve_byte_cached * cached_bytes, "serve"
            )
        return seconds

    def serve_binary(self, request: str):
        """Answer one request as GBF1 frame bytes, if this process can.

        Returns ``(frame_bytes, service_seconds_charged)`` or ``None``
        to decline -- the caller then serves XML, which is always
        correct: the requester's ``accept=`` token is an offer, not a
        demand.  Only ``/<cluster>`` detail queries answer binary here.
        """
        try:
            query = GmetadQuery.parse(request)
        except QueryError:
            return None
        return self._serve_detail_frame(query)

    def _serve_detail_frame(self, query: GmetadQuery):
        """A CLUSTER_DOC frame for one cluster source, straight from columns.

        The no-XML serving path: a ``bin1``-capable viewer (or readtier
        front door) asking for ``/source`` gets the columns re-framed,
        never serialized to text.  Requires ``columnar_serve`` and held
        columns; anything else declines to the XML engine.
        """
        if not self.columnar_serve or query.summary or len(query.path) != 1:
            return None
        from repro.serve import columnar_detail_frame

        frame = columnar_detail_frame(
            self.datastore.source(query.path[0]), self.version
        )
        if frame is None:
            return None
        seconds = self.charge(self.costs.query_fixed, "query")
        seconds += self.charge(self.costs.hash_insert, "query")
        self.last_serve_cached_bytes = 0
        seconds += self.charge(self.costs.serve_byte * len(frame), "serve")
        self.binary_served += 1
        return frame, seconds
