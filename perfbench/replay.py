"""Gmond payloads made before the timed region, and the replay stand-in.

:func:`record_payloads` builds the workload's federation with real
pseudo-gmonds, starts only the pollers that talk to them (no gmetad
ingests anything), and logs every exchange: when the request arrived,
who sent it, what it said, and the response.  Poll times depend only on
the poll schedule, and every request line depends only on the answers
before it, so the same seed and workload always record the same log.

:class:`ReplayGmond` stands in for a pseudo-gmond during measured
episodes.  It binds to the same address, answers each request with the
recorded response, and raises :class:`ReplayMismatch` when a request
differs from the recorded one in time, sender or text -- so the gmetads
under test see exactly the recorded traffic, and the generator's cost
stays out of every timed region.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import repro.bench.topology as topology
from repro.bench.topology import build_paper_tree
from repro.net.address import Address
from repro.net.tcp import Response

from workloads import Workload, profile_kwargs


class ReplayMismatch(RuntimeError):
    """A request reached a stand-in that the recording does not hold."""


@dataclass(frozen=True)
class Exchange:
    """One recorded request/response pair at one pseudo-gmond."""

    at: float
    client: str
    request: str
    response: Response
    #: the cluster XML the emulator held at that instant -- what a
    #: paper-profile poller asking at the same time would have received
    xml: str


@dataclass
class PayloadStore:
    """Every recorded exchange, per cluster, in arrival order."""

    logs: Dict[str, List[Exchange]]
    #: wall seconds the real generator spent producing the payloads
    gen_s: float
    #: wall seconds the whole recording took
    record_s: float


def record_payloads(workload: Workload, seed: int, until: float) -> PayloadStore:
    """Record every gmond exchange of ``workload`` up to sim time ``until``."""
    start = time.perf_counter()
    fed = build_paper_tree(
        "nlevel",
        hosts_per_cluster=workload.hosts,
        seed=seed,
        archive_mode="account",
        **profile_kwargs(workload.profile),
    )
    logs: Dict[str, List[Exchange]] = {name: [] for name in fed.pseudos}
    gen = [0.0]

    def recorder(pseudo, log):
        serve = pseudo._serve  # the emulator's own TCP handler

        def handle(client, request):
            t0 = time.perf_counter()
            response = serve(client, request)
            xml = pseudo.current_xml()
            gen[0] += time.perf_counter() - t0
            log.append(
                Exchange(fed.engine.now, client, str(request), response, xml)
            )
            return response

        return handle

    for name, pseudo in fed.pseudos.items():
        fed.tcp.close(pseudo.address)
        fed.tcp.listen(pseudo.address, recorder(pseudo, logs[name]))

    def unexpected(source, *_):
        raise ReplayMismatch(f"recording poll of {source} did not succeed")

    # only the gmond-facing pollers run: nothing is ingested, and the
    # request stream is exactly what the started federation will send
    for gmetad in fed.gmetads.values():
        for source, poller in gmetad.pollers.items():
            if source in fed.pseudos:
                poller.on_data = lambda *_: None
                poller.on_not_modified = lambda *_: None
                poller.on_source_down = unexpected
                poller.start()
    fed.engine.run_until(until)
    return PayloadStore(
        logs=logs,
        gen_s=gen[0],
        record_s=time.perf_counter() - start,
    )


class ReplayGmond:
    """Serves one cluster's recorded exchanges in order.

    Built by ``build_paper_tree`` in place of ``PseudoGmond`` (see
    :func:`replaying`), it listens on the same address.  With ``xml_only`` it answers every request with
    the recorded plain XML and checks only the arrival time: the
    paper-profile reference twin polls at the same instants but asks in
    a different form.
    """

    def __init__(
        self,
        engine,
        fabric,
        tcp,
        name: str,
        log: List[Exchange],
        xml_only: bool = False,
    ) -> None:
        self.engine = engine
        self.name = name
        self.server_host = f"pgmond-{name}"
        if not fabric.has_host(self.server_host):
            fabric.add_host(self.server_host, cluster=name)
        self._log = log
        self._xml_only = xml_only
        #: exchanges served so far (the replay cursor)
        self.served = 0
        #: set by a traced episode: handler time becomes the "gmond" span
        self.tracer = None
        tcp.listen(self.address, self._handle)

    @property
    def address(self) -> Address:
        return Address.gmond(self.server_host)

    def _handle(self, client: str, request: object) -> Response:
        if self.tracer is not None:
            return self.tracer.call("gmond", self._serve, client, request)
        return self._serve(client, request)

    def _serve(self, client: str, request: object) -> Response:
        if self.served >= len(self._log):
            raise ReplayMismatch(
                f"{self.name}: request {request!r} at t={self.engine.now} "
                "is beyond the recording"
            )
        ex = self._log[self.served]
        now = self.engine.now
        if now != ex.at or (
            not self._xml_only
            and (client != ex.client or str(request) != ex.request)
        ):
            raise ReplayMismatch(
                f"{self.name} exchange {self.served}: got {request!r} from "
                f"{client} at t={now}, recorded {ex.request!r} from "
                f"{ex.client} at t={ex.at}"
            )
        self.served += 1
        if self._xml_only:
            return Response(ex.xml, service_seconds=ex.response.service_seconds)
        return ex.response

    def unserved_before(self, t: float) -> int:
        """Recorded exchanges at or before ``t`` that never arrived."""
        due = sum(1 for ex in self._log if ex.at <= t)
        return max(0, due - self.served)


@contextlib.contextmanager
def replaying(store: PayloadStore, xml_only: bool = False) -> Iterator[None]:
    """Make ``build_paper_tree`` attach stand-ins instead of emulators.

    The federation's ``pseudos`` then holds the stand-ins.  No
    pseudo-gmond is built, so no generator work lands in set-up.
    """

    def factory(engine, fabric, tcp, name, *_sizes_and_rng, **_options):
        return ReplayGmond(
            engine, fabric, tcp, name, store.logs[name], xml_only=xml_only
        )

    original = topology.PseudoGmond
    topology.PseudoGmond = factory
    try:
        yield
    finally:
        topology.PseudoGmond = original


def replay_failures(
    gmonds: Dict[str, ReplayGmond], until: float
) -> Optional[str]:
    """Describe recorded requests that never arrived, or None."""
    missing = {
        name: g.unserved_before(until)
        for name, g in gmonds.items()
        if g.unserved_before(until)
    }
    if missing:
        return f"recorded requests never sent: {missing}"
    return None
