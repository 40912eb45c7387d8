"""Background polling of data sources: gathering, fail-over, retries.

"Gmeta system gathers data from sources at a low frequency polling
interval, generally every 15 seconds, independent of any query
processing.  All failure detection is done at this time scale as well."
(§2.3.1)

Fail-over (Fig. 1): a data source lists several redundant endpoints
(gmond runs on every cluster node); when the current endpoint times out
the poller advances to the next one *immediately* for the following poll,
"preventing a node stop failure from disrupting its monitoring
activities".  When every endpoint has failed the source is marked down,
but polling continues at the steady interval -- "the monitor will
attempt to re-establish contact at a steady frequency, ensuring that
failures do not cause permanent fissures in the monitoring tree".

With a :class:`~repro.core.resilience.ResilienceConfig` attached the
poller also handles *gray* failures: the fixed timeout becomes the
ceiling of an EWMA/variance-adaptive one, fail-over is biased toward
endpoints with better health scores instead of blind rotation, and a
per-source circuit breaker with jittered exponential backoff (capped at
that same steady re-contact frequency) stops hammering a source that
keeps failing, probing it half-open instead.  Without the config every
one of these paths is compiled out and behaviour is unchanged.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.resilience import (
    AdaptiveTimeout,
    CircuitBreaker,
    Overloaded,
    ResilienceConfig,
)
from repro.core.tree import DataSourceConfig
from repro.net.address import Address
from repro.net.tcp import TcpNetwork, TcpTimeout
from repro.sim.engine import Engine, PeriodicTask
from repro.wire.binfmt import BinaryFrame, with_accept
from repro.wire.conditional import (
    NO_GENERATION,
    NotModified,
    TaggedXml,
    with_generation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observability import Observability

#: Delivered on success: (source_name, payload, rtt_seconds); the payload
#: is the XML text, or a :class:`~repro.wire.binfmt.BinaryFrame` when the
#: source answered the ``accept=`` handshake in binary
OnData = Callable[[str, object, float], None]
#: Delivered when a full fail-over cycle came up empty: (source_name, error)
OnSourceDown = Callable[[str, str], None]
#: Delivered on a NOT-MODIFIED answer: (source_name, notice, rtt_seconds)
OnNotModified = Callable[[str, NotModified, float], None]


class DataSourcePoller:
    """Polls one data source on behalf of a gmetad daemon."""

    def __init__(
        self,
        engine: Engine,
        tcp: TcpNetwork,
        client_host: str,
        config: DataSourceConfig,
        on_data: OnData,
        on_source_down: OnSourceDown,
        request: str = "/",
        initial_delay: Optional[float] = None,
        conditional: bool = False,
        on_not_modified: Optional[OnNotModified] = None,
        resilience: Optional[ResilienceConfig] = None,
        rng: Optional[random.Random] = None,
        obs: Optional["Observability"] = None,
        accept_binary: bool = False,
    ) -> None:
        self.engine = engine
        self.tcp = tcp
        self.client_host = client_host
        self.config = config
        self.on_data = on_data
        self.on_source_down = on_source_down
        self.request = request
        #: conditional polling: present the last-seen content generation
        #: so an unchanged source answers with a tiny NOT-MODIFIED
        self.conditional = conditional
        self.on_not_modified = on_not_modified
        #: opaque generation token from the source's last tagged answer;
        #: None until the source tags a response (a plain-string answer
        #: from a non-incremental server keeps this None -- mixed-mode
        #: federations degrade to eager polling gracefully)
        self.last_generation: Optional[str] = None
        self._address_index = 0
        self._failures_this_cycle = 0
        self._in_flight = False
        self.polls = 0
        self.successes = 0
        self.failovers = 0
        self.down_reports = 0
        self.not_modified = 0
        #: most recent timeout error (None after a successful poll);
        #: its ``address`` names the endpoint that failed to answer
        self.last_timeout: Optional[TcpTimeout] = None
        #: endpoints that timed out in the current fail-over cycle
        self._cycle_failures: List[Address] = []
        self._task: Optional[PeriodicTask] = None
        self._initial_delay = (
            initial_delay if initial_delay is not None else config.poll_interval
        )
        #: gray-failure resilience; None keeps every code path below
        #: byte-identical to the paper-faithful baseline
        self.resilience = resilience
        self.adaptive: Optional[AdaptiveTimeout] = None
        self.breaker: Optional[CircuitBreaker] = None
        self._health: Dict[Address, float] = {}
        if self.resilience is not None:
            r = self.resilience
            self.adaptive = AdaptiveTimeout(
                floor=min(r.min_timeout, config.timeout),
                ceiling=config.timeout,
                alpha=r.rtt_alpha,
                beta=r.rtt_beta,
                k=r.rtt_k,
            )
            self.breaker = CircuitBreaker(
                config.poll_interval,
                threshold=r.breaker_threshold,
                initial_intervals=r.breaker_initial_intervals,
                ceiling_intervals=r.breaker_ceiling_intervals,
                jitter=r.breaker_jitter,
                rng=rng,
            )
        #: self-observability hook; None keeps the poller uninstrumented
        self.obs = obs
        if self.obs is not None and self.breaker is not None:
            source_name = config.name
            observer = self.obs

            def _on_transition(old_state: str, new_state: str) -> None:
                observer.record_breaker_transition(
                    source_name, old_state, new_state, engine.now
                )

            self.breaker.on_transition = _on_transition
        self.polls_skipped = 0
        self.bad_payloads = 0
        self.overloaded_replies = 0
        #: offer the binary codec on the request line (``accept=bin1``);
        #: a legacy server ignores the token and answers XML unchanged
        self.accept_binary = accept_binary
        #: one-shot suppression of the accept token after a frame error:
        #: the very next poll is forced back to XML so a decoder bug (or
        #: persistent link corruption) can never starve the source
        self._xml_fallback = False
        self._requested_binary = False
        self.frames_received = 0
        self.frame_errors = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "DataSourcePoller":
        """Arm the periodic poll task."""
        if self._task is not None:
            raise RuntimeError("poller already started")
        self._task = self.engine.every(
            self.config.poll_interval,
            self.poll_once,
            initial_delay=self._initial_delay,
        )
        return self

    def stop(self) -> None:
        """Stop polling."""
        if self._task is not None:
            self._task.stop()
            self._task = None

    @property
    def current_address(self) -> Address:
        """The endpoint the next poll will contact."""
        return self.config.addresses[self._address_index]

    @property
    def current_timeout(self) -> float:
        """The timeout the next poll will use.

        The configured fixed timeout in baseline mode; the adaptive
        estimate (bounded above by that same fixed value) when the
        resilience layer is on.
        """
        if self.adaptive is not None:
            return self.adaptive.timeout
        return self.config.timeout

    def endpoint_health(self, address: Address) -> float:
        """EWMA health score of one endpoint in [0, 1] (1 = never failed)."""
        return self._health.get(address, 1.0)

    # -- polling -----------------------------------------------------------

    def poll_once(self) -> None:
        """Issue one poll (normally driven by the periodic task)."""
        if self._in_flight:
            # Previous request still pending (timeout longer than a very
            # short poll interval); skip this tick rather than pile up.
            return
        if self.breaker is not None and not self.breaker.allow(self.engine.now):
            self.polls_skipped += 1
            if self.obs is not None:
                self.obs.registry.counter("polls_skipped").inc()
            return
        self._in_flight = True
        self.polls += 1
        address = self.current_address
        request = self.request
        self._requested_binary = self.accept_binary and not self._xml_fallback
        self._xml_fallback = False
        if self._requested_binary:
            request = with_accept(request)
        if self.conditional:
            request = with_generation(
                request, self.last_generation or NO_GENERATION
            )
        self.tcp.request(
            self.client_host,
            address,
            request,
            on_response=self._on_response,
            timeout=self.current_timeout,
            on_timeout=self._on_timeout,
        )

    def _note_health(self, address: Address, outcome: float) -> None:
        if self.resilience is None:
            return
        alpha = self.resilience.health_alpha
        self._health[address] = (
            1.0 - alpha
        ) * self.endpoint_health(address) + alpha * outcome

    def _advance_endpoint(self) -> None:
        """Move to another redundant endpoint after a failure.

        Baseline: blind rotation, exactly the paper's Fig. 1 behaviour.
        Resilient: pick the candidate (excluding the one that just
        failed) with the strictly best health score; ties keep the
        rotation order, so with no health signal yet the choice is
        identical to the baseline's.
        """
        n = len(self.config.addresses)
        if self.resilience is None or n <= 2:
            self._address_index = (self._address_index + 1) % n
            return
        best_offset = 1
        best_score = self.endpoint_health(
            self.config.addresses[(self._address_index + 1) % n]
        )
        for offset in range(2, n):
            score = self.endpoint_health(
                self.config.addresses[(self._address_index + offset) % n]
            )
            if score > best_score:
                best_score, best_offset = score, offset
        self._address_index = (self._address_index + best_offset) % n

    def note_frame_error(self) -> None:
        """A binary frame from this poll failed validation.

        Forgetting the generation token matters: the frame carried a
        token we never applied, and presenting it next poll would earn a
        NOT-MODIFIED for content we do not have.  The ingest layer calls
        :meth:`note_bad_payload` separately for the health/breaker side.
        """
        self.frame_errors += 1
        self.last_generation = None
        self._xml_fallback = True

    def note_bad_payload(self, salvaged: bool = False) -> None:
        """The ingest layer rejected this poll's payload (corruption).

        Transport-wise the poll succeeded, so :meth:`_on_response` has
        already reset the failure bookkeeping; this walks back what
        matters.  The endpoint's health takes the hit and fail-over
        advances either way.  Only an *unsalvageable* payload feeds the
        circuit breaker: a salvaged poll still delivered usable data,
        and opening the breaker on it would trade a gray failure for
        self-inflicted staleness.
        """
        self.bad_payloads += 1
        if self.resilience is None:
            return
        self._note_health(self.current_address, 0.0)
        self.failovers += 1
        self._advance_endpoint()
        if not salvaged and self.breaker is not None:
            self.breaker.on_bad_payload(self.engine.now)

    def _on_response(self, payload: object, rtt: float) -> None:
        self._in_flight = False
        self._failures_this_cycle = 0
        self._cycle_failures.clear()
        self.last_timeout = None
        self.successes += 1
        if self.adaptive is not None:
            self.adaptive.observe(rtt)
        if self.breaker is not None:
            self.breaker.on_success()
        self._note_health(self.current_address, 1.0)
        if isinstance(payload, Overloaded):
            # explicit shed: the server is alive but refused the query;
            # keep the endpoint and simply try again next interval
            self.overloaded_replies += 1
            if self.obs is not None:
                self.obs.record_poll(self.config.name, rtt, "overloaded")
            return
        if isinstance(payload, NotModified):
            # nothing to transfer, parse, or ingest -- the whole point
            self.last_generation = payload.generation
            self.not_modified += 1
            if self.obs is not None:
                self.obs.record_poll(self.config.name, rtt, "not_modified")
            if self.on_not_modified is not None:
                self.on_not_modified(self.config.name, payload, rtt)
            return
        if isinstance(payload, BinaryFrame):
            self.frames_received += 1
            self.last_generation = payload.generation
            if self.obs is not None:
                if self._requested_binary:
                    self.obs.record_negotiation("accepted")
                self.obs.record_poll(self.config.name, rtt, "data")
            self.on_data(self.config.name, payload, rtt)
            return
        if isinstance(payload, TaggedXml):
            self.last_generation = payload.generation
        else:
            # plain string: the server does not speak the conditional
            # protocol; forget any stale token so we never expect a match
            self.last_generation = None
        if self.obs is not None:
            if self._requested_binary:
                # we offered binary, the peer answered XML: a legacy
                # (or deliberately XML-only) endpoint on this link
                self.obs.record_negotiation("fell_back")
            self.obs.record_poll(self.config.name, rtt, "data")
        self.on_data(self.config.name, str(payload), rtt)

    def _on_timeout(self, error: TcpTimeout) -> None:
        self._in_flight = False
        if self.obs is not None:
            # the time lost is the timeout that was armed for this poll
            self.obs.record_poll(
                self.config.name, self.current_timeout, "timeout"
            )
        self._failures_this_cycle += 1
        self.failovers += 1
        self.last_timeout = error
        self._cycle_failures.append(error.address)
        if self.adaptive is not None:
            self.adaptive.observe_timeout()
        if self.breaker is not None:
            self.breaker.on_failure(self.engine.now)
        self._note_health(error.address, 0.0)
        # advance to the next redundant endpoint for the next attempt
        self._advance_endpoint()
        if self._failures_this_cycle >= len(self.config.addresses):
            # every endpoint failed: the cluster is unreachable; name
            # the endpoints tried so the failure is diagnosable from
            # the datastore's last_error alone
            tried = ", ".join(str(a) for a in self._cycle_failures)
            self._failures_this_cycle = 0
            self._cycle_failures.clear()
            self.down_reports += 1
            self.on_source_down(
                self.config.name,
                f"{error} after failing over across [{tried}]",
            )
