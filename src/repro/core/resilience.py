"""Gray-failure resilience: adaptive timeouts, health scores, breakers.

The paper's failure model (§2.3.1, Fig. 1) is *clean*: an endpoint
either answers or it does not, and a TCP timeout rotates the poller to
the next redundant gmond.  Wide-area federations mostly fail *gray* --
slow links, latency spikes, truncated or corrupted payloads, overloaded
servers that answer late -- and a fixed timeout plus blind round-robin
handles those badly.  This module holds the pieces the resilient poller
and gmetad share:

- :class:`ResilienceConfig` -- one knob block, attached to
  :class:`~repro.core.tree.GmetadConfig`.  ``None`` (the default)
  disables every feature and keeps behaviour byte-identical to the
  paper-faithful baseline.
- :class:`AdaptiveTimeout` -- Jacobson/Karels-style EWMA + variance
  retransmission-timeout estimator, clamped so it never *exceeds* the
  configured fixed timeout (the paper's failure-detection bound stays
  the worst case) and never drops below a floor.
- :class:`CircuitBreaker` -- per-source CLOSED/OPEN/HALF_OPEN state
  machine with jittered exponential backoff.  The backoff is capped at
  a small multiple of the poll interval, preserving the paper's
  guarantee that "the monitor will attempt to re-establish contact at a
  steady frequency": the ceiling *is* that steady frequency.
- :class:`Overloaded` -- the explicit load-shedding reply a gmetad
  returns instead of silence when its serve queue is full, so clients
  can distinguish "server busy" from "server dead".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class Overloaded:
    """Explicit shed reply: the server is alive but refused the query.

    Distinguishable from a timeout (which means dead/unreachable), so a
    poller keeps its endpoint bookkeeping intact and simply retries at
    the steady interval.  ``retry_after`` is advisory.
    """

    retry_after: float = 0.0
    #: modelled wire size of the control reply
    size_bytes: int = 24

    def __str__(self) -> str:
        return "<OVERLOADED/>"


@dataclass
class ResilienceConfig:
    """Knobs for the gray-failure resilience layer (one per gmetad).

    Attach via ``GmetadConfig(resilience=ResilienceConfig(...))``.  The
    defaults are deliberately conservative: every adaptive behaviour is
    bounded by the paper-faithful fixed parameters (timeout ceiling =
    the configured timeout, breaker backoff ceiling = a few poll
    intervals), so enabling the layer can tighten reactions but never
    loosen the original guarantees.
    """

    # -- adaptive timeout (EWMA/variance, RFC6298-shaped) -----------------
    min_timeout: float = 0.5
    rtt_alpha: float = 0.125
    rtt_beta: float = 0.25
    rtt_k: float = 4.0
    # -- per-endpoint health scores ---------------------------------------
    health_alpha: float = 0.3
    # -- circuit breaker ----------------------------------------------------
    breaker_threshold: int = 3
    breaker_initial_intervals: float = 1.0
    breaker_ceiling_intervals: float = 4.0
    breaker_jitter: float = 0.1
    # -- corruption-tolerant ingest ----------------------------------------
    salvage: bool = True
    # -- query-engine load shedding (0 disables) ---------------------------
    serve_queue_limit: int = 0

    def __post_init__(self) -> None:
        if self.min_timeout <= 0:
            raise ValueError("min_timeout must be positive")
        for name in ("rtt_alpha", "rtt_beta"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must be in (0, 1)")
        if self.rtt_k <= 0:
            raise ValueError("rtt_k must be positive")
        if not (0.0 < self.health_alpha <= 1.0):
            raise ValueError("health_alpha must be in (0, 1]")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_initial_intervals <= 0:
            raise ValueError("breaker_initial_intervals must be positive")
        if self.breaker_ceiling_intervals < self.breaker_initial_intervals:
            raise ValueError(
                "breaker_ceiling_intervals must be >= breaker_initial_intervals"
            )
        if not (0.0 <= self.breaker_jitter < 1.0):
            raise ValueError("breaker_jitter must be in [0, 1)")
        if self.serve_queue_limit < 0:
            raise ValueError("serve_queue_limit must be non-negative")


class AdaptiveTimeout:
    """EWMA + mean-deviation RTT estimator with bounded timeout.

    ``timeout = clamp(srtt + k * rttvar, floor, ceiling)``, doubled
    (Karn-style backoff) after each consecutive timeout and reset by the
    next successful sample.  Before any sample the ceiling (the
    configured fixed timeout) is used, so a cold poller behaves exactly
    like the baseline.
    """

    def __init__(
        self,
        floor: float,
        ceiling: float,
        alpha: float = 0.125,
        beta: float = 0.25,
        k: float = 4.0,
    ) -> None:
        if floor <= 0 or ceiling <= 0:
            raise ValueError("floor and ceiling must be positive")
        self.floor = min(floor, ceiling)
        self.ceiling = ceiling
        self.alpha = alpha
        self.beta = beta
        self.k = k
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._backoff = 1.0
        self.samples = 0

    def observe(self, rtt: float) -> None:
        """Fold one successful round-trip time into the estimate."""
        rtt = max(0.0, rtt)
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1.0 - self.beta) * self.rttvar + self.beta * abs(
                self.srtt - rtt
            )
            self.srtt = (1.0 - self.alpha) * self.srtt + self.alpha * rtt
        self._backoff = 1.0
        self.samples += 1

    def observe_timeout(self) -> None:
        """A request timed out: double the timeout until the next success."""
        self._backoff = min(self._backoff * 2.0, 64.0)

    @property
    def timeout(self) -> float:
        """The timeout the next request should use."""
        if self.srtt is None:
            return self.ceiling
        raw = (self.srtt + self.k * self.rttvar) * self._backoff
        return min(self.ceiling, max(self.floor, raw))


class CircuitBreaker:
    """CLOSED/OPEN/HALF_OPEN per-source breaker with capped backoff.

    Failure units are individual poll outcomes: a transport timeout or
    an unusable (corrupt, unsalvageable) payload.  After ``threshold``
    consecutive failures the breaker OPENs and polls are skipped until
    ``retry_at``; the first allowed poll is a HALF_OPEN probe -- success
    closes the breaker, failure re-opens it with doubled backoff.  The
    backoff never exceeds ``ceiling_intervals`` poll intervals, so a
    dead source is still re-contacted at a steady bounded frequency
    (the paper's re-contact guarantee).

    The poller records transport successes *before* the payload is
    parsed; :meth:`on_bad_payload` therefore undoes the most recent
    :meth:`on_success` so a stream of corrupt-but-delivered responses
    still counts as consecutive failures.
    """

    def __init__(
        self,
        poll_interval: float,
        threshold: int = 3,
        initial_intervals: float = 1.0,
        ceiling_intervals: float = 4.0,
        jitter: float = 0.1,
        rng: Optional[random.Random] = None,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.poll_interval = poll_interval
        self.threshold = threshold
        self.initial_intervals = initial_intervals
        self.ceiling_intervals = ceiling_intervals
        self.jitter = jitter
        self.rng = rng
        self.state = CLOSED
        self.consecutive_failures = 0
        self.retry_at = 0.0
        self._open_streak = 0
        self._undo: Optional[Tuple[int, str, int]] = None
        # stats
        self.opens = 0
        self.probes = 0
        #: optional observer called as (old_state, new_state) on every
        #: state change -- including the bookkeeping walk-back a bad
        #: payload performs, so a listener's view never desyncs
        self.on_transition: Optional[Callable[[str, str], None]] = None

    def _set_state(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        if self.on_transition is not None:
            self.on_transition(old_state, new_state)

    @property
    def max_backoff(self) -> float:
        """The re-contact guarantee: the longest possible skip window."""
        return self.ceiling_intervals * self.poll_interval

    def allow(self, now: float) -> bool:
        """Whether a poll may be issued right now.

        While OPEN, returns False until the backoff elapses; the first
        allowed call transitions to HALF_OPEN (a probe).
        """
        if self.state != OPEN:
            return True
        if now + 1e-12 >= self.retry_at:
            self._set_state(HALF_OPEN)
            self.probes += 1
            return True
        return False

    def on_success(self) -> None:
        """A poll delivered a (transport-level) response."""
        self._undo = (self.consecutive_failures, self.state, self._open_streak)
        self.consecutive_failures = 0
        self._set_state(CLOSED)
        self._open_streak = 0

    def on_failure(self, now: float) -> None:
        """A poll timed out."""
        self._undo = None
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or self.consecutive_failures >= self.threshold:
            self._open(now)

    def on_bad_payload(self, now: float) -> None:
        """The response delivered but was unusable: undo the success."""
        if self._undo is not None:
            self.consecutive_failures, state, self._open_streak = self._undo
            self._undo = None
            self._set_state(state)
        else:
            state = self.state
        self.consecutive_failures += 1
        if state == HALF_OPEN or self.consecutive_failures >= self.threshold:
            self._open(now)

    def _open(self, now: float) -> None:
        self._set_state(OPEN)
        self.opens += 1
        self._open_streak += 1
        intervals = min(
            self.ceiling_intervals,
            self.initial_intervals * (2.0 ** (self._open_streak - 1)),
        )
        backoff = intervals * self.poll_interval
        if self.rng is not None and self.jitter > 0.0:
            backoff *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        # the jitter must not pierce the re-contact ceiling
        backoff = min(backoff, self.max_backoff)
        self.retry_at = now + backoff
