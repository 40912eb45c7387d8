"""Fault-schedule replay: predictive vs static alerting, measured.

One gmetad polls one scripted pseudo-gmond while a schedule of faults
plays out -- load ramps (the thing prediction should beat thresholds
on), host flaps (the thing prediction must *not* page on) and an
optional storage-node kill (the analytics stage must keep producing
readings through the tier's failover fetch surface).

Two :class:`~repro.core.alarms.AlarmEngine` instances watch the same
daemon: a *static* engine with the classic threshold rule
(``load_one > 5``) and a *predictive* engine with the analytics-backed
rule kinds (``predict_cross`` within a horizon, ``anomaly`` z-score).
For every ramp the replay records when each engine first fired; the
difference is the detection lead time.  Predictive fires that land
outside every fault window are false positives, rated against the
total number of (evaluation pass, host) windows.

``benchmarks/test_analytics_alerting.py`` commits these numbers as
``BENCH_analytics.json``; ``repro-sim analytics`` prints them.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analytics.config import AnalyticsConfig
from repro.core.alarms import AlarmEngine, AlarmRule, predictive_rules
from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.faults.injector import FaultInjector
from repro.gmond.pseudo import PseudoGmond
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.storage.config import StorageTierConfig

#: extra seconds after a fault window in which fires still count as
#: caused by the fault (archive rows and hold timers trail the input)
FAULT_MARGIN = 60.0


@dataclass(frozen=True)
class Ramp:
    """A linear load ramp on one emulated host."""

    host: int
    start: float
    end: float
    peak: float  # load_one value reached at ``end``


@dataclass(frozen=True)
class Flap:
    """One emulated host silent from ``start`` to ``end``."""

    host: int
    start: float
    end: float


@dataclass
class ReplaySchedule:
    """The scripted scenario one replay runs."""

    hosts: int = 8
    duration: float = 900.0
    tick: float = 15.0
    ramps: List[Ramp] = field(default_factory=list)
    flaps: List[Flap] = field(default_factory=list)
    #: (node, start, duration): fail-stop one storage node (needs
    #: ``storage=True`` on the replay; ignored otherwise)
    storage_kill: Optional[tuple] = None
    #: (start, duration, factor): run the gmetad<->gmond link at
    #: ``factor`` of nominal bandwidth for a stretch of the replay
    degrade: Optional[tuple] = None


def default_schedule(
    hosts: int = 8, duration: float = 900.0, storage: bool = False
) -> ReplaySchedule:
    """The standard scenario: three ramps, two flaps, optional kill.

    Fault targets are spread over the cluster (indices scale with the
    host count) and clipped to ``duration`` so a short smoke replay
    still exercises at least one ramp and one flap.
    """
    ramp_hosts = sorted({0 % hosts, 3 % hosts, 5 % hosts})
    flap_hosts = [i for i in range(hosts) if i not in ramp_hosts][:2]
    ramps = [
        Ramp(host=ramp_hosts[0], start=120.0, end=420.0, peak=8.5),
        Ramp(host=ramp_hosts[len(ramp_hosts) // 2],
             start=300.0, end=600.0, peak=9.0),
        Ramp(host=ramp_hosts[-1], start=450.0, end=780.0, peak=8.0),
    ]
    flaps = [
        Flap(host=host, start=180.0 + 320.0 * i, end=360.0 + 320.0 * i)
        for i, host in enumerate(flap_hosts)
    ]
    schedule = ReplaySchedule(
        hosts=hosts,
        duration=duration,
        ramps=[r for r in ramps if r.end + FAULT_MARGIN <= duration],
        flaps=[f for f in flaps if f.end <= duration],
    )
    if storage:
        schedule.storage_kill = ("st01", 240.0, 300.0)
    return schedule


@dataclass
class RampOutcome:
    """When each engine first noticed one ramp."""

    host: int
    start: float
    end: float
    static_fire: Optional[float] = None
    predictive_fire: Optional[float] = None

    @property
    def lead(self) -> Optional[float]:
        """Static fire time minus predictive fire time (None: no pair)."""
        if self.static_fire is None or self.predictive_fire is None:
            return None
        return self.static_fire - self.predictive_fire


@dataclass
class ReplayResult:
    """Everything one replay measured."""

    hosts: int
    duration: float
    storage: bool
    ramps: List[RampOutcome]
    static_fires: int
    predictive_fires: int
    false_positives: int
    evaluation_windows: int
    analytics_passes: int
    analytics_series: int
    notifications: List[str]

    @property
    def leads(self) -> List[float]:
        return [r.lead for r in self.ramps if r.lead is not None]

    @property
    def median_lead(self) -> float:
        return statistics.median(self.leads) if self.leads else 0.0

    @property
    def fp_rate(self) -> float:
        if self.evaluation_windows == 0:
            return 0.0
        return self.false_positives / self.evaluation_windows

    def to_dict(self) -> Dict:
        """JSON-ready summary (what the benchmark commits)."""
        return {
            "hosts": self.hosts,
            "duration_seconds": self.duration,
            "storage_tier": self.storage,
            "ramps": [
                {
                    "host": r.host,
                    "start": r.start,
                    "end": r.end,
                    "static_fire": r.static_fire,
                    "predictive_fire": r.predictive_fire,
                    "lead_seconds": r.lead,
                }
                for r in self.ramps
            ],
            "median_lead_seconds": self.median_lead,
            "static_fires": self.static_fires,
            "predictive_fires": self.predictive_fires,
            "false_positives": self.false_positives,
            "evaluation_windows": self.evaluation_windows,
            "fp_rate": self.fp_rate,
            "analytics_passes": self.analytics_passes,
            "analytics_series": self.analytics_series,
        }


def run_replay(
    schedule: Optional[ReplaySchedule] = None,
    seed: int = 1234,
    storage: bool = False,
    window_rows: int = 8,
    load_threshold: float = 5.0,
    horizon: float = 120.0,
    anomaly_z: float = 4.0,
) -> ReplayResult:
    """Run one fault-schedule replay and measure both alarm engines.

    ``storage=True`` swaps the archiver for a 4-node replicated storage
    tier (scalar analytics fallback through the failover fetch surface)
    and arms the schedule's storage kill; the default runs the columnar
    bank path the vectorized kernels were built for.
    """
    schedule = schedule or default_schedule(storage=storage)
    engine = Engine()
    fabric = Fabric()
    rngs = RngRegistry(seed)
    tcp = TcpNetwork(engine, fabric, rng=rngs.stream("tcp.gray"))
    walk_rng = rngs.stream("replay.walk")

    pseudo = PseudoGmond(
        engine,
        fabric,
        tcp,
        "replay-c0",
        schedule.hosts,
        rngs.stream("pseudo:replay-c0"),
        refresh_interval=float("inf"),  # the driver scripts all churn
    )
    config = GmetadConfig(
        name="replay",
        host="gmeta-replay",
        archive_mode="full",
        incremental=True,
        storage_tier=(
            StorageTierConfig(nodes=4, replication=2) if storage else None
        ),
        analytics=AnalyticsConfig(
            window_rows=window_rows, anomaly_z=anomaly_z,
            publish_interval=30.0,
        ),
    )
    config.add_source("replay-c0", [pseudo.address])
    gmetad = Gmetad(engine, fabric, tcp, config)

    static = AlarmEngine(gmetad, interval=schedule.tick)
    static.add_rule(
        AlarmRule(
            name="static-load",
            selector=r"~/.*/.*/load_one",
            op=">",
            threshold=load_threshold,
        )
    )
    predictive = AlarmEngine(gmetad, interval=schedule.tick)
    for rule in predictive_rules(
        load_threshold=load_threshold, horizon=horizon, anomaly_z=anomaly_z
    ):
        predictive.add_rule(rule)

    injector = FaultInjector(engine, fabric)
    if storage and schedule.storage_kill is not None:
        node, at, duration = schedule.storage_kill
        injector.register_storage_tier(gmetad.archiver.store)
        injector.kill_storage_node(node, at=at, duration=duration)
    if schedule.degrade is not None:
        at, duration, factor = schedule.degrade
        injector.degrade_links(
            [config.host], [pseudo.server_host], factor,
            at=at, duration=duration,
        )

    # -- the scripted workload driver ------------------------------------
    base = [walk_rng.uniform(0.6, 1.2) for _ in range(schedule.hosts)]

    def tick() -> None:
        now = engine.now
        for flap in schedule.flaps:
            if flap.start <= now < flap.start + schedule.tick:
                pseudo.set_host_down(flap.host, True)
            if flap.end <= now < flap.end + schedule.tick:
                pseudo.set_host_down(flap.host, False)
        updates: Dict[int, Dict[str, float]] = {}
        for i in range(schedule.hosts):
            if i in pseudo.down_hosts:
                continue
            base[i] = min(
                1.5, max(0.5, base[i] + walk_rng.uniform(-0.05, 0.05))
            )
            value = base[i]
            for ramp in schedule.ramps:
                if ramp.host == i and ramp.start <= now <= ramp.end:
                    frac = (now - ramp.start) / (ramp.end - ramp.start)
                    value = base[i] + frac * (ramp.peak - base[i])
            updates[i] = {"load_one": value}
        if updates:
            pseudo.set_metric_values(updates, now)
        down = sorted(pseudo.down_hosts)
        if down:
            pseudo.mutate(hosts=down, now=now)  # age their TN

    engine.every(schedule.tick, tick, initial_delay=1.0)

    gmetad.start()
    static.start()
    predictive.start()
    engine.run_for(schedule.duration)
    gmetad.stop()
    static.stop()
    predictive.stop()

    # -- measurement ------------------------------------------------------
    def subject(host_index: int) -> str:
        return f"/replay-c0/{pseudo.name}-0-{host_index}/load_one"

    outcomes = [
        RampOutcome(host=r.host, start=r.start, end=r.end)
        for r in schedule.ramps
    ]
    for n in static.notifications:
        if n.kind != "fire":
            continue
        for outcome in outcomes:
            if (
                n.subject == subject(outcome.host)
                and outcome.start <= n.time <= outcome.end + FAULT_MARGIN
                and outcome.static_fire is None
            ):
                outcome.static_fire = n.time

    # fault windows per host subject: a predictive fire inside one is a
    # true (or at least excusable) positive; anything else counts false
    windows: Dict[str, List[tuple]] = {}
    for r in schedule.ramps:
        windows.setdefault(subject(r.host), []).append(
            (r.start, r.end + FAULT_MARGIN)
        )
    for f in schedule.flaps:
        windows.setdefault(subject(f.host), []).append(
            (f.start, f.end + FAULT_MARGIN)
        )

    predictive_fires = 0
    false_positives = 0
    for n in predictive.notifications:
        if n.kind != "fire":
            continue
        predictive_fires += 1
        in_window = any(
            lo <= n.time <= hi for lo, hi in windows.get(n.subject, [])
        )
        if in_window:
            for outcome in outcomes:
                if (
                    n.subject == subject(outcome.host)
                    and outcome.start <= n.time <= outcome.end + FAULT_MARGIN
                    and outcome.predictive_fire is None
                ):
                    outcome.predictive_fire = n.time
        else:
            false_positives += 1

    analytics = gmetad.analytics
    return ReplayResult(
        hosts=schedule.hosts,
        duration=schedule.duration,
        storage=storage,
        ramps=outcomes,
        static_fires=sum(
            1 for n in static.notifications if n.kind == "fire"
        ),
        predictive_fires=predictive_fires,
        false_positives=false_positives,
        evaluation_windows=predictive.evaluations * schedule.hosts,
        analytics_passes=analytics.passes if analytics else 0,
        analytics_series=analytics.series_analyzed if analytics else 0,
        notifications=[
            n.render() for n in (*static.notifications, *predictive.notifications)
        ],
    )
