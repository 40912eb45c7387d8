"""Profiles and workloads of the Fig. 2 federation benchmark.

A *profile* is a set of ``build_paper_tree`` keyword arguments -- a
benchmark-side grouping of the daemon's opt-in gates, not a daemon
setting.  A *workload* pairs a profile with a cluster size, an episode
count and a read load.  README.md in this directory says why each
workload exists and which layers it is meant to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.analytics.config import AnalyticsConfig
from repro.core.resilience import ResilienceConfig
from repro.obs.config import ObservabilityConfig
from repro.storage.config import StorageTierConfig

#: the gates that speed ingest and serving up without changing output
_FAST = dict(
    incremental=True, columnar=True, columnar_serve=True, binary_wire=True
)


def profile_kwargs(profile: str) -> Dict[str, object]:
    """``build_paper_tree`` keyword arguments for one named profile."""
    if profile == "paper":
        return {}  # every gate off: the eager baseline Fig. 5/6 pin
    if profile == "fast":
        return dict(_FAST)
    if profile == "full":
        return dict(
            _FAST,
            resilience=ResilienceConfig(),
            observability=ObservabilityConfig(),
            storage_tier=StorageTierConfig(),
            analytics=AnalyticsConfig(),
        )
    raise ValueError(f"unknown profile {profile!r}")


#: ganglia-web's default auto-refresh (s): each viewer sends one query
#: per refresh, the per-client rate of ``benchmarks/test_readtier_fleet.py``
REFRESH_S = 300
#: viewer population of the read-tier fleet over the Fig. 2 tree in
#: ``examples/readtier_federation.py`` and of ``repro-sim readtier``:
#: 2000 / REFRESH_S = 6.67 queries per simulated second
FLEET_CLIENTS = 2000
#: queries of the post-run sweep on a paused engine, for workloads with
#: no viewers in the timed region (their ``query_ms_*`` come from it)
SWEEP_QUERIES = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs, at what size, under what load.

    Viewers offer bin1 exactly when the serving path is columnar, as
    the read-tier fleet arm of ``benchmarks/test_serve_fastpath.py``
    does (``accept_binary=columnar_serve``); the serving daemon's own
    rule decides which queries get a frame.  Viewer sessions are spread
    evenly over the processes that serve them: ``sdsc`` and each of its
    replicas take the same share.
    """

    name: str
    profile: str
    #: hosts per pseudo-gmond cluster (twelve clusters in the Fig. 2 tree)
    hosts: int
    #: episodes an untraced run measures, at least
    episodes: int
    #: read replicas attached to ``sdsc`` (0: no read tier)
    replicas: int
    #: viewers querying during the timed region (0: none; a sweep
    #: after the timed region gives the query latency instead)
    viewer_clients: int

    def viewer_queries_by(self, sim_s: float) -> int:
        """Viewer queries due in the first ``sim_s`` of the timed region."""
        return int(sim_s * self.viewer_clients) // REFRESH_S

    @property
    def sweep_queries(self) -> int:
        return 0 if self.viewer_clients else SWEEP_QUERIES

    @property
    def offers_bin1(self) -> bool:
        """Whether viewers ask for bin1 frames before XML."""
        return bool(profile_kwargs(self.profile).get("columnar_serve"))

    @property
    def replica_share(self) -> float:
        """Share of viewer queries the replicas serve."""
        return self.replicas / (self.replicas + 1)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig2_paper",
            profile="paper",
            hosts=100,
            episodes=3,
            replicas=0,
            viewer_clients=0,
        ),
        Workload(
            name="fig2_full",
            profile="full",
            hosts=20,
            episodes=4,
            replicas=1,
            viewer_clients=0,
        ),
        Workload(
            name="viewer_mix",
            profile="fast",
            hosts=100,
            episodes=4,
            replicas=1,
            viewer_clients=FLEET_CLIENTS,
        ),
    )
}
