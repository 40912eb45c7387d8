"""The tree-ingest reference daemon the twin suites compare against.

The N-level :class:`~repro.core.gmetad.Gmetad` ingests every full-form
cluster dump through the columnar pipeline.  The tree pipeline -- build
a DOM per poll, fold it host by host (eager :func:`summarize_cluster` or
the scalar :class:`ClusterSummaryTracker`), archive it one RRD update
per metric -- is the oracle the columnar one is held to, so it lives
here, test-side only: :class:`TreeIngestGmetad` is the daemon with the
tree branch, and :func:`build_tree_ingest_tree` builds the Fig. 2
federation out of it by patching the topology builder's class lookup.
No production option selects it.
"""

from __future__ import annotations

from typing import Dict
from unittest import mock

from repro.bench import topology
from repro.core.datastore import SourceSnapshot
from repro.core.delta_summary import ClusterSummaryTracker
from repro.core.gmetad import Gmetad
from repro.core.summarize import summarize_cluster
from repro.wire.model import GangliaDocument


class TreeIngestGmetad(Gmetad):
    """N-level gmetad that ingests cluster dumps through the DOM."""

    #: parse every response into a tree, decode every frame into one
    supports_columnar = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per-source delta summarizers (incremental config)
        self._summary_trackers: Dict[str, ClusterSummaryTracker] = {}

    def ingest(self, source: str, doc: GangliaDocument, now: float) -> None:
        rest = GangliaDocument(version=doc.version, source=doc.source)
        rest.grids = doc.grids
        for cluster in doc.clusters.values():
            if cluster.is_summary:
                rest.clusters[cluster.name] = cluster
                continue
            if self.config.incremental:
                tracker = self._summary_trackers.get(source)
                if tracker is None:
                    tracker = ClusterSummaryTracker(self.config.heartbeat_window)
                    self._summary_trackers[source] = tracker
                summary, samples = tracker.update(cluster)
            else:
                summary, samples = summarize_cluster(
                    cluster, self.config.heartbeat_window
                )
            cluster.summary = summary
            self.charge(self.costs.summarize_metric * samples, "summarize")
            if self.config.archive_local_detail:
                self.archiver.archive_cluster_detail(source, cluster, now)
            self.archiver.archive_summary(source, cluster.name, summary, now)
            self.datastore.install(
                SourceSnapshot(
                    name=source,
                    kind="cluster",
                    summary=summary,
                    cluster=cluster,
                    authority=self.config.authority_url,
                ),
                now,
            )
        # summary-form clusters and grids: the production code path
        super().ingest(source, rest, now)

    def remove_data_source(self, name: str) -> None:
        super().remove_data_source(name)
        self._summary_trackers.pop(name, None)


def build_tree_ingest_tree(design: str = "nlevel", **kwargs):
    """:func:`~repro.bench.topology.build_paper_tree` with every N-level
    gmetad a :class:`TreeIngestGmetad`."""
    original = topology._gmetad_class

    def gmetad_class(name: str):
        return TreeIngestGmetad if name == "nlevel" else original(name)

    with mock.patch.object(topology, "_gmetad_class", gmetad_class):
        return topology.build_paper_tree(design, **kwargs)
