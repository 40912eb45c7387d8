"""Per-layer wall-clock spans, recorded from outside the program.

:func:`install` wraps each layer's public entry points (module
functions at the binding their callers use, or class methods) so that a
call made while the :class:`Tracer` is active records a span: layer
name, start, end and the index of the enclosing span.  Spans stay in
memory and are written out once, when the run ends.  A layer's self
time is the time its spans cover minus the part their child spans
cover, so the self times of all layers add up to the duration of the
top-level spans (the engine steps and the viewer's query calls).

Wrappers must be installed before the federation is built: some entry
points are captured as bound methods when the daemons are wired.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

#: span layer -> per-layer self-time metric
LAYER_METRIC: Dict[str, str] = {
    "substrate": "substrate_s",
    "viewer": "viewer.client_s",
    "gmond": "gen_s",
    "ingest": "ingest.dispatch_s",
    "parse.tree": "parse.tree_s",
    "parse.columnar": "parse.columnar_s",
    "binfmt.decode": "binfmt.decode_s",
    "binfmt.encode": "binfmt.encode_s",
    "summarize": "summarize_s",
    "archive": "archive_s",
    "storage": "storage_s",
    "analytics": "analytics_s",
    "arena": "arena.install_s",
    "serve": "serve.dispatch_s",
    "query": "query.execute_s",
    "datastore": "datastore.install_s",
    "readtier.feed": "readtier.feed_s",
    "readtier.replica_serve": "readtier.replica_serve_s",
    "readtier.replica_apply": "readtier.replica_apply_s",
    "pubsub": "pubsub.publish_s",
    "obs": "obs.record_s",
}


class Tracer:
    """In-memory span recorder plus named counts."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.active = False
        #: per-arena fragment indices rendered and not yet read
        self._unread: Dict[int, set] = {}

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` (plainly when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        record = [layer, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def inside(self, layer: str) -> bool:
        """Whether an enclosing span belongs to ``layer``."""
        return any(self.spans[i][0] == layer for i in self._stack)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    # -- arena render usefulness ------------------------------------------

    def note_rendered(self, arena, rendered: Sequence[int]) -> None:
        self._unread.setdefault(id(arena), set()).update(rendered)

    def note_read(self, arena, index: Optional[int]) -> None:
        unread = self._unread.get(id(arena))
        if not unread:
            return
        if index is None:  # whole-cluster read
            self.counts["arena.renders_read"] += len(unread)
            unread.clear()
        elif index in unread:
            self.counts["arena.renders_read"] += 1
            unread.discard(index)

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed JSON lines.

        The first line names the layers; each further line is one span
        as ``[layer index, start ns, end ns, parent index]``, times
        relative to the first span's start.
        """
        layers = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"layers": layers}) + "\n")
            for layer, start, end, parent in self.spans:
                out.write(
                    f"[{index[layer]},{round((start - t0) * 1e9)},"
                    f"{round((end - t0) * 1e9)},{parent}]\n"
                )


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Per-layer self time of a span list whose parents precede children."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, float] = {}
    for i, (layer, start, end, _) in enumerate(spans):
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered[i]
    return totals


# -- entry points ---------------------------------------------------------


def _bytes_in(name: str):
    def after(tracer, args, result):
        tracer.counts[name] += len(args[0])
    return after


def _bytes_out(name: str):
    def after(tracer, args, result):
        if result is not None:
            tracer.counts[name] += len(result)
    return after


def _calls(name: str):
    def after(tracer, args, result):
        tracer.counts[name] += 1
    return after


def _declines(tracer, args, result):
    if result is None:
        tracer.counts["binfmt.xml_declines"] += 1


def _query_bytes(tracer, args, result):
    _, stats = result
    tracer.counts["query.bytes_served"] += stats.bytes_serialized
    tracer.counts["query.bytes_from_cache"] += stats.bytes_from_cache


def _storage_fetch(tracer, args, result):
    tracer.counts["storage.fetch_calls"] += 1
    if tracer.inside("analytics"):
        tracer.counts["analytics.series_fetches"] += 1


def _targets():
    """(owner, attribute, layer, after-hook) for every traced entry point."""
    import repro.columnar as columnar
    import repro.core.datastore as datastore
    import repro.core.gmetad as gmetad
    import repro.core.gmetad_base as gmetad_base
    import repro.wire.binfmt as binfmt
    from repro.analytics.engine import AnalyticsEngine
    from repro.columnar import ColumnarSummaryTracker
    from repro.core.archiver import Archiver
    from repro.core.delta_summary import ClusterSummaryTracker
    from repro.core.query import QueryEngine
    from repro.obs.observability import Observability
    from repro.pubsub.broker import PubSubBroker
    from repro.readtier.feed import ReplicationFeed
    from repro.readtier.replica import ReadReplica
    from repro.storage.tier import StorageTier

    summarized = _calls("summarize.calls")
    targets = [
        (gmetad_base, "parse_document", "parse.tree", _bytes_in("parse.bytes")),
        (gmetad_base, "decode_document", "binfmt.decode", _bytes_in("binfmt.bytes")),
        (gmetad_base, "materialize_document", "binfmt.decode", None),
        (gmetad, "encode_summary_document", "binfmt.encode", _bytes_out("binfmt.bytes")),
        (binfmt, "encode_cluster_document", "binfmt.encode", _bytes_out("binfmt.bytes")),
        (gmetad.Gmetad, "serve_query", "serve", None),
        (gmetad.Gmetad, "serve_binary", "serve", _declines),
        (gmetad, "summarize_cluster", "summarize", summarized),
        (gmetad, "merge_summaries", "summarize", summarized),
        (datastore, "merge_summaries", "summarize", summarized),
        (columnar, "summarize_columns", "summarize", summarized),
        (ColumnarSummaryTracker, "update", "summarize", summarized),
        (ClusterSummaryTracker, "update", "summarize", summarized),
        (Archiver, "archive_cluster_detail", "archive", None),
        (Archiver, "archive_cluster_detail_columns", "archive", None),
        (Archiver, "archive_summary", "archive", None),
        (Archiver, "replay", "archive", None),
        (Archiver, "flush", "archive", None),
        (StorageTier, "update", "storage", None),
        (StorageTier, "update_summary", "storage", None),
        (StorageTier, "update_columns", "storage", None),
        (StorageTier, "database", "storage", None),
        (StorageTier, "fetch_series", "storage", _storage_fetch),
        (AnalyticsEngine, "recompute", "analytics", _calls("analytics.passes")),
        (AnalyticsEngine, "publish", "analytics", None),
        (QueryEngine, "execute", "query", _query_bytes),
        (datastore.Datastore, "install", "datastore", None),
        (datastore.SourceSnapshot, "ensure_hosts", "datastore", None),
        (ReplicationFeed, "state", "readtier.feed", None),
        (ReadReplica, "serve_query", "readtier.replica_serve", None),
        (ReadReplica, "serve_binary", "readtier.replica_serve", _declines),
        (ReadReplica, "_on_feed", "readtier.replica_apply", None),
        (PubSubBroker, "_on_publish", "pubsub", None),
    ]
    for name in (
        "record_span", "record_poll", "record_breaker_transition",
        "record_ingest", "record_serve", "record_shed", "record_push",
        "record_negotiation", "sync_daemon_gauges", "refresh_self_cluster",
    ):
        targets.append((Observability, name, "obs", None))
    return targets


def _spanned(tracer: Tracer, layer: str, fn: Callable, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        result = tracer.call(layer, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def _columnar_parse(tracer: Tracer, fn: Callable) -> Callable:
    """``parse_columnar``, also counting shapes it hands to the tree parser."""
    from repro.wire.parser import ColumnarFallback

    inner = _spanned(tracer, "parse.columnar", fn, _bytes_in("parse.bytes"))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except ColumnarFallback:
            if tracer.active:
                tracer.counts["parse.columnar_fallbacks"] += 1
            raise

    return wrapper


def _arena_install(tracer: Tracer, fn: Callable) -> Callable:
    """``FragmentArena.install``, counting fragments rendered and kept."""
    inner = _spanned(tracer, "arena", fn, None)

    @functools.wraps(fn)
    def wrapper(arena, cols):
        if not tracer.active:
            return fn(arena, cols)
        before = list(arena._frags)  # identity tells re-rendered apart
        inner(arena, cols)
        after = arena._frags
        rendered = [
            h for h, frag in enumerate(after)
            if h >= len(before) or frag is not before[h]
        ]
        tracer.counts["arena.hosts_rendered"] += len(rendered)
        tracer.counts["arena.hosts_reused"] += len(after) - len(rendered)
        tracer.note_rendered(arena, rendered)

    return wrapper


def _arena_read(tracer: Tracer, fn: Callable, whole: bool) -> Callable:
    """An arena read; marks the fragments it returns as read."""
    @functools.wraps(fn)
    def wrapper(arena, *args):
        if tracer.active:
            if whole:
                tracer.note_read(arena, None)
            elif arena.cols is not None:
                index = arena.cols.host_index.get(args[0])
                if index is not None:
                    tracer.note_read(arena, index)
        return fn(arena, *args)

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    import repro.core.gmetad_base as gmetad_base
    from repro.serve.arena import FragmentArena

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    for owner, attr, layer, after in _targets():
        patch(owner, attr, _spanned(tracer, layer, getattr(owner, attr), after))
    patch(
        gmetad_base, "parse_columnar",
        _columnar_parse(tracer, gmetad_base.parse_columnar),
    )
    patch(FragmentArena, "install", _arena_install(tracer, FragmentArena.install))
    patch(
        FragmentArena, "detail_fragment",
        _arena_read(tracer, FragmentArena.detail_fragment, whole=True),
    )
    patch(
        FragmentArena, "host_fragment",
        _arena_read(tracer, FragmentArena.host_fragment, whole=False),
    )

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
