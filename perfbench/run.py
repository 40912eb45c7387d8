"""Fig. 2 federation benchmark: one command, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_paper --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics over the workload's
episodes; ``--trace 1`` runs a warm-up, an untraced and a traced
episode and reports the per-layer metrics (spans go to
``perfbench/out/``).
``--workload all`` runs every workload and also checks that their
cluster-path probe digests agree (pass ``--hosts`` to give all of them
one cluster size).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import pickle
import resource
import statistics
import sys
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import machine  # noqa: E402
from episode import (  # noqa: E402
    EPISODE_END_SIM_S,
    EpisodeResult,
    reference_digest,
    run_episode,
    time_set_up,
)
from replay import record_payloads  # noqa: E402
from stats import highest_tail, percentile, supports  # noqa: E402
from tracing import LAYER_METRIC, Tracer, install  # noqa: E402
from workloads import WORKLOADS, Workload, profile_kwargs  # noqa: E402

#: episodes per untraced run, at most (bounds a run on a slow machine)
MAX_EPISODES = 8
#: set-ups whose median is ``setup_s``: each episode's, then set-ups
#: alone (build, start, first poll cycle, tear down) up to this count
SET_UPS = 8

Metric = Tuple[float, str, int]  # value, unit, sample count


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(workload: Workload, seed: int, path: str) -> None:
    store = record_payloads(workload, seed, EPISODE_END_SIM_S + 1.0)
    reference = reference_digest(workload, store, seed)
    with open(path, "wb") as out:
        pickle.dump((store, reference), out, protocol=pickle.HIGHEST_PROTOCOL)


def _prepare(workload: Workload, seed: int, out_dir: str):
    """(payload store, reference probe digest), made in a child process.

    Recording and the reference twin build whole federations.  In a
    child, none of their memory stays in this process, so the memory
    baseline taken after loading the store holds the store and nothing
    else.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"payloads-{workload.name}-seed{seed}.pickle")
    child = multiprocessing.get_context("fork").Process(
        target=_record, args=(workload, seed, path)
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"payload recording failed (exit {child.exitcode})")
    try:
        with open(path, "rb") as src:
            return pickle.load(src)
    finally:
        os.remove(path)


def _checks(episodes: List[EpisodeResult], reference: str) -> List[str]:
    failures = []
    for i, ep in enumerate(episodes):
        failures += [f"episode {i}: {f}" for f in ep.failures]
        if ep.probe_digest != reference:
            failures.append(
                f"episode {i}: probe replies differ from the paper-profile twin"
            )
    return failures


def _scaled(ep: EpisodeResult, scales: List[float]):
    """(step walls, delivery ms, query ms) of ``ep``, each times the
    scale of the unit of work it belongs to."""
    steps: List[float] = []
    ingest: List[float] = []
    queries: List[float] = []
    done = (0, 0, 0)
    for f, mark in zip(scales, ep.marks):
        steps += [x * f for x in ep.step_walls[done[0]:mark[0]]]
        ingest += [x * f for x in ep.ingest_ms[done[1]:mark[1]]]
        queries += [x * f for x in ep.query_ms[done[2]:mark[2]]]
        done = mark
    # every step, delivery and query happens before some speed sample
    assert done == (len(ep.step_walls), len(ep.ingest_ms), len(ep.query_ms))
    return steps, ingest, queries


def _end_to_end(
    episodes: List[EpisodeResult],
    set_ups: List[Tuple[float, float]],
    scale: bool,
) -> Dict[str, Metric]:
    """The timed end-to-end metrics, scaled to the reference machine or not.

    ``set_ups`` holds (wall seconds, kernel ms) of every set-up.  Every
    engine step, delivery and query is scaled by the kernel times around
    it.  Ingest
    percentiles pool every episode's deliveries.  When one episode has
    enough queries for its own p99, query percentiles are taken per
    episode and the median over episodes is reported: one episode that
    meets a slow phase of the machine cannot set the run's tail.
    Otherwise they pool every episode's queries.
    """
    setups = [
        seconds * (machine.scale(kernel_ms) if scale else 1.0)
        for seconds, kernel_ms in set_ups
    ]
    parts = [
        _scaled(ep, machine.local_scales(ep.speed_samples)) if scale
        else (ep.step_walls, ep.ingest_ms, ep.query_ms)
        for ep in episodes
    ]
    ingest = [x for _, delivered, _ in parts for x in delivered]
    per_episode = min(len(queries) for _, _, queries in parts)

    if supports(per_episode, 99.0):
        def query_ms(p: float) -> Metric:
            value = statistics.median(
                percentile(queries, p) for _, _, queries in parts
            )
            return value, "ms", per_episode
    else:
        pooled = [x for _, _, queries in parts for x in queries]

        def query_ms(p: float) -> Metric:
            return percentile(pooled, p), "ms", len(pooled)

    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "host_reports_per_s": (
            sum(ep.host_reports for ep in episodes)
            / sum(sum(steps) for steps, _, _ in parts),
            "1/s",
            len(episodes),
        ),
        "ingest_ms_p50": (percentile(ingest, 50), "ms", len(ingest)),
        "ingest_ms_p95": (percentile(ingest, 95), "ms", len(ingest)),
        "query_ms_p50": query_ms(50),
        "query_ms_p99": query_ms(99),
    }


def measure(workload: Workload, seed: int, seconds: float, out_dir: str):
    """End-to-end metrics over episodes until ``seconds`` were measured."""
    store, reference = _prepare(workload, seed, out_dir)
    gc.collect()
    rss0 = _peak_rss_mb()
    episodes: List[EpisodeResult] = []
    measured = 0.0
    while len(episodes) < workload.episodes or (
        measured < seconds and len(episodes) < MAX_EPISODES
    ):
        ep = run_episode(workload, store, seed, speed=True)
        episodes.append(ep)
        measured += ep.step_s + ep.query_wall_s
        if len(episodes) == 1:
            # the first episode starts from a baseline holding only the
            # payload store; later peaks also depend on how the
            # allocator reuses the earlier episodes' freed memory
            rss_mb = _peak_rss_mb() - rss0
        gc.collect()

    # an episode's set-up is scaled by its mean kernel time; one more
    # set-up alone by the kernel times just before and after it
    set_ups = [(ep.setup_s, ep.speed_ms) for ep in episodes]
    speed = machine.SpeedProbe()
    while len(set_ups) < SET_UPS:
        speed.sample()
        seconds = time_set_up(workload, store, seed)
        speed.sample()
        set_ups.append((seconds, statistics.fmean(speed.samples_ms[-2:])))
        gc.collect()

    failures = _checks(episodes, reference)
    metrics = _end_to_end(episodes, set_ups, scale=True)
    unscaled = _end_to_end(episodes, set_ups, scale=False)
    for name, p in (("ingest_ms_p95", 95.0), ("query_ms_p99", 99.0)):
        n = metrics[name][2]
        if not supports(n, p):
            failures.append(f"{name}: {n} samples are too few")
    metrics["rss_mb"] = (rss_mb, "MB", 1)
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    notes = [
        f"episodes={len(episodes)} measured_s={measured:.2f} "
        f"record_s={store.record_s:.2f} (generator {store.gen_s:.2f}, "
        "outside every timed region)",
        f"ingest tail: highest supported "
        f"p{highest_tail(metrics['ingest_ms_p50'][2])}, query tail: highest "
        f"supported p{highest_tail(metrics['query_ms_p50'][2])}",
        f"error_rate={failed / attempted:.6f} ({failed}/{attempted}); "
        f"NOT-MODIFIED deliveries={sum(ep.not_modified for ep in episodes)}",
        "set-ups: "
        + " ".join(f"{seconds:.3f}" for seconds, _ in set_ups)
        + "; step_s per episode " + " ".join(f"{ep.step_s:.3f}" for ep in episodes),
        "speed kernel ms per episode "
        + " ".join(f"{ep.speed_ms:.4f}" for ep in episodes)
        + "; unscaled: "
        + ", ".join(f"{k}={v:.6g}" for k, (v, _, _) in unscaled.items()),
        f"probe digest {episodes[0].probe_digest[:16]} "
        f"(paper twin {reference[:16]})",
    ]
    return metrics, attempted, failed, failures, notes, episodes[0].probe_digest


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


#: layers whose self time is whatever the wrapped layers below them leave
CATCH_ALL = ("substrate", "ingest", "serve", "viewer")


def active_layers(workload: Workload) -> Set[str]:
    """Span layers the workload must enter (README's workload table).

    A layer that ought to run but records no span has lost its
    wrapper, and its time would go unseen into a catch-all layer.
    """
    gates = profile_kwargs(workload.profile)
    layers = {
        "substrate", "viewer", "gmond", "ingest", "summarize", "archive",
        "serve", "query", "datastore",
    }
    if gates.get("binary_wire"):
        layers |= {"binfmt.decode", "binfmt.encode"}
    else:
        layers.add("parse.tree")
    if gates.get("columnar_serve"):
        layers.add("arena")
    if workload.replicas:
        layers |= {
            "readtier.feed", "readtier.replica_serve",
            "readtier.replica_apply", "pubsub",
        }
    if gates.get("storage_tier"):
        layers.add("storage")
    if gates.get("analytics"):
        layers.add("analytics")
    if gates.get("observability"):
        layers.add("obs")
    return layers


def trace(workload: Workload, seed: int, out_dir: str):
    """Per-layer metrics from one traced episode beside an untraced one."""
    store, reference = _prepare(workload, seed, out_dir)
    # the first episode in a process pays one-off warm-up; the overhead
    # compares the traced episode with the second, untraced one
    warmup = run_episode(workload, store, seed)
    untraced = run_episode(workload, store, seed)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced = run_episode(workload, store, seed, tracer)
    finally:
        restore()
    episodes = [warmup, untraced, traced]
    failures = _checks(episodes, reference)
    entered = {span[0] for span in tracer.spans}
    silent = sorted(active_layers(workload) - entered)
    if silent:
        failures.append(f"layers that should run recorded no span: {silent}")

    layer = {metric: 0.0 for metric in LAYER_METRIC.values()}
    for name, seconds in tracer.self_times().items():
        layer[LAYER_METRIC[name]] = seconds
    wall = traced.step_s + traced.query_wall_s
    base = untraced.step_s + untraced.query_wall_s
    counts = dict(traced.counts)
    counts.update(tracer.counts)
    charged = traced.charged
    rendered = counts.get("arena.hosts_rendered", 0)

    metrics: Dict[str, Metric] = {}
    for name, seconds in sorted(layer.items()):
        metrics[name] = (seconds, "s", 1)
    for name, unit in (
        ("parse.bytes", "bytes"),
        ("parse.columnar_fallbacks", "count"),
        ("binfmt.bytes", "bytes"),
        ("binfmt.xml_declines", "count"),
        ("summarize.calls", "count"),
        ("archive.series_updates", "count"),
        ("storage.fetch_calls", "count"),
        ("analytics.passes", "count"),
        ("analytics.series_fetches", "count"),
        ("arena.hosts_rendered", "count"),
        ("arena.hosts_reused", "count"),
        ("query.bytes_served", "bytes"),
        ("query.bytes_from_cache", "bytes"),
        ("datastore.materializations", "count"),
        ("datastore.serve_materializations", "count"),
        ("readtier.replica_materializations", "count"),
        ("poll.deliveries", "count"),
        ("poll.not_modified", "count"),
    ):
        metrics[name] = (float(counts.get(name, 0)), unit, 1)
    metrics["arena.useful_render_ratio"] = (
        _ratio(counts.get("arena.renders_read", 0), rendered), "ratio", 1
    )
    parse_s = layer["parse.tree_s"] + layer["parse.columnar_s"] + layer["binfmt.decode_s"]
    serve_s = (
        layer["query.execute_s"] + layer["serve.dispatch_s"]
        + layer["binfmt.encode_s"] + layer["readtier.feed_s"]
        + layer["readtier.replica_serve_s"]
    )
    for category, charge, seconds in (
        ("parse", charged.get("parse", 0.0), parse_s),
        ("summarize", charged.get("summarize", 0.0), layer["summarize_s"]),
        ("archive", charged.get("archive", 0.0),
         layer["archive_s"] + layer["storage_s"]),
        ("serve", charged.get("serve", 0.0) + charged.get("query", 0.0), serve_s),
        ("analytics", charged.get("analytics", 0.0), layer["analytics_s"]),
    ):
        metrics[f"charge_ratio.{category}"] = (_ratio(charge, seconds), "s/s", 1)
    metrics["record_s"] = (store.record_s, "s", 1)
    metrics["record.gen_s"] = (store.gen_s, "s", 1)
    metrics["trace.wall_s"] = (wall, "s", 1)
    metrics["trace.untraced_wall_s"] = (base, "s", 1)
    metrics["trace.overhead_s"] = (wall - base, "s", 1)
    metrics["trace.overhead_share"] = (_ratio(wall - base, base), "ratio", 1)
    metrics["trace.accounted_share"] = (
        _ratio(sum(layer.values()), wall), "ratio", 1
    )
    metrics["trace.catch_all_share"] = (
        _ratio(sum(layer[LAYER_METRIC[name]] for name in CATCH_ALL), wall),
        "ratio",
        1,
    )
    metrics["trace.spans"] = (float(len(tracer.spans)), "count", 1)

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.jsonl.gz")
    tracer.write(path)
    notes = [f"spans written to {os.path.relpath(path)}"]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    return metrics, attempted, failed, failures, notes, traced.probe_digest


def _report(title: str, metrics: Dict[str, Metric], notes, failures) -> None:
    print(f"== {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={n}")
    for note in notes:
        print(f"  {note}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")


def _fixed_hash_seed() -> None:
    """Re-exec with a fixed string-hash seed unless it is already set.

    Pseudo-gmond host addresses and dict layouts depend on ``hash(str)``;
    a fixed seed makes equal ``--seed`` values give equal payload bytes
    in every process.  ``execv`` replaces this process, starting none.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hosts", type=int, default=None,
                        help="override every workload's hosts per cluster")
    args = parser.parse_args(argv)
    if argv is None:
        _fixed_hash_seed()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = os.path.join(HERE, "out")
    combined: Dict[str, dict] = {}
    attempted = failed = 0
    all_failures: List[str] = []
    digests = {}
    for name in names:
        workload = WORKLOADS[name]
        if args.hosts is not None:
            workload = dataclasses.replace(workload, hosts=args.hosts)
        if args.trace:
            result = trace(workload, args.seed, out_dir)
        else:
            result = measure(workload, args.seed, args.seconds, out_dir)
        metrics, a, f, failures, notes, digest = result
        _report(f"{name} seed={args.seed} hosts={workload.hosts} "
                f"trace={args.trace}", metrics, notes, failures)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit, _) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
        attempted += a
        failed += f
        all_failures += [f"{name}: {x}" for x in failures]
        digests.setdefault(workload.hosts, {})[name] = digest
    for hosts, by_name in digests.items():
        if len(set(by_name.values())) > 1:
            all_failures.append(
                f"probe digests differ across workloads at {hosts} hosts: "
                f"{ {k: v[:16] for k, v in by_name.items()} }"
            )
            print(f"  CHECK FAILED: {all_failures[-1]}")
    print(json.dumps({
        "correct": not all_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
