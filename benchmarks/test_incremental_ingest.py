"""Incremental ingest pipeline vs the eager baseline: change-rate sweep.

The Fig. 2 federation is driven with frozen metric values plus a churn
driver that fully re-randomizes ``rate * 12`` clusters per poll cycle
(fractional accumulator, round-robin), so ``rate`` is the fraction of
the federation's *sources* whose content changes each cycle.  For each
rate the same workload runs twice -- ``incremental=False`` (eager: every
poll downloads, parses, re-summarizes and re-serializes everything) and
``incremental=True`` (conditional polls answer NOT-MODIFIED for
unchanged sources, delta summarization re-folds only changed hosts, and
memoized fragments splice unchanged subtree bytes) -- measuring real
wall-clock time and the simulated CPU busy-seconds across all six
gmetads.  The wall clock is the pipeline's: time spent inside the
pseudo-gmonds (drawing churn, rendering the XML they serve) is the
workload, the same in both arms, so it is timed separately and taken
out, as perfbench records its payloads before the timed region; and
the previous run's federation is collected before the clock starts,
so no run pays for another's teardown.  Each arm keeps the faster of
two runs (see ``sweep``).

Acceptance (asserted below): at a change rate of at most 10% the
incremental pipeline is >= 3x faster in wall-clock terms, and at 100%
churn it does not regress materially.  The sweep is written to
``BENCH_incremental.json`` at the repo root and a table to
``benchmarks/out/incremental_ingest.txt``.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.bench.topology import build_paper_tree

RATES = (0.0, 0.1, 0.25, 0.5, 1.0)
HOSTS = 100
POLL = 15.0
WINDOW = 10 * POLL
WARMUP = 60.0

JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_incremental.json"


@dataclass
class Run:
    """One (rate, mode) measurement."""

    rate: float
    incremental: bool
    wall_seconds: float
    generator_seconds: float
    cpu_busy_seconds: float
    polls_ingested: int
    polls_not_modified: int


def drive_churn(federation, rate: float):
    """Mutate ``rate * clusters`` whole clusters per cycle, round-robin.

    A fractional accumulator carries the remainder across cycles, so
    rate=0.1 over twelve clusters mutates one cluster most cycles and
    two every fifth -- 1.2 per cycle on average.
    """
    names = sorted(federation.pseudos)
    state = {"acc": 0.0, "idx": 0}

    def tick() -> None:
        state["acc"] += rate * len(names)
        while state["acc"] >= 1.0:
            cluster = names[state["idx"] % len(names)]
            federation.pseudos[cluster].mutate(fraction=1.0)
            state["idx"] += 1
            state["acc"] -= 1.0

    federation.engine.every(POLL, tick, initial_delay=POLL / 2)


class GeneratorClock:
    """Wall time spent inside the pseudo-gmonds' churn and rendering."""

    def __init__(self, pseudos) -> None:
        self.seconds = 0.0
        self._busy = False
        for pseudo in pseudos:
            for name in ("mutate", "current_xml", "current_frame"):
                setattr(pseudo, name, self._timed(getattr(pseudo, name)))

    def _timed(self, method):
        def timed(*args, **kwargs):
            if self._busy:  # nested: the outer call is already timed
                return method(*args, **kwargs)
            self._busy = True
            t0 = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self._busy = False

        return timed


def measure(
    rate: float,
    incremental: bool,
    hosts: int = HOSTS,
    window: float = WINDOW,
    warmup: float = WARMUP,
) -> Run:
    federation = build_paper_tree(
        "nlevel",
        hosts_per_cluster=hosts,
        freeze_values=True,
        incremental=incremental,
    ).start()
    drive_churn(federation, rate)
    generator = GeneratorClock(federation.pseudos.values())
    gc.collect()
    t0 = time.perf_counter()
    federation.run_measurement_window(window=window, warmup=warmup)
    wall = time.perf_counter() - t0 - generator.seconds
    gmetads = federation.gmetads.values()
    return Run(
        rate=rate,
        incremental=incremental,
        wall_seconds=wall,
        generator_seconds=generator.seconds,
        cpu_busy_seconds=sum(g.cpu.window.busy_seconds for g in gmetads),
        polls_ingested=sum(g.polls_ingested for g in gmetads),
        polls_not_modified=sum(g.polls_not_modified for g in gmetads),
    )


@pytest.fixture(scope="module")
def sweep() -> Dict[float, Dict[str, Run]]:
    """Each arm runs twice per rate, eager first and then incremental
    first, and keeps its faster run: on a shared machine a slow spell
    only ever adds time, and it can land on either arm."""
    result = {}
    for rate in RATES:
        runs: Dict[str, List[Run]] = {"eager": [], "incremental": []}
        for incremental in (False, True, True, False):
            arm = "incremental" if incremental else "eager"
            runs[arm].append(measure(rate, incremental=incremental))
        result[rate] = {
            arm: min(pair, key=lambda run: run.wall_seconds)
            for arm, pair in runs.items()
        }
    return result


def render(sweep: Dict[float, Dict[str, Run]]) -> str:
    lines = [
        "Incremental ingest pipeline: change-rate sweep "
        f"(Fig. 2 tree, {HOSTS} hosts/cluster, {WINDOW:.0f}s window)",
        "",
        f"{'rate':>6} {'eager wall':>11} {'incr wall':>10} {'speedup':>8} "
        f"{'eager cpu':>10} {'incr cpu':>9} {'NM polls':>9} {'gen e/i':>11}",
    ]
    for rate in RATES:
        eager, incr = sweep[rate]["eager"], sweep[rate]["incremental"]
        lines.append(
            f"{rate:>6.2f} {eager.wall_seconds:>10.2f}s {incr.wall_seconds:>9.2f}s "
            f"{eager.wall_seconds / incr.wall_seconds:>7.1f}x "
            f"{eager.cpu_busy_seconds:>9.1f}s {incr.cpu_busy_seconds:>8.1f}s "
            f"{incr.polls_not_modified:>9} "
            f"{eager.generator_seconds:>5.2f}/{incr.generator_seconds:.2f}s"
        )
    lines.append("(wall excludes the pseudo-gmonds' own time, shown as gen)")
    return "\n".join(lines)


def sweep_json(sweep: Dict[float, Dict[str, Run]]) -> dict:
    rows: List[dict] = []
    for rate in RATES:
        eager, incr = sweep[rate]["eager"], sweep[rate]["incremental"]
        rows.append(
            {
                "change_rate": rate,
                "eager_wall_seconds": round(eager.wall_seconds, 3),
                "incremental_wall_seconds": round(incr.wall_seconds, 3),
                "speedup": round(eager.wall_seconds / incr.wall_seconds, 2),
                "eager_generator_seconds": round(eager.generator_seconds, 3),
                "incremental_generator_seconds": round(
                    incr.generator_seconds, 3
                ),
                "eager_cpu_busy_seconds": round(eager.cpu_busy_seconds, 2),
                "incremental_cpu_busy_seconds": round(
                    incr.cpu_busy_seconds, 2
                ),
                "eager_polls_ingested": eager.polls_ingested,
                "incremental_polls_ingested": incr.polls_ingested,
                "incremental_polls_not_modified": incr.polls_not_modified,
            }
        )
    return {
        "benchmark": "incremental_ingest",
        "topology": "fig2",
        "hosts_per_cluster": HOSTS,
        "poll_interval_seconds": POLL,
        "window_seconds": WINDOW,
        "rows": rows,
    }


def test_incremental_ingest_report(sweep, save_report, benchmark, bench_env):
    """Regenerates the sweep table and the committed JSON artifact."""
    text = benchmark.pedantic(render, args=(sweep,), rounds=1, iterations=1)
    save_report("incremental_ingest", text)
    payload = {**sweep_json(sweep), "environment": bench_env}
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {JSON_PATH}]")


def test_speedup_at_low_change_rate(sweep):
    """The acceptance bar: >=3x wall-clock at a change rate of <=10%."""
    for rate in (0.0, 0.1):
        eager, incr = sweep[rate]["eager"], sweep[rate]["incremental"]
        speedup = eager.wall_seconds / incr.wall_seconds
        assert speedup >= 3.0, (
            f"rate={rate}: only {speedup:.1f}x "
            f"({eager.wall_seconds:.2f}s vs {incr.wall_seconds:.2f}s)"
        )


def test_not_modified_tracks_the_change_rate(sweep):
    """NM counts fall monotonically as churn rises; full churn has none
    (every cycle changes every source's generation)."""
    counts = [sweep[r]["incremental"].polls_not_modified for r in RATES]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] > 0
    assert sweep[1.0]["incremental"].polls_not_modified == 0


def test_full_churn_does_not_regress(sweep):
    """Worst case for the tracker/caches: everything changes every
    cycle.  The pipeline must stay within 25% of eager on both clocks."""
    eager, incr = sweep[1.0]["eager"], sweep[1.0]["incremental"]
    assert incr.wall_seconds <= eager.wall_seconds * 1.25
    assert incr.cpu_busy_seconds <= eager.cpu_busy_seconds * 1.25


def test_simulated_cpu_shrinks_too(sweep):
    """The saving is not a simulator artifact: charged CPU drops as
    well at low change rates (parse/summarize/serialize work skipped)."""
    eager, incr = sweep[0.1]["eager"], sweep[0.1]["incremental"]
    assert incr.cpu_busy_seconds < eager.cpu_busy_seconds


@pytest.mark.smoke
def test_smoke_small_scale():
    """CI-sized spot check (<10s): the pipeline engages and wins."""
    eager = measure(0.1, incremental=False, hosts=8, window=60.0, warmup=30.0)
    incr = measure(0.1, incremental=True, hosts=8, window=60.0, warmup=30.0)
    assert incr.polls_not_modified > 0
    assert incr.cpu_busy_seconds < eager.cpu_busy_seconds
