"""Byte-identical equivalence: columnar fast path vs the tree baseline.

Twin Fig. 2 federations are built from the same seed -- one of the
test-side tree-ingest reference daemons (:mod:`tests.tree_ingest`:
TreeBuilder DOM -> per-host summarize loops -> per-metric RRD updates),
one of production gmetads (interned SAX parse -> structure-of-arrays ->
vectorized summarize -> batch RRD scatter) -- and driven through
identical event sequences.  At every checkpoint every
gmetad in both trees must serve **byte-identical** XML, charge identical
CPU, and (in full archive mode) hold value-identical RRD histories.
This is the acceptance bar of the optimisation: observable output is
unchanged; only the work done to produce it shrinks.

The tree/columnar axis is orthogonal to PR 2's eager/incremental axis,
so the byte-identity tests run across both incremental settings.
"""

import numpy as np
import pytest

from repro.bench.topology import build_paper_tree
from repro.net.tcp import Response
from tests.tree_ingest import build_tree_ingest_tree

HOSTS = 5
REQUESTS = ["/", "/?filter=summary"]


def build_twins(incremental, **kwargs):
    """(tree, columnar) federations built from the same seed."""
    tree = build_tree_ingest_tree(
        "nlevel", hosts_per_cluster=HOSTS, incremental=incremental,
        **kwargs
    ).start()
    cols = build_paper_tree(
        "nlevel", hosts_per_cluster=HOSTS, incremental=incremental,
        **kwargs
    ).start()
    return tree, cols


def run_both(tree, cols, duration):
    tree.engine.run_for(duration)
    cols.engine.run_for(duration)
    assert tree.engine.now == cols.engine.now


def assert_identical_everywhere(tree, cols, requests=REQUESTS):
    for name in tree.gmetads:
        for request in requests:
            expected, _ = tree.gmetad(name).serve_query(request)
            actual, _ = cols.gmetad(name).serve_query(request)
            assert actual == expected, (
                f"{name} diverged on {request!r} at t={tree.engine.now}"
            )


def assert_same_cpu_and_stats(tree, cols):
    """The fast path must charge the same simulated CPU it replaces."""
    for name in tree.gmetads:
        a, b = tree.gmetad(name), cols.gmetad(name)
        assert b.cpu.total_busy_seconds == a.cpu.total_busy_seconds, name
        assert b.polls_ingested == a.polls_ingested, name
        assert b.parse_errors == a.parse_errors, name


def assert_columnar_engaged(cols, tree=None):
    """Guard against vacuous equality: leaves really took the fast path
    (and the reference twin's leaves really took the tree path)."""
    if tree is not None:
        for g in tree.gmetads.values():
            for n in g.datastore.source_names():
                assert g.datastore.source(n).columns is None, n
    leaves = 0
    for g in cols.gmetads.values():
        snapshots = [
            g.datastore.source(n) for n in g.datastore.source_names()
        ]
        clusters = [s for s in snapshots if s is not None and s.kind == "cluster"]
        if not clusters:
            continue
        leaves += 1
        assert any(s.columns is not None for s in clusters), (
            "no columnar snapshot installed"
        )
    assert leaves


@pytest.mark.parametrize("incremental", [False, True])
def test_steady_churn_serves_identical_bytes(incremental):
    """Default workload: every pseudo re-randomizes each poll cycle."""
    tree, cols = build_twins(incremental)
    for _ in range(6):
        run_both(tree, cols, 30.0)
        assert_identical_everywhere(tree, cols)
    assert_identical_everywhere(
        tree, cols, ["/sdsc", "/ucsd", "/sdsc-c0", "/sdsc-c0/sdsc-c0-0-0"]
    )
    assert_same_cpu_and_stats(tree, cols)
    assert_columnar_engaged(cols, tree)


@pytest.mark.parametrize("incremental", [False, True])
def test_mutations_and_host_death(incremental):
    """Partial mutations, a host dying past the heartbeat window, and
    its recovery all serialize identically."""
    tree, cols = build_twins(incremental, freeze_values=True)
    run_both(tree, cols, 45.0)
    for fed in (tree, cols):
        assert fed.pseudos["sdsc-c0"].mutate(hosts=[0, 2]) == 2
        fed.pseudos["attic-c2"].set_host_down(1)
    run_both(tree, cols, 120.0)  # past the heartbeat window: host is down
    assert_identical_everywhere(tree, cols)
    for fed in (tree, cols):
        fed.pseudos["attic-c2"].set_host_down(1, down=False)
    run_both(tree, cols, 60.0)
    assert_identical_everywhere(tree, cols)
    assert_same_cpu_and_stats(tree, cols)


def test_parse_errors_handled_identically():
    """A source serving garbage XML degrades both twins the same way."""
    tree, cols = build_twins(incremental=False, freeze_values=True)
    run_both(tree, cols, 45.0)
    for fed in (tree, cols):
        address = fed.pseudos["physics-c0"].address
        fed.tcp.close(address)
        fed.tcp.listen(
            address, lambda client, request: Response("<GANGLIA_XML <<<")
        )
    run_both(tree, cols, 45.0)
    assert tree.gmetad("physics").parse_errors > 0
    assert cols.gmetad("physics").parse_errors > 0
    assert_identical_everywhere(tree, cols)
    assert_same_cpu_and_stats(tree, cols)


@pytest.mark.parametrize("incremental", [False, True])
def test_full_archives_value_identical(incremental):
    """Full archive mode: every RRD series the scatter path wrote holds
    the same values, times and resolution the scalar path would."""
    tree, cols = build_twins(incremental, archive_mode="full")
    run_both(tree, cols, 150.0)
    for fed in (tree, cols):
        fed.pseudos["sdsc-c0"].mutate(hosts=[1])
        fed.pseudos["attic-c2"].set_host_down(0)
    run_both(tree, cols, 120.0)
    now = tree.engine.now
    compared = 0
    for name in tree.gmetads:
        a_store = tree.gmetad(name).rrd_store
        b_store = cols.gmetad(name).rrd_store
        assert b_store.keys() == a_store.keys(), name
        assert b_store.update_count == a_store.update_count, name
        for key in a_store.keys():
            av, at_, ar = a_store.fetch_series(key, 0.0, now)
            bv, bt, br = b_store.fetch_series(key, 0.0, now)
            assert br == ar, key
            assert np.array_equal(bt, at_), key
            assert np.array_equal(bv, av, equal_nan=True), key
            a_db = a_store.database(key)
            b_db = b_store.database(key)
            assert b_db.updates == a_db.updates, key
            assert b_db.last_update_time == a_db.last_update_time, key
            compared += 1
    assert compared > 100  # the sweep actually covered the federation
