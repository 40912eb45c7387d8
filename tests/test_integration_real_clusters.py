"""End-to-end with real gmond protocol agents (no pseudo-gmond).

A two-level gmetad tree over two genuine multicast clusters: every
datagram is XDR-encoded, every soft-state rule runs, and the root's
summaries must agree with what the agents actually multicast.
"""

import pytest

from repro.core.gmetad import Gmetad
from repro.core.tree import GmetadConfig
from repro.gmond.cluster import SimulatedCluster
from repro.gmond.gmetric import GmetricPublisher
from repro.metrics.types import MetricType
from repro.net.fabric import Fabric
from repro.net.tcp import TcpNetwork
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.wire.parser import parse_document


@pytest.fixture(scope="module")
def world():
    engine = Engine()
    fabric = Fabric()
    tcp = TcpNetwork(engine, fabric)
    rngs = RngRegistry(31)

    meteor = SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="meteor", num_hosts=5
    )
    nashi = SimulatedCluster.build(
        engine, fabric, tcp, rngs, name="nashi", num_hosts=4
    )
    meteor.start()
    nashi.start()

    leaf_config = GmetadConfig(name="site", host="gmeta-site",
                               archive_mode="full")
    leaf_config.add_source("meteor", meteor.gmond_addresses(count=2))
    leaf_config.add_source("nashi", nashi.gmond_addresses(count=2))
    leaf = Gmetad(engine, fabric, tcp, leaf_config)
    leaf.start()

    root_config = GmetadConfig(name="world", host="gmeta-world",
                               archive_mode="full")
    root_config.add_source("site", [leaf.address])
    root = Gmetad(engine, fabric, tcp, root_config)
    root.start()

    engine.run_for(150.0)
    return {
        "engine": engine, "fabric": fabric, "tcp": tcp, "rngs": rngs,
        "meteor": meteor, "nashi": nashi, "leaf": leaf, "root": root,
    }


class TestEndToEnd:
    def test_leaf_sees_both_clusters_full(self, world):
        leaf = world["leaf"]
        assert len(leaf.datastore.find_cluster("meteor").hosts) == 5
        assert len(leaf.datastore.find_cluster("nashi").hosts) == 4

    def test_root_rollup_counts_real_agents(self, world):
        rollup, _ = world["root"].datastore.root_summary()
        assert rollup.hosts_up == 9
        assert rollup.hosts_down == 0

    def test_root_cpu_sum_matches_agent_truth(self, world):
        """cpu_num summed at the root equals the agents' actual values."""
        truth = 0
        for cluster in (world["meteor"], world["nashi"]):
            for agent in cluster.agents:
                truth += int(agent.source.sample("cpu_num", 0.0).value)
        rollup, _ = world["root"].datastore.root_summary()
        assert int(rollup.metrics["cpu_num"].total) == truth

    def test_summary_mean_within_live_value_range(self, world):
        leaf = world["leaf"]
        snapshot = leaf.datastore.source("meteor")
        snapshot.ensure_hosts()
        values = [
            host.metrics["load_one"].numeric()
            for host in snapshot.cluster.hosts.values()
        ]
        mean = snapshot.summary.metrics["load_one"].mean()
        assert min(values) <= mean <= max(values)

    def test_gmetric_value_propagates_to_root_summary(self, world):
        """A user metric published on the multicast channel shows up in
        the root's federation-wide reduction within two poll cycles."""
        engine = world["engine"]
        publisher = GmetricPublisher(
            engine, world["meteor"].channel, "meteor-0-2"
        )
        publisher.publish_every(
            20.0, "queue_depth", lambda now: 7.0, units="jobs"
        )
        engine.run_for(60.0)
        rollup, _ = world["root"].datastore.root_summary()
        assert "queue_depth" in rollup.metrics
        assert rollup.metrics["queue_depth"].total == pytest.approx(7.0)
        assert rollup.metrics["queue_depth"].num == 1

    def test_root_serves_drillable_xml(self, world):
        root = world["root"]
        xml, _ = root.serve_query("/site/meteor")
        doc = parse_document(xml, validate=True)
        nested = doc.grids["site"].clusters["meteor"]
        assert nested.is_summary
        assert nested.summary.hosts_total == 5

    def test_histories_written_for_real_hosts(self, world):
        from repro.rrd.store import MetricKey

        leaf = world["leaf"]
        database = leaf.rrd_store.database(
            MetricKey("meteor", "meteor", "meteor-0-1", "load_one")
        )
        assert database is not None
        assert database.updates >= 5
