"""Storage tier behaviour: routing, failover, anti-entropy, fault events.

The tier's contract has three faces, each pinned here:

- **RrdStore surface** -- scalar and columnar writes land the same
  values a single :class:`~repro.rrd.store.RrdStore` would hold, and
  account mode mirrors the baseline's empty-key-list parity;
- **robustness** -- kills fail fetches over to surviving replicas,
  lost-write and failure counters move, and the anti-entropy sweep
  restores full replication (including re-syncing restarted-but-stale
  nodes) with value-identical archives;
- **fault plumbing** -- ``storage_kill`` / ``storage_restart`` schedule
  events validate, dispatch, and replay deterministically.
"""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.schedules import FaultEvent, FaultSchedule
from repro.net.fabric import Fabric
from repro.rrd.store import MetricKey, RrdStore
from repro.sim.engine import Engine
from repro.storage import (
    StorageTier,
    StorageTierConfig,
    StorageUnavailable,
)


def make_tier(engine, **overrides):
    defaults = dict(
        nodes=4,
        shards=8,
        replication=2,
        repair_interval=0.0,  # sweeps run manually in unit tests
        rebalance_interval=0.0,
        rrd_update_cost=1e-5,
    )
    defaults.update(overrides)
    return StorageTier(engine, StorageTierConfig(**defaults))


def key(host, metric="cpu_user", source="sdsc", cluster="c0"):
    return MetricKey(source, cluster, host, metric)


def write_ramp(store, keys, steps=8, step=15.0, t0=15.0):
    for i in range(steps):
        t = t0 + i * step
        for j, k in enumerate(keys):
            store.update(k, t, float(10 * j + i))


def assert_same_series(a, b):
    """Two ``fetch_series`` results hold the same samples."""
    av, at, ar = a
    bv, bt, br = b
    assert br == ar
    assert np.array_equal(bt, at)
    assert np.array_equal(bv, av, equal_nan=True)


class TestTierSurface:
    def test_scalar_updates_match_single_store(self, engine):
        tier = make_tier(engine)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}") for i in range(12)]
        write_ramp(tier, keys)
        write_ramp(single, keys)
        assert tier.update_count == single.update_count
        assert len(tier) == len(single)
        assert tier.keys() == single.keys()
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, 200.0),
                single.fetch_series(k, 0.0, 200.0),
            )

    def test_column_plan_matches_single_store(self, engine):
        tier = make_tier(engine)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", m) for i in range(6) for m in ("a", "b")]
        tier_plan = tier.column_plan(keys)
        single_plan = single.column_plan(keys)
        for i in range(6):
            values = np.arange(len(keys), dtype=float) + i
            t = 15.0 * (i + 1)
            tier.update_columns(tier_plan, t, values)
            single.update_columns(single_plan, t, values)
        assert tier.update_count == single.update_count
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, 200.0),
                single.fetch_series(k, 0.0, 200.0),
            )

    def test_column_writes_credit_each_group_like_scalar_writes(
        self, engine
    ):
        """The rebalance's update-rate features see one update per key
        whichever write path ran -- a shard's column chunk spans several
        groups, and each group gets its own count."""
        scalar = make_tier(engine, shards=2)
        columnar = make_tier(engine, shards=2)
        keys = [key(f"h{i}", m) for i in range(6) for m in ("a", "b")]
        plan = columnar.column_plan(keys)
        for i in range(3):
            t = 15.0 * (i + 1)
            columnar.update_columns(plan, t, np.arange(len(keys), dtype=float))
            for k in keys:
                scalar.update(k, t, 1.0)
        assert len(plan._chunks) < len({k.host for k in keys})
        assert columnar._collect_features() == scalar._collect_features()

    def test_update_summary_writes_base_and_num(self, engine):
        tier = make_tier(engine)
        tier.update_summary("sdsc", "c0", "load_one", 15.0, 42.0, 7)
        assert tier.update_count == 2
        metrics = {k.metric for k in tier.keys()}
        assert metrics == {"load_one", "load_one.num"}

    def test_replicas_hold_identical_copies(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        fetches = [
            tier.nodes[name].store.fetch_series(k, 0.0, 200.0)
            for name in tier.shard_map.replicas[s]
        ]
        assert len(fetches) == 2
        assert_same_series(fetches[0], fetches[1])

    def test_account_mode_parity(self, engine):
        tier = make_tier(engine)
        account = StorageTier(
            engine,
            StorageTierConfig(nodes=2, shards=4),
            mode="account",
        )
        write_ramp(account, [key("h0"), key("h1")])
        assert account.keys() == []
        assert len(account) == 0
        with pytest.raises(RuntimeError):
            account.database(key("h0"))
        assert account.update_count == 16

    def test_on_update_counts_logical_not_physical(self, engine):
        seen = []
        tier = make_tier(engine)
        tier.on_update = seen.append
        write_ramp(tier, [key("h0")], steps=3)
        # R=2 fan-out must not double the charged work
        assert sum(seen) == 3


class TestFailoverAndRepair:
    def test_fetch_fails_over_to_surviving_replica(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        primary = tier.shard_map.replicas[s][0]
        before = tier.fetch_series(k, 0.0, 200.0)
        tier.kill_node(primary)
        assert_same_series(tier.fetch_series(k, 0.0, 200.0), before)
        assert tier.failover_fetches >= 1
        assert tier.fetch_failures == 0

    def test_unreplicated_fetch_fails_when_node_dies(self, engine):
        tier = make_tier(engine, replication=1)
        k = key("h0")
        write_ramp(tier, [k])
        s = tier._shard_of(k)
        tier.kill_node(tier.shard_map.replicas[s][0])
        with pytest.raises(StorageUnavailable):
            tier.fetch_series(k, 0.0, 200.0)
        assert tier.fetch_failures == 1

    def test_writes_with_no_live_replica_are_lost(self, engine):
        tier = make_tier(engine, nodes=2, replication=2)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        for name in list(tier.nodes):
            tier.kill_node(name)
        tier.update(k, 30.0, 2.0)
        assert tier.updates_lost == 1
        assert tier.update_count == 2  # logical count still moves

    def test_repair_restores_replication_with_identical_data(self, engine):
        tier = make_tier(engine)
        keys = [key(f"h{i}") for i in range(10)]
        write_ramp(tier, keys)
        victim = tier.shard_map.replicas[tier._shard_of(keys[0])][0]
        tier.kill_node(victim)
        assert tier.under_replicated_shards() > 0
        engine.run_for(5.0)
        tier.repair_sweep()
        assert tier.under_replicated_shards() == 0
        assert tier.repairs_completed > 0
        assert tier.repair_times and all(t >= 0 for t in tier.repair_times)
        # the recruited replicas hold byte-identical series
        for k in keys:
            s = tier._shard_of(k)
            fetches = [
                tier.nodes[n].store.fetch_series(k, 0.0, 200.0)
                for n in tier.shard_map.replicas[s]
                if tier.nodes[n].up
            ]
            assert len(fetches) == 2
            assert_same_series(fetches[0], fetches[1])

    def test_restarted_node_is_stale_until_synced(self, engine):
        tier = make_tier(engine)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        s = tier._shard_of(k)
        victim = tier.shard_map.replicas[s][0]
        tier.kill_node(victim)
        tier.update(k, 30.0, 2.0)  # missed by the victim
        tier.restart_node(victim)
        assert victim not in tier._fresh_live(s)
        tier.repair_sweep()
        assert victim in tier.shard_map.replicas[s] or tier.nodes[victim].up
        assert tier.under_replicated_shards() == 0
        # wherever the shard now lives, all fresh replicas agree
        fresh = tier._fresh_live(s)
        assert fresh
        fetches = [
            tier.nodes[n].store.fetch_series(k, 0.0, 100.0) for n in fresh
        ]
        for other in fetches[1:]:
            assert_same_series(fetches[0], other)

    def test_repair_survives_total_shard_loss_until_restart(self, engine):
        tier = make_tier(engine, nodes=2, replication=2)
        k = key("h0")
        tier.update(k, 15.0, 1.0)
        for name in list(tier.nodes):
            tier.kill_node(name)
        assert tier.repair_sweep() == 0  # nothing fresh to copy from
        assert tier.under_replicated_shards() > 0
        for name in list(tier.nodes):
            tier.restart_node(name)
        # restarted nodes still hold their pre-kill state and versions
        tier.repair_sweep()
        assert tier.under_replicated_shards() == 0

    def test_hot_shards_gain_extra_replicas(self, engine):
        tier = make_tier(
            engine,
            replication=1,
            hot_replication=3,
            hot_fraction=0.25,
        )
        keys = [key(f"h{i}") for i in range(16)]
        write_ramp(tier, keys)
        hot = keys[0]
        for _ in range(50):
            tier.database(hot)  # query heat concentrates on one group
        tier.rebalance_sweep()
        hot_shard = tier._shard_of(hot)
        assert tier.shard_map.target(hot_shard) == 3
        tier.repair_sweep()  # recruits the extra replicas
        live = [
            n
            for n in tier.shard_map.replicas[hot_shard]
            if tier.nodes[n].up
        ]
        assert len(live) == 3
        assert tier.under_replicated_shards() == 0

    def test_rebalance_moves_are_bounded(self, engine):
        tier = make_tier(engine, max_group_moves=2)
        keys = [key(f"h{i}", cluster=f"c{i % 4}") for i in range(24)]
        write_ramp(tier, keys, steps=2)
        moved = tier.rebalance_sweep()
        assert moved <= 2
        if moved:
            assert tier.placement_epoch == 1
            # fetches still resolve after migration
            for k in keys:
                tier.fetch_series(k, 0.0, 100.0)

    def test_column_plans_follow_migrations(self, engine):
        tier = make_tier(engine, max_group_moves=64, shards=4)
        single = RrdStore(mode="full")
        keys = [key(f"h{i}", cluster=f"c{i % 3}") for i in range(12)]
        plan = tier.column_plan(keys)
        single_plan = single.column_plan(keys)
        for i in range(4):
            values = np.arange(len(keys), dtype=float) * (i + 1)
            tier.update_columns(plan, 15.0 * (i + 1), values)
            single.update_columns(single_plan, 15.0 * (i + 1), values)
        tier.rebalance_sweep()
        for i in range(4, 8):
            values = np.arange(len(keys), dtype=float) * (i + 1)
            tier.update_columns(plan, 15.0 * (i + 1), values)
            single.update_columns(single_plan, 15.0 * (i + 1), values)
        for k in keys:
            assert_same_series(
                tier.fetch_series(k, 0.0, 200.0),
                single.fetch_series(k, 0.0, 200.0),
            )


class TestObsIntegration:
    def _federation(self, storage):
        from repro.bench.topology import build_paper_tree
        from repro.obs.config import ObservabilityConfig

        federation = build_paper_tree(
            "nlevel",
            hosts_per_cluster=4,
            archive_mode="full",
            observability=ObservabilityConfig(),
            storage_tier=storage,
        )
        federation.start()
        federation.engine.run_for(120.0)
        return federation

    def test_storage_gauges_present_only_with_tier(self):
        storage = StorageTierConfig(nodes=3, shards=8, replication=2)
        with_tier = self._federation(storage)
        try:
            obs = with_tier.gmetad("sdsc").obs
            obs.sync_daemon_gauges()
            names = set(obs.registry.snapshot())
            assert "storage_nodes_up" in names
            assert "storage_under_replicated_shards" in names
            assert "storage_failover_fetches" in names
        finally:
            with_tier.stop()
        baseline = self._federation(None)
        try:
            obs = baseline.gmetad("sdsc").obs
            obs.sync_daemon_gauges()
            names = set(obs.registry.snapshot())
            assert not any(n.startswith("storage_") for n in names)
        finally:
            baseline.stop()

    def test_per_shard_flush_timings_recorded(self, engine):
        from repro.obs.registry import MetricsRegistry

        tier = make_tier(engine)
        registry = MetricsRegistry()
        tier.attach_registry(registry)
        keys = [key(f"h{i}") for i in range(8)]
        plan = tier.column_plan(keys)
        tier.update_columns(plan, 15.0, np.ones(len(keys)))
        names = set(registry.snapshot())
        flush = {n for n in names if n.startswith("storage_flush.s")}
        assert flush  # one histogram per shard the scatter touched


class TestStorageFaultEvents:
    def test_storage_events_require_host(self):
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="storage_kill")
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, action="storage_restart")

    def test_kill_without_registered_tier_raises(self, engine, fabric):
        injector = FaultInjector(engine, fabric)
        injector.kill_storage_node("st00", at=1.0)
        with pytest.raises(KeyError):
            engine.run_for(2.0)

    def test_schedule_kills_and_restarts_node(self, engine, fabric):
        tier = make_tier(engine)
        injector = FaultInjector(engine, fabric)
        injector.register_storage_tier(tier)
        schedule = FaultSchedule(
            [
                FaultEvent(
                    at=10.0, action="storage_kill", host="st01", duration=20.0
                ),
                FaultEvent(at=50.0, action="storage_kill", host="st02"),
                FaultEvent(at=60.0, action="storage_restart", host="st02"),
            ]
        )
        schedule.apply(injector)
        engine.run_for(15.0)
        assert not tier.nodes["st01"].up
        engine.run_for(20.0)
        assert tier.nodes["st01"].up
        engine.run_for(20.0)
        assert not tier.nodes["st02"].up
        engine.run_for(10.0)
        assert tier.nodes["st02"].up
        actions = [(action, host) for _, action, host in injector.log]
        assert actions == [
            ("storage-kill", "st01"),
            ("storage-restart", "st01"),
            ("storage-kill", "st02"),
            ("storage-restart", "st02"),
        ]
        assert schedule.horizon() == 60.0

    def test_storage_schedule_replay_is_deterministic(self):
        schedule = FaultSchedule(
            [
                FaultEvent(
                    at=5.0 * i,
                    action="storage_kill",
                    host=f"st{i % 4:02d}",
                    duration=7.0,
                )
                for i in range(12)
            ]
        )

        def run():
            engine = Engine()
            fabric = Fabric()
            tier = make_tier(engine, repair_interval=15.0)
            tier.start()
            keys = [key(f"h{i}") for i in range(6)]
            engine.every(15.0, lambda: write_ramp(tier, keys, steps=1))
            injector = FaultInjector(engine, fabric)
            injector.register_storage_tier(tier)
            schedule.apply(injector)
            engine.run_for(90.0)
            return injector.log, tier.stats()

        (first_log, first_stats), (second_log, second_stats) = run(), run()
        assert first_log == second_log
        assert len(first_log) > 10  # the schedule actually did things
        assert first_stats == second_stats
