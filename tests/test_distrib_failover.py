"""Kill-the-leader: the failover soak under seeded chaos.

The scenario the distributed directory exists to survive: a leader
shard takes acknowledged writes while a replica tails its shipped
journal segments over a *flaky* ship path, then the leader dies
mid-stream.  The replica promotes by draining the leader's on-disk
journal (acknowledged = fsynced there) — and the pinned invariant is
**zero acknowledged writes lost**: every add the router acked is
present after failover, every time, under every chaos seed.

Also pinned here: the router's degradation ladder while this happens —
failover lists mask a dead leader entirely, a shard with no live
endpoint degrades responses to ``partial`` (never wrong), and aggregate
health grades ``degraded`` instead of lying.
"""

import random

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.distrib import (
    AllShardsUnavailable,
    DirectoryRouter,
    LocalShardClient,
    ReplicaNode,
    ShardNode,
    split_snapshot,
)
from repro.resilience import STATS, FaultPlan, FaultSpec, active_plan
from repro.service.snapshot import build_snapshot

N_POOL = 20
SOAK_SEEDS = range(5)

SHARD_KWARGS = dict(auto_recluster=False, cache_size=0)
# ReplicaNode.bootstrap pins journal/auto_recluster itself.
REPLICA_KWARGS = dict(cache_size=0)


@pytest.fixture(scope="module")
def seed_corpus(small_raw_pages):
    managed = small_raw_pages[:-N_POOL]
    pool = small_raw_pages[-N_POOL:]
    config = CAFCConfig(k=8, min_hub_cardinality=3)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(managed)
    return build_snapshot(result, pipeline.vectorizer, config), pool


def build_cluster(snapshot, tmp_path, tag, seed, segment_records=4):
    """Leader (journaled, segment-rotating) + follower replica + a
    second shard, behind a router with a failover list for shard 0."""
    parts = split_snapshot(snapshot, 2)
    wal = tmp_path / f"leader-{tag}-{seed}.wal"
    leader_node = ShardNode(
        parts[0], journal=wal, segment_records=segment_records,
        **SHARD_KWARGS,
    )
    leader = LocalShardClient(leader_node, name="leader")
    other_node = ShardNode(parts[1], **SHARD_KWARGS)
    other = LocalShardClient(other_node, name="shard-1")
    replica = ReplicaNode(leader, name="replica-0", **REPLICA_KWARGS)
    replica.bootstrap()
    router = DirectoryRouter(
        [[leader, LocalShardClient(replica, name="replica-0")], [other]]
    )
    return router, leader, leader_node, other_node, replica, wal


class TestKillTheLeaderSoak:
    def test_zero_acked_writes_lost_under_chaos(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        for seed in SOAK_SEEDS:
            rng = random.Random(seed)
            router, leader, leader_node, other_node, replica, wal = (
                build_cluster(snapshot, tmp_path, "soak", seed)
            )
            plan = FaultPlan(
                [
                    FaultSpec(
                        "replication.ship", "transient", probability=0.25
                    ),
                    FaultSpec(
                        "router.fanout", "transient", probability=0.05
                    ),
                    FaultSpec(
                        "journal.append", "transient", probability=0.10
                    ),
                ],
                seed=seed,
            )
            acked = {}  # url -> shard that acknowledged the write
            with active_plan(plan):
                for raw in pool:
                    try:
                        reply = router.add(raw)
                        acked[reply["url"]] = reply["shard"]
                    except Exception:
                        # Chaos ate the write before the ack: the client
                        # saw an error, so losing it is *allowed*.
                        pass
                    if rng.random() < 0.5:
                        try:
                            replica.poll()  # flaky ship path: may raise
                        except Exception:
                            pass

            # --- the kill ----------------------------------------------
            promotions_before = STATS.get("promotions")
            applied_at_death = replica.applied
            leader.kill()
            leader_node.close()  # the process is gone; the log survives

            promoted = replica.promote(wal)
            assert replica.promoted
            assert STATS.get("promotions") == promotions_before + 1
            assert replica.applied == promoted.journal.next_record
            # applied includes the epoch marker promotion fsyncs after
            # the drain, which drained_on_promotion does not count.
            assert replica.drained_on_promotion == (
                replica.applied - applied_at_death - 1
            )
            assert promoted.epoch == 1  # promotion bumped the fence

            # --- zero acknowledged writes lost -------------------------
            shard0_urls = set(promoted.directory.organizer._by_url)
            shard1_urls = set(other_node.directory.organizer._by_url)
            for url, shard in acked.items():
                holder = shard0_urls if shard == 0 else shard1_urls
                assert url in holder, (
                    f"seed {seed}: acked write {url} (shard {shard}) "
                    f"lost in failover"
                )

            # --- the promoted node serves and journals new writes ------
            new_router = DirectoryRouter(
                [[LocalShardClient(promoted, name="promoted")],
                 [LocalShardClient(other_node, name="shard-1")]]
            )
            position = promoted.journal.next_record
            probe = pool[0]
            reply = new_router.classify(probe)
            assert reply["partial"] is False
            new_router.remove(probe.url)
            # Removes journal even as no-ops: the log advanced.
            assert promoted.journal.next_record == position + 1

            new_router.close()
            router.close()
            replica.close()
            other_node.close()

    def test_soak_is_deterministic_per_seed(self, seed_corpus, tmp_path):
        """Same seed → same chaos → the same set of acked writes."""
        snapshot, pool = seed_corpus
        outcomes = []
        for run in range(2):
            router, leader, leader_node, other_node, replica, wal = (
                build_cluster(snapshot, tmp_path, f"det{run}", 99)
            )
            plan = FaultPlan(
                [
                    FaultSpec(
                        "router.fanout", "transient", probability=0.15
                    ),
                    FaultSpec(
                        "journal.append", "transient", probability=0.15
                    ),
                ],
                seed=99,
            )
            acked = []
            with active_plan(plan):
                for raw in pool:
                    try:
                        reply = router.add(raw)
                        acked.append((reply["url"], reply["shard"]))
                    except Exception:
                        acked.append(None)
            outcomes.append(acked)
            router.close()
            replica.close()
            leader_node.close()
            other_node.close()
        assert outcomes[0] == outcomes[1]


class TestDegradationLadder:
    def test_failover_masks_then_partial_then_503(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        router, leader, leader_node, other_node, replica, wal = (
            build_cluster(snapshot, tmp_path, "ladder", 0)
        )
        try:
            for raw in pool[:6]:
                router.add(raw)
            replica.catch_up()

            # Rung 1: leader dead, replica caught up → masked entirely.
            leader.kill()
            reply = router.search("cheap flight airline ticket", n=5)
            assert reply["partial"] is False
            assert reply["shards"]["answered"] == [0, 1]
            assert router.healthz()["status"] == "ok"

            # Rung 2: replica dies too → shard 0 gone, answers degrade
            # to partial (flagged, never silently wrong).
            broken = ReplicaNode(leader, name="rebooting")  # never boots
            degraded = DirectoryRouter(
                [[leader, LocalShardClient(broken, name="rebooting")],
                 [LocalShardClient(other_node, name="shard-1")]]
            )
            reply = degraded.search("cheap flight airline ticket", n=5)
            assert reply["partial"] is True
            assert reply["shards"]["answered"] == [1]
            assert "0" in reply["shards"]["failed"]
            health = degraded.healthz()
            assert health["status"] == "degraded"
            # The replica *answers* health while recovering (the leader
            # endpoint is dead, so its record is the one that surfaces).
            assert health["shards"]["0"]["status"] == "recovering"

            # Writes that need shard 0 refuse rather than misroute.
            with pytest.raises(AllShardsUnavailable):
                degraded.add(pool[-1])
            degraded.close()

            # Rung 3: everything dead → AllShardsUnavailable (the HTTP
            # face turns this into 503 + Retry-After).
            dead = DirectoryRouter([[leader]])
            with pytest.raises(AllShardsUnavailable):
                dead.search("anything")
            dead.close()
        finally:
            router.close()
            replica.close()
            leader_node.close()
            other_node.close()

    def test_lagging_replica_grades_recovering(self, seed_corpus, tmp_path):
        """A replica behind by more than ``max_lag_records`` grades
        itself ``recovering`` so routers stop reading from it; catching
        up restores the normal grade."""
        snapshot, pool = seed_corpus
        # No rotation: the whole backlog stays in the active (unsealed)
        # tail, which is exactly the lag a poll cannot apply.
        router, leader, leader_node, other_node, replica, wal = (
            build_cluster(snapshot, tmp_path, "lag", 1, segment_records=100)
        )
        try:
            replica.max_lag_records = 2
            for raw in pool[:8]:
                leader.add(raw)
            report = replica.poll()
            assert report["lag"] == 8
            assert replica.health_state() == "recovering"
            # The leader seals the backlog; the next poll applies it.
            leader_node.journal.roll()
            replica.catch_up()
            assert replica.last_lag == 0
            assert replica.health_state() in ("ok", "degraded")
        finally:
            router.close()
            replica.close()
            leader_node.close()
            other_node.close()


class TestReplicaResync:
    def test_folded_segments_force_rebootstrap(self, seed_corpus, tmp_path):
        """A replica that fell behind a sealed-scope checkpoint cannot
        replay the gap — it must (and does) re-bootstrap."""
        snapshot, pool = seed_corpus
        router, leader, leader_node, other_node, replica, wal = (
            build_cluster(snapshot, tmp_path, "resync", 2)
        )
        try:
            for raw in pool[:10]:
                leader.add(raw)  # 2 sealed segments + active tail
            assert leader_node.journal.n_segments == 2
            # Fold the sealed history while the replica is still at 0.
            leader_node.checkpoint(
                tmp_path / "fold.json.gz", scope="sealed"
            )
            # New writes seal a segment whose base is *past* the
            # replica's applied position — the unreplayable gap.
            for raw in pool[10:14]:
                leader.add(raw)
            assert leader_node.journal.n_segments >= 1
            bootstraps_before = replica.bootstraps
            replica.catch_up()
            assert replica.bootstraps > bootstraps_before
            # After the resync the copy converges with the leader.
            assert sorted(replica.node.directory.organizer._by_url) == (
                sorted(leader_node.directory.organizer._by_url)
            )
        finally:
            router.close()
            replica.close()
            leader_node.close()
            other_node.close()
