"""Epoch-fenced leadership: the split-brain chaos suite.

The scenario PR 7's runbook could only describe: a leader pauses (GC,
VM migration, a partition), a replica is promoted, and the old leader
*resumes* — a **zombie** that would happily keep acknowledging writes
nobody will ever see again.  The fence has two interlocking halves:

* **epochs** in the journal — promotion fsyncs an epoch marker before
  the new leader acks anything, and every apply path drops records
  stamped below the highest epoch durably seen;
* **leases** in a shared :class:`LeaseStore` — a node must hold a live
  lease *at its epoch* to ack a write, and the promoted node acquires
  at the bumped epoch, fencing the deposed lease TTL-or-not.

Pinned here, across seeded kill / pause-resume schedules
(``make failover-chaos`` runs the full soak):

1. **no acked write is ever lost** — every add the router acked is in
   the surviving node after failover;
2. **no two nodes ack writes in the same epoch** — the reply's
   ``(epoch, served_by)`` pair never shows a second acker;
3. the zombie's first post-resume write dies with
   :class:`StaleEpochError` (→ HTTP ``409 stale_epoch``), never an ack.

Plus the seams the invariants rest on: LeaseStore grant rules, journal
epoch stamping (pre-epoch logs recover bit-identically), the router's
single stale-epoch recovery (re-resolve once, then 503 — never a
loop), concurrent double-promotion, re-bootstrap across a sealed-scope
checkpoint fold, and the deadline budget the scatter-gather hands each
failover attempt.
"""

import json
import os
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.distrib import (
    AllShardsUnavailable,
    DirectoryRouter,
    FailoverCoordinator,
    HttpShardClient,
    LeaseHeld,
    LeaseStore,
    LocalShardClient,
    ReplicaApp,
    ReplicaNode,
    ShardApp,
    ShardNode,
    ShardUnavailable,
    StaleEpochError,
    split_snapshot,
)
from repro.resilience import STATS, FaultPlan, FaultSpec, active_plan
from repro.resilience.journal import (
    DirectoryJournal,
    JournalError,
    open_journal,
    record_epoch,
)
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot

N_POOL = 20
TTL = 10.0

#: Seeded kill/pause schedules the soak runs — >= 25 is the acceptance
#: bar; ``make failover-chaos`` (or the env knob) can push it higher.
FENCE_SEEDS = range(int(os.environ.get("REPRO_FENCING_SEEDS", "25")))

SHARD_KWARGS = dict(auto_recluster=False, cache_size=0)
REPLICA_KWARGS = dict(cache_size=0)
DIRECTORY_KWARGS = dict(
    auto_recluster=False, cache_size=0
)


class FakeClock:
    """Deterministic time for lease schedules (pause = just advance)."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def seed_corpus(small_raw_pages):
    managed = small_raw_pages[:-N_POOL]
    pool = small_raw_pages[-N_POOL:]
    config = CAFCConfig(k=8, min_hub_cardinality=3)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(managed)
    return build_snapshot(result, pipeline.vectorizer, config), pool


def build_fenced_cluster(snapshot, tmp_path, tag, seed, clock, ttl=TTL):
    """Hash-routed 2-shard deployment; shard 0 is fenced (journal +
    lease) with a tailing replica, shard 1 is a plain node."""
    parts = split_snapshot(snapshot, 2, placement="hash")
    wal = tmp_path / f"leader-{tag}-{seed}.wal"
    store = LeaseStore(tmp_path / f"lease-{tag}-{seed}.json", clock=clock)
    leader_node = ShardNode(
        parts[0], journal=wal, segment_records=4,
        lease_store=store, lease_ttl=ttl, **SHARD_KWARGS,
    )
    leader = LocalShardClient(leader_node, name="leader")
    other_node = ShardNode(parts[1], **SHARD_KWARGS)
    other = LocalShardClient(other_node, name="shard-1")
    replica = ReplicaNode(leader, name="replica-0", **REPLICA_KWARGS)
    replica.bootstrap()
    replica_client = LocalShardClient(replica, name="replica-0")
    router = DirectoryRouter(
        [[leader, replica_client], [other]], placement="hash"
    )
    return router, store, leader, leader_node, other_node, replica, \
        replica_client, wal


# ---------------------------------------------------------------------
# The tentpole soak: seeded kill / pause-resume schedules.
# ---------------------------------------------------------------------


class TestFencedFailoverSoak:
    def test_no_acked_write_lost_and_one_acker_per_epoch(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        epoch1_acks = 0
        zombies_pinned = 0
        for seed in FENCE_SEEDS:
            rng = random.Random(seed)
            clock = FakeClock()
            (router, store, leader, leader_node, other_node, replica,
             replica_client, wal) = build_fenced_cluster(
                snapshot, tmp_path, "soak", seed, clock
            )
            plan = FaultPlan(
                [
                    FaultSpec("lease.renew", "transient", probability=0.10),
                    FaultSpec("lease.read", "transient", probability=0.10),
                    FaultSpec(
                        "journal.append", "transient", probability=0.05
                    ),
                    FaultSpec(
                        "replication.ship", "transient", probability=0.15
                    ),
                ],
                seed=seed,
            )
            cut = rng.randrange(6, N_POOL - 5)
            scenario = rng.choice(["kill", "pause"])
            acked = {}  # url -> (shard, epoch, served_by)
            failovers_before = STATS.get("failovers")

            def write(raw):
                clock.advance(rng.uniform(0.2, 1.5))
                try:
                    reply = router.add(raw)
                except Exception:
                    # Chaos ate the write before the ack: the client
                    # saw an error, so losing it is *allowed*.
                    return
                acked[reply["url"]] = (
                    reply["shard"], reply["epoch"], reply["served_by"]
                )

            with active_plan(plan):
                for raw in pool[:cut]:
                    write(raw)
                    if rng.random() < 0.5:
                        try:
                            replica.poll()
                        except Exception:
                            pass

                # --- the event: crash, or pause long enough to fence --
                if scenario == "kill":
                    leader.kill()
                    leader_node.close()
                clock.advance(TTL + 1.0)  # missed renewals: lease lapses

                coordinator = FailoverCoordinator(
                    leader, [replica_client], wal, lease_store=store,
                    router=router, shard_index=0, miss_threshold=2,
                    lease_ttl=TTL,
                )
                event = coordinator.tick()
                for _ in range(6):
                    if event["action"] == "promoted":
                        break
                    clock.advance(1.0)
                    event = coordinator.tick()
                assert event["action"] == "promoted", (seed, event)
                assert event["epoch"] == 1
                assert STATS.get("failovers") == failovers_before + 1

                if scenario == "pause":
                    # The zombie resumes and tries to ack: pinned dead.
                    with pytest.raises(StaleEpochError):
                        leader_node.add(pool[cut])
                    assert leader_node.fenced
                    zombies_pinned += 1

                for raw in pool[cut:]:
                    write(raw)

            # --- invariant 2: one acker per (shard, epoch) -------------
            ackers = {}
            for url, (shard, epoch, served_by) in acked.items():
                ackers.setdefault((shard, epoch), set()).add(served_by)
                if shard == 0 and epoch == 1:
                    epoch1_acks += 1
            for key, names in ackers.items():
                assert len(names) == 1, (
                    f"seed {seed}: split brain — {key} acked by {names}"
                )

            # --- invariant 1: zero acked writes lost -------------------
            shard0_urls = set(replica.node.directory.organizer._by_url)
            shard1_urls = set(other_node.directory.organizer._by_url)
            for url, (shard, epoch, served_by) in acked.items():
                holder = shard0_urls if shard == 0 else shard1_urls
                assert url in holder, (
                    f"seed {seed}: acked write {url} "
                    f"(shard {shard}, epoch {epoch}) lost in failover"
                )

            router.close()
            replica.close()
            other_node.close()
            if scenario == "pause":
                leader_node.close()

        # Across the whole soak both halves of the fence fired.
        assert epoch1_acks > 0
        assert zombies_pinned > 0


class TestZombieLeaderPinned:
    """The named post-mortem scenario, deterministically."""

    def test_paused_leader_resumes_into_the_fence(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        clock = FakeClock()
        (router, store, leader, leader_node, other_node, replica,
         replica_client, wal) = build_fenced_cluster(
            snapshot, tmp_path, "zombie", 0, clock
        )
        try:
            for raw in pool[:6]:
                clock.advance(0.5)
                leader_node.add(raw)  # shard-0 writes: the lease is live
            lease = store.read()
            assert lease is not None and lease.epoch == 0
            assert leader_node.lease_remaining() > 0

            # The pause: the leader stops renewing; its lease lapses.
            clock.advance(TTL + 1.0)
            promoted = replica.promote(wal, lease_store=store)
            assert promoted.epoch == 1
            assert store.read().holder == "replica-0"

            # The resume: the zombie's very first ack attempt dies.
            rejections = STATS.get("fencing_rejections")
            with pytest.raises(StaleEpochError) as info:
                leader_node.add(pool[6])
            assert info.value.epoch == 1 and info.value.offered == 0
            assert STATS.get("fencing_rejections") == rejections + 1
            assert leader_node.fenced
            health = leader_node.healthz()
            assert health["role"] == "fenced"
            assert health["status"] == "degraded"

            # It cannot lease its way back in either.
            with pytest.raises(StaleEpochError):
                store.acquire(leader_node.name, 0, TTL)

            # The router fails over past the zombie to the new leader.
            reply = None
            for raw in pool[6:]:
                reply = router.add(raw)
                if reply["shard"] == 0:
                    break
            assert reply is not None and reply["shard"] == 0
            assert reply["epoch"] == 1
            assert reply["served_by"] == "replica-0"

            # Health-probe re-resolution fronts the promoted node.
            assert router._resolve_leader(0) is True
            assert router.shards[0][0] is replica_client
        finally:
            router.close()
            replica.close()
            leader_node.close()
            other_node.close()


# ---------------------------------------------------------------------
# LeaseStore grant rules (fake clock; no corpus needed).
# ---------------------------------------------------------------------


class TestLeaseStore:
    def test_acquire_read_renew_roundtrip(self, tmp_path):
        clock = FakeClock()
        store = LeaseStore(tmp_path / "a.lease", clock=clock)
        assert store.read() is None
        lease = store.acquire("n1", 1, 10.0)
        assert (lease.holder, lease.epoch) == ("n1", 1)
        assert lease.remaining(clock()) == pytest.approx(10.0)
        clock.advance(4.0)
        renewed = store.renew("n1", 1, 10.0)
        assert renewed.expires_at == pytest.approx(clock() + 10.0)
        assert store.read() == renewed
        assert not renewed.expired(clock())
        clock.advance(10.1)
        assert store.read().expired(clock())

    def test_same_epoch_contention_and_expiry_takeover(self, tmp_path):
        clock = FakeClock()
        store = LeaseStore(tmp_path / "b.lease", clock=clock)
        store.acquire("n1", 1, 10.0)
        with pytest.raises(LeaseHeld) as info:
            store.acquire("n2", 1, 10.0)
        assert info.value.holder == "n1"
        assert info.value.remaining == pytest.approx(10.0)
        clock.advance(10.5)  # expired: anyone may take it
        taken = store.acquire("n2", 1, 10.0)
        assert taken.holder == "n2"

    def test_higher_epoch_fences_a_live_lease(self, tmp_path):
        clock = FakeClock()
        store = LeaseStore(tmp_path / "c.lease", clock=clock)
        store.acquire("old", 1, 60.0)
        # TTL nowhere near expiry — the epoch alone wins.
        promoted = store.acquire("new", 2, 10.0)
        assert promoted.holder == "new"
        with pytest.raises(StaleEpochError) as info:
            store.renew("old", 1, 60.0)
        assert info.value.epoch == 2 and info.value.offered == 1

    def test_torn_file_reads_as_no_lease(self, tmp_path):
        path = tmp_path / "d.lease"
        store = LeaseStore(path, clock=FakeClock())
        path.write_bytes(b"\x00garbage{{{")
        assert store.read() is None
        path.write_text(json.dumps({"kind": "something-else"}), "utf-8")
        assert store.read() is None
        assert store.acquire("n1", 0, 5.0).holder == "n1"

    def test_release_only_by_holder(self, tmp_path):
        store = LeaseStore(tmp_path / "e.lease", clock=FakeClock())
        store.acquire("n1", 0, 5.0)
        assert store.release("n2") is False
        assert store.read() is not None
        assert store.release("n1") is True
        assert store.read() is None

    def test_operations_cross_fault_seams(self, tmp_path):
        from repro.resilience.faults import FaultError

        store = LeaseStore(tmp_path / "f.lease", clock=FakeClock())
        plan = FaultPlan(
            [FaultSpec("lease.acquire", "transient", probability=1.0)],
            seed=0,
        )
        with active_plan(plan):
            with pytest.raises(FaultError):
                store.acquire("n1", 0, 5.0)
        assert store.read() is None  # the faulted grant never landed


# ---------------------------------------------------------------------
# The epoch substrate in the journal and the directory apply paths.
# ---------------------------------------------------------------------


class TestEpochJournal:
    def test_pre_epoch_journal_stays_bit_identical(self, tmp_path):
        path = tmp_path / "v1.wal"
        journal = DirectoryJournal(path)
        for i in range(3):
            journal.append({"op": "noop", "i": i})
        journal.close()
        before = path.read_bytes()
        assert b'"epoch"' not in before  # the v1 byte format, untouched

        recovered = DirectoryJournal(path)
        assert recovered.epoch == 0
        assert recovered.replay() == [
            {"op": "noop", "i": i} for i in range(3)
        ]
        recovered.append({"op": "noop", "i": 3})
        recovered.close()
        after = path.read_bytes()
        assert after[: len(before)] == before
        assert b'"epoch"' not in after  # epoch-0 appends stay unstamped

    def test_bump_stamps_records_and_survives_reopen(self, tmp_path):
        path = tmp_path / "v2.wal"
        journal = DirectoryJournal(path)
        journal.append({"op": "noop", "i": 0})
        assert journal.bump_epoch() == 1
        journal.append({"op": "noop", "i": 1})
        assert journal.manifest()["epoch"] == 1
        records = journal.replay()
        assert record_epoch(records[0]) == 0
        assert records[1] == {"op": "epoch", "epoch": 1}
        assert record_epoch(records[2]) == 1
        with pytest.raises(JournalError):
            journal.bump_epoch(1)  # must increase
        journal.close()
        assert DirectoryJournal(path).epoch == 1

    def test_zombie_bytes_below_the_marker_drop_on_replay(
        self, seed_corpus, tmp_path
    ):
        """A deposed leader's records behind an applied epoch marker
        are counted for position but never applied — on recovery and
        through ``apply_replicated``."""
        snapshot, pool = seed_corpus
        wal = tmp_path / "zombie-bytes.wal"
        directory = FormDirectory.from_snapshot(
            snapshot, journal=open_journal(wal), **DIRECTORY_KWARGS
        )
        directory.add(pool[0])
        url = pool[0].url
        directory.journal.bump_epoch()
        # The zombie's parting shot: an epoch-0 remove of the acked add.
        directory.journal.append({"op": "remove", "url": url, "epoch": 0})
        position = directory.journal.next_record
        directory.close()

        stale_before = STATS.get("stale_records_dropped")
        recovered = FormDirectory.from_snapshot(
            snapshot, journal=open_journal(wal), **DIRECTORY_KWARGS
        )
        try:
            assert url in recovered.organizer._by_url  # remove skipped
            assert recovered.epoch == 1
            assert recovered.n_stale_dropped == 1
            assert STATS.get("stale_records_dropped") == stale_before + 1
            # Positions stayed global: the dropped record still counted.
            assert recovered.journal.next_record == position

            with pytest.raises(StaleEpochError):
                recovered.apply_replicated(
                    {"op": "remove", "url": url, "epoch": 0}
                )
            # Epoch markers themselves always pass (they raise the bar).
            recovered.apply_replicated({"op": "epoch", "epoch": 2})
            assert recovered.epoch == 2
        finally:
            recovered.close()


# ---------------------------------------------------------------------
# Promotion is exclusive (satellite: concurrent double-promote).
# ---------------------------------------------------------------------


class TestPromotionExclusive:
    def test_concurrent_promote_has_exactly_one_winner(
        self, seed_corpus, tmp_path
    ):
        snapshot, pool = seed_corpus
        clock = FakeClock()
        (router, store, leader, leader_node, other_node, replica,
         replica_client, wal) = build_fenced_cluster(
            snapshot, tmp_path, "double", 0, clock
        )
        try:
            for raw in pool[:4]:
                clock.advance(0.5)
                router.add(raw)
            leader.kill()
            leader_node.close()

            barrier = threading.Barrier(2)
            outcomes = [None, None]

            def attempt(slot):
                barrier.wait()
                try:
                    replica.promote(wal, lease_store=store)
                    outcomes[slot] = "ok"
                except RuntimeError as exc:
                    outcomes[slot] = f"err: {exc}"

            threads = [
                threading.Thread(target=attempt, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert sorted(o.split(":")[0] for o in outcomes) == [
                "err", "ok"
            ]
            assert replica.promoted
            assert replica.node.epoch == 1  # bumped exactly once
            assert store.read().epoch == 1

            # A later retry answers cleanly too — and over HTTP that is
            # a structured 409, not corruption.
            with pytest.raises(RuntimeError, match="already promoted"):
                replica.promote(wal, lease_store=store)
            app = ReplicaApp(replica)
            body = json.dumps({"leader_journal": str(wal)}).encode()
            response = app.handle("POST", "/promote", lambda: body)
            assert response.status == 409
            payload = json.loads(response.body)
            assert payload["error"]["code"] == "already_promoted"
        finally:
            router.close()
            replica.close()
            other_node.close()


# ---------------------------------------------------------------------
# Router: one stale-epoch recovery, then a structured 503 — no loop.
# ---------------------------------------------------------------------


class _FencedEndpoint:
    """A write endpoint stuck answering 'I am fenced'."""

    def __init__(self, name, epoch=2):
        self.name = name
        self.epoch = epoch
        self.remove_calls = 0
        self.healthz_calls = 0

    def remove(self, url):
        self.remove_calls += 1
        raise StaleEpochError(self.epoch, 0)

    def healthz(self):
        self.healthz_calls += 1
        return {"role": "fenced", "epoch": self.epoch, "status": "degraded"}


class _PromotableEndpoint(_FencedEndpoint):
    """Fenced until a health probe observes its promotion landing."""

    def __init__(self, name, epoch=2):
        super().__init__(name, epoch)
        self.leader = False

    def remove(self, url):
        self.remove_calls += 1
        if self.leader:
            return True
        raise StaleEpochError(self.epoch, 0)

    def healthz(self):
        self.healthz_calls += 1
        self.leader = True  # promotion completes between sweeps
        return {
            "role": "leader", "epoch": self.epoch, "status": "ok",
        }


class TestRouterStaleEpochRecovery:
    def test_all_stale_reresolves_once_then_503(self):
        first = _FencedEndpoint("a")
        second = _FencedEndpoint("b")
        router = DirectoryRouter([[first, second]], placement="hash")
        try:
            with pytest.raises(AllShardsUnavailable) as info:
                router.remove("http://x.example/q")
            # One sweep + exactly one re-resolved retry — never a loop.
            assert first.remove_calls == 2 and second.remove_calls == 2
            assert first.healthz_calls == 1 and second.healthz_calls == 1
            assert "stale epoch everywhere" in str(info.value)
            assert router._m_reresolves.value == 1
        finally:
            router.close()

    def test_reresolve_finds_the_promoted_leader(self):
        zombie = _FencedEndpoint("zombie")
        promoted = _PromotableEndpoint("promoted")
        router = DirectoryRouter([[zombie, promoted]], placement="hash")
        try:
            reply = router.remove("http://x.example/q")
            assert reply["removed"] is True
            # First sweep fenced on both; the probe found the new
            # leader, fronted it, and the single retry settled.
            assert zombie.remove_calls == 1
            assert promoted.remove_calls == 2
            assert router.shards[0][0] is promoted
        finally:
            router.close()


# ---------------------------------------------------------------------
# Re-bootstrap re-verifies the manifest epoch (satellite regression).
# ---------------------------------------------------------------------


class TestRebootstrapAcrossFold:
    def test_sealed_fold_racing_writes_converges_at_epoch(
        self, seed_corpus, tmp_path
    ):
        """A replica behind a ``checkpoint(scope="sealed")`` fold must
        re-bootstrap — while the leader keeps writing — and land on the
        leader's epoch, not silently behind it."""
        snapshot, pool = seed_corpus
        parts = split_snapshot(snapshot, 2, placement="hash")
        wal = tmp_path / "fold.wal"
        # The leader already survived one failover: epoch 1 from birth.
        leader_node = ShardNode(
            parts[0], journal=wal, segment_records=4, epoch=1,
            **SHARD_KWARGS,
        )
        leader = LocalShardClient(leader_node, name="leader")
        replica = ReplicaNode(leader, name="replica-f", **REPLICA_KWARGS)
        replica.bootstrap()
        assert replica.epoch == 1  # the snapshot meta carried the epoch
        try:
            for raw in pool[:10]:
                leader_node.directory.add(raw)
            assert leader_node.journal.n_segments >= 2
            # Fold the sealed history while the replica is still at 0,
            # racing new writes in before the replica's next poll.
            leader_node.checkpoint(tmp_path / "fold.json.gz", scope="sealed")
            for raw in pool[10:14]:
                leader_node.directory.add(raw)
            bootstraps_before = replica.bootstraps
            replica.catch_up()
            assert replica.bootstraps > bootstraps_before
            assert replica.epoch == 1
            assert sorted(replica.node.directory.organizer._by_url) == (
                sorted(leader_node.directory.organizer._by_url)
            )

            # The inverse race: a zombie (epoch 0) serving the
            # bootstrap/tail endpoints is refused, not re-seeded from.
            stale_node = ShardNode(parts[0], **SHARD_KWARGS)
            stale_client = LocalShardClient(stale_node, name="stale")
            replica.leader = stale_client
            with pytest.raises(StaleEpochError):
                replica.poll()
            with pytest.raises(StaleEpochError):
                replica.bootstrap()
            stale_node.close()
        finally:
            replica.close()
            leader_node.close()


# ---------------------------------------------------------------------
# Deadline budget: remaining time, not a fresh constant, per attempt.
# ---------------------------------------------------------------------


class _BudgetRecorder:
    def __init__(self, name, fail=False):
        self.name = name
        self.fail = fail
        self.budgets = []

    @contextmanager
    def deadline(self, seconds):
        self.budgets.append(seconds)
        yield

    def ping(self):
        if self.fail:
            raise ShardUnavailable(self.name, "injected endpoint failure")
        return "pong"


class TestDeadlineBudget:
    def test_failover_attempts_share_one_budget(self):
        first = _BudgetRecorder("first", fail=True)
        second = _BudgetRecorder("second")
        router = DirectoryRouter([[first, second]], placement="hash")
        try:
            deadline = time.monotonic() + 5.0
            result = router._call_shard(0, lambda c: c.ping(), deadline)
            assert result == "pong"
            assert len(first.budgets) == 1 and len(second.budgets) == 1
            assert first.budgets[0] <= 5.0
            # The second endpoint got what the first one left, not a
            # fresh five seconds.
            assert second.budgets[0] <= first.budgets[0]
        finally:
            router.close()

    def test_exhausted_budget_stops_the_walk(self):
        endpoint = _BudgetRecorder("late")
        router = DirectoryRouter([[endpoint]], placement="hash")
        try:
            with pytest.raises(ShardUnavailable) as info:
                router._call_shard(
                    0, lambda c: c.ping(), time.monotonic() - 0.01
                )
            assert "deadline budget exhausted" in info.value.reason
            assert endpoint.budgets == []  # never even attempted
        finally:
            router.close()

    def test_http_client_budget_is_thread_local_and_restored(self):
        client = HttpShardClient("http://127.0.0.1:9", timeout=7.0)
        assert client.effective_timeout == 7.0
        with client.deadline(1.5):
            assert client.effective_timeout == 1.5
            with client.deadline(0.25):
                assert client.effective_timeout == 0.25
            assert client.effective_timeout == 1.5
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(client.effective_timeout)
            )
            thread.start()
            thread.join()
            assert seen == [7.0]  # other threads keep the base timeout
        assert client.effective_timeout == 7.0
        with client.deadline(-3.0):
            assert client.effective_timeout == 0.001  # floored, not bogus


# ---------------------------------------------------------------------
# The HTTP wire format: 409 stale_epoch, end to end through the app.
# ---------------------------------------------------------------------


class TestStaleEpochOnTheWire:
    def test_shard_app_maps_fencing_to_409(self, seed_corpus, tmp_path):
        snapshot, pool = seed_corpus
        clock = FakeClock()
        store = LeaseStore(tmp_path / "wire.lease", clock=clock)
        store.acquire("successor", 5, 60.0)  # someone else leads
        node = ShardNode(
            snapshot, lease_store=store, lease_ttl=TTL, **SHARD_KWARGS
        )
        app = ShardApp(node)
        try:
            body = json.dumps(
                {"url": pool[0].url, "html": pool[0].html}
            ).encode()
            response = app.handle("POST", "/add", lambda: body)
            assert response.status == 409
            error = json.loads(response.body)["error"]
            assert error["code"] == "stale_epoch"
            assert error["epoch"] == 5 and error["offered"] == 0

            # The HTTP client decodes those same bytes back into the
            # exception the in-process transport raises.
            client = HttpShardClient("http://127.0.0.1:9")
            with pytest.raises(StaleEpochError) as info:
                client._interpret("/add", 409, response.body, False, False)
            assert info.value.epoch == 5 and info.value.offered == 0

            # And health exposes the fenced role for re-resolution.
            health = app.handle("GET", "/healthz", None)
            payload = json.loads(health.body)
            assert payload["role"] == "fenced"
            assert payload["status"] == "degraded"
            assert payload["epoch"] == 0
            assert payload["lease_remaining"] == 0.0
        finally:
            node.close()


# ---------------------------------------------------------------------
# FailoverCoordinator: deterministic ticks over stub clients.
# ---------------------------------------------------------------------


class _StubReplicaClient:
    def __init__(self, name, epoch=0, applied=0, reachable=True):
        self.name = name
        self.epoch = epoch
        self.applied = applied
        self.reachable = reachable
        self.promoted_with = None

    def healthz(self):
        if not self.reachable:
            raise ShardUnavailable(self.name, "unreachable")
        return {
            "role": "replica", "status": "ok",
            "epoch": self.epoch, "applied": self.applied,
        }

    def promote(self, leader_journal, **kwargs):
        self.promoted_with = (leader_journal, kwargs)
        return {
            "ok": True, "name": self.name,
            "epoch": self.epoch + 1, "applied": self.applied,
        }


class _StubLeaderClient:
    def __init__(self):
        self.alive = True

    def healthz(self):
        if not self.alive:
            raise ShardUnavailable("leader", "dead")
        return {"role": "leader", "status": "ok"}


class _RouterRecorder:
    def __init__(self):
        self.calls = []

    def set_endpoints(self, index, endpoints):
        self.calls.append((index, list(endpoints)))


class TestFailoverCoordinator:
    def test_constructor_validates(self, tmp_path):
        with pytest.raises(ValueError):
            FailoverCoordinator(_StubLeaderClient(), [], tmp_path / "j.wal")
        with pytest.raises(ValueError):
            FailoverCoordinator(
                _StubLeaderClient(), [_StubReplicaClient("r")],
                tmp_path / "j.wal", miss_threshold=0,
            )

    def test_miss_threshold_absorbs_blips_then_promotes(self, tmp_path):
        clock = FakeClock()
        store = LeaseStore(tmp_path / "co.lease", clock=clock)
        store.acquire("leader", 0, 10.0)
        lagging = _StubReplicaClient("lagging", epoch=0, applied=5)
        caught_up = _StubReplicaClient("caught-up", epoch=1, applied=3)
        offline = _StubReplicaClient("offline", reachable=False)
        router = _RouterRecorder()
        coordinator = FailoverCoordinator(
            _StubLeaderClient(), [lagging, caught_up, offline],
            tmp_path / "leader.wal", lease_store=store, router=router,
            shard_index=0, miss_threshold=2, lease_ttl=10.0,
        )
        failovers_before = STATS.get("failovers")

        assert coordinator.tick()["action"] == "alive"
        clock.advance(11.0)  # lease lapses
        assert coordinator.tick()["action"] == "suspect"
        store.renew("leader", 0, 10.0)  # a blip: the leader came back
        assert coordinator.tick()["action"] == "alive"
        assert coordinator.misses == 0

        clock.advance(11.0)
        assert coordinator.tick()["action"] == "suspect"
        event = coordinator.tick()
        assert event["action"] == "promoted"
        # Highest (epoch, applied) wins — epoch beats raw position.
        assert event["winner"] == "caught-up"
        assert event["epoch"] == 2
        assert event["misses"] == 2
        assert event["detect_seconds"] >= 0.0
        journal, kwargs = caught_up.promoted_with
        assert journal.endswith("leader.wal")
        assert kwargs["lease_store"] is store
        assert kwargs["lease_ttl"] == 10.0
        assert lagging.promoted_with is None
        # The router now serves the promoted node first.
        assert router.calls == [(0, [caught_up, lagging, offline])]
        assert STATS.get("failovers") == failovers_before + 1
        assert coordinator.tick()["action"] == "done"

    def test_no_candidate_keeps_watching(self, tmp_path):
        clock = FakeClock()
        store = LeaseStore(tmp_path / "nc.lease", clock=clock)
        replica = _StubReplicaClient("r", reachable=False)
        coordinator = FailoverCoordinator(
            _StubLeaderClient(), [replica], tmp_path / "leader.wal",
            lease_store=store, miss_threshold=1,
        )
        assert coordinator.tick()["action"] == "no_candidate"
        assert not coordinator.completed
        replica.reachable = True
        assert coordinator.tick()["action"] == "promoted"

    def test_storeless_detection_probes_health(self, tmp_path):
        leader = _StubLeaderClient()
        replica = _StubReplicaClient("r")
        coordinator = FailoverCoordinator(
            leader, [replica], tmp_path / "leader.wal", miss_threshold=2,
        )
        assert coordinator.tick()["action"] == "alive"
        leader.alive = False
        assert coordinator.tick()["action"] == "suspect"
        assert coordinator.tick()["action"] == "promoted"
        assert replica.promoted_with == (str(tmp_path / "leader.wal"), {})
