"""Read replicas — journal-shipping followers that can take over.

A :class:`ReplicaNode` follows one shard ("the leader") through three
states:

1. **bootstrap** — fetch the leader's ``/replication/snapshot``
   (version-3 snapshot bytes: the state, and in its ``meta`` the
   journal position it includes), materialize a
   :class:`~repro.service.directory.FormDirectory` from it.  The
   replica's directory has **no journal** and **no auto-recluster**:
   every mutation it applies came out of the leader's log, including
   the leader's drift repairs, so re-deciding either locally would
   diverge the copy.
2. **tail** — poll the leader's manifest, fetch sealed segments past
   the applied position, and replay their records through
   :meth:`FormDirectory.apply_replicated` (the same live code paths as
   crash recovery, so the copy is bit-identical, not approximate).
   A replica that falls so far behind that the leader folded the
   segments it needs (``SegmentGone``) re-bootstraps from a fresh
   snapshot instead of replaying a gap.
3. **promote** — on leader death, drain the leader's *on-disk* journal
   from the applied position (acknowledged = fsynced there, so this is
   exactly the set of acked writes the tail hadn't shipped yet), then
   adopt that journal for new writes.  Zero acknowledged writes lost —
   the failover soak in ``tests/test_distrib_failover.py`` asserts it
   under seeded chaos.

Health uses the existing grading: ``recovering`` until bootstrapped
(and again while re-bootstrapping or lagging past ``max_lag_records``),
then the directory's own ok/degraded states.
"""

import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.distrib.client import SegmentGone, ShardUnavailable
from repro.distrib.fence import DEFAULT_LEASE_TTL, LeaseStore
from repro.distrib.shard import DEFAULT_SEGMENT_RECORDS, ShardNode
from repro.resilience.journal import (
    StaleEpochError,
    decode_records,
    open_journal,
)
from repro.resilience.stats import STATS
from repro.service.directory import FormDirectory
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import Snapshot


class _ReBootstrap(Exception):
    """Internal: the tail hit a gap; restart from a fresh snapshot."""


class ReplicaNode:
    """A tailing copy of one shard, promotable to leader.

    Parameters
    ----------
    leader:
        A shard client (:class:`~repro.distrib.client.LocalShardClient`
        or :class:`~repro.distrib.client.HttpShardClient`) for the node
        being followed.
    max_lag_records:
        Above this many unapplied records the replica grades itself
        ``recovering`` (routers stop reading from it until it catches
        up).
    """

    def __init__(
        self,
        leader,
        name: str = "replica",
        max_lag_records: int = DEFAULT_SEGMENT_RECORDS * 4,
        metrics: Optional[MetricsRegistry] = None,
        **directory_kwargs,
    ) -> None:
        self.leader = leader
        self.name = name
        self.max_lag_records = max_lag_records
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._directory_kwargs = directory_kwargs
        self.node: Optional[ShardNode] = None
        self.applied = 0          # global journal position applied through
        self.last_lag = 0         # records behind at the last poll
        self.bootstraps = 0
        self.segments_applied = 0
        self.promoted = False
        self._promote_lock = threading.Lock()
        self._instrument()

    @property
    def directory(self) -> Optional[FormDirectory]:
        return self.node.directory if self.node is not None else None

    @property
    def epoch(self) -> int:
        """Highest fencing epoch this replica has observed (from the
        bootstrap snapshot's meta or applied epoch markers)."""
        directory = self.directory
        return directory.epoch if directory is not None else 0

    def _instrument(self) -> None:
        m = self.metrics
        m.gauge(
            "replication_applied_records",
            "Global journal position this replica has applied through",
            replica=self.name,
        ).set_function(lambda: self.applied)
        m.gauge(
            "replication_lag_records",
            "Records behind the leader at the last poll",
            replica=self.name,
        ).set_function(lambda: self.last_lag)
        m.gauge(
            "replication_bootstraps",
            "Snapshot bootstraps performed (1 + re-bootstraps after gaps)",
            replica=self.name,
        ).set_function(lambda: self.bootstraps)
        m.gauge(
            "promotions_total", "Replica promotions (process-wide)"
        ).set_function(lambda: STATS.get("promotions"))

    # ----------------------------------------------------------------
    # Bootstrap.
    # ----------------------------------------------------------------

    def bootstrap(self) -> int:
        """Materialize (or re-materialize) from the leader's snapshot.
        Returns the journal position the snapshot includes.

        Epoch check first: a snapshot stamped *below* the epoch this
        replica has already observed came from a deposed leader (a
        zombie still answering its bootstrap endpoint) — re-seeding
        from it would silently roll the copy back behind the fence, so
        it is refused with :class:`StaleEpochError` instead.
        """
        data = self.leader.replication_snapshot()
        snapshot = Snapshot.from_bytes(
            data, source=f"{self.name}<-{getattr(self.leader, 'name', '?')}"
        )
        snapshot_epoch = int(snapshot.meta.get("epoch", 0))
        if snapshot_epoch < self.epoch:
            raise StaleEpochError(
                self.epoch, snapshot_epoch,
                "bootstrap snapshot from a deposed leader",
            )
        position = int(snapshot.meta.get("journal_position", 0))
        old = self.node
        directory = FormDirectory.from_snapshot(
            snapshot,
            journal=None,
            auto_recluster=False,
            metrics=self.metrics,
            **self._directory_kwargs,
        )
        if snapshot_epoch:
            # Seed the epoch floor through the public apply path (the
            # same marker a journal bump would have shipped).
            directory.apply_replicated({"op": "epoch", "epoch": snapshot_epoch})
        self.node = ShardNode.from_directory(
            directory, snapshot.meta, name=self.name
        )
        self.applied = position
        self.bootstraps += 1
        if old is not None:
            old.close()
        return position

    # ----------------------------------------------------------------
    # Tailing.
    # ----------------------------------------------------------------

    #: Re-bootstraps one :meth:`poll` may chain before giving up.  A
    #: healthy leader converges in one (gap → snapshot → tail); the
    #: bound keeps a leader that folds segments faster than we can
    #: bootstrap from looping forever.
    MAX_REBOOTSTRAPS = 3

    def poll(self) -> Dict[str, int]:
        """One catch-up round: fetch and apply every sealed segment past
        the applied position.  Returns ``{"applied", "lag", "segments"}``.

        Leader unreachable → :class:`ShardUnavailable` propagates (the
        caller decides whether that means retry or promote).  A leader
        whose manifest carries an epoch *below* what this replica has
        already observed is a zombie — :class:`StaleEpochError`
        propagates and the tail loop should re-resolve its leader.

        Gaps (segments folded away before they shipped, or a log that
        restarted behind us) trigger a re-bootstrap and another
        attempt, bounded by :data:`MAX_REBOOTSTRAPS` — an explicit loop
        rather than recursion, so a pathological leader cannot blow the
        stack or spin unbounded.
        """
        for _ in range(self.MAX_REBOOTSTRAPS + 1):
            if self.node is None:
                self.bootstrap()
            manifest = self.leader.replication_manifest()
            leader_epoch = int(manifest.get("epoch", 0))
            if leader_epoch < self.epoch:
                raise StaleEpochError(
                    self.epoch, leader_epoch,
                    "tailing refused: leader manifest behind this replica",
                )
            try:
                return self._apply_manifest(manifest)
            except _ReBootstrap:
                self.bootstrap()
        raise ShardUnavailable(
            self.name,
            f"tail did not converge after {self.MAX_REBOOTSTRAPS} "
            "re-bootstraps",
        )

    def _apply_manifest(self, manifest: Dict[str, object]) -> Dict[str, int]:
        fetched = 0
        for segment in manifest.get("sealed", []):
            base = int(segment["base_record"])
            end = base + int(segment["records"])
            if end <= self.applied:
                continue
            if base > self.applied:
                # The records between applied and base were folded away
                # before we shipped them — replaying from here would
                # skip mutations.  Start over from a fresh snapshot.
                raise _ReBootstrap()
            try:
                data = self.leader.replication_segment(int(segment["seq"]))
            except SegmentGone:
                raise _ReBootstrap()
            records, _ = decode_records(data)
            for record in records[self.applied - base:]:
                try:
                    self.node.directory.apply_replicated(record)
                except StaleEpochError:
                    # A zombie write that leaked into the shared log
                    # before the fence went up; position still advances
                    # (global record numbering counts it), state skips
                    # it — same rule as journal replay.
                    pass
            self.applied = end
            fetched += 1
            self.segments_applied += 1
        next_record = int(manifest.get("next_record", self.applied))
        if next_record < self.applied:
            # The leader's log restarted behind us (e.g. a full
            # truncate): re-sync from its current snapshot.
            raise _ReBootstrap()
        self.last_lag = next_record - self.applied
        return {
            "applied": self.applied,
            "lag": self.last_lag,
            "segments": fetched,
        }

    def catch_up(self, max_polls: int = 100) -> int:
        """Poll until only the (unsealed) active tail remains or the
        sealed feed stops advancing.  Returns the remaining lag."""
        for _ in range(max_polls):
            report = self.poll()
            if report["segments"] == 0:
                break
        return self.last_lag

    # ----------------------------------------------------------------
    # Promotion.
    # ----------------------------------------------------------------

    def promote(
        self,
        leader_journal: Union[str, Path],
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        lease_store: Union[LeaseStore, str, Path, None] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> ShardNode:
        """Take over from a dead leader.

        ``leader_journal`` is the dead leader's on-disk journal (the
        shared-storage failover model: the log survives the process).
        Opening it runs the normal recovery — sealed segments plus the
        active tail, torn final record truncated — and every record at
        or past the replica's applied position is drained through the
        live apply paths *before* the journal is adopted for new writes
        (adopting first would re-append the drained records).

        An acknowledged write is by definition fsynced into this log,
        so after the drain the promoted node's state contains every
        acknowledged write: none lost.

        Fencing order (PR 10) — after the drain, *before* any new
        write can be acknowledged:

        1. ``bump_epoch()`` — a fsynced epoch marker lands in the
           journal, so the new epoch survives any crash and every
           apply path now drops lower-epoch (zombie) records;
        2. the journal is adopted for new writes;
        3. with a ``lease_store``, the lease is acquired **at the new
           epoch** — which fences the deposed leader's lease whether or
           not its TTL has run out.

        Promotion is exclusive: a second call — concurrent or later —
        fails with ``RuntimeError`` and changes nothing (the chaos
        suite pins this).
        """
        if not self._promote_lock.acquire(blocking=False):
            raise RuntimeError("promotion already in progress")
        try:
            if self.node is None:
                raise RuntimeError("replica must bootstrap before promotion")
            if self.promoted:
                raise RuntimeError("replica already promoted")
            journal = open_journal(
                leader_journal, max_segment_records=segment_records
            )
            drained = 0
            for position, record in enumerate(
                journal.replay(), start=journal.base_record
            ):
                if position >= self.applied:
                    try:
                        self.node.directory.apply_replicated(record)
                    except StaleEpochError:
                        # Zombie bytes in the tail (below an epoch
                        # marker we already applied): counted for
                        # position, never applied.
                        pass
                    else:
                        drained += 1
            new_epoch = journal.bump_epoch()
            # next_record counts the marker just written, so the
            # promoted node's applied position includes it.
            self.applied = journal.next_record
            self.last_lag = 0
            self.node.directory.attach_journal(journal)
            if lease_store is not None:
                if isinstance(lease_store, (str, Path)):
                    lease_store = LeaseStore(lease_store)
                self.node._init_fencing(lease_store, lease_ttl)
                # Higher epoch overrides the dead leader's lease even
                # if its TTL hasn't run out — that IS the fence.
                self.node._lease = lease_store.acquire(
                    self.name, new_epoch, lease_ttl
                )
            # The leader's drift repairs arrived through its log; as
            # leader, this node decides (and journals) its own now.
            self.node.directory.auto_recluster = True
            self.promoted = True
            self.drained_on_promotion = drained
            STATS.inc("promotions")
            return self.node
        finally:
            self._promote_lock.release()

    # ----------------------------------------------------------------
    # Serving (reads while tailing; everything once promoted).
    # ----------------------------------------------------------------

    def _serving_node(self) -> ShardNode:
        if self.node is None:
            raise ShardUnavailable(self.name, "replica not bootstrapped yet")
        return self.node

    def search(self, query: str, n: int = 3):
        return self._serving_node().search(query, n=n)

    def search_pages(self, query: str, n: int = 3):
        return self._serving_node().search_pages(query, n=n)

    def classify(self, raw):
        return self._serving_node().classify(raw)

    def _writable_node(self) -> ShardNode:
        """Writes stay refused until promotion (mutating a tailing copy
        would fork it from the leader); afterwards they serve normally —
        the coordinator repoints routers at this same client object."""
        node = self._serving_node()
        if not self.promoted:
            raise ShardUnavailable(
                self.name, "replica is read-only until promoted"
            )
        return node

    def add(self, raw):
        return self._writable_node().add(raw)

    def remove(self, url: str) -> bool:
        return self._writable_node().remove(url)

    def health_state(self) -> str:
        """``recovering`` until bootstrapped / while lagging past the
        threshold; otherwise the underlying directory's grade."""
        if self.node is None:
            return "recovering"
        if not self.promoted and self.last_lag > self.max_lag_records:
            return "recovering"
        return self.node.directory.health_state()

    def healthz(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "status": self.health_state(),
            "name": self.name,
            "role": "leader" if self.promoted else "replica",
            "applied": self.applied,
            "lag": self.last_lag,
            "bootstraps": self.bootstraps,
            "epoch": self.epoch,
        }
        if self.node is not None:
            record["shard"] = self.node.shard_index
            record["generation"] = self.node.directory.generation
        return record

    def close(self) -> None:
        if self.node is not None:
            self.node.close()

    def __enter__(self) -> "ReplicaNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ReplicaNode"]
