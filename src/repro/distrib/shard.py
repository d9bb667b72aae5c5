"""A shard node — one partition of the directory, replication-ready.

:class:`ShardNode` wraps a :class:`~repro.service.directory.
FormDirectory` built from a *shard snapshot* (one element of
:func:`~repro.distrib.placement.split_snapshot`) and adds the two
things a partition needs that a single-node directory doesn't:

* **global identity** — the shard knows which global cluster ids it
  holds and remaps its local indices on every response, so the router
  can merge hits from different shards without a translation table;
* **a replication feed** — the shard's write-ahead journal rotates into
  sealed segments (:mod:`repro.resilience.journal`), and the node
  serves the manifest / segment bytes / bootstrap snapshot that a
  :class:`~repro.distrib.replica.ReplicaNode` tails.

Durability contract: a write is acknowledged only after the journal
fsync (append-before-apply, inherited from ``FormDirectory``), and the
promotion protocol drains the on-disk journal from the replica's
applied position — which together are what "zero acknowledged writes
lost" means under the chaos plans (tests/test_distrib_failover.py).

Leadership contract (PR 10): when a :class:`~repro.distrib.fence.
LeaseStore` is attached, a write is acknowledged only while the node
holds a live lease at its current epoch.  A node that loses the lease
(paused past the TTL, or fenced by a successor's higher-epoch
acquire) refuses writes with :class:`~repro.resilience.journal.
StaleEpochError` — the HTTP face answers ``409 stale_epoch`` — and
grades itself ``degraded`` until it can re-lease.  Reads keep working
throughout (a stale read is merely stale; a stale *ack* is a lost
write).
"""

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.form_page import RawFormPage
from repro.distrib.fence import DEFAULT_LEASE_TTL, LeaseHeld, LeaseStore
from repro.resilience.faults import FaultError, inject
from repro.resilience.journal import (
    DirectoryJournal,
    StaleEpochError,
    open_journal,
)
from repro.resilience.stats import STATS
from repro.service.directory import FormDirectory
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import Snapshot

#: Default rotation threshold for shard journals: small enough that a
#: replica's catch-up unit stays cheap to ship, large enough that the
#: manifest stays short.  (The single-node ``repro serve`` journal keeps
#: the unsegmented default.)
DEFAULT_SEGMENT_RECORDS = 64


class ShardNode:
    """One partition of the distributed directory.

    Parameters
    ----------
    snapshot:
        A shard snapshot (``meta`` carries shard index / count /
        placement / global cluster ids).  A plain single-node snapshot
        also works — it becomes shard 0 of 1, which is how the bench
        harness compares sharded vs. unsharded answers.
    journal:
        Path or open journal for this shard's WAL.  A plain path is
        opened with segment rotation armed
        (``max_segment_records=segment_records``) — the leader side of
        journal shipping.  ``None`` disables journaling (parity tests).
    lease_store:
        Optional :class:`~repro.distrib.fence.LeaseStore` (or a path to
        the lease file).  When set, every write first proves leadership
        — see the module docstring.  ``None`` keeps PR 7's unfenced
        behavior.
    epoch:
        Optional starting epoch floor for a path-opened journal (e.g.
        ``repro shard --epoch``); the journal's recovered epoch wins if
        higher.
    """

    def __init__(
        self,
        snapshot: Union[Snapshot, str],
        journal: Union[str, Path, DirectoryJournal, None] = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        metrics: Optional[MetricsRegistry] = None,
        name: Optional[str] = None,
        lease_store: Union[LeaseStore, str, Path, None] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        epoch: Optional[int] = None,
        **directory_kwargs,
    ) -> None:
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.load(snapshot)
        meta = snapshot.meta or {}
        self.shard_index = int(meta.get("shard", 0))
        self.n_shards = int(meta.get("n_shards", 1))
        self.placement = str(meta.get("placement", "cluster"))
        self.global_ids: List[int] = [
            int(g)
            for g in meta.get(
                "global_clusters", range(len(snapshot.clusters))
            )
        ]
        self.name = name or f"shard-{self.shard_index}"
        if isinstance(journal, (str, Path)):
            journal = open_journal(
                journal,
                max_segment_records=segment_records,
                epoch=int(epoch or 0),
            )
        self.directory = FormDirectory.from_snapshot(
            snapshot, journal=journal, metrics=metrics, **directory_kwargs
        )
        self._init_fencing(lease_store, lease_ttl)
        self._instrument()

    def _init_fencing(
        self,
        lease_store: Union[LeaseStore, str, Path, None],
        lease_ttl: float,
    ) -> None:
        if isinstance(lease_store, (str, Path)):
            lease_store = LeaseStore(lease_store)
        self.lease_store = lease_store
        self.lease_ttl = float(lease_ttl)
        self.fenced = False
        self._lease = None

    @classmethod
    def from_directory(
        cls,
        directory: FormDirectory,
        meta: Dict[str, object],
        name: Optional[str] = None,
        lease_store: Union[LeaseStore, str, Path, None] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ) -> "ShardNode":
        """Wrap an already-running directory as a shard node — the
        promotion path: a replica's tailed directory takes over serving
        under the dead leader's placement ``meta``."""
        node = cls.__new__(cls)
        node.shard_index = int(meta.get("shard", 0))
        node.n_shards = int(meta.get("n_shards", 1))
        node.placement = str(meta.get("placement", "cluster"))
        node.global_ids = [
            int(g)
            for g in meta.get(
                "global_clusters",
                range(len(directory.organizer.clusters)),
            )
        ]
        node.name = name or f"shard-{node.shard_index}"
        node.directory = directory
        node._init_fencing(lease_store, lease_ttl)
        node._instrument()
        return node

    def _instrument(self) -> None:
        m = self.directory.metrics
        m.gauge(
            "shard_index", "This node's shard number", shard=self.name
        ).set_function(lambda: self.shard_index)
        m.gauge(
            "shard_count", "Shards in the deployment", shard=self.name
        ).set_function(lambda: self.n_shards)
        m.gauge(
            "shard_clusters_held", "Global clusters this shard owns",
            shard=self.name,
        ).set_function(lambda: len(self.global_ids))
        m.gauge(
            "segments_shipped_total",
            "Sealed journal segments served to replicas (process-wide)",
        ).set_function(lambda: STATS.get("segments_shipped"))
        m.gauge(
            "shard_epoch", "Fencing epoch this node serves at",
            shard=self.name,
        ).set_function(lambda: self.epoch)
        m.gauge(
            "shard_fenced", "1 while writes are fenced (stale epoch)",
            shard=self.name,
        ).set_function(lambda: int(self.fenced))
        m.gauge(
            "lease_remaining_seconds",
            "Seconds left on the held leader lease (0 = none held)",
            shard=self.name,
        ).set_function(lambda: max(0.0, self.lease_remaining() or 0.0))
        m.gauge(
            "fencing_rejections_total",
            "Writes refused for a stale epoch / lost lease (process-wide)",
        ).set_function(lambda: STATS.get("fencing_rejections"))

    # ----------------------------------------------------------------
    # Leadership (epoch + lease fencing).
    # ----------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The fencing epoch this node serves at (journal-durable)."""
        return self.directory.epoch

    def lease_remaining(self) -> Optional[float]:
        """Seconds left on the held lease; ``None`` when no store is
        attached (unfenced deployment)."""
        if self.lease_store is None:
            return None
        lease = self._lease
        if lease is None:
            return 0.0
        return max(0.0, lease.remaining(self.lease_store.clock()))

    def _refuse(self, current: int, offered: int, detail: str) -> None:
        self.fenced = True
        STATS.inc("fencing_rejections")
        raise StaleEpochError(current, offered, detail)

    def _ensure_leadership(self) -> None:
        """Prove this node may acknowledge a write *right now*.

        No-op without a lease store.  With one: a held lease past its
        half-life is renewed (so a healthy leader touches the store at
        most every ``ttl/2`` writes' worth of time, not per write); a
        missing or lapsed lease is (re)acquired — a lapsed lease nobody
        claimed is not a fencing event, just a quiet leader.  What *is*
        fencing: the store holds a higher epoch (a successor was
        promoted — this node is a zombie), or another live holder owns
        the lease.  Then the write dies here, **before** the journal
        append, with :class:`StaleEpochError`.
        """
        store = self.lease_store
        if store is None:
            return
        epoch = self.epoch
        lease = self._lease
        now = store.clock()
        if (
            lease is not None
            and lease.holder == self.name
            and lease.epoch == epoch
            and lease.remaining(now) > self.lease_ttl / 2.0
        ):
            return
        try:
            grant = store.renew if lease is not None else store.acquire
            self._lease = grant(self.name, epoch, self.lease_ttl)
            self.fenced = False
            return
        except StaleEpochError as exc:
            self._lease = None
            self._refuse(exc.epoch, epoch, "fenced by a higher-epoch leader")
        except LeaseHeld as exc:
            self._lease = None
            self._refuse(
                max(epoch, exc.epoch), epoch,
                f"lease held by {exc.holder!r}",
            )
        except FaultError:
            # The store round-trip failed (injected or real).  An
            # unexpired grant still covers us — that is what the lease
            # bought; with none, fail the write rather than risk a
            # zombie ack.
            if (
                lease is not None
                and lease.epoch == epoch
                and not lease.expired(store.clock())
            ):
                return
            self._lease = None
            self._refuse(epoch, epoch, "lease store unreachable, lease lapsed")

    # ----------------------------------------------------------------
    # Global-id remapping.
    # ----------------------------------------------------------------

    def to_global(self, local_index: int) -> int:
        return self.global_ids[local_index]

    def _remap(self, hits: List[Dict[str, object]]) -> List[Dict[str, object]]:
        for hit in hits:
            hit["cluster"] = self.to_global(int(hit["cluster"]))
            hit["shard"] = self.shard_index
        return hits

    # ----------------------------------------------------------------
    # Serving — the same operations as FormDirectory, in global ids.
    # ----------------------------------------------------------------

    def search(self, query: str, n: int = 3) -> List[Dict[str, object]]:
        """Cluster-scope hits with **global** cluster ids.

        Within a shard, local index order equals global-id order (the
        split assigns globals ascending), so the remapped run is sorted
        by the router's ``(-score, global id)`` merge key already.
        """
        return self._remap(self.directory.search(query, n=n))

    def search_pages(self, query: str, n: int = 3) -> List[Dict[str, object]]:
        """Page-scope hits (cluster field remapped to global)."""
        return self._remap(self.directory.search_pages(query, n=n))

    def classify(self, raw: RawFormPage) -> Dict[str, object]:
        """Classify against this shard's clusters (global id out).

        The similarity is computed against exactly the centroids the
        single-node directory holds for these clusters (cluster
        placement), so the router picking the max over shards
        reproduces the single-node argmax bit-for-bit.
        """
        outcome = self.directory.classify(raw)
        return {
            "url": outcome.url,
            "cluster": self.to_global(outcome.cluster),
            "similarity": outcome.similarity,
            "top_terms": outcome.top_terms,
            "cached": outcome.cached,
            "shard": self.shard_index,
        }

    def add(self, raw: RawFormPage) -> Dict[str, object]:
        """Insert a page this shard owns.  Returns global assignment.

        The reply names the acknowledging node and its epoch — the
        chaos suite's one-acker-per-epoch invariant is checked off
        exactly these two fields.
        """
        self._ensure_leadership()
        local, size = self.directory.add(raw)
        return {
            "url": raw.url,
            "cluster": self.to_global(local),
            "cluster_size": size,
            "shard": self.shard_index,
            "epoch": self.epoch,
            "served_by": self.name,
        }

    def remove(self, url: str) -> bool:
        self._ensure_leadership()
        return self.directory.remove(url)

    def healthz(self) -> Dict[str, object]:
        """Shard-identified health record (the router aggregates these,
        and leader re-resolution reads ``role`` + ``epoch``)."""
        status = self.directory.health_state()
        if self.fenced and status == "ok":
            status = "degraded"
        record: Dict[str, object] = {
            "status": status,
            "shard": self.shard_index,
            "name": self.name,
            "n_shards": self.n_shards,
            "placement": self.placement,
            "generation": self.directory.generation,
            "pages": len(self.directory.organizer),
            "clusters": len(self.global_ids),
            "epoch": self.epoch,
            "role": "fenced" if self.fenced else "leader",
        }
        remaining = self.lease_remaining()
        if remaining is not None:
            record["lease_remaining"] = round(remaining, 3)
        return record

    # ----------------------------------------------------------------
    # Replication feed (what replicas poll).
    # ----------------------------------------------------------------

    @property
    def journal(self) -> Optional[DirectoryJournal]:
        return self.directory.journal

    def replication_manifest(self) -> Dict[str, object]:
        """Journal shipping state: sealed segments + global positions."""
        journal = self.journal
        if journal is None:
            manifest: Dict[str, object] = {
                "base_record": 0, "next_record": 0,
                "active_records": 0, "sealed": [],
            }
        else:
            manifest = journal.manifest()
        manifest["shard"] = self.shard_index
        manifest["generation"] = self.directory.generation
        return manifest

    def replication_segment(self, seq: int) -> bytes:
        """Raw bytes of one sealed segment.  ``"replication.ship"`` is
        an injection seam — chaos plans simulate a flaky ship path and
        the replica retries on its next poll.  Raises
        :class:`~repro.resilience.journal.JournalError` when the
        segment was folded away (the replica re-bootstraps)."""
        inject("replication.ship")
        journal = self.journal
        if journal is None:
            from repro.resilience.journal import JournalError

            raise JournalError("shard has no journal to ship from")
        data = journal.segment_bytes(seq)
        STATS.inc("segments_shipped")
        return data

    def replication_snapshot(self) -> bytes:
        """Bootstrap bytes: the live state as version-3 snapshot bytes
        (what :meth:`Snapshot.save` writes to a ``.gz`` path) whose
        ``meta`` records this shard's placement and the journal position
        the state includes."""
        snapshot = self.directory.snapshot(
            meta={
                "shard": self.shard_index,
                "n_shards": self.n_shards,
                "placement": self.placement,
                "global_clusters": list(self.global_ids),
            }
        )
        return snapshot.to_bytes()

    # ----------------------------------------------------------------
    # Lifecycle.
    # ----------------------------------------------------------------

    def checkpoint(self, path, scope: str = "sealed") -> Snapshot:
        """Checkpoint this shard.  Defaults to ``scope="sealed"`` — the
        replication-friendly fold that leaves the active tail in place
        (see :meth:`FormDirectory.checkpoint`)."""
        return self.directory.checkpoint(
            path,
            scope=scope,
            meta={
                "shard": self.shard_index,
                "n_shards": self.n_shards,
                "placement": self.placement,
                "global_clusters": list(self.global_ids),
            },
        )

    def close(self) -> None:
        if self.lease_store is not None and self._lease is not None:
            try:
                self.lease_store.release(self.name)
            except Exception:
                pass
            self._lease = None
        self.directory.close()

    def __enter__(self) -> "ShardNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DEFAULT_SEGMENT_RECORDS", "ShardNode"]
