"""The thread-safe form directory — the serving façade.

:class:`FormDirectory` wraps an
:class:`~repro.core.incremental.IncrementalOrganizer` for concurrent
use:

* a **readers-writer lock** lets any number of classify/search requests
  score in parallel while add/remove/recluster take exclusive access;
* **one read path per request**: classify scores inline under one read
  lock with Section 5's argmax of Equation 3 over the k centroids (the
  same scalar scan :meth:`~FormDirectory.add` assigns by, so the two
  agree to the last bit), and search ranks through the
  :class:`~repro.index.directory_index.DirectoryIndex` posting lists;
* an **LRU result cache** keyed by content hash short-circuits repeat
  classifications of the same page; entries are validated against a
  directory *generation* that every mutation bumps, so a cache hit can
  never serve a pre-mutation assignment;
* **drift-triggered re-clustering**: when the organizer's running
  cohesion falls below its drift threshold, a background thread runs
  :meth:`~repro.core.incremental.IncrementalOrganizer.recluster` under
  the write lock (classification never blocks on the decision, only —
  briefly — on the repair itself).

Vectorization (HTML parsing + Equation 1) happens *outside* every lock:
it touches only the frozen corpus statistics, so requests pay the
parsing cost in parallel and the locks protect just the cluster state.

The resilience layer (docs/RESILIENCE.md) threads through here too:

* an optional **write-ahead journal** records every add/remove/recluster
  (fsynced, before the mutation) so ``snapshot + journal`` replays a
  killed directory back to bit-identical state; :meth:`checkpoint` folds
  the log into a fresh snapshot and truncates it;
* the drift-repair thread runs under a
  :class:`~repro.resilience.supervisor.SupervisedWorker` — a crash is
  logged, counted (``worker_restarts_total``) and restarted with
  backoff instead of silently killing the feature;
* request vectorization is an injection seam (``"directory.vectorize"``)
  guarded by the config's retry policy and a directory-owned circuit
  breaker;
* :meth:`health_state` grades the directory ``ok`` / ``degraded`` /
  ``recovering`` for ``/healthz`` without touching the read lock.
"""

import hashlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.form_page import FormPage, RawFormPage
from repro.core.incremental import IncrementalOrganizer
from repro.core.pipeline import _label_terms
from repro.index.directory_index import DirectoryIndex
from repro.resilience.faults import inject
from repro.resilience.journal import (
    DirectoryJournal,
    JournalError,
    StaleEpochError,
    open_journal,
    record_epoch,
)
from repro.resilience.retry import CIRCUIT_OPEN
from repro.resilience.stats import STATS
from repro.resilience.supervisor import SupervisedWorker
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import Snapshot, _page_from_json, _page_to_json
from repro.text.analyzer import TextAnalyzer
from repro.vsm.vector import KeywordQuery, SparseVector


class RWLock:
    """A writer-preferring readers-writer lock.

    Many readers may hold the lock at once; a writer waits for them to
    drain and blocks new readers while waiting, so a steady classify
    stream cannot starve adds.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ClassifyOutcome:
    """One served classification."""

    url: str
    cluster: int
    similarity: float
    top_terms: List[str]
    cached: bool = False


def content_hash(raw: RawFormPage) -> str:
    """A stable digest of everything classification depends on."""
    hasher = hashlib.sha256()
    for part in (
        raw.url,
        raw.html,
        "\x00".join(sorted(raw.backlinks)),
        "\x00".join(raw.anchor_texts),
    ):
        hasher.update(part.encode("utf-8", "replace"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


class FormDirectory:
    """A concurrent, observable form-directory over an organizer.

    Parameters
    ----------
    organizer:
        The maintained clustering (typically from
        :meth:`~repro.service.snapshot.Snapshot.to_organizer`).
    cache_size:
        LRU capacity of the classify result cache (0 disables).
    auto_recluster:
        Repair drift in a background thread when the organizer reports
        ``needs_reclustering``.
    metrics:
        A :class:`~repro.service.metrics.MetricsRegistry` to instrument
        into (one is created when omitted).
    journal:
        Write-ahead journal for crash safety: a path, an open
        :class:`~repro.resilience.journal.DirectoryJournal`, or ``None``
        (no journaling).  Existing records are replayed *before* the
        directory serves — restarting from ``snapshot + journal``
        reproduces the killed directory bit-identically (assignments,
        generation, classify outputs).
    """

    def __init__(
        self,
        organizer: IncrementalOrganizer,
        cache_size: int = 1024,
        auto_recluster: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        journal: Union[str, DirectoryJournal, None] = None,
    ) -> None:
        # Lifecycle state first, before anything that can raise:
        # ``close()`` must be safe on a partially constructed directory.
        self._closed = False
        self._journal: Optional[DirectoryJournal] = None
        self._replaying = False
        self._recluster_lock = threading.Lock()
        self._recluster_running = False
        self.n_reclusters = 0
        self.n_replayed = 0

        self.organizer = organizer
        self.vectorizer = organizer.vectorizer
        # Weighting-scheme label for metrics/healthz: which formula the
        # served vectors (and every query-time transform) were built with.
        self.scheme_name = getattr(self.vectorizer.scheme, "name", "eq1")
        self.cache_size = max(0, int(cache_size))
        self.auto_recluster = auto_recluster
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.started_unix = time.time()

        resilience = organizer.config.resilience
        self._retry_policy = resilience.policy()
        self._breaker = resilience.breaker()

        self._rw = RWLock()
        self._generation = 0
        self._analyzer = TextAnalyzer()
        self._index = DirectoryIndex(_label_terms)
        self._index.rebuild(organizer, self._generation)

        # key -> (generation, cluster, similarity, labels tuple)
        self._cache: "OrderedDict[str, Tuple[int, int, float, tuple]]" = (
            OrderedDict()
        )
        self._cache_lock = threading.Lock()

        # Fencing epoch for unjournaled directories (tailing replicas):
        # tracks the highest epoch seen in replicated records.  With a
        # journal attached the journal's own epoch is authoritative —
        # see the ``epoch`` property.
        self._epoch = 0
        self.n_stale_dropped = 0

        self._journal = open_journal(journal)
        if self._journal is not None:
            self._replay_journal()

        self._instrument()

    # ----------------------------------------------------------------
    # Construction helpers.
    # ----------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        snapshot: Union[Snapshot, str],
        drift_threshold: float = 0.7,
        **kwargs,
    ) -> "FormDirectory":
        """Cold-start a directory from a snapshot (object or path)."""
        if not isinstance(snapshot, Snapshot):
            snapshot = Snapshot.load(snapshot)
        organizer = snapshot.to_organizer(drift_threshold=drift_threshold)
        return cls(organizer, **kwargs)

    # ----------------------------------------------------------------
    # Write-ahead journal: append-before-apply, replay on start.
    # ----------------------------------------------------------------

    def _write(
        self, record: Dict[str, object], page: Optional[FormPage] = None
    ):
        """Live writes: durably log ``record``, *then* apply it, both
        under the write lock (which keeps log order = apply order).  A
        failed append aborts the mutation — the client sees the error,
        the state stays consistent, and recovery drops any torn bytes.
        """
        with self._rw.write_locked():
            if self._journal is not None:
                self._journal.append(record)
            return self._apply(record, page)

    def _apply_journal_record(self, record: Dict[str, object]) -> None:
        """Replay and replication: apply a logged record, journaling
        nothing and scheduling no drift repair — every repair that ran
        was itself journaled as a ``recluster`` record, so replay
        reproduces the original interleaving instead of re-deciding it.
        """
        with self._rw.write_locked():
            self._apply(record)

    def _apply(
        self, record: Dict[str, object], page: Optional[FormPage] = None
    ):
        """Apply one mutation record to the organizer and the index
        (caller holds the write lock).  ``page`` is a live add's
        vectorized page; replay decodes it from the record.  Returns
        ``(cluster, size)`` for ``add``, whether the URL was managed for
        ``remove`` and the pages moved for ``recluster``."""
        op = record.get("op")
        if op == "add":
            if page is None:
                page = _page_from_json(record["page"])
            index = self.organizer.add_vectorized(page)
            self._generation += 1
            self._index.page_upsert(page)
            self._index.sync_clusters(self.organizer, self._generation)
            return index, self.organizer.clusters[index].size
        if op == "remove":
            url = str(record.get("url", ""))
            removed = self.organizer.remove(url)
            if removed:
                self._generation += 1
                self._index.page_remove(url)
                self._index.sync_clusters(self.organizer, self._generation)
            return removed
        if op == "recluster":
            moved = self.organizer.recluster()
            self._generation += 1
            # Page vectors survive re-clustering (only membership moved,
            # and that is looked up live); centroid rows are re-derived.
            self._index.sync_clusters(self.organizer, self._generation)
            self.n_reclusters += 1
            return moved
        if op == "epoch":
            # A fencing marker (journal.bump_epoch): no directory state
            # changes, but the epoch floor rises — every later record
            # must carry at least this epoch.
            self._epoch = max(self._epoch, record_epoch(record))
            return None
        raise JournalError(f"unknown journal op {op!r}")

    def _replay_journal(self) -> None:
        """Roll the organizer forward through every intact record.

        Epoch fencing at replay: a running epoch floor rises with each
        ``epoch`` marker, and any record stamped *below* the floor is a
        zombie write — bytes a deposed leader appended after the
        promoted successor's marker — and is dropped, not applied.
        (``journal.replay()`` still returns those records so global
        positions stay stable; the filter lives here, at apply time.)
        """
        records = self._journal.replay()
        if not records:
            return
        self._replaying = True
        floor = 0
        try:
            for record in records:
                epoch = record_epoch(record)
                if record.get("op") == "epoch":
                    floor = max(floor, epoch)
                elif epoch < floor:
                    self.n_stale_dropped += 1
                    STATS.inc("stale_records_dropped")
                    continue
                self._apply_journal_record(record)
            self.n_replayed = len(records)
            STATS.inc("journal_replays")
        finally:
            self._replaying = False

    def apply_replicated(self, record: Dict[str, object]) -> None:
        """Apply one mutation record shipped from a leader's journal.

        The replication path (:mod:`repro.distrib.replica`): records go
        through the same live code paths as journal replay, and — like
        replay — are never re-journaled here (a tailing replica has no
        journal of its own; it adopts the leader's via
        :meth:`attach_journal` only at promotion, *after* draining).
        Raises :class:`~repro.resilience.journal.JournalError` on an
        unknown op and :class:`~repro.resilience.journal.
        StaleEpochError` when the record's epoch is below this
        directory's — a replica that has seen epoch *N* refuses every
        record a deposed epoch-``<N`` leader ships.
        """
        epoch = record_epoch(record)
        current = self.epoch
        if record.get("op") != "epoch" and epoch < current:
            STATS.inc("stale_records_dropped")
            raise StaleEpochError(
                current, epoch, f"replicated {record.get('op')!r} refused"
            )
        self._apply_journal_record(record)
        if epoch > self._epoch:
            self._epoch = epoch

    def attach_journal(
        self, journal: Union[str, DirectoryJournal]
    ) -> DirectoryJournal:
        """Adopt a journal for subsequent writes (replica promotion).

        The journal's existing records must already be applied — the
        promoting replica drains them with :meth:`apply_replicated`
        first; attaching does **not** replay (replaying here would
        double-apply what the tail already delivered).
        """
        with self._rw.write_locked():
            if self._journal is not None:
                raise RuntimeError(
                    "directory already has a write-ahead journal"
                )
            self._journal = open_journal(journal)
            # Reconcile the fencing epoch: neither side may regress.
            # (Promotion bumps the journal first, so normally the
            # journal's epoch is the higher one.)
            if self._journal.epoch < self._epoch:
                self._journal.epoch = self._epoch
            self._epoch = self._journal.epoch
        return self._journal

    @property
    def journal(self) -> Optional[DirectoryJournal]:
        """The attached write-ahead journal (``None`` when unjournaled
        — e.g. a tailing replica)."""
        return self._journal

    @property
    def epoch(self) -> int:
        """The fencing epoch this directory serves at.  Journaled
        directories read the journal's durable epoch; unjournaled ones
        (tailing replicas) track the highest epoch applied from the
        replication stream."""
        if self._journal is not None:
            return max(self._journal.epoch, self._epoch)
        return self._epoch

    def _snapshot_locked(
        self, algorithm: str, meta: Optional[Dict[str, object]]
    ) -> Snapshot:
        """The live state as a snapshot whose meta records
        ``journal_position`` (the global record position the state
        includes) and ``epoch``.  Caller holds the write lock, so the
        state and the position agree."""
        snapshot_meta = dict(meta) if meta else {}
        if self._journal is not None:
            snapshot_meta.setdefault(
                "journal_position", self._journal.next_record
            )
        snapshot_meta.setdefault("epoch", self.epoch)
        return Snapshot.from_organizer(
            self.organizer, algorithm=algorithm, meta=snapshot_meta
        )

    def snapshot(
        self,
        algorithm: str = "incremental",
        meta: Optional[Dict[str, object]] = None,
    ) -> Snapshot:
        """Snapshot the live state in memory (no file, journal intact).

        The ``/replication/snapshot`` bootstrap payload: a replica
        materializing it resumes tailing from exactly its
        ``journal_position``.
        """
        with self._rw.write_locked():
            return self._snapshot_locked(algorithm, meta)

    def checkpoint(
        self,
        path,
        algorithm: str = "incremental",
        scope: str = "all",
        meta: Optional[Dict[str, object]] = None,
    ) -> Snapshot:
        """Fold the journal into a durable snapshot.

        Under the write lock (so no mutation lands between the two
        steps): snapshot the live organizer, write it via the fsynced
        atomic writer, *then* shrink the journal.  A crash before the
        save keeps the old snapshot + full journal (the bit-identical
        recovery pair); a crash between save and shrink replays
        mutations the snapshot already contains, which re-inserts the
        same pages and no-ops the removes — a consistent directory over
        exactly the same page set.

        ``scope`` picks what gets folded away:

        * ``"all"`` (default) — truncate the whole journal, sealed
          segments and active tail alike (the single-node behavior).
        * ``"sealed"`` — drop only sealed segments; the active tail
          stays on disk and replays idempotently over the snapshot on
          restart.  This is the replication-friendly mode: the log
          never quiesces, and a leader can checkpoint while replicas
          keep tailing the active segment's eventual seal
          (docs/SHARDING.md).

        The snapshot's ``meta`` records ``journal_position`` — the
        global record position the snapshot state includes — so a
        replica bootstrapping from it knows where to resume tailing.
        """
        if scope not in ("all", "sealed"):
            raise ValueError(
                f"checkpoint scope must be 'all' or 'sealed', got {scope!r}"
            )
        with self._rw.write_locked():
            snapshot = self._snapshot_locked(algorithm, meta)
            snapshot.save(path)
            if self._journal is not None:
                if scope == "sealed":
                    self._journal.drop_sealed()
                else:
                    self._journal.truncate()
        return snapshot

    def _instrument(self) -> None:
        m = self.metrics
        self._m_requests = m.counter(
            "classify_requests_total", "Classify requests served"
        )
        self._m_cache_hits = m.counter(
            "classify_cache_hits_total", "Classify requests served from cache"
        )
        self._m_adds = m.counter("directory_adds_total", "Pages added")
        self._m_removes = m.counter("directory_removes_total", "Pages removed")
        self._m_reclusters = m.counter(
            "directory_reclusters_total", "Drift-triggered re-clusterings"
        )
        m.gauge("directory_pages", "Managed pages").set_function(
            lambda: len(self.organizer)
        )
        m.gauge("directory_clusters", "Clusters").set_function(
            lambda: len(self.organizer.clusters)
        )
        m.gauge("directory_cohesion", "Running mean cohesion").set_function(
            lambda: self.organizer.cohesion
        )
        m.gauge(
            "directory_generation", "Mutations since start"
        ).set_function(lambda: self._generation)
        stats = self.organizer.similarity.stats
        m.gauge(
            "engine_comparisons_total", "Similarity evaluations (engine rollup)"
        ).set_function(lambda: stats.comparisons)
        m.gauge(
            "engine_build_seconds_total", "Time compiling collections"
        ).set_function(lambda: stats.build_seconds)
        ingest = self.vectorizer.ingest_stats
        m.gauge(
            "ingest_pages_total", "Pages run through text analysis"
        ).set_function(lambda: ingest.pages_total)
        m.gauge(
            "ingest_pages_analyzed_total",
            "Pages actually parsed (analysis-cache misses)",
        ).set_function(lambda: ingest.pages_analyzed)
        m.gauge(
            "ingest_analysis_cache_hits_total",
            "Pages served from the content-hash analysis cache",
        ).set_function(lambda: ingest.cache_hits)
        m.gauge(
            "ingest_map_seconds_total", "Time in the analysis map phase"
        ).set_function(lambda: ingest.map_seconds)
        # One child per executor kind, resolved at scrape time: the live
        # executor reports its pool size, the other reads 0.  (Binding
        # ingest.executor as the label here would freeze whatever the
        # executor was at registration.)
        for kind in ("serial", "process"):
            m.gauge(
                "ingest_workers",
                "Pool size of the most recent ingest run, labeled by executor",
                executor=kind,
            ).set_function(
                lambda kind=kind: (
                    ingest.workers if ingest.executor == kind else 0
                )
            )
        self._m_vectorize_seconds = m.histogram(
            "ingest_vectorize_seconds",
            "Per-request vectorization latency (parse + Equation 1)",
        )
        # Vocabulary observability: the process-wide interning table
        # every SparseVector points into.  Terms only ever grow on the
        # batch path, so a climbing gauge is the early signal that an
        # unbounded corpus needs the streaming path's vocabulary budget
        # (docs/INGESTION.md, "Streaming ingestion").
        from repro.vsm.interning import VOCABULARY

        m.gauge(
            "vocab_terms", "Interned terms in the process-wide term table"
        ).set_function(lambda: len(VOCABULARY))
        m.gauge(
            "vocab_bytes_estimate",
            "Approximate resident bytes of the interning table",
        ).set_function(lambda: VOCABULARY.stats()["bytes_estimate"])
        # Inverted-index observability: structure sizes plus the pruning
        # ratio (exactly-scored rows as a fraction of what full scans
        # would have scored — lower is better; 1.0 means no saving).
        index = self._index
        m.gauge(
            "index_postings", "Posting entries", space="clusters"
        ).set_function(lambda: index.n_cluster_postings)
        m.gauge(
            "index_postings", "Posting entries", space="pages"
        ).set_function(lambda: index.n_page_postings)
        m.gauge(
            "index_terms", "Indexed terms", space="clusters"
        ).set_function(lambda: index.n_cluster_terms)
        m.gauge(
            "index_terms", "Indexed terms", space="pages"
        ).set_function(lambda: index.n_page_terms)
        m.gauge(
            "index_rows_considered_total",
            "Rows an unindexed scan would have scored (indexed queries)",
        ).set_function(lambda: index.stats.rows_total)
        m.gauge(
            "index_rows_scored_total",
            "Rows actually scored exactly after posting-list pruning",
        ).set_function(lambda: index.stats.rows_scored)
        m.gauge(
            "index_pruning_ratio",
            "Fraction of scan work avoided by the index (1 - scored/total)",
        ).set_function(self._pruning_ratio)
        # Resilience observability (docs/RESILIENCE.md).  The counters
        # live in the process-wide resilience STATS bag (core code must
        # not import the service metrics registry), surfaced here as
        # function gauges — registration is idempotent and scraping
        # never takes a directory lock.
        for name, help_text in (
            ("retry_attempts", "Retries performed by resilience policies"),
            ("retry_giveups", "Calls that exhausted their retry budget"),
            ("degraded_fallbacks", "CAFC-CH runs degraded to CAFC-C"),
            ("worker_restarts", "Supervised worker restarts"),
            ("faults_injected", "Faults fired by the armed chaos plan"),
            ("circuit_opens", "Circuit-breaker trips to OPEN"),
            ("journal_replays", "Journal recoveries performed"),
        ):
            m.gauge(f"{name}_total", help_text).set_function(
                lambda name=name: STATS.get(name)
            )
        m.gauge(
            "circuit_state",
            "Vectorize-seam breaker: 0 closed / 1 half-open / 2 open",
        ).set_function(lambda: self._breaker.state_code)
        m.gauge(
            "journal_records", "Intact records in the write-ahead journal"
        ).set_function(
            lambda: self._journal.n_records if self._journal else 0
        )
        m.gauge(
            "journal_bytes", "Valid bytes in the write-ahead journal"
        ).set_function(
            lambda: self._journal.n_bytes if self._journal else 0
        )
        m.gauge(
            "journal_segments", "Sealed (shippable) journal segments"
        ).set_function(
            lambda: self._journal.n_segments if self._journal else 0
        )
        m.gauge(
            "degraded_mode",
            "Directory health: 0 ok / 1 degraded / 2 recovering",
        ).set_function(self.health_code)

    def _pruning_ratio(self) -> float:
        stats = self._index.stats
        if stats.rows_total == 0:
            return 0.0
        return 1.0 - stats.rows_scored / stats.rows_total

    # ----------------------------------------------------------------
    # Classify — the hot path.
    # ----------------------------------------------------------------

    def classify(self, raw: RawFormPage) -> ClassifyOutcome:
        """Assign ``raw`` to its most similar cluster (read-only).

        Cache hit -> answer without scoring.  Otherwise the page is
        vectorized outside every lock and scored inline under one read
        lock: the argmax of Equation 3 over the k centroids — the
        ``similarity.best`` scan :meth:`add` assigns by — plus the winner's
        descriptive terms, all from one generation.
        """
        self._m_requests.inc()
        key = content_hash(raw)
        cached = self._cache_get(key)
        if cached is not None:
            cluster, similarity, terms = cached
            self._m_cache_hits.inc()
            return ClassifyOutcome(
                url=raw.url, cluster=cluster, similarity=similarity,
                top_terms=list(terms), cached=True,
            )
        if self._closed:
            raise RuntimeError("directory is closed")
        page = self._vectorize_timed(raw)
        with self._rw.read_locked():
            generation = self._generation
            [(cluster, similarity)] = self.organizer.classify_batch([page])
            terms = self._cluster_terms(cluster)
        self._cache_put(key, generation, cluster, similarity, terms)
        return ClassifyOutcome(
            url=raw.url, cluster=cluster, similarity=similarity,
            top_terms=list(terms),
        )

    def _vectorize_once(self, raw: RawFormPage) -> FormPage:
        """One vectorization attempt, crossing the injection seam."""
        inject("directory.vectorize")
        return self.vectorizer.transform_new(raw)

    def _vectorize_timed(self, raw: RawFormPage) -> FormPage:
        """``transform_new`` with latency observed into ``/metrics``.

        Vectorization happens outside every lock; repeat content (the
        retry path) hits the vectorizer's analysis cache and shows up in
        the sub-millisecond buckets.  The call runs through the
        directory's circuit breaker and the config's retry policy:
        transient faults at the ``"directory.vectorize"`` seam are
        retried with backoff, exhaustion counts a breaker failure, and
        an open breaker fails the request fast
        (:class:`~repro.resilience.retry.CircuitOpenError` — surfaced
        as HTTP 503).
        """
        started = time.perf_counter()
        try:
            page = self._breaker.call(
                self._retry_policy.call, self._vectorize_once, raw
            )
        finally:
            self._m_vectorize_seconds.observe(time.perf_counter() - started)
        return page

    # ----------------------------------------------------------------
    # Cache.
    # ----------------------------------------------------------------

    def _cache_get(
        self, key: str
    ) -> Optional[Tuple[int, float, Tuple[str, ...]]]:
        if not self.cache_size:
            return None
        with self._cache_lock:
            entry = self._cache.get(key)
            if entry is None:
                return None
            generation, cluster, similarity, terms = entry
            if generation != self._generation:
                # Stale: the directory mutated since this was computed.
                del self._cache[key]
                return None
            self._cache.move_to_end(key)
            return cluster, similarity, terms

    def _cache_put(
        self,
        key: str,
        generation: int,
        cluster: int,
        similarity: float,
        terms: Tuple[str, ...],
    ) -> None:
        if not self.cache_size:
            return
        with self._cache_lock:
            if generation != self._generation:
                return  # computed against an already-replaced state
            self._cache[key] = (generation, cluster, similarity, terms)
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    @property
    def generation(self) -> int:
        return self._generation

    # ----------------------------------------------------------------
    # Mutations.
    # ----------------------------------------------------------------

    def add(self, raw: RawFormPage) -> Tuple[int, int]:
        """Insert (or replace) a source.  Returns (cluster index, its
        new size)."""
        page = self._vectorize_timed(raw)
        index, size = self._write(
            {"op": "add", "page": _page_to_json(page)}, page
        )
        self._m_adds.inc()
        self._maybe_schedule_recluster()
        return index, size

    def remove(self, url: str) -> bool:
        """Drop a source.  Returns False when the URL is not managed."""
        # Journaled even when the URL turns out unmanaged: replay of a
        # no-op remove is itself a no-op, and append-before-apply stays
        # unconditional.
        removed = self._write({"op": "remove", "url": url})
        if removed:
            self._m_removes.inc()
        return removed

    # ----------------------------------------------------------------
    # Drift repair.
    # ----------------------------------------------------------------

    def _maybe_schedule_recluster(self) -> None:
        if not self.auto_recluster or not self.organizer.needs_reclustering:
            return
        with self._recluster_lock:
            if self._recluster_running:
                return
            self._recluster_running = True
        # Supervised: a crash in the repair is logged, counted and
        # retried with backoff rather than leaving drift unrepaired and
        # nobody the wiser.  on_exit clears the in-flight flag on every
        # way out (done, gave up, stopped).
        SupervisedWorker(
            self._recluster_once, name="repro-recluster",
            backoff_base=0.05, max_restarts=3,
            on_exit=self._recluster_done,
        ).start()

    def _recluster_once(self) -> None:
        if self.organizer.needs_reclustering:
            self.recluster()

    def _recluster_done(self) -> None:
        with self._recluster_lock:
            self._recluster_running = False

    def recluster(self) -> int:
        """Run drift repair now (blocking).  Returns pages moved."""
        # recluster() is deterministic given the organizer state, so an
        # op marker is all replay needs to reproduce it exactly.
        moved = self._write({"op": "recluster"})
        self._m_reclusters.inc()
        return moved

    # ----------------------------------------------------------------
    # Read-only views.
    # ----------------------------------------------------------------

    def _cluster_terms(self, index: int) -> Tuple[str, ...]:
        """Descriptive terms for a cluster, from its live centroid —
        the index's cached labels while that centroid is the one it
        synced.  Shared: callers hand out a fresh list.  Caller must
        hold at least the read lock."""
        return self._index.cluster_labels(
            index, self.organizer.clusters[index].centroid
        )

    def _observe_search(self, scope: str, started: float) -> None:
        self.metrics.histogram(
            "search_seconds", "Search latency",
            scope=scope, scheme=self.scheme_name,
        ).observe(time.perf_counter() - started)
        self.metrics.counter(
            "search_requests_total", "Search requests served",
            scope=scope, scheme=self.scheme_name,
        ).inc()

    def _cluster_hit(
        self, index: int, score: float, combined: SparseVector,
        query: KeywordQuery,
    ) -> Dict[str, object]:
        """One /search hit record.  Caller holds the read lock."""
        return {
            "cluster": index,
            "score": score,
            "matched_terms": query.matched_terms(combined),
            "top_terms": list(self._cluster_terms(index)),
            "size": self.organizer.clusters[index].size,
        }

    def search(self, query: str, n: int = 3) -> List[Dict[str, object]]:
        """Rank clusters against a keyword query (Section 6 exploration).

        The query is analyzed with the page-text pipeline and scored by
        cosine against each cluster's combined (PC + FC) centroid,
        mirroring :class:`repro.explore.ClusterExplorer.search`.  The
        combined centroids come from the per-generation index, and
        posting-list pruning ranks them — the same hits, floats and
        order as a full scan (docs/SERVING.md).
        """
        keywords = KeywordQuery(self._analyzer.analyze(query))
        if not keywords:
            return []
        started = time.perf_counter()
        with self._rw.read_locked():
            hits = [
                self._cluster_hit(
                    index, score, self._index.cluster_combined(index), keywords
                )
                for index, score in self._index.top_clusters(keywords, n)
            ]
        self._observe_search("clusters", started)
        return hits

    def search_pages(self, query: str, n: int = 3) -> List[Dict[str, object]]:
        """Rank managed *pages* against a keyword query
        (``/search?scope=pages``).

        Each page is scored by cosine between the query and its combined
        (PC + FC) vector; ties break by URL.  Ranked through the page
        posting lists, parity-pinned exactly like cluster search.
        """
        keywords = KeywordQuery(self._analyzer.analyze(query))
        if not keywords:
            return []
        started = time.perf_counter()
        hits = []
        with self._rw.read_locked():
            for row, score in self._index.top_pages(keywords, n):
                url = self._index.page_url(row)
                hits.append({
                    "url": url,
                    "cluster": self.organizer.cluster_of(url),
                    "score": score,
                    "matched_terms": keywords.matched_terms(
                        self._index.page_vector(row)
                    ),
                })
        self._observe_search("pages", started)
        return hits

    def clusters_summary(self, max_urls: int = 5) -> List[Dict[str, object]]:
        """One JSON-safe record per cluster."""
        with self._rw.read_locked():
            return [
                {
                    "cluster": index,
                    "size": cluster.size,
                    "top_terms": list(self._cluster_terms(index)),
                    "urls": [page.url for page in cluster.pages[:max_urls]],
                }
                for index, cluster in enumerate(self.organizer.clusters)
            ]

    #: health_state() -> degraded_mode gauge encoding.
    _HEALTH_CODES = {"ok": 0, "degraded": 1, "recovering": 2}

    def health_state(self) -> str:
        """``"ok"`` / ``"degraded"`` / ``"recovering"`` — lock-free.

        ``recovering``: journal replay or a drift repair is in flight
        (the repair holds the write lock, which is exactly why this must
        not take the read lock — /healthz keeps answering during it;
        the HTTP layer turns it into 503 + Retry-After).  ``degraded``:
        still serving, but impaired — the vectorize breaker is open, or
        drift passed the threshold with no repair running.  Plain
        attribute reads only.
        """
        if self._replaying or self._recluster_running:
            return "recovering"
        if (
            self._breaker.state_code == CIRCUIT_OPEN
            or self.organizer.needs_reclustering
        ):
            return "degraded"
        return "ok"

    def health_code(self) -> int:
        """Numeric :meth:`health_state` (the ``degraded_mode`` gauge)."""
        return self._HEALTH_CODES[self.health_state()]

    def stats(self) -> Dict[str, object]:
        """Health/staleness summary (the /healthz body)."""
        organizer = self.organizer
        with self._rw.read_locked():
            return {
                "state": self.health_state(),
                "pages": len(organizer),
                "clusters": len(organizer.clusters),
                "cohesion": organizer.cohesion,
                "needs_reclustering": organizer.needs_reclustering,
                "n_added": organizer.n_added,
                "n_removed": organizer.n_removed,
                "n_reclusters": self.n_reclusters,
                "generation": self._generation,
                "scheme": self.scheme_name,
                "cache_size": self.cache_size,
                "uptime_seconds": time.time() - self.started_unix,
                "engine": organizer.similarity.stats.as_dict(),
                "index": {
                    "generation": self._index.generation,
                    "cluster_postings": self._index.n_cluster_postings,
                    "page_postings": self._index.n_page_postings,
                },
                "resilience": {
                    "circuit": self._breaker.state,
                    "epoch": self.epoch,
                    "stale_dropped": self.n_stale_dropped,
                    "journaled": self._journal is not None,
                    "journal_records": (
                        self._journal.n_records if self._journal else 0
                    ),
                    "journal_bytes": (
                        self._journal.n_bytes if self._journal else 0
                    ),
                    "journal_segments": (
                        self._journal.n_segments if self._journal else 0
                    ),
                    "journal_next_record": (
                        self._journal.next_record if self._journal else 0
                    ),
                    "replayed_records": self.n_replayed,
                    **STATS.as_dict(),
                },
            }

    # ----------------------------------------------------------------
    # Lifecycle.
    # ----------------------------------------------------------------

    def close(self) -> None:
        """Close the journal; later uncached classify requests raise.
        Idempotent, and safe on a directory whose ``__init__`` failed
        partway (the lifecycle attributes are initialized before
        anything that can raise)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        journal = getattr(self, "_journal", None)
        if journal is not None:
            journal.close()

    def __enter__(self) -> "FormDirectory":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
