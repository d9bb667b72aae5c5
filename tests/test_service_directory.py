"""FormDirectory tests — locking, caching, classify/add agreement,
concurrency.

The hammer tests drive real threads against one directory: classifiers
race against a mutator, and the assertions check the invariants the
service guarantees (no lost updates, no stale cache hits, every answer
equal to a fresh scoring of the final state).
"""

import threading
import time

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.directory import (
    ClassifyOutcome,
    FormDirectory,
    RWLock,
    content_hash,
)
from repro.service.snapshot import build_snapshot
from repro.webgen.stream import page_at

from tests.oracle import label_terms, naive_argmax


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


def make_directory(snapshot, **kwargs):
    kwargs.setdefault("auto_recluster", False)
    return FormDirectory.from_snapshot(snapshot, **kwargs)


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        lock.acquire_read()
        acquired = threading.Event()

        def second_reader():
            lock.acquire_read()
            acquired.set()
            lock.release_read()

        thread = threading.Thread(target=second_reader)
        thread.start()
        assert acquired.wait(2.0), "second reader should not block"
        lock.release_read()
        thread.join()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        lock.acquire_write()
        progressed = threading.Event()

        def reader():
            lock.acquire_read()
            progressed.set()
            lock.release_read()

        thread = threading.Thread(target=reader)
        thread.start()
        assert not progressed.wait(0.1), "reader entered during write"
        lock.release_write()
        assert progressed.wait(2.0)
        thread.join()

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_in = threading.Event()
        reader_in = threading.Event()

        def writer():
            lock.acquire_write()
            writer_in.set()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            reader_in.set()
            lock.release_read()

        wt = threading.Thread(target=writer)
        wt.start()
        # Give the writer time to queue up, then start a late reader:
        # writer preference means it must wait behind the writer.
        while not lock._writers_waiting:
            pass
        rt = threading.Thread(target=late_reader)
        rt.start()
        assert not reader_in.wait(0.1), "late reader jumped the writer queue"
        lock.release_read()
        assert writer_in.wait(2.0)
        assert reader_in.wait(2.0)
        wt.join()
        rt.join()


class TestClassify:
    def test_basic_outcome(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot) as directory:
            outcome = directory.classify(small_raw_pages[0])
            assert isinstance(outcome, ClassifyOutcome)
            assert 0 <= outcome.cluster < len(directory.organizer.clusters)
            assert outcome.similarity > 0.0
            assert outcome.top_terms
            assert not outcome.cached

    def test_repeat_is_cached(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot) as directory:
            first = directory.classify(small_raw_pages[1])
            second = directory.classify(small_raw_pages[1])
            assert second.cached
            assert second.cluster == first.cluster
            assert second.similarity == first.similarity

    def test_mutation_invalidates_cache(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot) as directory:
            probe = small_raw_pages[2]
            directory.classify(probe)
            assert directory.classify(probe).cached
            generation = directory.generation
            directory.add(small_raw_pages[3])
            assert directory.generation == generation + 1
            refreshed = directory.classify(probe)
            assert not refreshed.cached, "cache served a pre-mutation answer"

    def test_classify_after_close_raises(self, small_snapshot, small_raw_pages):
        directory = make_directory(small_snapshot)
        directory.close()
        with pytest.raises(RuntimeError, match="closed"):
            directory.classify(small_raw_pages[0])

    def test_cache_disabled(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot, cache_size=0) as directory:
            directory.classify(small_raw_pages[0])
            assert not directory.classify(small_raw_pages[0]).cached


@pytest.fixture(scope="module")
def k32_snapshot(benchmark_raw_pages):
    pipeline = CAFCPipeline(CAFCConfig(k=32))
    result = pipeline.organize(benchmark_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, pipeline.config)


class TestClassifyAgreesWithAdd:
    """``/classify`` is the non-destructive twin of ``/add``: the same
    Equation-3 scan, so the same cluster and the same float."""

    def test_classify_predicts_add_to_the_last_bit(self, k32_snapshot):
        with FormDirectory.from_snapshot(
            k32_snapshot, auto_recluster=False
        ) as directory:
            organizer = directory.organizer
            assert len(organizer.clusters) == 32
            for index in range(300):
                raw = page_at(3_000_000 + index, seed=5)
                outcome = directory.classify(raw)
                page = directory.vectorizer.transform_new(raw)
                centroid = organizer.clusters[outcome.cluster].centroid
                assert (outcome.cluster, outcome.similarity) == naive_argmax(
                    organizer.config, page, organizer.centroid_pairs()
                ), raw.url
                assert outcome.similarity == \
                    organizer.similarity(page, centroid), raw.url
                assert outcome.top_terms == label_terms(centroid)
                cluster, _ = directory.add(raw)
                assert cluster == outcome.cluster, raw.url

    def test_top_terms_from_the_scored_generation(
        self, small_snapshot, small_raw_pages
    ):
        """A writer that queues while classify scores cannot change the
        terms returned with the cluster it scored."""
        with make_directory(small_snapshot, cache_size=0) as directory:
            organizer = directory.organizer
            seen = {}

            def shrink(cluster):
                with directory._rw.write_locked():
                    for page in organizer.clusters[cluster].pages[1:]:
                        organizer.remove(page.url)

            def racing_scan(pages):
                scored = type(organizer).classify_batch(organizer, pages)
                cluster = scored[0][0]
                seen["terms"] = label_terms(
                    organizer.clusters[cluster].centroid
                )
                seen["writer"] = threading.Thread(
                    target=shrink, args=(cluster,)
                )
                seen["writer"].start()
                deadline = time.monotonic() + 10.0
                while not directory._rw._writers_waiting:
                    assert time.monotonic() < deadline, "writer never queued"
                    time.sleep(0.001)
                return scored

            organizer.classify_batch = racing_scan
            try:
                outcome = directory.classify(small_raw_pages[0])
            finally:
                del organizer.classify_batch
            seen["writer"].join(timeout=30.0)
            assert not seen["writer"].is_alive()
            # The writer did change the labels; classify answered from
            # the generation it scored, not the one after.
            relabelled = list(directory._cluster_terms(outcome.cluster))
            assert relabelled != seen["terms"]
            assert outcome.top_terms == seen["terms"]


class TestMutations:
    def test_add_and_remove(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot) as directory:
            before = len(directory.organizer)
            raw = small_raw_pages[4]
            directory.remove(raw.url)  # make room in case it's managed
            base = len(directory.organizer)
            index, size = directory.add(raw)
            assert len(directory.organizer) == base + 1
            assert directory.organizer.clusters[index].size == size
            assert directory.remove(raw.url)
            assert not directory.remove("http://nowhere.example/missing")
            del before

    def test_recluster_bumps_generation(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            generation = directory.generation
            moved = directory.recluster()
            assert moved >= 0
            assert directory.generation == generation + 1
            assert directory.n_reclusters == 1


class TestViews:
    def test_search_finds_flight_cluster(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            hits = directory.search("flight airfare", n=3)
            assert hits
            assert hits[0]["score"] > 0
            assert "flight" in hits[0]["matched_terms"] or (
                "airfar" in hits[0]["matched_terms"]
            )

    def test_clusters_summary_shape(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            summary = directory.clusters_summary(max_urls=2)
            assert len(summary) == len(directory.organizer.clusters)
            for entry in summary:
                assert len(entry["urls"]) <= 2
                assert entry["size"] >= len(entry["urls"])

    def test_stats_shape(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            stats = directory.stats()
            assert stats["pages"] == len(directory.organizer)
            assert stats["clusters"] == len(directory.organizer.clusters)
            assert stats["generation"] == 0
            assert stats["engine"]["backend"]

    def test_content_hash_sensitivity(self, small_raw_pages):
        base = small_raw_pages[0]
        assert content_hash(base) == content_hash(base)
        tweaked = type(base)(
            url=base.url,
            html=base.html + " ",
            backlinks=list(base.backlinks),
            label=base.label,
            anchor_texts=list(base.anchor_texts),
        )
        assert content_hash(base) != content_hash(tweaked)


class TestConcurrencyHammer:
    """Classify from many threads while one thread adds and removes."""

    N_CLASSIFIERS = 8
    ROUNDS = 6

    def test_hammer(self, small_snapshot, small_raw_pages):
        with make_directory(small_snapshot, cache_size=64) as directory:
            stop = threading.Event()
            errors = []
            served = []
            served_lock = threading.Lock()

            probes = small_raw_pages[: self.N_CLASSIFIERS]
            churn = small_raw_pages[self.N_CLASSIFIERS:
                                    self.N_CLASSIFIERS + 4]

            def classifier(raw):
                while not stop.is_set():
                    try:
                        outcome = directory.classify(raw)
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return
                    with served_lock:
                        served.append(outcome)

            def mutator():
                try:
                    for _ in range(self.ROUNDS):
                        for raw in churn:
                            directory.remove(raw.url)
                        for raw in churn:
                            directory.add(raw)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                finally:
                    stop.set()

            threads = [
                threading.Thread(target=classifier, args=(raw,))
                for raw in probes
            ]
            threads.append(threading.Thread(target=mutator))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive(), "hammer thread hung"

            assert not errors, errors
            assert served, "classifiers never got a response"
            n_clusters = len(directory.organizer.clusters)
            for outcome in served:
                assert 0 <= outcome.cluster < n_clusters

            # No lost updates: every churn page must be managed exactly
            # once after the final add round.
            for raw in churn:
                assert raw.url in directory.organizer

            # Cache coherence: whatever the cache now returns must equal
            # a fresh scoring of the final state.
            for raw in probes:
                cached = directory.classify(raw)
                page = directory.vectorizer.transform_new(raw)
                want = directory.organizer.classify_vectorized(page)
                assert (cached.cluster, cached.similarity) == want, raw.url


class TestIngestMetrics:
    def test_ingest_workers_label_tracks_live_executor(self, small_snapshot):
        # Regression: the executor label was bound once at metrics
        # registration, so a later ingest under a different executor
        # misreported forever.  Each executor kind now has its own
        # child, resolved against the live stats at scrape time.
        with make_directory(small_snapshot, cache_size=0) as directory:
            ingest = directory.vectorizer.ingest_stats
            text = directory.metrics.render()
            assert 'repro_ingest_workers{executor="serial"} 1' in text
            assert 'repro_ingest_workers{executor="process"} 0' in text

            ingest.executor = "process"
            ingest.workers = 4
            text = directory.metrics.render()
            assert 'repro_ingest_workers{executor="process"} 4' in text
            assert 'repro_ingest_workers{executor="serial"} 0' in text
