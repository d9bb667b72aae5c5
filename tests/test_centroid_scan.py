"""The compiled centroid scan behind ``FormPageSimilarity.best``.

``best`` scores a page against a compiled block of the k centroids and
rescores only the near-maximal ones with the scalar Equation 3, so every
case here asserts exact equality — index and float — with
``tests/oracle.py``'s per-pair ``naive_argmax``.
"""

import math
import sys
import threading

import numpy as np
import pytest

from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.core.pipeline import CAFCPipeline
from repro.core.similarity import CentroidBlock, FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector
from repro.webgen.stream import page_at

from tests.oracle import naive_argmax

SCHEMES = ("eq1", "bm25", "tf")
MODES = list(ContentMode)
SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


def page(pc=None, fc=None, url="http://x.example/"):
    return FormPage(
        url=url, pc=SparseVector(pc or {}), fc=SparseVector(fc or {})
    )


def centroids_of(pages, k):
    """k centroids over interleaved slices of ``pages``."""
    return [centroid_of(pages[i::k]) for i in range(k)]


def assert_best_is_oracle(config, pages, centroids, similarity=None):
    similarity = similarity or FormPageSimilarity.from_config(config)
    for target in pages:
        assert similarity.best(target, centroids) == naive_argmax(
            config, target, centroids
        ), getattr(target, "url", None)


@pytest.fixture(scope="module")
def vectorized(small_raw_pages):
    """Per scheme: (fitted vectorizer, corpus pages, unseen pages)."""
    out = {}
    for scheme in SCHEMES:
        vectorizer = FormPageVectorizer(scheme=scheme)
        pages = vectorizer.fit_transform(small_raw_pages)
        unseen = [
            vectorizer.transform_new(page_at(4_000_000 + i, seed=3))
            for i in range(40)
        ]
        out[scheme] = (vectorizer, pages, unseen)
    return out


class TestNearTies:
    @pytest.mark.parametrize("mode", MODES)
    def test_one_ulp_nudge(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode)
        base = centroids_of(small_pages, 6)
        twins = []
        for centroid in base:
            items = dict(centroid.pc.items())
            term = max(items, key=items.get)
            items[term] = math.nextafter(items[term], math.inf)
            twins.append(VectorPair(pc=SparseVector(items), fc=centroid.fc))
        # Each centroid sits next to its nudged twin, in both orders.
        centroids = [c for pair in zip(base, twins) for c in pair]
        centroids += [c for pair in zip(twins, base) for c in pair]
        assert_best_is_oracle(config, small_pages, centroids)

    @pytest.mark.parametrize("mode", MODES)
    def test_identical_centroids(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode)
        base = centroids_of(small_pages, 4)
        copies = [VectorPair(pc=c.pc, fc=c.fc) for c in base]
        centroids = base + copies + base
        assert_best_is_oracle(config, small_pages, centroids)


class TestNoSharedTerm:
    def test_no_overlap_returns_first_without_rescoring(self, small_pages):
        config = CAFCConfig()
        centroids = centroids_of(small_pages, 8)
        similarity = FormPageSimilarity.from_config(config)
        novel = page(
            pc={"zzscan-novel-pc": 1.0}, fc={"zzscan-novel-fc": 2.0}
        )
        rescored = []
        similarity._score = lambda a, b: rescored.append(b) or 0.0
        assert similarity.best(novel, centroids) == (0, 0.0)
        assert rescored == []
        del similarity._score
        assert similarity.best(novel, centroids) == naive_argmax(
            config, novel, centroids
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_page(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode, page_weight=0.3, form_weight=1.7)
        centroids = centroids_of(small_pages, 5)
        assert_best_is_oracle(config, [page()], centroids)


class TestGrownVocabulary:
    def test_page_ids_beyond_block_width(self, small_pages):
        config = CAFCConfig()
        centroids = centroids_of(small_pages, 8)
        similarity = FormPageSimilarity.from_config(config)
        similarity.best(small_pages[0], centroids)  # compile
        width = len(similarity._block.spaces[0].column) - 1
        novel = [f"zzscan-grown-{i}" for i in range(5)]
        ids = [VOCABULARY.intern(term) for term in novel]
        assert min(ids) >= width
        for target in small_pages[:10]:
            pc = dict(target.pc.items())
            pc.update({term: 1.5 for term in novel})
            fc = dict(target.fc.items())
            fc[novel[0]] = 0.5
            grown = page(pc=pc, fc=fc, url=target.url)
            assert similarity.best(grown, centroids) == naive_argmax(
                config, grown, centroids
            )

    def test_replaced_centroid_with_new_terms(self, small_pages):
        config = CAFCConfig()
        centroids = centroids_of(small_pages, 8)
        similarity = FormPageSimilarity.from_config(config)
        similarity.best(small_pages[0], centroids)
        novel = {f"zzscan-row-{i}": 0.25 for i in range(3)}
        pc = dict(centroids[3].pc.items())
        pc.update(novel)
        centroids[3] = VectorPair(pc=SparseVector(pc), fc=centroids[3].fc)
        probes = [page(pc=novel, fc={}, url="http://novel.example/")]
        probes += small_pages
        assert_best_is_oracle(config, probes, centroids, similarity)


class TestSchemesAndModes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode", MODES)
    def test_exact(self, scheme, mode, vectorized):
        _, pages, unseen = vectorized[scheme]
        config = CAFCConfig(content_mode=mode, page_weight=0.3, form_weight=1.7)
        assert_best_is_oracle(config, pages + unseen, centroids_of(pages, 8))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_weights_are_non_negative(self, scheme, vectorized):
        """The rescore window's error bound assumes non-negative terms."""
        _, pages, unseen = vectorized[scheme]
        for target in pages + unseen:
            for vector in (target.pc, target.fc):
                assert min(vector.id_arrays()[1], default=0.0) >= 0.0


class TestBlockUpkeep:
    def test_block_is_kept_until_a_centroid_changes(self, small_pages):
        centroids = centroids_of(small_pages, 8)
        names = ("pc", "fc")
        block = CentroidBlock.of(None, centroids, names)
        assert CentroidBlock.of(block, list(centroids), names) is block
        moved = list(centroids)
        moved[2] = centroid_of(small_pages[:5])
        rebuilt = CentroidBlock.of(block, moved, names)
        assert rebuilt is not block and rebuilt.centroids == tuple(moved)
        assert CentroidBlock.of(block, centroids[:7], names) is not block
        fresh = CentroidBlock.of(None, moved, names)
        for name, new, ref in zip(names, rebuilt.spaces, fresh.spaces):
            for target in small_pages:
                vector = getattr(target, name)
                assert np.array_equal(new.cosines(vector), ref.cosines(vector))

    def test_comparisons_grow_by_k(self, small_pages):
        similarity = FormPageSimilarity()
        base = centroids_of(small_pages, 3)
        centroids = base + base  # every maximum is a tie: rescores > 1
        for n, target in enumerate(small_pages[:10], start=1):
            similarity.best(target, centroids)
            assert similarity.stats.comparisons == n * len(centroids)

    def test_threads_compile_at_once(self, small_pages):
        """Threads racing to compile one similarity's block, for two
        centroid sets that differ in one centroid, all get the oracle's
        answers."""
        config = CAFCConfig()
        centroids = centroids_of(small_pages, 8)
        moved = list(centroids)
        moved[5] = centroid_of(small_pages[:7])
        sets = (centroids, moved)
        want = [
            [naive_argmax(config, p, cs) for p in small_pages] for cs in sets
        ]
        n_threads = 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                similarity = FormPageSimilarity.from_config(config)
                barrier = threading.Barrier(n_threads)
                results = [None] * n_threads

                def scan(slot):
                    barrier.wait()
                    order = sets if slot % 2 else sets[::-1]
                    got = {
                        id(cs): [similarity.best(p, cs) for p in small_pages]
                        for cs in order
                    }
                    results[slot] = [got[id(cs)] for cs in sets]

                threads = [
                    threading.Thread(target=scan, args=(slot,))
                    for slot in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == [want] * n_threads
        finally:
            sys.setswitchinterval(interval)


@pytest.fixture(scope="module")
def scan_snapshot(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages[:-8])
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


def assert_classify_is_oracle(directory, probes):
    organizer = directory.organizer
    for raw in probes:
        outcome = directory.classify(raw)
        target = directory.vectorizer.transform_new(raw)
        assert (outcome.cluster, outcome.similarity) == naive_argmax(
            organizer.config, target, organizer.centroid_pairs()
        ), raw.url


class TestClassifyAfterWrites:
    """``/classify`` after each kind of write, on the same directory."""

    def test_add_remove_recluster_replay_replicate(
        self, scan_snapshot, small_raw_pages, tmp_path
    ):
        held_out = small_raw_pages[-8:]
        probes = [page_at(5_000_000 + i, seed=9) for i in range(12)]
        probes += small_raw_pages[:4]
        wal = tmp_path / "dir.wal"

        def open_directory(**kwargs):
            return FormDirectory.from_snapshot(
                scan_snapshot, auto_recluster=False, cache_size=0, **kwargs
            )

        with open_directory(journal=str(wal)) as live:
            assert_classify_is_oracle(live, probes)
            for raw in held_out[:4]:
                live.add(raw)
                assert_classify_is_oracle(live, probes)
            live.remove(held_out[1].url)
            live.remove(small_raw_pages[0].url)
            assert_classify_is_oracle(live, probes)
            live.recluster()
            assert_classify_is_oracle(live, probes)
            live.add(held_out[4])
            assert_classify_is_oracle(live, probes)
            records = live.journal.replay()

        with open_directory(journal=str(wal)) as restarted:
            assert restarted.n_replayed == len(records)
            assert_classify_is_oracle(restarted, probes)

        with open_directory() as follower:
            assert_classify_is_oracle(follower, probes)
            for record in records:
                follower.apply_replicated(record)
                assert_classify_is_oracle(follower, probes[:4])
            assert_classify_is_oracle(follower, probes)
