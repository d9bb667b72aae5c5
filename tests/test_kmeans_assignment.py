"""The batched assignment behind ``SimilarityEngine.kmeans``.

Each pass scores every page against a compiled block of the k centroids
(:meth:`~repro.core.simengine._Space.centroid_cosines`) and hands each
page's row to ``FormPageSimilarity.rescored_index``, the index of the
rule ``best`` uses (``rescored_argmax``).  Every case here asserts that
one pass equals ``tests/oracle.py``'s ``oracle_assign`` — the generic
k-means loop's per-pair pass — cluster for cluster, with and without a
previous assignment.
"""

import math

import numpy as np
import pytest

from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.core.similarity import FormPageSimilarity
from repro.core import simengine
from repro.core.simengine import SimilarityEngine, _SpaceBlock
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector

from tests.oracle import oracle_assign, oracle_kmeans

MODES = list(ContentMode)


def page(pc=None, fc=None, url="http://x.example/"):
    return FormPage(
        url=url, pc=SparseVector(pc or {}), fc=SparseVector(fc or {})
    )


def centroids_of(pages, k):
    """k centroids over interleaved slices of ``pages``."""
    return [centroid_of(pages[i::k]) for i in range(k)]


def rotating(n, k, shift=0):
    return [(i + shift) % k for i in range(n)]


def engine_assign(config, pages, centroids, previous=None):
    engine = SimilarityEngine(pages, FormPageSimilarity.from_config(config))
    return engine._assign(centroids, previous)


def assert_assign_is_oracle(config, pages, centroids, previous=None):
    got = engine_assign(config, pages, centroids, previous)
    assert got == oracle_assign(config, pages, centroids, previous)
    return got


def previous_choices(n, k):
    return (None, rotating(n, k), rotating(n, k, shift=k // 2 + 1))


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
        for previous in previous_choices(len(small_pages), len(centroids)):
            assert_assign_is_oracle(config, small_pages, centroids, previous)

    @pytest.mark.parametrize("mode", MODES)
    def test_identical_centroids_keep_previous(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode)
        base = centroids_of(small_pages, 4)
        copies = [VectorPair(pc=c.pc, fc=c.fc) for c in base]
        centroids = base + copies + base
        first = assert_assign_is_oracle(config, small_pages, centroids)
        assert max(first) < 4  # the first of equal maxima
        for offset in (4, 8):
            previous = [cluster + offset for cluster in first]
            got = assert_assign_is_oracle(
                config, small_pages, centroids, previous
            )
            assert got == previous  # the tie goes to the previous cluster
        for previous in previous_choices(len(small_pages), len(centroids)):
            assert_assign_is_oracle(config, small_pages, centroids, previous)

    @pytest.mark.parametrize("mode", MODES)
    def test_kmeans_over_tied_seeds(self, mode, small_pages):
        config = CAFCConfig(k=8, content_mode=mode)
        base = centroids_of(small_pages, 4)
        seeds = base + [VectorPair(pc=c.pc, fc=c.fc) for c in base]
        oracle = oracle_kmeans(small_pages, seeds, config)
        engine = SimilarityEngine(
            small_pages, FormPageSimilarity.from_config(config)
        ).kmeans(seeds, config.stop_fraction, config.max_iterations)
        assert engine.clustering.clusters == oracle.clustering.clusters
        assert engine.iterations == oracle.iterations
        assert engine.centroids == oracle.centroids


class TestNoSharedTerm:
    def test_no_overlap_keeps_previous_without_rescoring(self, small_pages):
        config = CAFCConfig()
        # Each centroid has a twin, so every page that shares a term
        # has a window of two or more and is rescored.
        centroids = centroids_of(small_pages, 8)
        centroids += [VectorPair(pc=c.pc, fc=c.fc) for c in centroids]
        novel = page(
            pc={"zzassign-novel-pc": 1.0}, fc={"zzassign-novel-fc": 2.0}
        )
        pages = small_pages[:10] + [novel]
        engine = SimilarityEngine(pages, FormPageSimilarity.from_config(config))
        scored = []
        score = engine.similarity._score
        engine.similarity._score = lambda a, b: scored.append(a) or score(a, b)
        for previous, want in ((None, 0), ([5] * len(pages), 5)):
            got = engine._assign(centroids, previous)
            assert got[-1] == want
            assert got == oracle_assign(config, pages, centroids, previous)
        assert scored and all(a is not novel for a in scored)


class TestSoleCandidate:
    def test_one_candidate_pass_scores_nothing(self, small_pages):
        """k pages as their own centroids: each page's window holds only
        itself, so a pass reads the index and calls no scalar Eq. 3,
        while ``best`` still returns the scalar score."""
        config = CAFCConfig()
        pages = small_pages[:12]
        centroids = [VectorPair(pc=p.pc, fc=p.fc) for p in pages]
        similarity = FormPageSimilarity.from_config(config)
        engine = SimilarityEngine(pages, similarity)
        scored = []
        score = similarity._score
        similarity._score = lambda a, b: scored.append(a) or score(a, b)
        for previous in previous_choices(len(pages), len(centroids)):
            got = engine._assign(centroids, previous)
            assert got == list(range(len(pages)))
            assert got == oracle_assign(config, pages, centroids, previous)
        assert scored == []
        for i, target in enumerate(pages):
            assert similarity.best(target, centroids) == (i, score(target, centroids[i]))
        assert len(scored) == len(pages)


class TestEmpty:
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_page_and_empty_centroid(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode, page_weight=0.3, form_weight=1.7)
        centroids = centroids_of(small_pages, 5)
        centroids.insert(2, VectorPair(pc=SparseVector(), fc=SparseVector()))
        pages = small_pages[:20] + [
            page(),
            page(pc={"zzassign-only-pc": 1.0}),
            page(fc=dict(small_pages[0].fc.items())),
        ]
        k = len(centroids)
        for previous in previous_choices(len(pages), k) + ([2] * len(pages),):
            assert_assign_is_oracle(config, pages, centroids, previous)
        # An empty page shares no term: it keeps its previous cluster.
        assert engine_assign(config, [page()], centroids, [3]) == [3]


class TestGrownVocabulary:
    @pytest.mark.parametrize("mode", MODES)
    def test_page_ids_beyond_block_width(self, mode, small_pages):
        config = CAFCConfig(content_mode=mode)
        centroids = centroids_of(small_pages, 8)
        widths = [
            len(_SpaceBlock.build([getattr(c, name) for c in centroids]).column)
            - 1
            for name in ("pc", "fc")
        ]
        novel = [f"zzassign-grown-{i}" for i in range(5)]
        ids = [VOCABULARY.intern(term) for term in novel]
        assert min(ids) >= max(widths)
        grown = []
        for target in small_pages[:12]:
            pc = dict(target.pc.items())
            pc.update({term: 1.5 for term in novel})
            fc = dict(target.fc.items())
            fc[novel[0]] = 0.5
            grown.append(page(pc=pc, fc=fc, url=target.url))
        grown.append(page(pc={novel[1]: 1.0}, fc={novel[2]: 1.0}))
        for previous in previous_choices(len(grown), len(centroids)):
            assert_assign_is_oracle(config, grown, centroids, previous)


class TestKernel:
    def test_chunks_cut_at_row_boundaries(self, small_pages, monkeypatch):
        """A chunk bound of three products is below nearly every row's
        length, so each chunk holds one row; the floats are the same as
        in one chunk, and each row is ``_SpaceBlock.cosines`` of that
        page to 1e-12."""
        centroids = centroids_of(small_pages, 8)
        pages = small_pages + [page()]
        engine = SimilarityEngine(pages, FormPageSimilarity())
        for name in ("pc", "fc"):
            block = _SpaceBlock.build([getattr(c, name) for c in centroids])
            space = engine.space(name)
            whole = space.centroid_cosines(block)
            monkeypatch.setattr(simengine, "KERNEL_BLOCK_BYTES", 8 * 8 * 3)
            chunked = space.centroid_cosines(block)
            monkeypatch.undo()
            assert np.array_equal(whole, chunked)
            for row, target in enumerate(pages):
                expected = block.cosines(getattr(target, name))
                assert np.max(np.abs(whole[row] - expected)) <= 1e-12
            assert not whole[-1].any()


class TestComparisons:
    def test_n_times_k_per_pass(self, small_pages):
        """Every pass counts n x k comparisons, rescoring adds none —
        the count perfbench publishes as ``core.simengine.comparisons``."""
        base = centroids_of(small_pages, 3)
        seeds = base + [VectorPair(pc=c.pc, fc=c.fc) for c in base]
        engine = SimilarityEngine(small_pages, FormPageSimilarity())
        result = engine.kmeans(seeds)
        passes = result.iterations + 1
        assert engine.stats.comparisons == passes * len(small_pages) * 6
