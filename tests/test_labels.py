"""Cluster labels — the heap-cut ``top_terms`` and the per-centroid cache.

Two pins, both against ``tests/oracle.py``'s full-sort references:

* :meth:`~repro.vsm.vector.SparseVector.top_terms` returns exactly the
  sorted-items prefix, tie order included, however many equal weights
  straddle the cut;
* every label the directory serves or writes — the index's cached tuple,
  ``/clusters``, ``/search`` hits, classify outcomes and checkpoints —
  equals :func:`tests.oracle.label_terms` on the live centroid, on the
  454-page corpus at k = 8, 32 and 128, after load, after each kind of
  mutation and after journal replay.

Plus the aliasing contract: labels handed out are fresh lists, so a
caller that edits one cannot change the next answer.
"""

import copy
import random

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.core.result import LABEL_TERMS, _label_terms
from repro.service.directory import FormDirectory
from repro.service.snapshot import Snapshot, build_snapshot
from repro.vsm.vector import SparseVector
from repro.webgen.stream import page_at

from tests.oracle import label_terms, top_terms


# ---------------------------------------------------------------------
# top_terms selection.
# ---------------------------------------------------------------------


def tie_heavy_vector(rng, n_terms, n_levels):
    """``n_terms`` terms sharing only ``n_levels`` distinct weights, so
    long runs of equal weights sit on either side of any cut."""
    levels = [rng.choice((0.5, 1.0, 2.0, 3.25, -1.0)) for _ in range(n_levels)]
    return SparseVector({
        f"t{rng.randrange(10_000):04d}": rng.choice(levels)
        for _ in range(n_terms)
    })


class TestTopTerms:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_full_sort_on_tie_heavy_vectors(self, seed):
        rng = random.Random(seed)
        vector = tie_heavy_vector(
            rng, n_terms=rng.randint(0, 60), n_levels=rng.randint(1, 4)
        )
        for n in range(-2, len(vector) + 3):
            assert vector.top_terms(n) == top_terms(vector, n), n

    def test_cut_inside_a_run_of_equal_weights(self):
        weights = {f"e{i:02d}": 1.0 for i in range(20)}
        weights.update({"heavy": 5.0, "light": 0.25})
        vector = SparseVector(weights)
        assert vector.top_terms(4) == [
            ("heavy", 5.0), ("e00", 1.0), ("e01", 1.0), ("e02", 1.0),
        ]
        assert vector.top_terms(4) == top_terms(vector, 4)

    def test_page_vectors_match_the_oracle(self, benchmark_pages):
        for page in benchmark_pages[:100]:
            for space in (page.pc, page.fc):
                assert space.top_terms(LABEL_TERMS) == \
                    top_terms(space, LABEL_TERMS)


# ---------------------------------------------------------------------
# The directory's per-centroid label cache.
# ---------------------------------------------------------------------


def oracle_labels(organizer):
    return [label_terms(cluster.centroid) for cluster in organizer.clusters]


def assert_labels_match_oracle(directory):
    expected = oracle_labels(directory.organizer)
    with directory._rw.read_locked():
        cached = [
            list(directory._cluster_terms(index))
            for index in range(len(expected))
        ]
    assert cached == expected
    assert [
        entry["top_terms"] for entry in directory.clusters_summary()
    ] == expected
    assert directory.snapshot().top_terms == expected
    for hit in directory.search("flight airfare hotel book", n=5):
        assert hit["top_terms"] == expected[hit["cluster"]]


@pytest.fixture(scope="module", params=(8, 32, 128))
def corpus_snapshot(request, benchmark_raw_pages):
    pipeline = CAFCPipeline(CAFCConfig(k=request.param))
    result = pipeline.organize(benchmark_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, pipeline.config)


class TestLabelCacheParity:
    def test_labels_through_load_mutations_and_replay(
        self, corpus_snapshot, benchmark_raw_pages, tmp_path
    ):
        k = corpus_snapshot.config.k
        path = tmp_path / "snapshot.json.gz"
        corpus_snapshot.save(path)
        loaded = Snapshot.load(path)
        assert loaded.top_terms == corpus_snapshot.top_terms == [
            label_terms(centroid)
            for centroid in loaded.to_organizer().centroid_pairs()
        ]
        wal = str(tmp_path / "dir.wal")
        live = FormDirectory.from_snapshot(
            loaded, auto_recluster=False, journal=wal
        )
        assert len(live.organizer.clusters) == k
        assert_labels_match_oracle(live)

        pool = benchmark_raw_pages
        for raw in pool[:3]:
            live.remove(raw.url)
            assert_labels_match_oracle(live)
        for raw in pool[:2]:
            live.add(raw)
            assert_labels_match_oracle(live)
        live.recluster()
        assert_labels_match_oracle(live)
        probes = pool[100:110]
        for raw in probes:
            outcome = live.classify(raw)
            assert outcome.top_terms == label_terms(
                live.organizer.clusters[outcome.cluster].centroid
            )
        live_labels = oracle_labels(live.organizer)
        live.close()

        restarted = FormDirectory.from_snapshot(
            loaded, auto_recluster=False, journal=wal
        )
        try:
            assert restarted.n_replayed == 6
            assert oracle_labels(restarted.organizer) == live_labels
            assert_labels_match_oracle(restarted)
        finally:
            restarted.close()

    def test_label_is_computed_once_per_centroid(self, corpus_snapshot):
        calls = []

        def counting(centroid):
            calls.append(centroid)
            return _label_terms(centroid)

        with FormDirectory.from_snapshot(
            corpus_snapshot, auto_recluster=False
        ) as directory:
            directory._index._label_terms = counting
            k = len(directory.organizer.clusters)
            for _ in range(3):
                directory.clusters_summary()
            assert len(calls) == k
            index, _ = directory.add(page_at(3_000_000, seed=5))
            directory.clusters_summary()
            # Only the clusters whose centroid moved are relabelled.
            assert len(calls) == k + 1
            assert calls[-1] is directory.organizer.clusters[index].centroid


# ---------------------------------------------------------------------
# Aliasing: handed-out labels are the caller's own lists.
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    config = CAFCConfig(k=8, min_hub_cardinality=3)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(small_raw_pages)
    return build_snapshot(result, pipeline.vectorizer, config)


class TestLabelAliasing:
    def test_mutating_a_classify_outcome_leaves_the_next_answer(
        self, small_snapshot, small_raw_pages
    ):
        with FormDirectory.from_snapshot(
            small_snapshot, auto_recluster=False
        ) as directory:
            raw = small_raw_pages[3]
            first = directory.classify(raw)
            expected = list(first.top_terms)
            first.top_terms.append("tampered")
            first.top_terms[0] = "tampered"
            second = directory.classify(raw)
            assert second.cached
            assert second.top_terms == expected
            second.top_terms.clear()
            assert directory.classify(raw).top_terms == expected
            summary = directory.clusters_summary()
            assert summary[first.cluster]["top_terms"] == expected

    def test_mutating_clusters_and_search_entries_leaves_the_next_answer(
        self, small_snapshot
    ):
        with FormDirectory.from_snapshot(
            small_snapshot, auto_recluster=False
        ) as directory:
            expected = copy.deepcopy(directory.clusters_summary())
            for entry in directory.clusters_summary():
                entry["top_terms"].clear()
            for hit in directory.search("flight airfare", n=3):
                hit["top_terms"].append("tampered")
            assert directory.clusters_summary() == expected
            for hit in directory.search("flight airfare", n=3):
                assert hit["top_terms"] == \
                    expected[hit["cluster"]]["top_terms"]
