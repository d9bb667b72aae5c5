"""repro.index — posting lists, pruned retrieval, and parity pins.

The contract under test is absolute: indexed search top-k (clusters and
pages) must be **bit-identical** to the full-scan reference scans in
``tests/oracle.py`` — same ids, same float scores, same order — and the
classify scan to the per-pair Equation-3 argmax, including after
arbitrary interleavings of add / remove / recluster.  The randomized
property tests drive a directory through a mutation schedule and diff
every answer against the oracles on its live state.
"""

import itertools
import json
import random
import urllib.request

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.explore import ClusterExplorer
from repro.index import SpaceIndex, top_k_exact
from repro.index.retrieval import RetrievalStats
from repro.service.directory import FormDirectory
from repro.service import serve_directory
from repro.service.snapshot import build_snapshot, snapshot_info
from repro.text.analyzer import TextAnalyzer
from repro.text.stemmer import PorterStemmer
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector, cosine_similarity
from repro.webgen.stream import page_at

from tests.oracle import (
    cluster_rows, naive_argmax, page_rows, scan_clusters, scan_pages,
)

SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_organized(small_raw_pages):
    pipeline = CAFCPipeline(SMALL_CONFIG)
    return pipeline, pipeline.organize(small_raw_pages)


@pytest.fixture(scope="module")
def small_snapshot(small_organized):
    pipeline, result = small_organized
    return build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)


def make_directory(snapshot, **kwargs):
    kwargs.setdefault("auto_recluster", False)
    return FormDirectory.from_snapshot(snapshot, **kwargs)


def random_vector(rng, vocabulary, max_terms=12):
    n_terms = rng.randint(0, max_terms)
    return SparseVector({
        term: rng.uniform(0.1, 5.0)
        for term in rng.sample(vocabulary, n_terms)
    })


# ---------------------------------------------------------------------
# SpaceIndex maintenance.
# ---------------------------------------------------------------------

tid = VOCABULARY.intern  # posting lists are keyed by VOCABULARY id


class TestSpaceIndex:
    def test_add_and_lookup(self):
        index = SpaceIndex()
        vector = SparseVector({"a": 3.0, "b": 4.0})  # norm 5
        index.add_row(7, vector)
        assert len(index) == 1
        assert 7 in index
        assert index.vector(7) is vector
        assert index.norm(7) == 5.0
        assert index.postings(tid("a")) == [(7, 3.0 * (1.0 / 5.0))]
        assert index.max_prenormed(tid("b")) == 4.0 * (1.0 / 5.0)
        assert index.max_prenormed(tid("zzz")) == 0.0
        assert index.n_postings == 2
        assert index.n_terms == 2

    def test_replace_row(self):
        index = SpaceIndex()
        index.add_row(1, SparseVector({"a": 1.0, "b": 1.0}))
        index.add_row(1, SparseVector({"b": 2.0}))
        assert index.postings(tid("a")) == []
        assert index.postings(tid("b")) == [(1, 1.0)]
        assert index.n_postings == 1

    def test_remove_recomputes_maxima(self):
        index = SpaceIndex()
        index.add_row(1, SparseVector({"a": 1.0}))          # prenormed 1.0
        index.add_row(2, SparseVector({"a": 3.0, "b": 4.0}))  # a: 0.6
        assert index.max_prenormed(tid("a")) == 1.0
        assert index.remove_row(1)
        assert index.max_prenormed(tid("a")) == 3.0 * (1.0 / 5.0)
        assert not index.remove_row(1)
        assert index.remove_row(2)
        assert index.n_postings == 0
        assert index.n_terms == 0

    def test_zero_norm_row_posts_nothing(self):
        index = SpaceIndex()
        index.add_row(3, SparseVector())
        assert 3 in index
        assert index.n_postings == 0
        assert index.remove_row(3)


# ---------------------------------------------------------------------
# top_k_exact against brute force, randomized.
# ---------------------------------------------------------------------


class TestTopKExact:
    def brute_force(self, query, index, k):
        scored = []
        for row, vector in index.row_items():
            score = cosine_similarity(query, vector)
            if score > 0.0:
                scored.append((row, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

    def test_matches_brute_force_with_churn(self):
        rng = random.Random(20260806)
        vocabulary = [f"t{i}" for i in range(60)]
        index = SpaceIndex()
        live = set()
        for row in range(150):
            index.add_row(row, random_vector(rng, vocabulary))
            live.add(row)
        for row in rng.sample(sorted(live), 40):  # interleave removals
            index.remove_row(row)
            live.remove(row)
        for row in range(150, 180):
            index.add_row(row, random_vector(rng, vocabulary))

        for trial in range(30):
            query = random_vector(rng, vocabulary, max_terms=8)
            if not query:
                continue
            for k in (1, 3, 10, 50):
                stats = RetrievalStats()
                got = top_k_exact(
                    index, query, k,
                    lambda row: cosine_similarity(query, index.vector(row)),
                    stats=stats,
                )
                want = self.brute_force(query, index, k)
                assert got == want, (trial, k)
                assert stats.rows_scored <= stats.rows_total

    def test_empty_cases(self):
        index = SpaceIndex()
        query = SparseVector({"a": 1.0})
        assert top_k_exact(
            index, query, 3, lambda row: 1.0
        ) == []
        index.add_row(0, SparseVector({"b": 1.0}))  # disjoint vocabulary
        assert top_k_exact(
            index, query, 3,
            lambda row: cosine_similarity(query, index.vector(row)),
        ) == []
        assert top_k_exact(
            index, query, 0, lambda row: 1.0
        ) == []

    def test_tie_break_via_key(self):
        index = SpaceIndex()
        vector = SparseVector({"a": 1.0})
        for row in (0, 1, 2):
            index.add_row(row, vector)
        names = {0: "zebra", 1: "apple", 2: "mango"}
        query = SparseVector({"a": 2.0})
        got = top_k_exact(
            index, query, 2,
            lambda row: cosine_similarity(query, index.vector(row)),
            tie_key=names.__getitem__,
        )
        assert [row for row, _ in got] == [1, 2]


# ---------------------------------------------------------------------
# Classify parity: the centroid scan vs the per-pair Equation-3 argmax.
# ---------------------------------------------------------------------


def assert_classify_parity(organizer, pages):
    for page in pages:
        want = naive_argmax(organizer.config, page, organizer.centroid_pairs())
        assert organizer.classify_vectorized(page) == want, page.url


class TestClassifyParity:
    def test_classify_bit_identical_to_oracle(
        self, small_snapshot, small_pages
    ):
        organizer = small_snapshot.to_organizer()
        assert_classify_parity(organizer, small_pages)  # cluster AND float

    def test_parity_survives_mutations(self, small_snapshot, small_raw_pages):
        organizer = small_snapshot.to_organizer()
        churn = small_raw_pages[:10]
        for raw in churn[:5]:
            organizer.remove(raw.url)
        for raw in churn[:5]:
            organizer.add(raw)
        organizer.recluster()
        assert_classify_parity(organizer, [
            organizer.vectorizer.transform_new(raw) for raw in churn
        ])


# ---------------------------------------------------------------------
# Directory parity: randomized interleaved mutations, search both scopes.
# ---------------------------------------------------------------------


QUERIES = (
    "flight airfare ticket",
    "book novel author",
    "job career salary engineer",
    "movie theater actor",
    "hotel room reservation",
    "car rental pickup",
    "music album",
    "zzz-nothing-matches-this",
)


def assert_search_parity(directory, sizes=(1, 3, 5, 20)):
    """Every query, both scopes, against the oracle scans of the
    directory's live organizer, each one counted once."""
    indexed = directory.metrics.counter(
        "search_requests_total", "Search requests served",
        scope="clusters", scheme=directory.scheme_name,
    )
    before = indexed.value
    for query in QUERIES:
        for n in sizes:
            assert directory.search(query, n=n) == \
                scan_clusters(directory.organizer, query, n), (query, n)
            assert directory.search_pages(query, n=n) == \
                scan_pages(directory.organizer, query, n), (query, n)
    assert indexed.value - before == len(QUERIES) * len(sizes)


class TestDirectoryParity:
    def test_randomized_interleaved_mutations(
        self, small_snapshot, small_raw_pages
    ):
        rng = random.Random(1234)
        with make_directory(small_snapshot) as directory:
            assert_search_parity(directory)

            managed = {raw.url for raw in small_raw_pages
                       if raw.url in directory.organizer}
            pool = list(small_raw_pages)
            for round_number in range(4):
                for _ in range(6):
                    action = rng.random()
                    if action < 0.45:
                        raw = rng.choice(pool)
                        directory.add(raw)
                        managed.add(raw.url)
                    elif action < 0.8 and managed:
                        url = rng.choice(sorted(managed))
                        assert directory.remove(url)
                        managed.discard(url)
                    else:
                        directory.recluster()
                assert_search_parity(directory)
                assert_classify_parity(directory.organizer, [
                    directory.vectorizer.transform_new(raw)
                    for raw in pool[:8]
                ])
            assert directory.generation > 0

    def test_page_hits_shape(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            hits = directory.search_pages("flight airfare", n=5)
            assert hits
            previous = None
            for hit in hits:
                assert set(hit) == {
                    "url", "cluster", "score", "matched_terms"
                }
                assert hit["score"] > 0.0
                assert hit["cluster"] == \
                    directory.organizer.cluster_of(hit["url"])
                if previous is not None:
                    assert (-previous["score"], previous["url"]) <= \
                        (-hit["score"], hit["url"])
                previous = hit

    def test_caches_combined_centroids(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            first = directory._index.cluster_combined(0)
            assert directory.search("flight airfare", n=3)
            assert directory._index.cluster_combined(0) is first
            assert directory._index.n_cluster_postings > 0

    def test_generation_stamps_follow_mutations(
        self, small_snapshot, small_raw_pages
    ):
        with make_directory(small_snapshot) as directory:
            assert directory._index.generation == directory.generation == 0
            directory.add(small_raw_pages[0])
            assert directory._index.generation == directory.generation == 1
            directory.remove(small_raw_pages[0].url)
            assert directory._index.generation == directory.generation == 2
            directory.recluster()
            assert directory._index.generation == directory.generation == 3


# ---------------------------------------------------------------------
# Queries intern nothing: unseen words stay out of VOCABULARY.
# ---------------------------------------------------------------------


_NOVEL = itertools.count()


def novel_words(n):
    """``n`` words no table has seen, unchanged by the analyzer (no
    vowels, so no stemming rule applies)."""
    letters = "bcdfghjklmnpqrtvwxz"
    words = []
    for _ in range(n):
        number, word = next(_NOVEL), "zqx"
        while True:
            number, digit = divmod(number, len(letters))
            word += letters[digit]
            if not number:
                break
        words.append(word + "kq")
    return words


def outnumbering_query(row):
    """Text whose analyzed terms outnumber ``row``'s terms while its
    known terms do not, so the cosine iterates the row.  The known terms
    come in reverse row order: iterating the query instead would sum
    the same products in another order."""
    analyzer = TextAnalyzer()
    known = [t for t in row.terms() if analyzer.analyze(t) == [t]]
    assert len(known) > 2
    return " ".join(known[len(row) - 2::-1] + novel_words(3))


class TestQueriesInternNothing:
    """Searches analyze arbitrary user text.  Its unseen words must not
    grow the process-wide table, and leaving them out of the query
    vector must not move a float: the hits equal the oracle scans, which
    intern the whole query."""

    def queries(self, shortest_row):
        return (
            " ".join(novel_words(3)),
            "flight airfare " + " ".join(novel_words(2)),
            outnumbering_query(shortest_row),
        )

    def test_directory_searches(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            rows = page_rows(directory.organizer)
            shortest = min(
                (combined for _, _, combined in rows if len(combined) > 1),
                key=len,
            )
            queries = self.queries(shortest)
            terms = len(VOCABULARY)
            clusters = [directory.search(q, n=5) for q in queries]
            pages = [directory.search_pages(q, n=5) for q in queries]
            assert len(VOCABULARY) == terms
            assert not clusters[0] and not pages[0]
            # The outnumbering query reaches the row it was built from.
            assert [url for url, _, row in rows if row is shortest][0] in {
                hit["url"] for hit in pages[2]
            }
            for query, cluster_hits, page_hits in zip(
                queries, clusters, pages
            ):
                assert cluster_hits == scan_clusters(
                    directory.organizer, query, 5
                )
                assert page_hits == scan_pages(
                    directory.organizer, query, 5, rows
                )

    def test_explorer_search(self, small_organized):
        _, result = small_organized
        explorer = ClusterExplorer(result)
        shortest = min(cluster_rows(result), key=len)
        queries = self.queries(shortest)
        terms = len(VOCABULARY)
        hits = [explorer.search(q, n=5) for q in queries]
        assert len(VOCABULARY) == terms
        for query, got in zip(queries, hits):
            want = scan_clusters(result, query, 5)
            assert [
                (hit.cluster_index, hit.score, hit.matched_terms)
                for hit in got
            ] == [
                (hit["cluster"], hit["score"], hit["matched_terms"])
                for hit in want
            ]


class TestStemMemosBounded:
    """Served requests carry arbitrary words: neither the classify
    analyzer's stem memo nor the search analyzer's grows past the
    stemmer's cap.  The cap is read on insert, so a small one here
    stands for the 50k default."""

    CAP = 64

    def test_novel_word_classifies_and_searches(
        self, small_snapshot, monkeypatch
    ):
        monkeypatch.setattr(PorterStemmer, "DEFAULT_CACHE_SIZE", self.CAP)
        with make_directory(small_snapshot) as directory:
            memos = (
                directory.vectorizer.analyzer._cache,
                directory._analyzer._cache,
            )
            terms = len(VOCABULARY)
            for index in range(40):
                raw = page_at(5_000_000 + index, seed=5)
                words = " ".join(novel_words(5))
                raw.html = raw.html.replace("</form>", f"{words}</form>", 1)
                directory.classify(raw)
                directory.search(" ".join(novel_words(5)), n=5)
            assert len(VOCABULARY) == terms
            assert [0 < len(memo) <= self.CAP for memo in memos] == [
                True, True,
            ]


# ---------------------------------------------------------------------
# Full benchmark corpus parity (the acceptance pin).
# ---------------------------------------------------------------------


class TestBenchmarkCorpusParity:
    def assert_full_corpus_parity(self, raw_pages, k):
        pipeline = CAFCPipeline(CAFCConfig(k=k))
        result = pipeline.organize(raw_pages)
        snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
        organizer = snapshot.to_organizer()
        assert len(organizer.clusters) == k
        assert_classify_parity(organizer, [
            organizer.vectorizer.transform_new(raw) for raw in raw_pages
        ])
        with FormDirectory(organizer, auto_recluster=False) as directory:
            assert_search_parity(directory, sizes=(1, 5, 25))

    def test_full_corpus_bit_identical(self, benchmark_raw_pages):
        self.assert_full_corpus_parity(benchmark_raw_pages, k=8)

    def test_full_corpus_bit_identical_k32(self, benchmark_raw_pages):
        self.assert_full_corpus_parity(benchmark_raw_pages, k=32)


# ---------------------------------------------------------------------
# HTTP scope + metrics + snapshot surfaces.
# ---------------------------------------------------------------------


class TestServiceSurfaces:
    def fetch(self, base, path):
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return json.loads(response.read().decode("utf-8"))

    def test_http_search_scopes(self, small_snapshot):
        directory = make_directory(small_snapshot)
        server = serve_directory(directory)
        server.serve_in_thread()
        try:
            base = server.base_url
            clusters = self.fetch(base, "/search?q=flight+airfare&n=3")
            assert clusters["ok"] and clusters["scope"] == "clusters"
            assert clusters["hits"] == directory.search("flight airfare", n=3)
            pages = self.fetch(
                base, "/search?q=flight+airfare&n=3&scope=pages"
            )
            assert pages["ok"] and pages["scope"] == "pages"
            assert pages["hits"] == \
                directory.search_pages("flight airfare", n=3)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self.fetch(base, "/search?q=x&scope=bogus")
            assert excinfo.value.code == 400
        finally:
            server.shut_down()

    def test_search_and_index_metrics_exposed(self, small_snapshot):
        with make_directory(small_snapshot) as directory:
            directory.search("flight airfare", n=3)
            directory.search_pages("flight airfare", n=3)
            text = directory.metrics.render()
            assert 'repro_search_requests_total{' \
                'scheme="eq1",scope="clusters"} 1' in text
            assert 'repro_search_seconds_count{scheme="eq1",' \
                'scope="pages"} 1' in text
            assert 'repro_index_postings{space="clusters"}' in text
            assert 'repro_index_terms{space="pages"}' in text
            assert "repro_index_pruning_ratio" in text
            assert "repro_index_rows_scored_total" in text

    def test_config_round_trip_and_snapshot_info(
        self, small_snapshot, tmp_path
    ):
        config = CAFCConfig(k=12)
        assert "index" not in config.to_dict()
        assert CAFCConfig.from_dict(config.to_dict()) == config
        with pytest.raises(TypeError):
            CAFCConfig(index="on")
        path = tmp_path / "snap.json.gz"
        small_snapshot.save(path)
        info = snapshot_info(path)
        assert "index" not in info
        assert info["n_pages"] == small_snapshot.n_pages