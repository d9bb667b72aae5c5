"""Weighting-scheme seam tests — the ranking-API redesign contract.

Three pins:

* **Equation-1 parity** — the scheme seam emits bit-identical vectors
  to an independent recomputation through the pre-seam primitives
  (``tests/oracle.py``'s flat located terms and
  ``located_term_frequencies`` + ``CorpusStats`` + ``tf_idf_vector``)
  for every page of the full 454-page benchmark corpus, including under
  pooled parallel ingestion.
* **BM25 range** — every emitted weight lies in (0, 1] per feature
  space (the normalization happens *before* the PC/FC combination).
* **Snapshot versioning** — BM25-built snapshots carry format version 2
  and refuse to load as Equation 1; pre-seam Equation-1 state (no
  ``scheme`` key) still loads bit-identically.
"""

import gzip
import json

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.core.vectorizer import FormPageVectorizer
from repro.datasets.store import DatasetFormatError
from repro.options import OptionError
from repro.parallel.config import ParallelConfig
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot, load_snapshot, snapshot_info
from repro.vsm.corpus import CorpusStats
from repro.vsm.schemes import (
    BM25Scheme,
    Eq1Scheme,
    SpaceStats,
    TFScheme,
    UnknownSchemeError,
    WeightingScheme,
    resolve_scheme,
    scheme_from_dict,
)
from repro.vsm.weights import LocationWeights, tf_idf_vector

from tests.oracle import (
    flat_page_analysis,
    located_term_frequencies,
    scan_clusters,
    scan_pages,
)

SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


def vector_items(page):
    return dict(page.pc.items()), dict(page.fc.items())


# ---------------------------------------------------------------------
# Resolution & validation (the shared option convention).
# ---------------------------------------------------------------------


class TestResolution:
    def test_default_is_equation_one(self):
        assert isinstance(resolve_scheme(None), Eq1Scheme)
        assert isinstance(resolve_scheme("auto"), Eq1Scheme)
        assert isinstance(resolve_scheme("eq1"), Eq1Scheme)

    def test_off_is_plain_tf(self):
        assert isinstance(resolve_scheme("off"), TFScheme)
        assert isinstance(resolve_scheme("tf"), TFScheme)

    def test_bm25_by_name_and_instance_passthrough(self):
        assert isinstance(resolve_scheme("bm25"), BM25Scheme)
        tuned = BM25Scheme(k1=2.0, b=0.5)
        assert resolve_scheme(tuned) is tuned

    def test_unknown_name_is_option_error_naming_the_field(self):
        with pytest.raises(OptionError) as excinfo:
            resolve_scheme("pagerank")
        assert excinfo.value.field == "scheme"
        assert "scheme" in str(excinfo.value)
        assert "pagerank" in str(excinfo.value)

    def test_non_scheme_object_is_type_error(self):
        with pytest.raises(TypeError):
            resolve_scheme(42)

    def test_config_validates_scheme_field(self):
        with pytest.raises(OptionError, match="scheme"):
            CAFCConfig(scheme="pagerank")
        assert CAFCConfig(scheme="bm25").scheme == "bm25"
        assert CAFCConfig().scheme == "auto"

    def test_config_round_trips_scheme(self):
        config = CAFCConfig(scheme="bm25")
        assert CAFCConfig.from_dict(config.to_dict()).scheme == "bm25"

    def test_bm25_tunable_validation(self):
        with pytest.raises(ValueError):
            BM25Scheme(k1=-0.1)
        with pytest.raises(ValueError):
            BM25Scheme(b=1.5)

    def test_scheme_from_dict_restores_tunables(self):
        restored = scheme_from_dict({"name": "bm25", "k1": 1.6, "b": 0.3})
        assert isinstance(restored, BM25Scheme)
        assert restored.k1 == 1.6
        assert restored.b == 0.3

    def test_scheme_from_dict_unknown_name(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            scheme_from_dict({"name": "pagerank"})
        assert excinfo.value.name == "pagerank"

    def test_schemes_satisfy_protocol(self):
        for scheme in (Eq1Scheme(), BM25Scheme(), TFScheme()):
            assert isinstance(scheme, WeightingScheme)


# ---------------------------------------------------------------------
# Equation-1 parity over the full benchmark corpus (the acceptance pin).
# ---------------------------------------------------------------------


class TestEq1Parity:
    def test_seam_matches_pre_seam_primitives_on_benchmark(
        self, benchmark_raw_pages, benchmark_pages
    ):
        """The scheme seam is bit-identical to recomputing Equation 1
        through the raw primitives, for all 454 pages and both spaces."""
        weights = LocationWeights()
        analyses = [flat_page_analysis(raw) for raw in benchmark_raw_pages]
        pc_corpus, fc_corpus = CorpusStats(), CorpusStats()
        for analysis in analyses:
            pc_corpus.add_document(term for term, _ in analysis.pc_terms)
            fc_corpus.add_document(term for term, _ in analysis.fc_terms)
        for analysis, page in zip(analyses, benchmark_pages):
            expected_pc = tf_idf_vector(
                located_term_frequencies(analysis.pc_terms, weights), pc_corpus
            )
            expected_fc = tf_idf_vector(
                located_term_frequencies(analysis.fc_terms, weights), fc_corpus
            )
            assert dict(page.pc.items()) == dict(expected_pc.items()), page.url
            assert dict(page.fc.items()) == dict(expected_fc.items()), page.url

    def test_explicit_eq1_matches_default(self, benchmark_raw_pages):
        explicit = FormPageVectorizer(scheme="eq1").fit_transform(
            benchmark_raw_pages
        )
        default = FormPageVectorizer().fit_transform(benchmark_raw_pages)
        for a, b in zip(default, explicit):
            assert vector_items(a) == vector_items(b), a.url

    def test_clustering_identical_under_explicit_eq1(self, benchmark_raw_pages):
        auto = CAFCPipeline(CAFCConfig()).organize(benchmark_raw_pages)
        eq1 = CAFCPipeline(CAFCConfig(scheme="eq1")).organize(
            benchmark_raw_pages
        )
        assert [
            [page.url for page in cluster.pages] for cluster in auto.clusters
        ] == [
            [page.url for page in cluster.pages] for cluster in eq1.clusters
        ]


# ---------------------------------------------------------------------
# Parallel pooled ingestion parity, per scheme.
# ---------------------------------------------------------------------


class TestParallelParity:
    @pytest.mark.parametrize("scheme", ["eq1", "bm25", "tf"])
    def test_pooled_ingest_bit_identical(self, small_raw_pages, scheme):
        """Scheme stats merge parent-side in page order, so pooled
        map/reduce output is bit-identical to serial — for every scheme."""
        serial = FormPageVectorizer(
            scheme=scheme, parallel=ParallelConfig(workers=1)
        ).fit_transform(small_raw_pages)
        # 64 pages: at or above MIN_PARALLEL_PAGES, so two workers
        # map on a process pool.
        pooled = FormPageVectorizer(
            scheme=scheme, parallel=ParallelConfig(workers=2)
        ).fit_transform(small_raw_pages)
        for a, b in zip(serial, pooled):
            assert a.url == b.url
            assert vector_items(a) == vector_items(b), a.url


# ---------------------------------------------------------------------
# BM25 behaviour.
# ---------------------------------------------------------------------


class TestBM25:
    @pytest.fixture(scope="class")
    def bm25_pages(self, small_raw_pages):
        vectorizer = FormPageVectorizer(scheme="bm25")
        return vectorizer.fit_transform(small_raw_pages), vectorizer

    def test_weights_normalized_per_space(self, bm25_pages):
        """Every weight in (0, 1], and each non-empty vector's maximum is
        exactly 1.0 — per space, before the PC/FC combination."""
        pages, _ = bm25_pages
        assert pages
        for page in pages:
            for vector in (page.pc, page.fc):
                values = [weight for _, weight in vector.items()]
                if not values:
                    continue
                assert all(0.0 < weight <= 1.0 for weight in values), page.url
                assert max(values) == 1.0, page.url

    def test_transform_new_drops_unknown_terms_and_stays_normalized(
        self, bm25_pages, small_raw_pages
    ):
        _, vectorizer = bm25_pages
        page = vectorizer.transform_new(small_raw_pages[0])
        for vector in (page.pc, page.fc):
            for term, weight in vector.items():
                assert 0.0 < weight <= 1.0
                assert vectorizer.pc_corpus.document_frequency(term) > 0 or \
                    vectorizer.fc_corpus.document_frequency(term) > 0

    def test_rarer_terms_score_higher_idf(self):
        scheme = BM25Scheme()
        stats = SpaceStats()
        weights = LocationWeights()
        docs = [["rare", "common"], ["common"], ["common"], ["common"]]
        for terms in docs:
            from repro.html.text_extract import TextLocation

            scheme.observe(stats, [(TextLocation.BODY, False, terms)], weights)
        idf = scheme.prepare(stats)
        assert idf["rare"] > idf["common"] > 0.0

    def test_empty_page_emits_empty_vector(self):
        from collections import Counter

        scheme = BM25Scheme()
        assert not list(scheme.vector(Counter(), SpaceStats()).items())


class TestTFScheme:
    def test_emits_raw_weighted_tf(self):
        from collections import Counter

        weighted = Counter({"jobs": 3.0, "title": 6.0})
        vector = TFScheme().vector(weighted, SpaceStats())
        assert dict(vector.items()) == dict(weighted)


# ---------------------------------------------------------------------
# Snapshot round trips & version gating (satellite 4).
# ---------------------------------------------------------------------


def _build(raw_pages, scheme):
    pipeline = CAFCPipeline(
        CAFCConfig(k=8, min_hub_cardinality=3, scheme=scheme)
    )
    result = pipeline.organize(raw_pages)
    return pipeline, result


class TestSnapshotVersioning:
    @pytest.fixture(scope="class")
    def bm25_snapshot_path(self, small_raw_pages, tmp_path_factory):
        pipeline, result = _build(small_raw_pages, "bm25")
        snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
        path = tmp_path_factory.mktemp("bm25snap") / "directory.json.gz"
        snapshot.save(path)
        return path

    def test_bm25_snapshot_is_version_two(self, bm25_snapshot_path):
        with gzip.open(bm25_snapshot_path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format_version"] == 2
        assert payload["vectorizer"]["scheme"]["name"] == "bm25"
        info = snapshot_info(bm25_snapshot_path)
        assert info["format_version"] == 2
        assert info["scheme"] == "bm25"

    def test_eq1_snapshot_keeps_version_one(
        self, small_raw_pages, tmp_path_factory
    ):
        """Equation-1 state stays readable by pre-seam (version-1-only)
        tooling: the payload is still written as format version 1."""
        pipeline, result = _build(small_raw_pages, "auto")
        snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
        path = tmp_path_factory.mktemp("eq1snap") / "directory.json"
        snapshot.save(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 1
        assert load_snapshot(path).n_pages == snapshot.n_pages

    def test_mislabelled_version_one_bm25_payload_refused(
        self, bm25_snapshot_path, tmp_path
    ):
        """A version-1 reader would silently re-weight BM25 state as
        Equation 1; the loader refuses the mislabelled payload."""
        with gzip.open(bm25_snapshot_path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["format_version"] = 1
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_snapshot(doctored)
        assert "bm25" in str(excinfo.value)

    def test_unknown_scheme_in_payload_refused(
        self, bm25_snapshot_path, tmp_path
    ):
        with gzip.open(bm25_snapshot_path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["vectorizer"]["scheme"] = {"name": "pagerank"}
        doctored = tmp_path / "unknown.json"
        doctored.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DatasetFormatError) as excinfo:
            load_snapshot(doctored)
        assert "pagerank" in str(excinfo.value)

    def test_pre_seam_state_loads_as_equation_one(self, small_raw_pages):
        """Vectorizer state exported before the scheme seam existed (no
        ``scheme`` / length keys) loads as Equation 1 and classifies new
        pages bit-identically to the live fitted vectorizer."""
        live = FormPageVectorizer()
        live.fit_transform(small_raw_pages)
        state = live.export_state()
        for key in ("scheme", "pc_total_weighted_length",
                    "fc_total_weighted_length"):
            state.pop(key)
        rebuilt = FormPageVectorizer.from_state(state)
        assert rebuilt.scheme.name == "eq1"
        for raw in small_raw_pages[:20]:
            assert vector_items(live.transform_new(raw)) == \
                vector_items(rebuilt.transform_new(raw)), raw.url


class TestSnapshotRoundTripPerScheme:
    @pytest.mark.parametrize("scheme", ["bm25", "tf"])
    def test_classify_bit_identical_after_round_trip(
        self, small_raw_pages, tmp_path, scheme
    ):
        pipeline, result = _build(small_raw_pages, scheme)
        snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
        path = tmp_path / "snap.json.gz"
        snapshot.save(path)
        loaded = load_snapshot(path)
        assert loaded.vectorizer().scheme.name == scheme
        live = snapshot.to_organizer()
        cold = loaded.to_organizer()
        for raw in small_raw_pages:
            page = live.vectorizer.transform_new(raw)
            twin = cold.vectorizer.transform_new(raw)
            assert vector_items(page) == vector_items(twin), raw.url
            assert live.classify_vectorized(page) == \
                cold.classify_vectorized(twin), raw.url


# ---------------------------------------------------------------------
# Indexed search parity per scheme (exact top-k stays exact).
# ---------------------------------------------------------------------


class TestIndexedSearchParityPerScheme:
    QUERIES = ["cheap flights", "jazz albums", "job listings", "hotel rooms"]

    @pytest.mark.parametrize("scheme", ["bm25", "tf"])
    def test_indexed_equals_scan(self, small_raw_pages, scheme):
        """Posting-list bounds come from the actual emitted vectors, so
        pruning stays exact under every scheme, not just Equation 1."""
        pipeline, result = _build(small_raw_pages, scheme)
        snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
        with FormDirectory(
            snapshot.to_organizer(), auto_recluster=False
        ) as indexed:
            assert indexed.scheme_name == scheme
            organizer = indexed.organizer
            for query in self.QUERIES:
                for n in (1, 5, 25):
                    assert indexed.search(query, n=n) == \
                        scan_clusters(organizer, query, n), query
                    assert indexed.search_pages(query, n=n) == \
                        scan_pages(organizer, query, n), query
            stats = indexed.stats()
            assert stats["scheme"] == scheme
