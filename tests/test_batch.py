"""Tests for the all-pairs Equation-3 matrix (the compiled engine's
all-pairs kernel, pinned to the scalar oracle) and result persistence
(repro.datasets.results)."""

import numpy as np
import pytest

from repro.clustering.hac import Linkage, hac
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import VectorPair
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine
from repro.datasets import load_result, save_result
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector, cosine_similarity
from tests.oracle import NaiveBackend, max_abs_diff


def pc_engine(vectors):
    """Plain cosine over ``vectors`` (PC-only compilation)."""
    items = [VectorPair(pc=vector, fc=SparseVector()) for vector in vectors]
    return SimilarityEngine(items, FormPageSimilarity(ContentMode.PC))


class TestCosineMatrix:
    def _vectors(self):
        return [
            SparseVector({"a": 1.0, "b": 2.0}),
            SparseVector({"b": 1.0, "c": 3.0}),
            SparseVector({"d": 5.0}),
            SparseVector({}),
        ]

    def test_matches_scalar_cosine(self):
        vectors = self._vectors()
        matrix = pc_engine(vectors).pairwise()
        for i in range(len(vectors)):
            for j in range(len(vectors)):
                expected = cosine_similarity(vectors[i], vectors[j])
                assert matrix[i, j] == pytest.approx(expected, abs=1e-12)

    def test_zero_vector_row_is_zero(self):
        matrix = pc_engine(self._vectors()).pairwise()
        assert np.all(matrix[3] == 0.0)

    def test_empty_collection(self):
        assert pc_engine([]).pairwise().shape == (0, 0)

    def test_term_index_stable(self):
        """A compiled row is the vector itself, shared: its columns are
        the vector's own VOCABULARY ids, in row order, and the
        normalized weights line up with them."""
        vectors = self._vectors()
        space = pc_engine(vectors).space("pc")
        for row, vector in enumerate(vectors):
            assert space.vectors[row] is vector
            ids = space.vectors[row].id_arrays()[0]
            assert [VOCABULARY.term(i) for i in ids] == vector.terms()
            assert len(space.nrm[row]) == len(ids)

    def test_rows_stored_normalized(self):
        vectors = self._vectors()
        space = pc_engine(vectors).space("pc")
        assert len(space.nrm) == 4
        # Rows are stored normalized: 2 / |(1, 2)|.
        b = VOCABULARY.id_of("b")
        ids = list(space.vectors[0].id_arrays()[0])
        assert space.nrm[0][ids.index(b)] == pytest.approx(2.0 / 5.0 ** 0.5)
        assert sum(w * w for w in space.nrm[1]) == pytest.approx(1.0)
        assert len(space.nrm[3]) == 0


class TestFormPageSimilarityMatrix:
    """The engine's all-pairs Equation-3 matrix agrees with the per-pair
    oracle, and HAC cuts it identically."""

    def _check(self, pages, config):
        scalar = NaiveBackend.from_config(config).pairwise(pages)
        engine = FormPageSimilarity.from_config(config).pairwise(pages)
        assert max_abs_diff(scalar, engine) <= 1e-12
        return scalar, engine

    def test_matches_scalar_path_on_benchmark_sample(self, small_pages):
        self._check(small_pages[:40], CAFCConfig())

    @pytest.mark.parametrize("mode", [ContentMode.FC, ContentMode.PC])
    def test_single_space_modes_match(self, small_pages, mode):
        self._check(small_pages[:30], CAFCConfig(content_mode=mode))

    def test_weighted_combination_matches(self, small_pages):
        self._check(
            small_pages[:30], CAFCConfig(page_weight=3.0, form_weight=1.0)
        )

    def test_no_spaces_rejected(self, small_pages):
        with pytest.raises(ValueError):
            FormPageSimilarity(page_weight=0.0, form_weight=0.0)

    def test_empty_pages(self):
        engine = SimilarityEngine([], FormPageSimilarity())
        assert engine.pairwise().shape == (0, 0)

    @pytest.mark.parametrize(
        "linkage", [Linkage.AVERAGE, Linkage.SINGLE, Linkage.COMPLETE]
    )
    def test_hac_clusterings_identical(self, small_pages, linkage):
        scalar, engine = self._check(small_pages, CAFCConfig())
        assert (
            hac(engine, n_clusters=8, linkage=linkage).clustering.clusters
            == hac(scalar, n_clusters=8, linkage=linkage).clustering.clusters
        )


class TestResultPersistence:
    @pytest.fixture(scope="class")
    def organized(self, small_raw_pages):
        from repro.core.pipeline import CAFCPipeline

        pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
        return pipeline.organize(small_raw_pages)

    def test_round_trip(self, organized, tmp_path):
        path = tmp_path / "directory.json"
        save_result(organized, path)
        loaded = load_result(path)
        assert loaded.algorithm == organized.algorithm
        assert loaded.n_clusters == organized.n_clusters
        assert loaded.n_pages == organized.n_pages
        for original, restored in zip(organized.clusters, loaded.clusters):
            assert restored.top_terms == original.top_terms
            assert restored.urls == original.urls
            assert restored.centroid.pc == original.centroid.pc
            assert restored.centroid.fc == original.centroid.fc

    def test_loaded_result_supports_exploration(self, organized, tmp_path):
        from repro.explore import ClusterExplorer

        path = tmp_path / "directory.json"
        save_result(organized, path)
        loaded = load_result(path)
        hits = ClusterExplorer(loaded).search("hotel rooms")
        assert hits

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError, match="format_version"):
            load_result(path)

    def test_top_level_type_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_result(path)
