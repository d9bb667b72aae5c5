"""Tests for Algorithm 3 — greedy farthest-first hub-cluster selection."""

import numpy as np
import pytest

from repro.core.form_page import VectorPair
from repro.core.hubs import HubCluster
from repro.core.seeds import hub_distance_matrix, select_hub_clusters
from repro.core.config import CAFCConfig, ContentMode
from repro.core.hubs import build_hub_clusters
from repro.core.similarity import FormPageSimilarity
from repro.vsm.vector import SparseVector
from tests.oracle import NaiveBackend, max_abs_diff


def cluster(hub_url, pc_terms, members=(0,)):
    return HubCluster(
        hub_url=hub_url,
        members=list(members),
        centroid=VectorPair(
            pc=SparseVector(pc_terms),
            fc=SparseVector(pc_terms),
        ),
    )


SIM = NaiveBackend(FormPageSimilarity())


def make_clusters():
    """Four clusters: two 'job'-flavored near-duplicates, one 'hotel', one
    'auto' — all mutually orthogonal except the two job ones."""
    return [
        cluster("hub-job-1", {"job": 1.0, "career": 1.0}),
        cluster("hub-job-2", {"job": 1.0, "career": 0.9}),
        cluster("hub-hotel", {"hotel": 1.0}),
        cluster("hub-auto", {"auto": 1.0}),
    ]


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        clusters = make_clusters()
        matrix = hub_distance_matrix(clusters, similarity=SIM)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_orthogonal_centroids_distance_one(self):
        clusters = make_clusters()
        matrix = hub_distance_matrix(clusters, similarity=SIM)
        assert matrix[2, 3] == pytest.approx(1.0)

    def test_similar_centroids_small_distance(self):
        clusters = make_clusters()
        matrix = hub_distance_matrix(clusters, similarity=SIM)
        assert matrix[0, 1] < 0.05


class TestSelection:
    def test_selects_diverse_clusters(self):
        clusters = make_clusters()
        selected = select_hub_clusters(clusters, 3, similarity=SIM)
        urls = {c.hub_url for c in selected}
        # One of each flavor; never both near-duplicate job hubs.
        assert not {"hub-job-1", "hub-job-2"} <= urls
        assert "hub-hotel" in urls
        assert "hub-auto" in urls

    def test_k_equals_available(self):
        clusters = make_clusters()
        selected = select_hub_clusters(clusters, 4, similarity=SIM)
        assert len(selected) == 4

    def test_k_one(self):
        clusters = make_clusters()
        assert len(select_hub_clusters(clusters, 1, similarity=SIM)) == 1

    def test_two_most_distant_first(self):
        clusters = make_clusters()
        selected = select_hub_clusters(clusters, 2, similarity=SIM)
        matrix = hub_distance_matrix(clusters, similarity=SIM)
        best = matrix.max()
        indices = [clusters.index(c) for c in selected]
        assert matrix[indices[0], indices[1]] == pytest.approx(best)

    def test_too_few_clusters_raises(self):
        with pytest.raises(ValueError):
            select_hub_clusters(make_clusters()[:2], 3, similarity=SIM)

    def test_k_zero_raises(self):
        with pytest.raises(ValueError):
            select_hub_clusters(make_clusters(), 0, similarity=SIM)

    def test_deterministic(self):
        clusters = make_clusters()
        first = [
            c.hub_url for c in select_hub_clusters(clusters, 3, similarity=SIM)
        ]
        second = [
            c.hub_url for c in select_hub_clusters(clusters, 3, similarity=SIM)
        ]
        assert first == second

    def test_no_duplicates_in_selection(self):
        clusters = make_clusters()
        selected = select_hub_clusters(clusters, 4, similarity=SIM)
        assert len({id(c) for c in selected}) == 4


class TestEngineMatchesOracle:
    def test_default_backend_matches_oracle(self):
        clusters = make_clusters()
        engine = hub_distance_matrix(clusters)
        oracle = hub_distance_matrix(clusters, similarity=SIM)
        assert isinstance(engine, np.ndarray)
        assert max_abs_diff(engine, oracle) <= 1e-12

    @pytest.mark.parametrize("mode", list(ContentMode))
    @pytest.mark.parametrize("min_cardinality", [3, 8])
    def test_corpus_selection_identical(
        self, benchmark_pages, mode, min_cardinality
    ):
        """Algorithm 3 on the 454-page corpus picks the same hubs, in the
        same order, from the engine matrix as from the scalar oracle."""
        config = CAFCConfig(k=8, content_mode=mode)
        clusters = build_hub_clusters(
            benchmark_pages, min_cardinality=min_cardinality
        )
        oracle = select_hub_clusters(
            clusters, 8, similarity=NaiveBackend.from_config(config)
        )
        engine = select_hub_clusters(
            clusters, 8, similarity=FormPageSimilarity.from_config(config)
        )
        assert [c.hub_url for c in engine] == [c.hub_url for c in oracle]
