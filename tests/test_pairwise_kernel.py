"""The engine's all-pairs kernel is bit-identical to the CSR product's
summation order (``tests/oracle.py``'s ``sequential_pairwise``).

Algorithm 3's hub-distance matrix and the HAC / Table 2 matrix are both
this kernel, so every float is pinned exactly, not to a tolerance: on
hand-built rows (unsorted ids, empty rows, n = 1..3, rows long enough
that NumPy's pairwise summation would round differently), with the
output cut into column blocks, and on the seed-1 corpus's hub centroids
and 454 pages.
"""

import random

import numpy as np
import pytest

from repro.core import simengine
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import VectorPair
from repro.core.hubs import build_hub_clusters
from repro.core.pipeline import CAFCPipeline
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector
from repro.webgen import generate_benchmark
from tests.oracle import sequential_pairwise, sequential_similarity_matrix

MODES = [ContentMode.FC_PC, ContentMode.PC, ContentMode.FC]


def _space(vectors):
    items = [VectorPair(pc=vector, fc=SparseVector()) for vector in vectors]
    return SimilarityEngine(items, FormPageSimilarity(ContentMode.PC)).space("pc")


def _ids(prefix, count):
    return [VOCABULARY.intern(f"kernel-{prefix}-{i}") for i in range(count)]


def _random_rows(rng, ids, n, length):
    """``n`` rows of ``length`` terms drawn from ``ids``, in shuffled
    (not ascending) id order, with weights spread over several orders
    of magnitude so that the summation order shows in the last bit."""
    rows = []
    for _ in range(n):
        chosen = rng.sample(ids, length)
        rows.append(SparseVector.from_ids(
            (t, rng.uniform(0.01, 1.0) * 10.0 ** rng.randint(-3, 3))
            for t in chosen
        ))
    return rows


def _sum_in_order(values) -> float:
    total = 0.0
    for value in values:
        total += float(value)
    return total


def _assert_identical(space, vectors):
    got = space.pairwise()
    want = sequential_pairwise(vectors)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestHandBuiltRows:
    def test_unsorted_ids_and_empty_rows(self):
        a, b, c, d = _ids("small", 4)
        vectors = [
            SparseVector.from_ids([(c, 3.0), (a, 1.0), (b, 2.0)]),
            SparseVector(),
            SparseVector.from_ids([(b, 1.0), (d, 0.5), (a, 7.0)]),
            SparseVector.from_ids([(d, 2.0)]),
            SparseVector(),
        ]
        assert list(vectors[0].id_arrays()[0]) != sorted(vectors[0].id_arrays()[0])
        _assert_identical(_space(vectors), vectors)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_collections(self, n):
        rng = random.Random(n)
        vectors = _random_rows(rng, _ids("tiny", 40), n, 20)
        _assert_identical(_space(vectors), vectors)

    def test_all_rows_empty(self):
        vectors = [SparseVector(), SparseVector(), SparseVector()]
        got = _space(vectors).pairwise()
        assert np.array_equal(got, np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_long_rows_sum_sequentially(self, n):
        """Rows of more than 8 terms: NumPy's pairwise summation (what a
        one-column reduction falls back to) rounds differently here, so
        only a sequential sum matches."""
        rng = random.Random(100 + n)
        vectors = _random_rows(rng, _ids("long", 80), n, 64)
        # The data has teeth: NumPy's pairwise sum of row 0's self
        # products differs from the in-order sum in some rotation.
        weights = np.frombuffer(vectors[0].id_arrays()[1], dtype=np.float64)
        products = (weights / vectors[0].norm()) ** 2
        assert any(
            np.add.reduce(np.roll(products, s)) != _sum_in_order(np.roll(products, s))
            for s in range(len(products))
        )
        _assert_identical(_space(vectors), vectors)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("columns", [2, 3])
    def test_column_blocks(self, monkeypatch, n, columns):
        """Blocks of two or three columns, and a lone last column joined
        to the block before it, give the same floats as one block."""
        rng = random.Random(200 + n)
        vectors = _random_rows(rng, _ids("blocks", 60), n, 30)
        space = _space(vectors)
        whole = space.pairwise()
        terms = len({t for v in vectors for t in v.id_arrays()[0]})
        monkeypatch.setattr(simengine, "PAIRWISE_BLOCK_BYTES", 8 * terms * columns)
        _assert_identical(space, vectors)
        assert np.array_equal(space.pairwise(), whole)


class TestSimilarityPairwise:
    @pytest.mark.parametrize("mode", MODES)
    def test_every_content_mode(self, mode):
        rng = random.Random(7)
        ids = _ids("eq3", 50)
        pcs = _random_rows(rng, ids, 12, 25) + [SparseVector()]
        fcs = [SparseVector()] + _random_rows(rng, ids, 12, 10)
        items = [VectorPair(pc=pc, fc=fc) for pc, fc in zip(pcs, fcs)]
        similarity = FormPageSimilarity(mode, 1.0, 2.0)
        got = similarity.pairwise(items)
        assert np.array_equal(got, sequential_similarity_matrix(similarity, items))


@pytest.fixture(scope="module")
def seed1():
    pipeline = CAFCPipeline(CAFCConfig())
    pages = pipeline.vectorize(generate_benchmark(seed=1).raw_pages())
    hubs = build_hub_clusters(
        pages, min_cardinality=pipeline.config.min_hub_cardinality
    )
    return pipeline.similarity, pages, [hub.centroid for hub in hubs]


class TestSeedOneCorpus:
    def test_hub_centroid_matrix(self, seed1):
        similarity, _, centroids = seed1
        assert len(centroids) > 100
        engine = SimilarityEngine(centroids, similarity)
        for name in engine.space_names:
            vectors = [getattr(c, name) for c in centroids]
            _assert_identical(engine.space(name), vectors)
        assert np.array_equal(
            similarity.pairwise(centroids),
            sequential_similarity_matrix(similarity, centroids),
        )

    def test_page_matrix(self, seed1):
        similarity, pages, _ = seed1
        assert len(pages) == 454
        assert np.array_equal(
            similarity.pairwise(pages),
            sequential_similarity_matrix(similarity, pages),
        )
