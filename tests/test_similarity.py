"""Tests for Equation-3 similarity (repro.core.similarity)."""

import pytest

from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair
from repro.core.similarity import FormPageSimilarity
from repro.vsm.vector import SparseVector
from tests.oracle import naive_argmax


def page(pc=None, fc=None, url="http://x.com/"):
    return FormPage(
        url=url,
        pc=SparseVector(pc or {}),
        fc=SparseVector(fc or {}),
    )


class TestCombinedSimilarity:
    def test_equal_weights_average(self):
        similarity = FormPageSimilarity(ContentMode.FC_PC, 1.0, 1.0)
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 1.0}, fc={"z": 1.0})
        # PC cosine 1.0, FC cosine 0.0 -> (1 + 0) / 2.
        assert similarity(a, b) == pytest.approx(0.5)

    def test_weighted_combination(self):
        similarity = FormPageSimilarity(ContentMode.FC_PC, page_weight=3.0, form_weight=1.0)
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 1.0}, fc={"z": 1.0})
        assert similarity(a, b) == pytest.approx(0.75)

    def test_identical_pages_score_one(self):
        similarity = FormPageSimilarity()
        a = page(pc={"x": 2.0}, fc={"y": 3.0})
        assert similarity(a, a) == pytest.approx(1.0)

    def test_pc_only_mode(self):
        similarity = FormPageSimilarity(ContentMode.PC)
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 1.0}, fc={"y": 1.0})
        c = page(pc={"q": 1.0}, fc={"y": 1.0})
        assert similarity(a, b) == pytest.approx(1.0)
        assert similarity(a, c) == 0.0

    def test_fc_only_mode(self):
        similarity = FormPageSimilarity(ContentMode.FC)
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"z": 1.0}, fc={"y": 1.0})
        assert similarity(a, b) == pytest.approx(1.0)

    def test_empty_feature_space_contributes_zero(self):
        similarity = FormPageSimilarity()
        keyword_page = page(pc={"x": 1.0}, fc={})
        other = page(pc={"x": 1.0}, fc={"y": 1.0})
        assert similarity(keyword_page, other) == pytest.approx(0.5)

    def test_distance_complements_similarity(self):
        similarity = FormPageSimilarity()
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 1.0}, fc={"y": 1.0})
        assert 1.0 - similarity(a, b) == pytest.approx(0.0)
        c = page(pc={"q": 1.0}, fc={"r": 1.0})
        assert 1.0 - similarity(a, c) == pytest.approx(1.0)

    def test_works_on_vector_pairs(self):
        similarity = FormPageSimilarity()
        pair = VectorPair(pc=SparseVector({"x": 1.0}), fc=SparseVector({"y": 1.0}))
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        assert similarity(a, pair) == pytest.approx(1.0)

    def test_symmetry(self):
        similarity = FormPageSimilarity()
        a = page(pc={"x": 1.0, "y": 2.0}, fc={"q": 1.0})
        b = page(pc={"x": 2.0}, fc={"q": 3.0, "r": 1.0})
        assert similarity(a, b) == pytest.approx(similarity(b, a))

    def test_range_zero_to_one(self):
        similarity = FormPageSimilarity()
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 0.5, "z": 1.0}, fc={})
        assert 0.0 <= similarity(a, b) <= 1.0


class TestWeights:
    """One C1 / C2 rule: the similarity rejects what CAFCConfig rejects,
    with the same message."""

    @pytest.mark.parametrize(
        "weights", [(-1.0, 2.0), (2.0, -1.0), (0.0, 0.0), (-1.0, -1.0)]
    )
    def test_rejected_like_config(self, weights):
        with pytest.raises(ValueError) as config_error:
            CAFCConfig(page_weight=weights[0], form_weight=weights[1])
        with pytest.raises(ValueError) as similarity_error:
            FormPageSimilarity(ContentMode.FC_PC, *weights)
        assert str(similarity_error.value) == str(config_error.value)

    def test_zero_weight_space_is_not_scored(self):
        similarity = FormPageSimilarity(ContentMode.FC_PC, 0.0, 1.0)
        assert similarity.spaces == ("fc",)
        a = page(pc={"x": 1.0}, fc={"y": 1.0})
        b = page(pc={"x": 1.0}, fc={"y": 1.0, "z": 1.0})
        assert similarity(a, b) == similarity.pairwise([a, b])[0, 1]


class TestBest:
    """Section 5's argmax is the oracle's: the first of tied centroids
    wins, with the same float."""

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_identical_centroids(self, mode):
        config = CAFCConfig(content_mode=mode)
        target = page(pc={"x": 1.0, "y": 1.0}, fc={"f": 2.0, "g": 1.0})
        twin = VectorPair.of(
            page(pc={"x": 2.0, "z": 1.0}, fc={"f": 1.0, "h": 1.0})
        )
        centroids = [
            VectorPair(pc=SparseVector({"z": 1.0}), fc=SparseVector()),
            twin,
            VectorPair(pc=twin.pc, fc=twin.fc),
        ]
        got = FormPageSimilarity.from_config(config).best(target, centroids)
        assert got == naive_argmax(config, target, centroids)
        assert got[0] == 1 and got[1] > 0.0

    @pytest.mark.parametrize("mode", list(ContentMode))
    def test_all_scores_zero(self, mode):
        config = CAFCConfig(content_mode=mode)
        target = page(pc={"x": 1.0}, fc={"f": 1.0})
        centroids = [
            VectorPair(
                pc=SparseVector({"a": 1.0}), fc=SparseVector({"b": 1.0})
            ),
            VectorPair(pc=SparseVector(), fc=SparseVector()),
            VectorPair(pc=SparseVector({"c": 1.0}), fc=SparseVector()),
        ]
        got = FormPageSimilarity.from_config(config).best(target, centroids)
        assert got == naive_argmax(config, target, centroids) == (0, 0.0)

    def test_counts_one_comparison_per_centroid(self):
        similarity = FormPageSimilarity()
        target = page(pc={"x": 1.0}, fc={"f": 1.0})
        similarity.best(target, [VectorPair.of(target)] * 5)
        assert similarity.stats.comparisons == 5
