"""Tests for sparse vectors (repro.vsm.vector) — including property-based
algebra checks."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import (
    KeywordQuery,
    SparseVector,
    accumulate,
    cosine_similarity,
    mean_vector,
)

weights_strategy = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    values=st.floats(min_value=-100, max_value=100, allow_nan=False),
    max_size=6,
)
vectors = weights_strategy.map(SparseVector)
nonneg_weights = st.dictionaries(
    keys=st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    values=st.floats(min_value=0.001, max_value=100, allow_nan=False),
    max_size=6,
)
nonneg_vectors = nonneg_weights.map(SparseVector)


class TestBasics:
    def test_zero_weights_dropped(self):
        vector = SparseVector({"a": 1.0, "b": 0.0})
        assert len(vector) == 1
        assert "b" not in vector

    def test_getitem_default_zero(self):
        vector = SparseVector({"a": 2.0})
        assert vector["a"] == 2.0
        assert vector["missing"] == 0.0

    def test_bool(self):
        assert not SparseVector()
        assert SparseVector({"a": 1.0})

    def test_equality(self):
        assert SparseVector({"a": 1.0}) == SparseVector({"a": 1.0})
        assert SparseVector({"a": 1.0}) != SparseVector({"a": 2.0})
        assert SparseVector({"a": 1.0}) != "not a vector"

    def test_iteration_and_items(self):
        vector = SparseVector({"a": 1.0, "b": 2.0})
        assert set(vector) == {"a", "b"}
        assert dict(vector.items()) == {"a": 1.0, "b": 2.0}

    def test_repr_mentions_nnz(self):
        assert "nnz=2" in repr(SparseVector({"a": 1.0, "b": 2.0}))


class TestAlgebra:
    def test_norm(self):
        assert SparseVector({"a": 3.0, "b": 4.0}).norm() == pytest.approx(5.0)

    def test_norm_empty(self):
        assert SparseVector().norm() == 0.0

    def test_dot_disjoint(self):
        assert SparseVector({"a": 1.0}).dot(SparseVector({"b": 1.0})) == 0.0

    def test_dot_overlapping(self):
        a = SparseVector({"x": 2.0, "y": 3.0})
        b = SparseVector({"y": 4.0, "z": 5.0})
        assert a.dot(b) == pytest.approx(12.0)

    def test_scale(self):
        scaled = SparseVector({"a": 2.0}).scale(2.5)
        assert scaled["a"] == pytest.approx(5.0)

    def test_scale_by_zero_gives_empty(self):
        assert len(SparseVector({"a": 2.0}).scale(0.0)) == 0

    def test_add(self):
        total = SparseVector({"a": 1.0}).add(SparseVector({"a": 2.0, "b": 3.0}))
        assert total["a"] == pytest.approx(3.0)
        assert total["b"] == pytest.approx(3.0)

    def test_add_cancellation_drops_term(self):
        total = SparseVector({"a": 1.0}).add(SparseVector({"a": -1.0}))
        assert "a" not in total

    def test_normalized(self):
        unit = SparseVector({"a": 3.0, "b": 4.0}).normalized()
        assert unit.norm() == pytest.approx(1.0)

    def test_normalized_empty(self):
        assert SparseVector().normalized() == SparseVector()

    def test_top_terms(self):
        vector = SparseVector({"a": 1.0, "b": 3.0, "c": 2.0})
        assert [t for t, _ in vector.top_terms(2)] == ["b", "c"]

    def test_top_terms_tiebreak_alphabetical(self):
        vector = SparseVector({"z": 1.0, "a": 1.0})
        assert [t for t, _ in vector.top_terms(2)] == ["a", "z"]


class TestCosine:
    def test_identical_vectors(self):
        vector = SparseVector({"a": 1.0, "b": 2.0})
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity(
            SparseVector({"a": 1.0}), SparseVector({"b": 1.0})
        ) == 0.0

    def test_empty_vector_zero(self):
        assert cosine_similarity(SparseVector(), SparseVector({"a": 1.0})) == 0.0
        assert cosine_similarity(SparseVector(), SparseVector()) == 0.0

    def test_scale_invariance(self):
        a = SparseVector({"x": 1.0, "y": 2.0})
        b = SparseVector({"x": 3.0, "y": 1.0})
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(a.scale(7.0), b.scale(0.5))
        )


class TestKeywordQuery:
    """A keyword query scores exactly like the fully interned query, but
    interns none of its words."""

    def test_matches_interned_query_bit_for_bit(self):
        rng = random.Random(2027)
        known = [f"kq-known-{i}" for i in range(40)]
        for term in known:
            VOCABULARY.intern(term)
        for trial in range(300):
            row = SparseVector({
                term: rng.uniform(0.01, 9.0)
                for term in rng.sample(known, rng.randint(0, 12))
            })
            words = rng.sample(known, rng.randint(0, 14))
            words += words[: rng.randint(0, 3)]  # repeats count twice
            novel = rng.randint(0, 6)
            words += [f"kq-novel-{trial}-{i}" for i in range(novel)]
            rng.shuffle(words)
            size = len(VOCABULARY)
            query = KeywordQuery(words)
            got = query.cosine(row)
            assert len(VOCABULARY) == size
            counts = {}
            for word in words:
                counts[word] = counts.get(word, 0.0) + 1.0
            interned = SparseVector(counts)
            assert got == cosine_similarity(interned, row), trial
            assert query.norm == interned.norm()
            assert query.matched_terms(row) == sorted(
                term for term in interned.terms() if term in row
            )
            assert bool(query) == bool(words)


class TestAggregation:
    def test_accumulate(self):
        total = accumulate([SparseVector({"a": 1.0}), SparseVector({"a": 1.0, "b": 2.0})])
        assert total["a"] == pytest.approx(2.0)
        assert total["b"] == pytest.approx(2.0)

    def test_accumulate_empty(self):
        assert accumulate([]) == SparseVector()

    def test_mean_vector(self):
        mean = mean_vector([SparseVector({"a": 2.0}), SparseVector({"a": 4.0})])
        assert mean["a"] == pytest.approx(3.0)

    def test_mean_vector_empty(self):
        assert mean_vector([]) == SparseVector()

    def test_mean_of_one_is_identity(self):
        vector = SparseVector({"a": 1.5, "b": 2.5})
        assert mean_vector([vector]) == vector


class TestProperties:
    @given(vectors, vectors)
    def test_dot_commutative(self, a, b):
        assert a.dot(b) == pytest.approx(b.dot(a))

    @given(vectors)
    def test_norm_nonnegative(self, vector):
        assert vector.norm() >= 0.0

    @given(vectors)
    def test_cauchy_schwarz(self, vector):
        other = vector.scale(2.0)
        assert abs(vector.dot(other)) <= vector.norm() * other.norm() + 1e-6

    @given(nonneg_vectors, nonneg_vectors)
    def test_cosine_bounds_nonnegative_vectors(self, a, b):
        similarity = cosine_similarity(a, b)
        assert -1e-9 <= similarity <= 1.0 + 1e-9

    @given(vectors, vectors)
    def test_cosine_symmetric(self, a, b):
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))

    @given(vectors)
    def test_self_similarity_is_one(self, vector):
        if vector.norm() > 1e-6:
            assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    @given(vectors, vectors)
    def test_add_matches_manual_sum(self, a, b):
        total = a.add(b)
        for term in set(a) | set(b):
            assert total[term] == pytest.approx(a[term] + b[term])

    @given(st.lists(nonneg_vectors, min_size=1, max_size=5))
    def test_mean_norm_bounded_by_max(self, vector_list):
        mean = mean_vector(vector_list)
        assert mean.norm() <= max(v.norm() for v in vector_list) + 1e-6
