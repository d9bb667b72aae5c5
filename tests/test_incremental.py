"""Tests for incremental cluster maintenance."""

import math

import pytest

from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.core.incremental import IncrementalOrganizer
from repro.core.vectorizer import FormPageVectorizer
from repro.vsm.vector import SparseVector
from repro.webgen.corpus import generate_benchmark

from tests.conftest import small_config
from tests.oracle import naive_argmax, oracle_kmeans


@pytest.fixture(scope="module")
def organizer_setup(small_web, small_raw_pages):
    vectorizer = FormPageVectorizer()
    pages = vectorizer.fit_transform(small_raw_pages)
    result = cafc_ch(pages, CAFCConfig(k=8, min_hub_cardinality=3))
    initial = [
        [pages[i] for i in members]
        for members in result.clustering.compact().clusters
    ]
    return vectorizer, pages, initial


def make_organizer(organizer_setup):
    vectorizer, _, initial = organizer_setup
    return IncrementalOrganizer(
        [list(cluster) for cluster in initial], vectorizer
    )


class TestConstruction:
    def test_initial_state(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        assert len(organizer) == len(pages)
        assert organizer.cohesion > 0.0
        assert not organizer.needs_reclustering

    def test_requires_clusters(self, organizer_setup):
        vectorizer, _, _ = organizer_setup
        with pytest.raises(ValueError):
            IncrementalOrganizer([], vectorizer)

    def test_drift_threshold_validated(self, organizer_setup):
        vectorizer, _, initial = organizer_setup
        with pytest.raises(ValueError):
            IncrementalOrganizer(initial, vectorizer, drift_threshold=0.0)

    def test_membership_lookup(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        url = pages[0].url
        assert url in organizer
        assert 0 <= organizer.cluster_of(url) < len(organizer.clusters)


class TestAddRemove:
    def test_add_new_source_lands_in_right_domain(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        fresh = generate_benchmark(config=small_config(seed=55))
        correct = 0
        added = fresh.raw_pages()[:20]
        for raw in added:
            index = organizer.add(raw)
            cluster = organizer.clusters[index]
            labels = [p.label for p in cluster.pages if p.label]
            majority = max(set(labels), key=labels.count)
            correct += majority == raw.label
        assert correct / len(added) > 0.6
        assert organizer.n_added == len(added)

    def test_add_updates_centroid_and_size(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        fresh = generate_benchmark(config=small_config(seed=56))
        raw = fresh.raw_pages()[0]
        before = organizer.sizes()
        index = organizer.add(raw)
        after = organizer.sizes()
        assert after[index] == before[index] + 1
        assert raw.url in organizer

    def test_remove_managed_page(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        url = pages[0].url
        index = organizer.cluster_of(url)
        before = organizer.clusters[index].size
        assert organizer.remove(url)
        assert organizer.clusters[index].size == before - 1
        assert url not in organizer

    def test_remove_unknown_returns_false(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        assert not organizer.remove("http://nowhere.example/")

    def test_re_add_replaces(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        fresh = generate_benchmark(config=small_config(seed=57))
        raw = fresh.raw_pages()[0]
        organizer.add(raw)
        total_before = len(organizer)
        organizer.add(raw)
        assert len(organizer) == total_before  # replaced, not duplicated

    def test_cohesion_tracks_quality(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        initial_cohesion = organizer.cohesion
        # Adding well-matching pages keeps cohesion in the same regime.
        fresh = generate_benchmark(config=small_config(seed=58))
        for raw in fresh.raw_pages()[:10]:
            organizer.add(raw)
        assert organizer.cohesion > 0.5 * initial_cohesion


class TestSimilarityBudget:
    """Regression: add is O(1) in similarity evaluations — exactly
    ``len(clusters) + 1`` per add (one per centroid plus the new page's
    cohesion contribution), independent of how many pages are managed;
    remove costs zero."""

    def test_add_costs_k_plus_one_similarities(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        k = len(organizer.clusters)
        fresh = generate_benchmark(config=small_config(seed=59))
        raw_pages = fresh.raw_pages()[:12]
        budgets = []
        for raw in raw_pages:
            before = organizer.similarity.stats.comparisons
            organizer.add(raw)
            budgets.append(organizer.similarity.stats.comparisons - before)
        # Every add pays the same price, no matter how large the
        # collection has grown, and that price is exactly k + 1.
        assert budgets == [k + 1] * len(raw_pages)

    def test_remove_costs_no_similarities(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        before = organizer.similarity.stats.comparisons
        assert organizer.remove(pages[0].url)
        assert organizer.similarity.stats.comparisons == before

    def test_cohesion_read_costs_no_similarities(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        before = organizer.similarity.stats.comparisons
        _ = organizer.cohesion
        _ = organizer.needs_reclustering
        assert organizer.similarity.stats.comparisons == before

    def test_refresh_cohesion_matches_running_sum_initially(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        running = organizer.cohesion
        assert organizer.refresh_cohesion() == pytest.approx(running, abs=1e-9)


class TestEmptyOrganizer:
    """Regression: an organizer whose clusters hold no pages (all
    removed, or seeded with empty clusters) must not crash or wedge
    drift detection."""

    def empty_organizer(self, organizer_setup):
        vectorizer, _, initial = organizer_setup
        return IncrementalOrganizer(
            [[] for _ in initial], vectorizer
        )

    def test_refresh_cohesion_on_empty(self, organizer_setup):
        organizer = self.empty_organizer(organizer_setup)
        assert organizer.refresh_cohesion() == 0.0
        assert organizer.cohesion == 0.0
        assert not organizer.needs_reclustering

    def test_drain_then_refresh(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        for url in list(organizer._by_url):
            assert organizer.remove(url)
        assert len(organizer) == 0
        assert organizer.refresh_cohesion() == 0.0
        assert organizer.cohesion == 0.0
        assert not organizer.needs_reclustering

    def test_baseline_self_heals_after_first_add(self, organizer_setup):
        # Starting empty, the drift baseline is 0.0 — which would make
        # needs_reclustering permanently False.  The first add with real
        # cohesion must re-arm it.
        organizer = self.empty_organizer(organizer_setup)
        fresh = generate_benchmark(config=small_config(seed=61))
        for raw in fresh.raw_pages()[:5]:
            organizer.add(raw)
        assert organizer.cohesion > 0.0
        assert organizer._baseline_cohesion > 0.0


class TestBatchClassify:
    """The serving hooks: classify_batch must be the per-pair Equation-3
    argmax, and recluster must repair drift in place."""

    def test_classify_batch_matches_scalar(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        probes = pages[:16]
        scored = organizer.classify_batch(probes)
        assert len(scored) == len(probes)
        for page, got in zip(probes, scored):
            want = naive_argmax(
                organizer.config, page, organizer.centroid_pairs()
            )
            assert got == want, page.url  # same cluster AND same float
            assert got == organizer.classify_vectorized(page), page.url

    def test_classify_batch_costs_k_per_page(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        _, pages, _ = organizer_setup
        probes = pages[:16]
        before = organizer.similarity.stats.comparisons
        organizer.classify_batch(probes)
        paid = organizer.similarity.stats.comparisons - before
        # One Equation-3 evaluation per (page, centroid) pair.
        assert paid == len(probes) * len(organizer.clusters)

    def test_recluster_preserves_pages_and_k(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        n_pages = len(organizer)
        k = len(organizer.clusters)
        moved = organizer.recluster()
        assert moved >= 0
        assert len(organizer) == n_pages
        assert len(organizer.clusters) == k
        # Membership map stays consistent with cluster contents.
        for index, cluster in enumerate(organizer.clusters):
            for page in cluster.pages:
                assert organizer.cluster_of(page.url) == index

    def test_recluster_resets_drift_baseline(self, organizer_setup):
        organizer = make_organizer(organizer_setup)
        organizer.recluster()
        assert organizer._baseline_cohesion == pytest.approx(
            organizer.cohesion
        )
        assert not organizer.needs_reclustering


class TestReclusterEmptiedCluster:
    """A cluster that wins pages on the first pass and loses them all on
    the second keeps the Equation-4 mean it had, in both spaces, even
    when only one space is scored."""

    @staticmethod
    def angled(scored: str, degrees: float, index: int) -> FormPage:
        """A page whose scored space is the unit vector at ``degrees``
        over two terms; its other space holds a term of its own."""
        radians = math.radians(degrees)
        spaces = {
            scored: SparseVector(
                {"zzangle-a": math.cos(radians), "zzangle-b": math.sin(radians)}
            ),
            "pc" if scored == "fc" else "fc": SparseVector(
                {f"zzangle-own-{index}": 1.0 + index}
            ),
        }
        return FormPage(url=f"http://angle{index}.example/", **spaces)

    @pytest.mark.parametrize("mode", [ContentMode.FC, ContentMode.PC])
    def test_emptied_centroid_keeps_both_spaces(self, mode):
        scored = mode.value
        pages = [
            self.angled(scored, degrees, index)
            for index, degrees in enumerate(
                (0, 10, 20, 22, 25, 65, 68, 70, 80, 90)
            )
        ]
        # Seeds at 0, 45 and 90 degrees: the middle cluster takes the
        # pages at 25 and 65 degrees first, then loses both to the
        # outer clusters' updated means.
        seeds = [
            VectorPair.of(self.angled(scored, degrees, 100 + i))
            for i, degrees in enumerate((0, 45, 90))
        ]
        config = CAFCConfig(k=3, content_mode=mode)
        organizer = IncrementalOrganizer(
            [pages[:5], pages[5:6], pages[6:]],
            FormPageVectorizer(),
            config=config,
            centroids=seeds,
        )
        organizer.recluster()
        oracle = oracle_kmeans(pages, seeds, config)
        emptied = organizer.clusters[1]
        assert emptied.pages == [] and oracle.clustering.clusters[1] == []
        assert emptied.centroid == oracle.centroids[1]
        assert emptied.centroid == centroid_of([pages[4], pages[5]])
        assert emptied.centroid.pc and emptied.centroid.fc
