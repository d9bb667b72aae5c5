"""Tests for the streaming ingestion path (repro.stream and friends).

The load-bearing claims, each pinned here:

* the synthetic page stream is a pure function of (seed, index) —
  restartable and chunkable with identical output;
* streamed Equation-1 weights respect the documented error bound
  ``|w_emitted - w_exact| <= LOC*TF*drift_threshold`` for every
  in-vocabulary term, across many seeded streams, and converge to the
  exact weights as the threshold goes to zero;
* a terminal re-weight plus re-emission reproduces batch
  ``fit_transform`` weights bit-identically (no pruning);
* the bounded term table and DF pruning actually bound memory without
  moving surviving IDFs.
"""

import math
import os
import subprocess
import sys

import pytest

import repro
from repro.clustering.minibatch import MiniBatchKMeans, ReservoirSample
from repro.core.vectorizer import FormPageVectorizer
from repro.stream import (
    StreamConfig,
    StreamingIngestor,
    StreamOrganizer,
    run_stream,
)
from repro.vsm.corpus import CorpusStats
from repro.vsm.interning import TermTable
from repro.vsm.vector import SparseVector
from repro.webgen.stream import page_at, stream_chunks, stream_pages


def _serial_vectorizer():
    return FormPageVectorizer()


# ----------------------------------------------------------------
# The streaming page emitter.
# ----------------------------------------------------------------


class TestStreamEmitter:
    def test_pure_function_of_seed_and_index(self):
        a = page_at(137, seed=5)
        b = page_at(137, seed=5)
        assert a.url == b.url and a.html == b.html and a.label == b.label

    def test_different_indices_differ(self):
        urls = {page_at(i, seed=5).url for i in range(50)}
        assert len(urls) == 50

    def test_restartable_mid_stream(self):
        full = [p.url for p in stream_pages(20, seed=9)]
        tail = [p.url for p in stream_pages(12, seed=9, start=8)]
        assert full[8:] == tail

    def test_chunks_cover_stream_exactly(self):
        chunks = list(stream_chunks(100, chunk_size=32, seed=3))
        assert [c.count for c in chunks] == [32, 32, 32, 4]
        chunked = [p.url for c in chunks for p in c.pages()]
        direct = [p.url for p in stream_pages(100, seed=3)]
        assert chunked == direct

    def test_labels_are_gold_domains(self):
        labels = {p.label for p in stream_pages(200, seed=1)}
        assert labels <= {
            "airfare", "auto", "book", "hotel",
            "job", "movie", "music", "rental",
        }
        assert len(labels) >= 6  # the mix covers most domains quickly

    def test_lazy_generation(self):
        # Taking 3 pages from a "1M-page" stream must not build 1M pages.
        stream = stream_pages(1_000_000, seed=4)
        taken = [next(stream) for _ in range(3)]
        assert len(taken) == 3


# ----------------------------------------------------------------
# Vocabulary control: bounded interning + DF pruning.
# ----------------------------------------------------------------


class TestTermTableStats:
    def test_len_and_bytes_estimate(self):
        table = TermTable()
        for term in ("alpha", "beta", "gamma"):
            table.intern(term)
        stats = table.stats()
        assert stats["terms"] == len(table) == 3
        assert stats["bytes_estimate"] > 0
        before = stats["bytes_estimate"]
        table.intern("a-much-longer-term-string")
        assert table.stats()["bytes_estimate"] > before


class TestPruneRare:
    def test_surviving_idfs_unchanged(self):
        stats = CorpusStats()
        for _ in range(6):
            stats.add_document(["common", "shared"])
        stats.add_document(["common", "hapax"])
        idf_before = stats.idf("common")
        dropped = stats.prune_rare(2)
        assert dropped == 1
        assert stats.document_frequency("hapax") == 0
        assert stats.idf("common") == idf_before
        assert stats.document_count == 7  # N untouched

    def test_min_df_one_is_noop(self):
        stats = CorpusStats()
        stats.add_document(["only"])
        assert stats.prune_rare(1) == 0
        assert stats.document_frequency("only") == 1


# ----------------------------------------------------------------
# The drift-bounded weight relaxation (satellite c).
# ----------------------------------------------------------------


class TestDriftBound:
    def _check_stream_bound(self, seed, threshold, n_pages=30):
        """Every emitted in-vocabulary weight obeys LOC*TF*threshold."""
        config = StreamConfig(
            batch_size=4, drift_threshold=threshold, min_df=1
        )
        ingestor = StreamingIngestor(config, vectorizer=_serial_vectorizer())
        worst = 0.0
        for batch in ingestor.ingest(stream_pages(n_pages, seed=seed)):
            vec = ingestor.vectorizer
            for entry in batch:
                for space, tf in (("pc", entry.pc_tf), ("fc", entry.fc_tf)):
                    emitted = getattr(entry.page, space)
                    corpus = (
                        vec.pc_corpus if space == "pc" else vec.fc_corpus
                    )
                    n_docs = corpus.document_count
                    for term, weight in emitted.items():
                        df = corpus.document_frequency(term)
                        exact = tf[term] * math.log(n_docs / df)
                        bound = tf[term] * threshold + 1e-9
                        error = abs(weight - exact)
                        assert error <= bound, (
                            f"seed={seed} term={term!r}: error {error} "
                            f"exceeds bound {bound}"
                        )
                        worst = max(worst, error / tf[term] if tf[term] else 0)
        return worst

    def test_bound_holds_across_25_seeded_streams(self):
        for seed in range(25):
            self._check_stream_bound(seed, threshold=0.3, n_pages=20)

    def test_error_shrinks_as_threshold_vanishes(self):
        errors = [
            self._check_stream_bound(1234, threshold=t, n_pages=30)
            for t in (0.5, 0.2, 0.05, 0.0)
        ]
        assert all(e <= t for e, t in zip(errors, (0.5, 0.2, 0.05, 1e-12)))
        assert errors[-1] <= 1e-12  # threshold 0 = exact prefix statistics

    def test_threshold_zero_batchsize_one_is_exact(self):
        config = StreamConfig(batch_size=1, drift_threshold=0.0, min_df=1)
        ingestor = StreamingIngestor(config, vectorizer=_serial_vectorizer())
        for batch in ingestor.ingest(stream_pages(12, seed=77)):
            (entry,) = batch
            vec = ingestor.vectorizer
            for term, weight in entry.page.pc.items():
                exact = entry.pc_tf[term] * vec.pc_corpus.idf(term)
                assert weight == pytest.approx(exact, abs=0.0)

    def test_final_reemit_matches_batch_bitwise(self):
        """Terminal re-weight + re-emit == batch fit_transform, exactly."""
        raw = list(stream_pages(60, seed=31))
        batch_pages = _serial_vectorizer().fit_transform(raw)

        config = StreamConfig(batch_size=16, drift_threshold=0.2, min_df=1)
        ingestor = StreamingIngestor(config, vectorizer=_serial_vectorizer())
        entries = [e for b in ingestor.ingest(iter(raw)) for e in b]
        ingestor.reweight()  # terminal: contexts now cover the whole stream
        for entry, batch_page in zip(entries, batch_pages):
            pc, fc = ingestor.vectorizer.emit_vectors(entry.pc_tf, entry.fc_tf)
            assert dict(pc.items()) == dict(batch_page.pc.items())
            assert dict(fc.items()) == dict(batch_page.fc.items())


# ----------------------------------------------------------------
# Mini-batch k-means and the reservoir.
# ----------------------------------------------------------------


class _Pair:
    def __init__(self, pc, fc):
        self.pc = SparseVector(pc)
        self.fc = SparseVector(fc)


class TestMiniBatchKMeans:
    def _points(self):
        hot = [_Pair({"fire": 2.0, "heat": 1.0}, {"fire": 1.0})
               for _ in range(6)]
        cold = [_Pair({"ice": 2.0, "snow": 1.0}, {"ice": 1.0})
                for _ in range(6)]
        return hot, cold

    def test_separates_obvious_clusters(self):
        hot, cold = self._points()
        learner = MiniBatchKMeans([hot[0], cold[0]])
        learner.partial_fit(hot[1:] + cold[1:])
        assert learner.assign(hot[2])[0] == 0
        assert learner.assign(cold[2])[0] == 1

    def test_centroid_converges_to_running_mean(self):
        seed = _Pair({"x": 1.0}, {"x": 1.0})
        learner = MiniBatchKMeans([seed])
        for _ in range(50):
            learner.partial_fit([_Pair({"x": 3.0}, {"x": 3.0})])
        (pair,) = learner.centroid_pairs()
        weight = dict(pair.pc.items())["x"]
        assert weight == pytest.approx(3.0, rel=0.05)

    def test_assignment_deterministic_on_ties(self):
        point = _Pair({"x": 1.0}, {"x": 1.0})
        learner = MiniBatchKMeans([point, point])  # identical centroids
        assert learner.assign(point)[0] == 0

    def test_reseed_preserves_k(self):
        hot, cold = self._points()
        learner = MiniBatchKMeans([hot[0], cold[0]])
        with pytest.raises(ValueError):
            learner.reseed([hot[0]])


class TestReservoir:
    def test_deterministic_membership(self):
        def fill():
            r = ReservoirSample(16, seed=3)
            for i in range(500):
                r.offer(i)
            return r.items

        assert fill() == fill()

    def test_bounded(self):
        r = ReservoirSample(8, seed=0)
        for i in range(1000):
            r.offer(i)
        assert len(r) == 8 and r.n_seen == 1000

    def test_replace_all_preserves_size(self):
        r = ReservoirSample(4, seed=0)
        for i in range(4):
            r.offer(i)
        r.replace_all([10, 11, 12, 13])
        assert r.items == [10, 11, 12, 13]
        with pytest.raises(ValueError):
            r.replace_all([1])


# ----------------------------------------------------------------
# Streaming organizer end to end.
# ----------------------------------------------------------------


class TestStreamOrganizer:
    def test_run_stream_clusters_by_domain(self):
        run = run_stream(
            stream_pages(600, seed=21),
            n_clusters=8,
            config=StreamConfig(batch_size=64, reservoir_size=128),
        )
        assert run.stats.pages == 600
        assert run.stats.reweights >= 1
        assert run.organizer.ready
        # Majority-label purity over a fresh sample of the same stream:
        # streamed pages from one domain should mostly agree on a cluster.
        from collections import Counter

        by_label = {}
        vec = run.ingestor.vectorizer
        for raw in stream_pages(100, seed=22):
            page = vec.transform_new(raw)
            cluster, _ = run.organizer.assign(page)
            by_label.setdefault(raw.label, Counter())[cluster] += 1
        agreements = [
            counts.most_common(1)[0][1] / sum(counts.values())
            for counts in by_label.values()
            if sum(counts.values()) >= 5
        ]
        assert agreements and sum(agreements) / len(agreements) > 0.5

    def test_short_stream_bootstraps_at_end(self):
        run = run_stream(
            stream_pages(30, seed=2),
            n_clusters=4,
            config=StreamConfig(batch_size=8, reservoir_size=64),
        )
        assert run.organizer.ready
        assert len(run.organizer.centroid_pairs()) <= 4

    def test_reweight_rebuilds_reservoir_vectors(self):
        config = StreamConfig(
            batch_size=16, drift_threshold=0.05, reservoir_size=32, min_df=1
        )
        ingestor = StreamingIngestor(config, vectorizer=_serial_vectorizer())
        organizer = StreamOrganizer(
            4, reservoir_size=32, bootstrap_pages=32
        ).attach(ingestor)
        for batch in ingestor.ingest(stream_pages(200, seed=13)):
            organizer.observe_batch(batch)
        assert organizer.n_reweight_rebuilds >= 1
        # Reservoir members carry vectors from the *current* contexts:
        # re-emitting one must be a no-op.
        entry = organizer.reservoir.items[0]
        pc, _ = ingestor.vectorizer.emit_vectors(entry.pc_tf, entry.fc_tf)
        assert dict(pc.items()) == dict(entry.page.pc.items())


# ----------------------------------------------------------------
# Config plumbing.
# ----------------------------------------------------------------


class TestStreamConfig:
    def test_service_import_leaves_stream_unloaded(self):
        """``repro.core`` no longer embeds the streaming knobs, so the
        serving stack does not import the streaming path."""
        code = (
            "import sys, repro.service; "
            "print('repro.stream' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "False"

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(batch_size=0)
        with pytest.raises(ValueError):
            StreamConfig(drift_threshold=-0.1)
        with pytest.raises(ValueError):
            StreamConfig(reservoir_size=0)
