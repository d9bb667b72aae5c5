"""Snapshot round-trip tests — the cold-start contract.

The load-from-snapshot organizer must classify **bit-identically** to
the organizer built in the same process as the pipeline run; the parity
test at the bottom pins this for every page of the full 454-page
benchmark corpus.
"""

import gzip
import json

import pytest

from repro.core.config import CAFCConfig
from repro.core.incremental import IncrementalOrganizer
from repro.core.pipeline import CAFCPipeline
from repro.datasets.store import DatasetFormatError
from repro.service.directory import FormDirectory
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)


SMALL_CONFIG = CAFCConfig(k=8, min_hub_cardinality=3)


@pytest.fixture(scope="module")
def small_build(small_raw_pages):
    """(pipeline, result, snapshot) over the small corpus."""
    pipeline = CAFCPipeline(SMALL_CONFIG)
    result = pipeline.organize(small_raw_pages)
    snapshot = build_snapshot(result, pipeline.vectorizer, SMALL_CONFIG)
    return pipeline, result, snapshot


@pytest.fixture(scope="module")
def snapshot_path(small_build, tmp_path_factory):
    _, _, snapshot = small_build
    path = tmp_path_factory.mktemp("snap") / "directory.json.gz"
    save_snapshot(snapshot, path)
    return path


class TestRoundTrip:
    def test_fields_survive(self, small_build, snapshot_path):
        _, result, original = small_build
        loaded = load_snapshot(snapshot_path)
        assert loaded.n_clusters == original.n_clusters
        assert loaded.n_pages == original.n_pages
        assert loaded.algorithm == result.algorithm
        assert loaded.top_terms == original.top_terms
        assert loaded.config.k == SMALL_CONFIG.k
        assert loaded.config.page_weight == SMALL_CONFIG.page_weight
        assert loaded.created_unix > 0

    def test_page_vectors_bit_identical(self, small_build, snapshot_path):
        _, _, original = small_build
        loaded = load_snapshot(snapshot_path)
        for members, loaded_members in zip(original.clusters, loaded.clusters):
            for page, twin in zip(members, loaded_members):
                assert page.url == twin.url
                assert dict(page.pc.items()) == dict(twin.pc.items())
                assert dict(page.fc.items()) == dict(twin.fc.items())
                assert page.backlinks == twin.backlinks

    def test_vectorizer_state_survives(self, small_build, snapshot_path):
        pipeline, _, _ = small_build
        loaded = load_snapshot(snapshot_path)
        rebuilt = loaded.vectorizer()
        assert (
            rebuilt.pc_corpus.document_count
            == pipeline.vectorizer.pc_corpus.document_count
        )
        assert (
            rebuilt.pc_corpus.to_dict() == pipeline.vectorizer.pc_corpus.to_dict()
        )
        assert (
            rebuilt.fc_corpus.to_dict() == pipeline.vectorizer.fc_corpus.to_dict()
        )
        assert rebuilt.fc_corpus.idf_map() == pipeline.vectorizer.fc_corpus.idf_map()

    def test_transform_new_bit_identical(
        self, small_build, snapshot_path, small_raw_pages
    ):
        pipeline, _, _ = small_build
        rebuilt = load_snapshot(snapshot_path).vectorizer()
        for raw in small_raw_pages[:10]:
            ours = pipeline.vectorizer.transform_new(raw)
            theirs = rebuilt.transform_new(raw)
            assert dict(ours.pc.items()) == dict(theirs.pc.items())
            assert dict(ours.fc.items()) == dict(theirs.fc.items())

    def test_plain_json_and_gzip_both_load(self, small_build, tmp_path):
        _, _, snapshot = small_build
        plain = tmp_path / "snap.json"
        packed = tmp_path / "snap.json.gz"
        snapshot.save(plain)
        snapshot.save(packed)
        assert packed.stat().st_size < plain.stat().st_size
        # Plain file is actual JSON; packed one is actual gzip.
        json.loads(plain.read_bytes())
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert Snapshot.load(plain).n_pages == Snapshot.load(packed).n_pages


class TestValidation:
    def test_version_mismatch_raises_format_error(
        self, snapshot_path, tmp_path
    ):
        payload = json.loads(gzip.decompress(snapshot_path.read_bytes()))
        payload["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError) as excinfo:
            Snapshot.load(bad)
        assert excinfo.value.found_version == SNAPSHOT_FORMAT_VERSION + 1
        assert str(SNAPSHOT_FORMAT_VERSION) in str(excinfo.value)

    def test_wrong_kind_rejected(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"kind": "something-else",
                                   "format_version": 1}))
        with pytest.raises(ValueError, match="not a directory snapshot"):
            Snapshot.load(bad)

    def test_empty_clusters_rejected(self, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({
            "kind": "repro-directory-snapshot",
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "clusters": [],
        }))
        with pytest.raises(ValueError, match="clusters"):
            Snapshot.load(bad)

    def test_snapshot_info(self, snapshot_path, small_build):
        _, _, snapshot = small_build
        info = snapshot_info(snapshot_path)
        assert info["kind"] == "repro-directory-snapshot"
        # Equation-1 state keeps the pre-seam format version so older
        # readers stay compatible (non-default schemes bump to
        # SNAPSHOT_FORMAT_VERSION — see tests/test_schemes.py).
        assert info["format_version"] == 1
        assert info["scheme"] == "eq1"
        assert info["n_pages"] == snapshot.n_pages
        assert info["n_clusters"] == snapshot.n_clusters
        assert info["pc_vocabulary"] > 0
        assert info["fc_vocabulary"] > 0
        assert "index" not in info


class TestLegacyPayloads:
    """Snapshots written while ``CAFCConfig`` still had a similarity
    ``backend``, a retrieval ``index`` or a ``stream`` field, or
    ``ResilienceConfig`` a ``chaos_seed``, keep loading into the same
    directory."""

    def test_config_ignores_legacy_backend_key(self):
        state = SMALL_CONFIG.to_dict()
        assert "backend" not in state
        for legacy in ("naive", "engine", "auto"):
            restored = CAFCConfig.from_dict({**state, "backend": legacy})
            assert restored == SMALL_CONFIG

    def test_snapshot_with_backend_key_loads_same_directory(
        self, snapshot_path, tmp_path
    ):
        payload = json.loads(gzip.decompress(snapshot_path.read_bytes()))
        payload["config"]["backend"] = "naive"
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))

        current = Snapshot.load(snapshot_path)
        legacy = Snapshot.load(legacy_path)
        assert legacy.to_payload() == current.to_payload()
        organizer = legacy.to_organizer()
        reference = current.to_organizer()
        for members in current.clusters:
            for page in members[:3]:
                assert organizer.classify_vectorized(page) == (
                    reference.classify_vectorized(page)
                )


    def test_config_ignores_legacy_index_key(self):
        state = SMALL_CONFIG.to_dict()
        assert "index" not in state
        for legacy in ("auto", "on", "off"):
            restored = CAFCConfig.from_dict({**state, "index": legacy})
            assert restored == SMALL_CONFIG

    @pytest.mark.parametrize("legacy", ["off", "on"])
    def test_snapshot_with_index_key_serves_same_answers(
        self, snapshot_path, tmp_path, small_raw_pages, legacy
    ):
        payload = json.loads(gzip.decompress(snapshot_path.read_bytes()))
        payload["config"]["index"] = legacy
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))
        assert snapshot_info(legacy_path) == snapshot_info(snapshot_path)

        kwargs = dict(auto_recluster=False, cache_size=0)
        with FormDirectory.from_snapshot(legacy_path, **kwargs) as old, \
                FormDirectory.from_snapshot(snapshot_path, **kwargs) as new:
            for query in ("flight airfare", "book author", "job salary"):
                assert old.search(query, n=5) == new.search(query, n=5)
                assert old.search_pages(query, n=5) == \
                    new.search_pages(query, n=5)
            for raw in small_raw_pages[:20]:
                assert old.classify(raw) == new.classify(raw), raw.url


    #: What the streaming knobs and the chaos seed looked like in
    #: snapshots written while the configs still carried them.
    LEGACY_STREAM = {
        "batch_size": 256, "drift_threshold": 0.1, "reservoir_size": 512,
        "reservoir_seed": 0, "vocab_budget": 150000, "min_df": 2,
        "spill_dir": None, "spill_segment_rows": 4096,
    }

    def test_config_ignores_legacy_stream_and_chaos_keys(self):
        state = SMALL_CONFIG.to_dict()
        assert "stream" not in state
        assert "chaos_seed" not in state["resilience"]
        restored = CAFCConfig.from_dict({
            **state,
            "stream": self.LEGACY_STREAM,
            "resilience": {**state["resilience"], "chaos_seed": 7},
        })
        assert restored == SMALL_CONFIG

    def test_snapshot_with_stream_and_chaos_keys_serves_same_answers(
        self, snapshot_path, tmp_path, small_raw_pages
    ):
        payload = json.loads(gzip.decompress(snapshot_path.read_bytes()))
        payload["config"]["stream"] = self.LEGACY_STREAM
        payload["config"]["resilience"]["chaos_seed"] = 7
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))
        assert Snapshot.load(legacy_path).to_payload() == \
            Snapshot.load(snapshot_path).to_payload()

        kwargs = dict(auto_recluster=False, cache_size=0)
        with FormDirectory.from_snapshot(legacy_path, **kwargs) as old, \
                FormDirectory.from_snapshot(snapshot_path, **kwargs) as new:
            assert old.clusters_summary() == new.clusters_summary()
            for query in ("flight airfare", "book author", "job salary"):
                assert old.search(query, n=5) == new.search(query, n=5)
                assert old.search_pages(query, n=5) == \
                    new.search_pages(query, n=5)
            for raw in small_raw_pages[:20]:
                assert old.classify(raw) == new.classify(raw), raw.url


class TestServedParity:
    """The acceptance criterion: a server cold-started from a snapshot
    classifies every page of the full benchmark corpus exactly as the
    offline organizer does."""

    @pytest.fixture(scope="class")
    def benchmark_build(self, benchmark_raw_pages, tmp_path_factory):
        config = CAFCConfig(k=8)
        pipeline = CAFCPipeline(config)
        result = pipeline.organize(benchmark_raw_pages)
        snapshot = build_snapshot(result, pipeline.vectorizer, config)
        path = tmp_path_factory.mktemp("bench-snap") / "bench.json.gz"
        snapshot.save(path)
        offline = IncrementalOrganizer(
            [list(cluster.pages) for cluster in result.clusters],
            pipeline.vectorizer,
            config=config,
        )
        return pipeline, offline, path

    def test_centroids_bit_identical(self, benchmark_build):
        _, offline, path = benchmark_build
        served = Snapshot.load(path).to_organizer()
        assert len(served.clusters) == len(offline.clusters)
        for ours, theirs in zip(offline.clusters, served.clusters):
            assert dict(ours.centroid.pc.items()) == dict(
                theirs.centroid.pc.items()
            )
            assert dict(ours.centroid.fc.items()) == dict(
                theirs.centroid.fc.items()
            )

    def test_classify_bit_identical_for_every_benchmark_page(
        self, benchmark_build, benchmark_raw_pages
    ):
        pipeline, offline, path = benchmark_build
        served = Snapshot.load(path).to_organizer()
        for raw in benchmark_raw_pages:
            page_offline = pipeline.vectorizer.transform_new(raw)
            page_served = served.vectorizer.transform_new(raw)
            want = offline.classify_vectorized(page_offline)
            got = served.classify_vectorized(page_served)
            assert got[0] == want[0], raw.url
            assert got[1] == want[1], raw.url  # exact float equality
