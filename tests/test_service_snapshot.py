"""Snapshot round-trip tests — the cold-start contract.

The load-from-snapshot organizer must classify **bit-identically** to
the organizer built in the same process as the pipeline run; the parity
tests at the bottom pin this for every page of the full 454-page
benchmark corpus, and pin a packed version-3 load to a load of the
JSON format the oracle writer (``tests/oracle.py``) still produces:
centroids, cohesion, classify, search, labels, packed postings,
the cluster block and journal replay, bit for bit.
"""

import gzip
import json
import shutil
import zlib

import pytest

from repro.core.config import CAFCConfig
from repro.core.form_page import centroid_of
from repro.core.incremental import IncrementalOrganizer
from repro.core.pipeline import CAFCPipeline
from repro.datasets.store import DatasetFormatError
from repro.service import snapshot as snapshot_module
from repro.service.directory import FormDirectory
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)

from tests.oracle import json_snapshot_payload, save_json_snapshot


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


@pytest.fixture(scope="module")
def json_snapshot_path(small_build, tmp_path_factory):
    """The same snapshot in the JSON format (version 1: Equation 1)."""
    _, _, snapshot = small_build
    path = tmp_path_factory.mktemp("snap-json") / "directory.json.gz"
    save_json_snapshot(snapshot, path)
    return path


def vector_state(vector):
    """A vector's terms and weights in stored order."""
    return vector.items()


def centroid_state(organizer):
    return [
        (vector_state(c.centroid.pc), vector_state(c.centroid.fc))
        for c in organizer.clusters
    ]


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
        save_json_snapshot(snapshot, plain)
        save_json_snapshot(snapshot, packed)
        assert packed.stat().st_size < plain.stat().st_size
        # Plain file is actual JSON; packed one is actual gzip.
        json.loads(plain.read_bytes())
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert Snapshot.load(plain).n_pages == Snapshot.load(packed).n_pages

    def test_plain_and_gzip_version_three_both_load(
        self, small_build, tmp_path
    ):
        _, _, snapshot = small_build
        plain = tmp_path / "snap.bin"
        packed = tmp_path / "snap.bin.gz"
        snapshot.save(plain)
        snapshot.save(packed)
        assert plain.read_bytes()[:8] == b"RPDSNAP\x03"
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        assert packed.stat().st_size < plain.stat().st_size
        a, b = Snapshot.load(plain), Snapshot.load(packed)
        assert json_snapshot_payload(a) == json_snapshot_payload(b)

    def test_wide_term_indices_load_the_same_directory(
        self, small_build, monkeypatch
    ):
        """Past 65,536 terms the term indices take four bytes; patch the
        threshold so the small build is written that way."""
        _, _, snapshot = small_build
        narrow_bytes = snapshot.to_bytes(compress=False)
        narrow = Snapshot.from_bytes(narrow_bytes)
        monkeypatch.setattr(snapshot_module, "_SHORT_TERM_TABLE", 16)
        wide_bytes = snapshot.to_bytes(compress=False)
        wide = Snapshot.from_bytes(wide_bytes)
        centroids, _ = snapshot.settle()
        nnz = sum(
            len(vector)
            for pair in centroids + [p for m in snapshot.clusters for p in m]
            for vector in (pair.pc, pair.fc)
        )
        assert len(wide_bytes) - len(narrow_bytes) >= 2 * nnz - 8
        assert json_snapshot_payload(wide) == json_snapshot_payload(narrow)
        assert wide.settle() == narrow.settle()
        assert centroid_state(wide.to_organizer()) == centroid_state(
            narrow.to_organizer()
        )

    def test_only_version_three_is_written(self, snapshot_path):
        assert SNAPSHOT_FORMAT_VERSION == 3
        assert gzip.decompress(snapshot_path.read_bytes())[:8] == (
            b"RPDSNAP\x03"
        )
        assert snapshot_info(snapshot_path)["format_version"] == 3

    def test_json_and_packed_loads_are_the_same_directory(
        self, snapshot_path, json_snapshot_path
    ):
        packed = Snapshot.load(snapshot_path)
        legacy = Snapshot.load(json_snapshot_path)
        assert json_snapshot_payload(packed) == json_snapshot_payload(legacy)
        assert centroid_state(packed.to_organizer()) == centroid_state(
            legacy.to_organizer()
        )


class TestValidation:
    def test_version_mismatch_raises_format_error(
        self, json_snapshot_path, tmp_path
    ):
        payload = json.loads(gzip.decompress(json_snapshot_path.read_bytes()))
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
        # The newest JSON format; version 3 is packed, not JSON.
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({
            "kind": "repro-directory-snapshot",
            "format_version": 2,
            "clusters": [],
        }))
        with pytest.raises(ValueError, match="clusters"):
            Snapshot.load(bad)

    def test_json_claiming_version_three_rejected(self, tmp_path):
        bad = tmp_path / "v3.json"
        bad.write_text(json.dumps({
            "kind": "repro-directory-snapshot",
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "clusters": [],
        }))
        with pytest.raises(ValueError, match="packed"):
            Snapshot.load(bad)

    def test_snapshot_info(self, json_snapshot_path, small_build):
        _, _, snapshot = small_build
        info = snapshot_info(json_snapshot_path)
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

    def test_snapshot_info_version_three_matches_json(
        self, snapshot_path, json_snapshot_path
    ):
        packed = snapshot_info(snapshot_path)
        legacy = snapshot_info(json_snapshot_path)
        assert packed["format_version"] == 3
        assert legacy["format_version"] == 1
        assert packed == {**legacy, "format_version": 3}

    def test_snapshot_info_version_two(self, small_build, tmp_path):
        _, _, snapshot = small_build
        path = tmp_path / "v2.json"
        payload = json_snapshot_payload(snapshot)
        payload["format_version"] = 2
        path.write_text(json.dumps(payload))
        info = snapshot_info(path)
        assert info["format_version"] == 2
        assert info["n_pages"] == snapshot.n_pages
        assert info["cluster_sizes"] == [len(c) for c in snapshot.clusters]

    def test_snapshot_info_reads_only_the_header(
        self, small_build, tmp_path
    ):
        """Cut a raw version-3 file right after its header: the buffers
        are gone, so a load fails, but the summary never reads them."""
        _, _, snapshot = small_build
        whole = tmp_path / "whole.bin"
        snapshot.save(whole)
        data = whole.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        cut = tmp_path / "header-only.bin"
        cut.write_bytes(data[: 16 + header_len])
        assert snapshot_info(cut) == snapshot_info(whole)
        with pytest.raises(ValueError):
            Snapshot.load(cut)


def with_config_keys(packed_path, extra: dict) -> bytes:
    """The version-3 file at ``packed_path`` (gzipped), uncompressed and
    re-framed with ``extra`` merged into its header's config."""
    data = gzip.decompress(packed_path.read_bytes())
    prefix = snapshot_module._PREFIX
    _, header_len, _ = prefix.unpack_from(data)
    header = json.loads(data[prefix.size:prefix.size + header_len])
    header["config"].update(extra)
    encoded = json.dumps(header).encode("utf-8")
    encoded += b" " * (-len(encoded) % 8)
    body = encoded + data[prefix.size + header_len:]
    return prefix.pack(
        snapshot_module._MAGIC, len(encoded), zlib.crc32(body)
    ) + body


class TestLegacyPayloads:
    """Snapshots written while ``CAFCConfig`` still had a similarity
    ``backend``, a retrieval ``index``, a ``stream``, a ``resilience``
    or a ``use_root_page_backlinks`` field keep loading into the same
    directory."""

    def test_config_keys_are_pinned(self):
        state = CAFCConfig().to_dict()
        assert set(state) == {
            "k", "content_mode", "page_weight", "form_weight",
            "location_weights", "min_hub_cardinality", "max_backlinks",
            "stop_fraction", "max_iterations", "seed", "scheme",
            "parallel",
        }
        assert set(state["parallel"]) == {"workers"}

    def test_config_ignores_legacy_backend_key(self):
        state = SMALL_CONFIG.to_dict()
        assert "backend" not in state
        for legacy in ("naive", "engine", "auto"):
            restored = CAFCConfig.from_dict({**state, "backend": legacy})
            assert restored == SMALL_CONFIG

    def test_snapshot_with_backend_key_loads_same_directory(
        self, json_snapshot_path, tmp_path
    ):
        payload = json.loads(gzip.decompress(json_snapshot_path.read_bytes()))
        payload["config"]["backend"] = "naive"
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))

        current = Snapshot.load(json_snapshot_path)
        legacy = Snapshot.load(legacy_path)
        assert json_snapshot_payload(legacy) == json_snapshot_payload(current)
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
        self, json_snapshot_path, tmp_path, small_raw_pages, legacy
    ):
        payload = json.loads(gzip.decompress(json_snapshot_path.read_bytes()))
        payload["config"]["index"] = legacy
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(payload))
        assert snapshot_info(legacy_path) == snapshot_info(json_snapshot_path)

        kwargs = dict(auto_recluster=False, cache_size=0)
        with FormDirectory.from_snapshot(legacy_path, **kwargs) as old, \
                FormDirectory.from_snapshot(
                    json_snapshot_path, **kwargs) as new:
            for query in ("flight airfare", "book author", "job salary"):
                assert old.search(query, n=5) == new.search(query, n=5)
                assert old.search_pages(query, n=5) == \
                    new.search_pages(query, n=5)
            for raw in small_raw_pages[:20]:
                assert old.classify(raw) == new.classify(raw), raw.url


    #: What the streaming knobs, the retry/breaker settings (with the
    #: chaos seed) and the root-backlink flag looked like in configs
    #: and snapshots written while ``CAFCConfig`` still carried them.
    LEGACY_KEYS = {
        "stream": {
            "batch_size": 256, "drift_threshold": 0.1,
            "reservoir_size": 512, "reservoir_seed": 0,
            "vocab_budget": 150000, "min_df": 2, "spill_dir": None,
            "spill_segment_rows": 4096,
        },
        "resilience": {
            "retry_max_attempts": 4, "retry_base_delay": 0.05,
            "retry_multiplier": 2.0, "retry_max_delay": 2.0,
            "retry_jitter": 0.5, "retry_deadline": 10.0,
            "breaker_failure_threshold": 5, "breaker_reset_timeout": 30.0,
            "chaos_seed": 7,
        },
        "use_root_page_backlinks": False,
    }

    def test_config_ignores_legacy_stream_and_chaos_keys(self):
        for config in (CAFCConfig(), SMALL_CONFIG):
            state = config.to_dict()
            for key in self.LEGACY_KEYS:
                assert key not in state
            assert "use_cache" not in state["parallel"]
            restored = CAFCConfig.from_dict({
                **state,
                **self.LEGACY_KEYS,
                "parallel": {**state["parallel"], "use_cache": False},
            })
            assert restored == config

    def test_snapshot_with_stream_and_chaos_keys_serves_same_answers(
        self, json_snapshot_path, snapshot_path, tmp_path, small_raw_pages
    ):
        payload = json.loads(gzip.decompress(json_snapshot_path.read_bytes()))
        payload["config"].update(self.LEGACY_KEYS)
        legacy_json = tmp_path / "legacy.json"
        legacy_json.write_text(json.dumps(payload))
        assert json_snapshot_payload(Snapshot.load(legacy_json)) == \
            json_snapshot_payload(Snapshot.load(json_snapshot_path))
        legacy_packed = tmp_path / "legacy.snap"
        legacy_packed.write_bytes(
            with_config_keys(snapshot_path, self.LEGACY_KEYS)
        )
        assert snapshot_info(legacy_packed)["format_version"] == 3
        assert Snapshot.load(legacy_packed).config == SMALL_CONFIG

        kwargs = dict(auto_recluster=False, cache_size=0)
        for legacy_path, current_path in (
            (legacy_json, json_snapshot_path),
            (legacy_packed, snapshot_path),
        ):
            with FormDirectory.from_snapshot(legacy_path, **kwargs) as old, \
                    FormDirectory.from_snapshot(
                        current_path, **kwargs) as new:
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
    offline organizer does — and a packed version-3 load serves exactly
    what a load of the JSON oracle's version-2 file serves."""

    QUERIES = (
        "cheap flight airline ticket", "used car dealer price",
        "book author title publisher", "hotel room reservation city",
        "job search salary resume", "music album artist band",
        "apartment rent bedroom lease", "form search database",
    )

    @pytest.fixture(scope="class")
    def benchmark_build(self, benchmark_raw_pages, tmp_path_factory):
        config = CAFCConfig(k=8)
        pipeline = CAFCPipeline(config)
        result = pipeline.organize(benchmark_raw_pages)
        snapshot = build_snapshot(result, pipeline.vectorizer, config)
        folder = tmp_path_factory.mktemp("bench-snap")
        path = folder / "bench.json.gz"
        snapshot.save(path)
        json_path = folder / "bench-v2.json.gz"
        save_json_snapshot(snapshot, json_path, version=2)
        offline = IncrementalOrganizer(
            [list(cluster.pages) for cluster in result.clusters],
            pipeline.vectorizer,
            config=config,
        )
        return pipeline, offline, path, json_path

    @pytest.fixture(scope="class")
    def both_loads(self, benchmark_build):
        """(JSON-oracle directory, version-3 directory)."""
        _, _, path, json_path = benchmark_build
        assert snapshot_info(json_path)["format_version"] == 2
        assert snapshot_info(path)["format_version"] == 3
        kwargs = dict(auto_recluster=False, cache_size=0)
        legacy = FormDirectory.from_snapshot(json_path, **kwargs)
        packed = FormDirectory.from_snapshot(path, **kwargs)
        yield legacy, packed
        legacy.close()
        packed.close()

    def test_centroids_bit_identical(self, benchmark_build):
        _, offline, path, _ = benchmark_build
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
        pipeline, offline, path, _ = benchmark_build
        served = Snapshot.load(path).to_organizer()
        for raw in benchmark_raw_pages:
            page_offline = pipeline.vectorizer.transform_new(raw)
            page_served = served.vectorizer.transform_new(raw)
            want = offline.classify_vectorized(page_offline)
            got = served.classify_vectorized(page_served)
            assert got[0] == want[0], raw.url
            assert got[1] == want[1], raw.url  # exact float equality

    def test_packed_centroids_and_cohesion_match_the_oracle(
        self, benchmark_build, both_loads
    ):
        _, offline, _, _ = benchmark_build
        legacy, packed = (d.organizer for d in both_loads)
        assert centroid_state(packed) == centroid_state(legacy)
        assert centroid_state(packed) == centroid_state(offline)
        assert packed.contributions() == legacy.contributions()
        assert packed.contributions() == offline.contributions()
        assert packed.cohesion == legacy.cohesion == offline.cohesion
        assert packed._baseline_cohesion == legacy._baseline_cohesion
        assert packed._baseline_cohesion == offline._baseline_cohesion

    def test_packed_classify_matches_the_oracle_for_every_page(
        self, both_loads, benchmark_raw_pages
    ):
        legacy, packed = both_loads
        for raw in benchmark_raw_pages:
            want = legacy.organizer.classify(raw)
            got = packed.organizer.classify(raw)
            assert got[0] == want[0], raw.url
            assert got[1] == want[1], raw.url

    def test_packed_search_and_labels_match_the_oracle(self, both_loads):
        legacy, packed = both_loads
        for query in self.QUERIES:
            for n in (1, 5, 50):
                assert packed.search(query, n=n) == legacy.search(query, n=n)
                assert packed.search_pages(query, n=n) == (
                    legacy.search_pages(query, n=n)
                )
        assert packed.clusters_summary() == legacy.clusters_summary()

    def test_packed_posting_lists_match_the_oracle(self, both_loads):
        legacy, packed = both_loads
        for directory in both_loads:  # compile the cluster blocks
            directory.search(self.QUERIES[0], n=1)
        ours, theirs = packed._index, legacy._index
        assert len(ours._pages._delta) == len(theirs._pages._delta) == 0
        for field in ("_pointer", "_slots", "_weights", "_rows"):
            mine = getattr(ours._pages, field)
            other = getattr(theirs._pages, field)
            assert mine.dtype == other.dtype
            assert mine.tobytes() == other.tobytes()
        mine, other = ours._clusters, theirs._clusters
        for array, twin in zip(mine._block, other._block):
            assert array.tobytes() == twin.tobytes()
        assert [dict(v.items()) for v in mine.vectors] == [
            dict(v.items()) for v in other.vectors
        ]
        assert [v.norm() for v in mine.vectors] == [
            v.norm() for v in other.vectors
        ]
        assert ours._row_by_url == theirs._row_by_url
        for gauge in (
            "n_cluster_postings", "n_page_postings",
            "n_cluster_terms", "n_page_terms",
        ):
            assert getattr(ours, gauge) == getattr(theirs, gauge), gauge

    def test_journal_replay_over_either_load_is_bit_identical(
        self, benchmark_build, benchmark_raw_pages, tmp_path
    ):
        _, _, path, json_path = benchmark_build
        kwargs = dict(auto_recluster=False, cache_size=0)
        wal = tmp_path / "live.wal"
        with FormDirectory.from_snapshot(path, journal=wal, **kwargs) as live:
            for raw in benchmark_raw_pages[:6]:
                live.remove(raw.url)
            for raw in benchmark_raw_pages[:3]:
                live.add(raw)
            live.recluster()
            for raw in benchmark_raw_pages[3:5]:
                live.add(raw)
            want = centroid_state(live.organizer)
            want_cohesion = live.organizer.cohesion
        copy = tmp_path / "copy.wal"
        shutil.copy(wal, copy)
        with FormDirectory.from_snapshot(json_path, journal=wal, **kwargs) \
                as legacy, \
                FormDirectory.from_snapshot(path, journal=copy, **kwargs) \
                as packed:
            assert legacy.n_replayed == packed.n_replayed == 12
            for directory in (legacy, packed):
                assert centroid_state(directory.organizer) == want
                assert directory.organizer.cohesion == want_cohesion
            assert packed.organizer.contributions() == (
                legacy.organizer.contributions()
            )
            for raw in benchmark_raw_pages[100:160]:
                assert packed.classify(raw) == legacy.classify(raw)
            for query in self.QUERIES:
                assert packed.search(query, n=5) == legacy.search(query, n=5)
                assert packed.search_pages(query, n=5) == (
                    legacy.search_pages(query, n=5)
                )

    def test_load_counts_no_comparisons(self, benchmark_build):
        """Contributions are restored, not re-scored by the organizer,
        so a freshly loaded directory reports zero Eq-3 comparisons
        (a JSON load scores them with the snapshot's own similarity)."""
        _, _, path, json_path = benchmark_build
        for source in (path, json_path):
            with FormDirectory.from_snapshot(
                source, auto_recluster=False
            ) as directory:
                stats = directory.stats()["engine"]
                assert stats["comparisons"] == 0


class TestStoredCentroids:
    """The centroids a version-3 file stores are what a JSON load
    recomputes: ``centroid_of`` the stored pages, and zero for a
    cluster a recluster emptied."""

    def test_after_add_remove_and_an_emptying_recluster(
        self, small_build, small_raw_pages, tmp_path, monkeypatch
    ):
        from repro.clustering.kmeans import KMeansResult
        from repro.clustering.types import Clustering
        from repro.core.simengine import SimilarityEngine

        real_kmeans = SimilarityEngine.kmeans

        def emptying_kmeans(engine, *args, **kwargs):
            """k-means whose outcome empties cluster 1 (its members go
            to cluster 0) while cluster 1 keeps its trained centroid."""
            result = real_kmeans(engine, *args, **kwargs)
            members = [list(m) for m in result.clustering.clusters]
            members[0] += members[1]
            members[1] = []
            return KMeansResult(
                Clustering(members), result.centroids,
                result.iterations, result.converged,
            )

        monkeypatch.setattr(SimilarityEngine, "kmeans", emptying_kmeans)
        _, _, snapshot = small_build
        with FormDirectory.from_snapshot(
            snapshot, auto_recluster=False, cache_size=0
        ) as directory:
            directory.remove(small_raw_pages[5].url)
            directory.remove(small_raw_pages[9].url)
            directory.add(small_raw_pages[5])
            directory.recluster()
            directory.add(small_raw_pages[9])
            live = directory.organizer
            assert not live.clusters[1].pages
            assert live.clusters[1].centroid.pc  # kept live, not zero
            checkpoint = directory.snapshot()
        packed = Snapshot.from_bytes(checkpoint.to_bytes())
        json_path = tmp_path / "oracle.json"
        save_json_snapshot(checkpoint, json_path)
        legacy = Snapshot.load(json_path).to_organizer()
        for index, (members, pair) in enumerate(
            zip(packed.clusters, packed.centroids)
        ):
            expected = centroid_of(members)
            assert vector_state(pair.pc) == vector_state(expected.pc)
            assert vector_state(pair.fc) == vector_state(expected.fc)
            if index != 1:
                live_pair = live.clusters[index].centroid
                assert vector_state(pair.pc) == vector_state(live_pair.pc)
        assert not packed.centroids[1].pc and not packed.centroids[1].fc
        restored = packed.to_organizer()
        assert centroid_state(restored) == centroid_state(legacy)
        assert restored.contributions() == legacy.contributions()
        assert restored.cohesion == legacy.cohesion
