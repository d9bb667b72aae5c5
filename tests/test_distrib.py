"""The distributed directory against its ground truth: one process.

Acceptance criterion for repro.distrib: an N-shard deployment's merged
top-k is **bit-identical** to a single-process ``FormDirectory`` over
the full benchmark corpus — both scopes (clusters / pages), both fitted
weighting schemes (eq1 / bm25), 2 and 4 shards.  Not "close": the same
clusters, the same floats, the same order.

Plus the seams the parity rests on: placement assignment, snapshot
splitting, write routing, partial-result degradation, and the HTTP
faces.
"""

import gzip
import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.distrib import (
    AllShardsUnavailable,
    DirectoryRouter,
    HttpShardClient,
    LocalShardClient,
    ReplicaNode,
    ShardNode,
    ShardUnavailable,
    serve_replica,
    serve_router,
    serve_shard,
    shard_for_cluster,
    shard_for_url,
    split_snapshot,
)
from repro.resilience.journal import StaleEpochError
from repro.service.directory import FormDirectory
from repro.service.snapshot import Snapshot, build_snapshot

QUERIES = [
    "cheap flight airline ticket",
    "used car dealer price",
    "book author title publisher",
    "hotel room reservation city",
    "job search salary resume",
    "movie actor genre dvd",
    "music album artist band",
    "apartment rent bedroom lease",
    "travel vacation deal",
    "form search database",
]

DIRECTORY_KWARGS = dict(
    journal=None, auto_recluster=False, cache_size=0
)


def build_scheme_snapshot(raw_pages, scheme):
    config = CAFCConfig(k=8, min_hub_cardinality=3, scheme=scheme)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(raw_pages)
    return build_snapshot(result, pipeline.vectorizer, config)


@pytest.fixture(scope="module")
def benchmark_snapshots(benchmark_raw_pages):
    """Full-corpus (454-page) snapshots, one per weighting scheme."""
    return {
        scheme: build_scheme_snapshot(benchmark_raw_pages, scheme)
        for scheme in ("eq1", "bm25")
    }


@pytest.fixture(scope="module")
def small_snapshot(small_raw_pages):
    return build_scheme_snapshot(small_raw_pages[:-6], "eq1")


def make_router(snapshot, n_shards, placement="cluster"):
    shards = [
        LocalShardClient(ShardNode(part, **DIRECTORY_KWARGS))
        for part in split_snapshot(snapshot, n_shards, placement=placement)
    ]
    return DirectoryRouter(shards, placement=placement)


def strip_shard(hits):
    return [{k: v for k, v in hit.items() if k != "shard"} for hit in hits]


# ---------------------------------------------------------------------
# The headline parity: N shards == 1 process, bit for bit.
# ---------------------------------------------------------------------


class TestFullCorpusParity:
    @pytest.mark.parametrize("scheme", ["eq1", "bm25"])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_merged_topk_bit_identical(
        self, benchmark_snapshots, scheme, n_shards
    ):
        snapshot = benchmark_snapshots[scheme]
        single = FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS)
        router = make_router(snapshot, n_shards)
        try:
            for query in QUERIES:
                for n in (1, 3, 10):
                    expected = single.search(query, n=n)
                    reply = router.search(query, n=n, scope="clusters")
                    assert not reply["partial"]
                    assert strip_shard(reply["hits"]) == expected, (
                        f"clusters: scheme={scheme} shards={n_shards} "
                        f"q={query!r} n={n}"
                    )
                    expected = single.search_pages(query, n=n)
                    reply = router.search(query, n=n, scope="pages")
                    assert strip_shard(reply["hits"]) == expected, (
                        f"pages: scheme={scheme} shards={n_shards} "
                        f"q={query!r} n={n}"
                    )
        finally:
            router.close()
            single.close()

    @pytest.mark.parametrize("scheme", ["eq1", "bm25"])
    def test_classify_argmax_identical(
        self, benchmark_snapshots, benchmark_raw_pages, scheme
    ):
        snapshot = benchmark_snapshots[scheme]
        single = FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS)
        router = make_router(snapshot, 4)
        try:
            for raw in benchmark_raw_pages[::37]:  # a spread of probes
                expected = single.classify(raw)
                got = router.classify(raw)
                assert got["cluster"] == expected.cluster
                assert got["similarity"] == expected.similarity
                assert got["top_terms"] == expected.top_terms
        finally:
            router.close()
            single.close()

    def test_hash_placement_page_scope_parity(self, benchmark_snapshots):
        """Hash placement scatters cluster members, so cluster-scope
        scores change — but page scores are per-page, so page-scope
        search stays bit-identical."""
        snapshot = benchmark_snapshots["eq1"]
        single = FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS)
        router = make_router(snapshot, 3, placement="hash")
        try:
            for query in QUERIES[:5]:
                expected = single.search_pages(query, n=10)
                reply = router.search(query, n=10, scope="pages")
                assert strip_shard(reply["hits"]) == expected
        finally:
            router.close()
            single.close()


# ---------------------------------------------------------------------
# Placement.
# ---------------------------------------------------------------------


class TestPlacement:
    def test_cluster_split_partitions_globals(self, small_snapshot):
        parts = split_snapshot(small_snapshot, 3)
        seen = []
        for index, part in enumerate(parts):
            meta = part.meta
            assert meta["shard"] == index
            assert meta["n_shards"] == 3
            assert meta["placement"] == "cluster"
            globals_ = meta["global_clusters"]
            assert globals_ == sorted(globals_)  # ascending per shard
            assert all(
                shard_for_cluster(g, 3) == index for g in globals_
            )
            seen.extend(globals_)
        assert sorted(seen) == list(range(len(small_snapshot.clusters)))
        # Every page lands on exactly one shard.
        total = sum(part.n_pages for part in parts)
        assert total == small_snapshot.n_pages

    def test_hash_split_keeps_all_cluster_slots(self, small_snapshot):
        parts = split_snapshot(small_snapshot, 2, placement="hash")
        k = len(small_snapshot.clusters)
        for part in parts:
            assert part.meta["global_clusters"] == list(range(k))
        urls = [
            page.url
            for part in parts
            for members in part.clusters
            for page in members
        ]
        assert len(urls) == len(set(urls)) == small_snapshot.n_pages
        for part in parts:
            index = part.meta["shard"]
            for members in part.clusters:
                for page in members:
                    assert shard_for_url(page.url, 2) == index

    def test_cluster_split_needs_enough_clusters(self, small_snapshot):
        with pytest.raises(ValueError, match="shards"):
            split_snapshot(
                small_snapshot, len(small_snapshot.clusters) + 1
            )

    def test_single_shard_is_the_identity(self, small_snapshot):
        (only,) = split_snapshot(small_snapshot, 1)
        assert only.n_pages == small_snapshot.n_pages
        assert only.meta["global_clusters"] == list(
            range(len(small_snapshot.clusters))
        )


# ---------------------------------------------------------------------
# Degradation: partial results, failover, total outage.
# ---------------------------------------------------------------------


class TestDegradation:
    @pytest.fixture()
    def cluster_of_three(self, small_snapshot):
        clients = [
            LocalShardClient(ShardNode(part, **DIRECTORY_KWARGS))
            for part in split_snapshot(small_snapshot, 3)
        ]
        router = DirectoryRouter(clients, placement="cluster")
        yield router, clients
        router.close()

    def test_dead_shard_degrades_to_partial(self, cluster_of_three):
        router, clients = cluster_of_three
        clients[1].kill()
        reply = router.search(QUERIES[0], n=10)
        assert reply["partial"] is True
        assert reply["shards"]["answered"] == [0, 2]
        assert list(reply["shards"]["failed"]) == ["1"]
        # The surviving shards' hits still merge deterministically.
        hits = reply["hits"]
        assert all(hit["shard"] in (0, 2) for hit in hits)

    def test_all_dead_raises_503_shape(self, cluster_of_three):
        router, clients = cluster_of_three
        for client in clients:
            client.kill()
        with pytest.raises(AllShardsUnavailable) as info:
            router.search(QUERIES[0])
        assert sorted(info.value.failures) == [0, 1, 2]

    def test_failover_list_masks_a_dead_leader(self, small_snapshot):
        parts = split_snapshot(small_snapshot, 2)
        leader = LocalShardClient(
            ShardNode(parts[0], **DIRECTORY_KWARGS), name="leader"
        )
        standby = LocalShardClient(
            ShardNode(parts[0], **DIRECTORY_KWARGS), name="standby"
        )
        other = LocalShardClient(ShardNode(parts[1], **DIRECTORY_KWARGS))
        router = DirectoryRouter([[leader, standby], [other]])
        try:
            leader.kill()
            reply = router.search(QUERIES[0], n=5)
            assert reply["partial"] is False  # standby answered for 0
            assert reply["shards"]["answered"] == [0, 1]
        finally:
            router.close()

    def test_healthz_grades_worst_of(self, cluster_of_three):
        router, clients = cluster_of_three
        assert router.healthz()["status"] == "ok"
        clients[2].kill()
        record = router.healthz()
        assert record["status"] == "degraded"
        assert record["shards"]["2"]["status"] == "unreachable"


# ---------------------------------------------------------------------
# Write routing.
# ---------------------------------------------------------------------


class TestWriteRouting:
    def test_cluster_add_matches_single_node_assignment(
        self, small_snapshot, small_raw_pages
    ):
        single = FormDirectory.from_snapshot(
            small_snapshot, **DIRECTORY_KWARGS
        )
        router = make_router(small_snapshot, 2)
        try:
            for raw in small_raw_pages[-6:]:
                expected_cluster, _ = single.add(raw)
                reply = router.add(raw)
                assert reply["cluster"] == expected_cluster
                assert reply["shard"] == shard_for_cluster(
                    expected_cluster, 2
                )
        finally:
            router.close()
            single.close()

    def test_cluster_add_refuses_partial_routing(
        self, small_snapshot, small_raw_pages
    ):
        parts = split_snapshot(small_snapshot, 2)
        clients = [
            LocalShardClient(ShardNode(part, **DIRECTORY_KWARGS))
            for part in parts
        ]
        router = DirectoryRouter(clients)
        try:
            clients[1].kill()
            with pytest.raises(AllShardsUnavailable, match="deterministic"):
                router.add(small_raw_pages[-1])
        finally:
            router.close()

    def test_remove_broadcast_and_hash_owner(
        self, small_snapshot, small_raw_pages
    ):
        router = make_router(small_snapshot, 2)
        try:
            added = router.add(small_raw_pages[-1])
            reply = router.remove(added["url"])
            assert reply["removed"] is True
            assert router.remove(added["url"])["removed"] is False
        finally:
            router.close()
        hash_router = make_router(small_snapshot, 2, placement="hash")
        try:
            url = small_raw_pages[-2].url
            owner = shard_for_url(url, 2)
            hash_router.add(small_raw_pages[-2])
            reply = hash_router.remove(url)
            assert reply["removed"] is True
            assert reply["shards"]["answered"] == [owner]
        finally:
            hash_router.close()


# ---------------------------------------------------------------------
# The HTTP faces, end to end over real sockets.
# ---------------------------------------------------------------------


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class TestHttpFaces:
    @pytest.fixture()
    def stack(self, small_snapshot, tmp_path):
        """2 HTTP shards (+1 replica of shard 0) behind an HTTP router."""
        servers = []
        parts = split_snapshot(small_snapshot, 2)
        clients = []
        for part in parts:
            index = part.meta["shard"]
            node = ShardNode(
                part, journal=tmp_path / f"s{index}.wal",
                segment_records=4,
            )
            server = serve_shard(node)
            server.serve_in_thread()
            servers.append(server)
            clients.append(HttpShardClient(server.base_url))
        replica = ReplicaNode(clients[0])
        replica.bootstrap()
        replica_server = serve_replica(replica)
        replica_server.serve_in_thread()
        servers.append(replica_server)
        router = DirectoryRouter(
            [[clients[0], HttpShardClient(replica_server.base_url)],
             [clients[1]]]
        )
        router_server = serve_router(router)
        router_server.serve_in_thread()
        servers.append(router_server)
        yield router_server.base_url, replica, servers
        for server in servers:
            server.shut_down()

    def test_search_healthz_metrics_round_trip(
        self, stack, small_snapshot
    ):
        base, _, _ = stack
        single = FormDirectory.from_snapshot(
            small_snapshot, **DIRECTORY_KWARGS
        )
        try:
            reply = _get(f"{base}/search?q=cheap+flight+ticket&n=5")
            assert reply["ok"] and not reply["partial"]
            assert strip_shard(reply["hits"]) == single.search(
                "cheap flight ticket", n=5
            )
        finally:
            single.close()
        health = _get(f"{base}/healthz")
        assert health["status"] == "ok" and health["role"] == "router"
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
            text = r.read().decode("utf-8")
        assert "router_fanout_shards" in text
        assert "router_shards 2" in text

    def test_replica_refuses_writes_until_promoted(self, stack):
        _, replica, servers = stack
        replica_base = servers[2].base_url
        body = json.dumps({"url": "http://x.example/", "html": "<html/>"})
        request = urllib.request.Request(
            f"{replica_base}/add", data=body.encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 403
        assert json.loads(info.value.read())["error"]["code"] == (
            "read_only_replica"
        )

    def test_shard_replication_feed_over_http(self, stack):
        _, _, servers = stack
        shard_base = servers[0].base_url
        body = json.dumps({
            "url": "http://feed.example/form",
            "html": "<html><form><input name='q'></form>flight</html>",
        }).encode()
        for index in range(5):
            request = urllib.request.Request(
                f"{shard_base}/add",
                data=body.replace(b"feed.example",
                                  b"feed%d.example" % index),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as r:
                assert json.loads(r.read())["ok"]
        manifest = _get(f"{shard_base}/replication/manifest")
        assert manifest["next_record"] == 5
        assert manifest["sealed"]  # 4/segment → at least one sealed
        seq = manifest["sealed"][0]["seq"]
        with urllib.request.urlopen(
            f"{shard_base}/replication/segment?seq={seq}", timeout=10
        ) as r:
            assert r.headers["Content-Type"] == "application/octet-stream"
            assert len(r.read()) == manifest["sealed"][0]["bytes"]
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(
                f"{shard_base}/replication/segment?seq=999", timeout=10
            )
        assert info.value.code == 404
        assert json.loads(info.value.read())["error"]["code"] == (
            "segment_gone"
        )

    def test_router_503_when_everything_dies(self, stack):
        base, _, servers = stack
        # Kill both shards and the replica, leave the router up.
        for server in servers[:3]:
            server.shut_down()
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(
                f"{base}/search?q=flight", timeout=30
            )
        assert info.value.code == 503
        assert info.value.headers["Retry-After"] == "1"
        assert json.loads(info.value.read())["error"]["code"] == (
            "all_shards_unavailable"
        )


class TestPooledHttpClient:
    """The pooled persistent-connection shard client."""

    def _shard_server(self, small_snapshot, port=0):
        part = split_snapshot(small_snapshot, 1)[0]
        node = ShardNode(part, **DIRECTORY_KWARGS)
        server = serve_shard(node, port=port)
        server.serve_in_thread()
        return server

    def test_pooled_client_reuses_one_connection(self, small_snapshot):
        server = self._shard_server(small_snapshot)
        client = HttpShardClient(server.base_url)
        try:
            baseline = server.admission.connections_total
            for query in QUERIES[:5]:
                assert client.search(query, n=3) is not None
            assert server.admission.connections_total == baseline + 1
        finally:
            client.close()
            server.shut_down()

    def test_unpooled_client_opens_per_call(self, small_snapshot):
        server = self._shard_server(small_snapshot)
        client = HttpShardClient(server.base_url, pooled=False)
        try:
            baseline = server.admission.connections_total
            for query in QUERIES[:3]:
                client.search(query, n=3)
            assert server.admission.connections_total == baseline + 3
        finally:
            client.close()
            server.shut_down()

    def test_reconnect_on_stale_after_server_restart(self, small_snapshot):
        first = self._shard_server(small_snapshot)
        port = first.port
        client = HttpShardClient(first.base_url)
        try:
            hits = client.search(QUERIES[0], n=3)
            # The connection that served this is now parked in the pool;
            # restarting the server on the same port makes it stale.
            first.shut_down()
            second = self._shard_server(small_snapshot, port=port)
            try:
                assert client.search(QUERIES[0], n=3) == hits
            finally:
                second.shut_down()
        finally:
            client.close()

    def test_fresh_connection_failure_does_not_retry(self, small_snapshot):
        server = self._shard_server(small_snapshot)
        base = server.base_url
        server.shut_down()
        client = HttpShardClient(base)
        try:
            with pytest.raises(ShardUnavailable):
                client.search(QUERIES[0], n=3)
        finally:
            client.close()


# ---------------------------------------------------------------------
# Bootstrap over version-3 snapshot bytes, in-process and over HTTP.
# ---------------------------------------------------------------------


class TestBootstrapOverSnapshotBytes:
    """``/replication/snapshot`` ships the bytes ``Snapshot.save``
    writes; a replica loads them with ``Snapshot.from_bytes``, serves
    what the leader serves, resumes tailing at the ``meta`` journal
    position and refuses a snapshot from a lower epoch."""

    NODE_KWARGS = dict(auto_recluster=False, cache_size=0)

    @pytest.fixture(params=["local", "http"])
    def connect(self, request):
        servers = []

        def connect(node, name):
            if request.param == "local":
                return LocalShardClient(node, name=name)
            server = serve_shard(node)
            server.serve_in_thread()
            servers.append(server)
            return HttpShardClient(server.base_url, name=name)

        yield connect
        for server in servers:
            server.shut_down()

    def test_bootstrap_tail_and_fence(
        self, connect, small_snapshot, small_raw_pages, tmp_path
    ):
        held_out = small_raw_pages[-6:]
        leader_node = ShardNode(
            small_snapshot, journal=tmp_path / "leader.wal",
            segment_records=4, epoch=2, **self.NODE_KWARGS,
        )
        leader = connect(leader_node, "leader")
        for raw in held_out[:3]:
            leader_node.directory.add(raw)
        leader_node.directory.remove(held_out[0].url)

        data = leader.replication_snapshot()
        assert isinstance(data, bytes)
        assert gzip.decompress(data)[:8] == b"RPDSNAP\x03"
        shipped = Snapshot.from_bytes(data)
        assert shipped.meta["journal_position"] == (
            leader_node.journal.next_record
        )

        replica = ReplicaNode(leader, name="replica", cache_size=0)
        try:
            position = replica.bootstrap()
            assert position == leader_node.journal.next_record
            assert replica.applied == position
            assert replica.epoch == 2
            ours = replica.node.directory.organizer
            theirs = leader_node.directory.organizer
            assert [
                (c.centroid.pc.items(), c.centroid.fc.items())
                for c in ours.clusters
            ] == [
                (c.centroid.pc.items(), c.centroid.fc.items())
                for c in theirs.clusters
            ]
            assert ours.similarity.stats.comparisons == 0
            for raw in small_raw_pages[:20]:
                assert replica.classify(raw) == leader_node.classify(raw)
            assert replica.search("cheap flight ticket", n=5) == (
                leader_node.search("cheap flight ticket", n=5)
            )

            # Tailing resumes at the shipped position.
            for raw in held_out[3:]:
                leader_node.directory.add(raw)
            leader_node.directory.remove(held_out[1].url)
            replica.catch_up()
            assert replica.applied == leader_node.journal.next_record
            assert replica.bootstraps == 1
            assert sorted(ours._by_url) == sorted(theirs._by_url)

            # A deposed leader (epoch 0) shipping its snapshot is refused.
            stale_node = ShardNode(small_snapshot, **self.NODE_KWARGS)
            replica.leader = connect(stale_node, "stale")
            with pytest.raises(StaleEpochError):
                replica.bootstrap()
            assert replica.bootstraps == 1
            stale_node.close()
        finally:
            replica.close()
            leader_node.close()
