"""Sharding benchmark: 1 process vs 2- and 4-shard scatter-gather.

Builds one snapshot over the 454-page corpus (k=32 so a 4-way split
still leaves each shard real work), serves it three ways — a single
``FormDirectory``, and cluster-placed routers over 2 and 4 in-process
shards — and times merged ``/search`` for both scopes plus ``classify``
fan-out.  Every sharded configuration is parity-checked first: its
merged answers must be **bit-identical** (ids, scores, order) to the
single process before its timing is allowed into the table.

Also measured: replica catch-up — records/second a follower applies
while tailing a journaled leader's sealed segments, and the lag left
after the stream (the number the ``replication_lag_records`` gauge
exports) — and failover time: leader dies, the coordinator notices the
lease lapse, promotes the replica, and the router acks the first write
at the bumped epoch (the ``failover`` block in BENCH_shard.json).

Records ``BENCH_shard.json`` at the repo root.  No speedup is
*required* of in-process sharding at this corpus size — scatter-gather
pays thread-pool overhead per request, and honesty beats spin — but the
parity gate and the catch-up throughput are hard assertions.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.distrib import (
    DirectoryRouter,
    FailoverCoordinator,
    HttpShardClient,
    LeaseStore,
    LocalShardClient,
    ReplicaNode,
    ShardNode,
    serve_shard,
    split_snapshot,
)
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.webgen.corpus import generate_benchmark

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_shard.json"
SHARD_COUNTS = (2, 4)
K = 32

QUERIES = (
    "flight airfare ticket",
    "book novel author",
    "job career salary engineer",
    "movie theater actor",
    "hotel room reservation",
    "car rental pickup",
)
TOP_N = (1, 5, 25)

DIRECTORY_KWARGS = dict(
    journal=None, auto_recluster=False, cache_size=0
)


@pytest.fixture(scope="module")
def raw_pages():
    return generate_benchmark(seed=42).raw_pages()


@pytest.fixture(scope="module")
def snapshot(raw_pages):
    pipeline = CAFCPipeline(CAFCConfig(k=K))
    return build_snapshot(
        pipeline.organize(raw_pages), pipeline.vectorizer, pipeline.config
    )


def make_router(snapshot, n_shards):
    clients = [
        LocalShardClient(ShardNode(part, **DIRECTORY_KWARGS))
        for part in split_snapshot(snapshot, n_shards)
    ]
    return DirectoryRouter(clients)


def strip_shard(hits):
    return [{k: v for k, v in hit.items() if k != "shard"} for hit in hits]


def assert_parity(single, router):
    for query in QUERIES:
        for n in TOP_N:
            assert strip_shard(
                router.search(query, n=n, scope="clusters")["hits"]
            ) == single.search(query, n=n), (query, n, "clusters")
            assert strip_shard(
                router.search(query, n=n, scope="pages")["hits"]
            ) == single.search_pages(query, n=n), (query, n, "pages")


def timed(fn, rounds=5, inner=10):
    """(cold, warm): first-call wall clock, then best-of repeats."""
    start = time.perf_counter()
    fn()
    cold = time.perf_counter() - start
    warm = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        warm = min(warm, (time.perf_counter() - start) / inner)
    return cold, warm


def measure(label, scope, run, rows):
    cold, warm = timed(run)
    per_query = warm / len(QUERIES)
    rows.append({
        "config": label,
        "scope": scope,
        "cold_us": round(cold * 1e6, 1),
        "warm_us": round(warm * 1e6, 1),
        "per_query_us": round(per_query * 1e6, 1),
        "throughput_qps": round(1.0 / per_query, 1),
    })
    print(
        f"  {label:<18} {scope:<9} warm {warm * 1e6:8.0f}us "
        f"({1.0 / per_query:8.0f} q/s)"
    )


def test_bench_shard_scatter_gather(snapshot, raw_pages):
    rows = []
    print(f"\n[{len(raw_pages)} pages, k={K}, {os.cpu_count()} cpu(s)]")
    single = FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS)
    routers = {n: make_router(snapshot, n) for n in SHARD_COUNTS}
    try:
        for n_shards, router in routers.items():
            assert_parity(single, router)  # the gate before any timing

        def run_single(scope):
            search = single.search if scope == "clusters" else \
                single.search_pages
            for query in QUERIES:
                search(query, n=5)

        def run_router(router, scope):
            for query in QUERIES:
                router.search(query, n=5, scope=scope)

        for scope in ("clusters", "pages"):
            measure("single-process", scope,
                    lambda scope=scope: run_single(scope), rows)
            for n_shards, router in routers.items():
                measure(
                    f"{n_shards}-shard router", scope,
                    lambda r=router, scope=scope: run_router(r, scope),
                    rows,
                )

        probes = raw_pages[::61]

        def classify_single():
            for raw in probes:
                single.classify(raw)

        def classify_router(router):
            for raw in probes:
                router.classify(raw)

        measure("single-process", "classify", classify_single, rows)
        for n_shards, router in routers.items():
            measure(f"{n_shards}-shard router", "classify",
                    lambda r=router: classify_router(r), rows)
    finally:
        for router in routers.values():
            router.close()
        single.close()

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "shard",
        "corpus_pages": len(raw_pages),
        "k": K,
        "cpu_count": os.cpu_count(),
        "shard_counts": list(SHARD_COUNTS),
        "rows": rows,
        "note": (
            "In-process shards behind the scatter-gather router vs one "
            "FormDirectory, warm = best-of-5 x 10 repeats.  Every "
            "sharded configuration passed a bit-identical merged-top-k "
            "parity check before timing.  At 454 pages scatter-gather "
            "overhead (thread pool + merge) is expected to outweigh the "
            "smaller per-shard scans — the win sharding buys is "
            "capacity and isolation, not single-query latency at toy "
            "scale."
        ),
    }, indent=2) + "\n")


def test_bench_replica_catch_up(snapshot, raw_pages, tmp_path):
    """Throughput of the journal-shipping tail: a replica bootstraps,
    the leader absorbs the corpus again under new URLs (rolling sealed
    segments), and the replica applies the stream."""
    parts = split_snapshot(snapshot, 2)
    leader_node = ShardNode(
        parts[0], journal=tmp_path / "leader.wal", segment_records=64,
        **{k: v for k, v in DIRECTORY_KWARGS.items() if k != "journal"},
    )
    leader = LocalShardClient(leader_node, name="leader")
    replica = ReplicaNode(
        leader, name="replica-0", cache_size=0
    )
    try:
        replica.bootstrap()
        writes = [
            dataclasses.replace(raw, url=f"{raw.url}?copy=1")
            for raw in raw_pages[: len(raw_pages) // 2]
        ]
        start = time.perf_counter()
        for raw in writes:
            leader.add(raw)
        write_seconds = time.perf_counter() - start

        start = time.perf_counter()
        lag_after = replica.catch_up()
        catch_up_seconds = time.perf_counter() - start
        applied = replica.applied
        assert applied >= len(writes) - 64  # everything sealed is in
        assert lag_after <= 64  # at most one unsealed segment behind

        # The copy converged on everything shipped: sealed-segment
        # replay used the same live apply paths as the leader.
        leader_urls = set(leader_node.directory.organizer._by_url)
        replica_urls = set(replica.node.directory.organizer._by_url)
        missing = {
            url for url in leader_urls - replica_urls
            if "?copy=1" in url
        }
        assert len(missing) <= lag_after

        rate = applied / catch_up_seconds if catch_up_seconds else 0.0
        print(
            f"\n[catch-up] {len(writes)} writes in {write_seconds:.2f}s; "
            f"replica applied {applied} records in "
            f"{catch_up_seconds:.2f}s ({rate:,.0f} rec/s), "
            f"lag {lag_after} (unsealed tail)"
        )
        if RESULTS_PATH.exists():
            payload = json.loads(RESULTS_PATH.read_text())
            payload["replica_catch_up"] = {
                "writes": len(writes),
                "segment_records": 64,
                "applied_records": applied,
                "catch_up_seconds": round(catch_up_seconds, 3),
                "records_per_second": round(rate, 1),
                "lag_after_records": lag_after,
                "bootstraps": replica.bootstraps,
            }
            RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    finally:
        replica.close()
        leader_node.close()


def test_bench_failover(snapshot, raw_pages, tmp_path):
    """Failover time, wall clock: the leader dies mid-stream, the
    coordinator notices the lease lapse (missed renewals — no clean
    shutdown), promotes the caught-up replica, and the router acks the
    first write at the bumped epoch.  Records detect → promote →
    first-acked-write into BENCH_shard.json's ``failover`` block.

    A short real TTL keeps the bench honest *and* quick: detection
    cannot beat the lease expiring, so total failover time is dominated
    by (and bounded below by) the TTL — which is the knob an operator
    actually trades against false positives.
    """
    ttl = 0.5
    tick_interval = 0.05
    parts = split_snapshot(snapshot, 2)
    wal = tmp_path / "failover-leader.wal"
    store = LeaseStore(tmp_path / "failover.lease")
    leader_node = ShardNode(
        parts[0], journal=wal, segment_records=32,
        lease_store=store, lease_ttl=ttl,
        **{k: v for k, v in DIRECTORY_KWARGS.items() if k != "journal"},
    )
    leader = LocalShardClient(leader_node, name="leader")
    replica = ReplicaNode(
        leader, name="replica-0", cache_size=0
    )
    replica.bootstrap()
    replica_client = LocalShardClient(replica, name="replica-0")
    router = DirectoryRouter(
        [[leader, replica_client]], placement="hash"
    )
    writes = [
        dataclasses.replace(raw, url=f"{raw.url}?failover=1")
        for raw in raw_pages[:40]
    ]
    try:
        for raw in writes:
            router.add(raw)
        replica.catch_up()

        died_at = time.perf_counter()
        leader.kill()  # no clean shutdown: the lease file goes stale

        coordinator = FailoverCoordinator(
            leader, [replica_client], wal, lease_store=store,
            router=router, shard_index=0, miss_threshold=2,
            lease_ttl=ttl,
        )
        give_up = time.monotonic() + 30.0
        event = coordinator.tick()
        while event["action"] != "promoted" and time.monotonic() < give_up:
            time.sleep(tick_interval)
            event = coordinator.tick()
        promoted_at = time.perf_counter()
        assert event["action"] == "promoted", event

        probe = dataclasses.replace(
            raw_pages[40], url=f"{raw_pages[40].url}?failover=probe"
        )
        reply = router.add(probe)
        acked_at = time.perf_counter()
        assert reply["epoch"] == 1
        assert reply["served_by"] == "replica-0"

        detect_promote = promoted_at - died_at
        total = acked_at - died_at
        print(
            f"\n[failover] ttl {ttl}s: death -> promoted "
            f"{detect_promote:.3f}s, first acked write at epoch "
            f"{reply['epoch']} after {total:.3f}s "
            f"(drained {replica.drained_on_promotion} records)"
        )
        assert total < 10.0  # sanity: bounded, not hung

        if RESULTS_PATH.exists():
            payload = json.loads(RESULTS_PATH.read_text())
            payload["failover"] = {
                "lease_ttl_seconds": ttl,
                "miss_threshold": 2,
                "tick_interval_seconds": tick_interval,
                "acked_writes_before_death": len(writes),
                "drained_on_promotion": replica.drained_on_promotion,
                "death_to_promoted_seconds": round(detect_promote, 3),
                "death_to_first_acked_write_seconds": round(total, 3),
                "coordinator_detect_seconds": round(
                    float(event["detect_seconds"]), 3
                ),
                "coordinator_promote_seconds": round(
                    float(event["promote_seconds"]), 3
                ),
                "note": (
                    "Leader killed without cleanup; the coordinator "
                    "waits out the stale lease (missed renewals), "
                    "promotes the replica (journal drain + epoch bump "
                    "+ lease at the new epoch), repoints the router, "
                    "and the next write acks at epoch 1.  Total time "
                    "is TTL-dominated by design."
                ),
            }
            RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    finally:
        router.close()
        replica.close()
        leader_node.close()


def test_bench_http_client_pooling(snapshot, raw_pages):
    """Pooled persistent keep-alive connections vs open-per-call HTTP.

    One shard served over the asyncio transport, searched through
    :class:`HttpShardClient` both ways.  ``pooled=False`` opens a fresh
    TCP connection per request (the legacy behavior this PR replaced);
    ``pooled=True`` borrows from the client's keep-alive pool — the
    per-request handshake was exactly the scatter-gather overhead the
    shard bench's honest note called out.  Both modes must agree on the
    answers before either is timed.
    """
    part = split_snapshot(snapshot, 1)[0]
    node = ShardNode(part, **DIRECTORY_KWARGS)
    server = serve_shard(node)
    server.serve_in_thread()
    clients = {
        "per-call": HttpShardClient(server.base_url, pooled=False),
        "pooled": HttpShardClient(server.base_url, pooled=True),
    }
    rows = []
    try:
        # Parity gate: identical hits either way.
        for query in QUERIES:
            assert (clients["pooled"].search(query, n=5)
                    == clients["per-call"].search(query, n=5)), query

        for label, client in clients.items():
            def run(client=client):
                for query in QUERIES:
                    client.search(query, n=5)

            cold, warm = timed(run)
            per_query = warm / len(QUERIES)
            rows.append({
                "config": f"http {label}",
                "scope": "clusters",
                "cold_us": round(cold * 1e6, 1),
                "warm_us": round(warm * 1e6, 1),
                "per_query_us": round(per_query * 1e6, 1),
                "throughput_qps": round(1.0 / per_query, 1),
            })
            print(
                f"  http {label:<10} warm {warm * 1e6:8.0f}us "
                f"({1.0 / per_query:8.0f} q/s)"
            )
    finally:
        for client in clients.values():
            client.close()
        server.shut_down()

    pooled = next(r for r in rows if r["config"] == "http pooled")
    per_call = next(r for r in rows if r["config"] == "http per-call")
    # Keep-alive must not be slower than a handshake per request.
    assert pooled["per_query_us"] <= per_call["per_query_us"] * 1.10, rows

    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
        payload["http_client"] = {
            "transport": "asyncio shard server, HttpShardClient",
            "rows": rows,
            "note": (
                "Single shard over HTTP: per-call opens a TCP "
                "connection per request, pooled reuses persistent "
                "keep-alive connections (reconnect-on-stale).  Warm = "
                "best-of-5 x 10 repeats, answers parity-checked "
                "before timing."
            ),
        }
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
