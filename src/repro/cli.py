"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``
    Run the full paper-experiment battery and print paper-vs-measured
    tables (takes a couple of minutes).
``corpus``
    Generate the benchmark corpus and print its profile; ``--save PATH``
    writes it as a JSON dataset.
``ingest --stream``
    Streamed, bounded-memory ingestion over generated pages
    (docs/INGESTION.md).
``organize``
    Load a JSON dataset (or generate the benchmark) and run the CAFC
    pipeline, printing the resulting database-domain clusters.
``explore``
    Organize a dataset and answer a keyword query against the clusters
    (Section 6's query-based cluster exploration).
``unify``
    Organize a dataset, then match attributes across one cluster's forms
    and print the unified query interface (Section 5's downstream use).
``snapshot build`` / ``snapshot inspect``
    Persist a fully built directory index to a versioned JSON(+gzip)
    snapshot, or summarize one without loading it.
``serve``
    Run the form-directory HTTP server over a snapshot from
    ``snapshot build`` (docs/SERVING.md).
``shard`` / ``replica`` / ``router``
    Serve one shard of a split snapshot, a read replica tailing a
    shard's journal, or the scatter-gather front end (docs/SHARDING.md).
``failover``
    Watch a shard leader and promote a replica when it dies.
"""

import argparse
import sys
from typing import List, Optional


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import experiment_names, run_all

    if args.list:
        for name in experiment_names():
            print(name)
        return 0
    try:
        print(run_all(
            seed=args.seed, n_runs=args.runs, only=args.only,
            workers=args.workers, report_header=True,
        ))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _parallel_config(args: argparse.Namespace):
    """A ParallelConfig from the shared --workers flag."""
    from repro.parallel import ParallelConfig

    return ParallelConfig(workers=args.workers)


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.webgen import generate_benchmark

    web = generate_benchmark(seed=args.seed)
    for key, value in web.profile().items():
        print(f"{key}: {value}")
    if args.save:
        from repro.datasets import save_dataset

        save_dataset(web.raw_pages(), args.save)
        print(f"saved dataset to {args.save}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Streamed ingestion over generated pages (docs/INGESTION.md)."""
    import json
    import resource
    import time

    from repro.stream import StreamConfig, run_stream
    from repro.webgen import stream_pages

    if not args.stream:
        raise SystemExit(
            "batch ingestion lives under `repro organize`; "
            "pass --stream for the streaming path"
        )
    n_pages = 20_000 if args.smoke else args.pages
    config = StreamConfig(
        batch_size=args.batch_size,
        drift_threshold=args.drift_threshold,
        reservoir_size=args.reservoir_size,
        vocab_budget=args.vocab_budget,
        min_df=args.min_df,
    )
    started = time.monotonic()
    run = run_stream(
        stream_pages(n_pages, seed=args.seed),
        n_clusters=args.k,
        config=config,
    )
    elapsed = time.monotonic() - started
    stats = run.stats
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "pages": stats.pages,
        "batches": stats.batches,
        "reweights": stats.reweights,
        "pc_vocab": stats.pc_vocab,
        "fc_vocab": stats.fc_vocab,
        "terms_pruned": stats.pc_pruned + stats.fc_pruned,
        "pages_per_s": round(stats.pages / elapsed, 1) if elapsed else None,
        "elapsed_s": round(elapsed, 1),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "clusters": len(run.organizer.centroid_pairs()),
    }
    print(json.dumps(report, indent=2))

    if args.smoke:
        # CI gates: flat memory (the whole point of streaming) and
        # clustering quality within tolerance of the batch organizer on
        # the reference corpus (benchmarks/test_bench_stream.py pins the
        # same bounds before timing).
        from repro.stream import reference_parity

        rss_cap_mb = args.rss_cap_mb
        if peak_rss_mb > rss_cap_mb:
            raise SystemExit(
                f"stream smoke FAILED: peak RSS {peak_rss_mb:.0f} MB "
                f"exceeds the {rss_cap_mb} MB cap"
            )
        parity = reference_parity(seed=args.seed)
        if parity["delta_entropy"] > 0.25 or parity["delta_f"] > 0.10:
            raise SystemExit(
                "stream smoke FAILED: parity gap vs batch too wide "
                f"(delta_entropy={parity['delta_entropy']:.3f}, "
                f"delta_f={parity['delta_f']:.3f})"
            )
        print(
            "stream smoke ok: "
            f"{stats.pages} pages at {report['pages_per_s']} pages/s, "
            f"peak RSS {peak_rss_mb:.0f} MB (cap {rss_cap_mb}), "
            f"entropy {parity['stream']['entropy']:.3f} vs batch "
            f"{parity['batch']['entropy']:.3f}"
        )
    return 0


def _load_or_generate(args: argparse.Namespace):
    if args.dataset:
        from repro.datasets import load_dataset

        return load_dataset(args.dataset)
    from repro.webgen import generate_benchmark

    return generate_benchmark(seed=args.seed).raw_pages()


def _organize(args: argparse.Namespace, algorithm="cafc-ch", **config):
    """Organize --dataset (or the generated benchmark) into ``args.k``
    clusters; ``config`` sets further CAFCConfig fields.  Returns the
    raw pages, the fitted pipeline and its result."""
    from repro.core import CAFCConfig, CAFCPipeline

    raw_pages = _load_or_generate(args)
    pipeline = CAFCPipeline(CAFCConfig(k=args.k, **config))
    result = pipeline.organize(raw_pages, algorithm=algorithm)
    return raw_pages, pipeline, result


def _cmd_organize(args: argparse.Namespace) -> int:
    _, pipeline, result = _organize(
        args, args.algorithm, scheme=args.scheme,
        parallel=_parallel_config(args),
    )
    print(f"ingest: {pipeline.vectorizer.ingest_stats.describe()}")
    if args.save_result:
        from repro.datasets import save_result

        save_result(result, args.save_result)
        print(f"saved organized directory to {args.save_result}")
    print(f"algorithm: {result.algorithm}; iterations: {result.iterations}")
    if args.profile and result.engine_stats is not None:
        print(f"profile: {result.engine_stats.summary()}")
    for index, cluster in enumerate(result.clusters):
        print(f"\ncluster {index} ({cluster.size} databases)")
        print(f"  terms: {', '.join(cluster.top_terms)}")
        for url in cluster.urls[:5]:
            print(f"  {url}")
        if cluster.size > 5:
            print(f"  ... and {cluster.size - 5} more")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import ClusterExplorer

    _, _, result = _organize(args)
    explorer = ClusterExplorer(result)
    print(explorer.summary())
    if args.query:
        print(f"\nquery: {args.query!r}")
        hits = explorer.search(args.query, n=args.n)
        if not hits:
            print("no matching clusters")
        for hit in hits:
            print(f"\nscore {hit.score:.3f} "
                  f"(matched: {', '.join(hit.matched_terms)})")
            print(explorer.describe(hit.cluster_index, max_urls=5))
    return 0


def _cmd_unify(args: argparse.Namespace) -> int:
    from repro.integration import build_unified_interface

    raw_pages, _, result = _organize(args)
    raw_by_url = {page.url: page for page in raw_pages}
    if not 0 <= args.cluster < result.n_clusters:
        print(f"cluster must be in [0, {result.n_clusters})", file=sys.stderr)
        return 1
    cluster = result.clusters[args.cluster]
    members = [raw_by_url[url] for url in cluster.urls]
    unified = build_unified_interface(members, min_coverage=args.min_coverage)
    print(f"cluster {args.cluster}: {cluster.size} forms — "
          f"{', '.join(cluster.top_terms[:4])}")
    print(f"concepts discovered: {unified.n_concepts_discovered}; "
          f"unified fields (coverage >= {args.min_coverage:.0%}):\n")
    for unified_field in unified.fields:
        kind = (
            f"select, {len(unified_field.options)} options"
            if unified_field.is_select else "text"
        )
        print(f"  {unified_field.label:<24} [{kind}] "
              f"coverage {unified_field.coverage:.0%} "
              f"as {', '.join(unified_field.example_labels[:4])}")
    if args.html:
        print("\n" + unified.to_html())
    return 0


def _cmd_snapshot_build(args: argparse.Namespace) -> int:
    from repro.service import build_snapshot

    _, pipeline, result = _organize(
        args, args.algorithm, scheme=args.scheme,
        parallel=_parallel_config(args),
    )
    snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
    snapshot.save(args.out)
    print(f"ingest: {pipeline.vectorizer.ingest_stats.describe()}")
    print(
        f"saved snapshot to {args.out}: {snapshot.n_pages} pages in "
        f"{snapshot.n_clusters} clusters ({result.algorithm})"
    )
    return 0


def _cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    from repro.service import snapshot_info

    info = snapshot_info(args.path)
    for key, value in info.items():
        print(f"{key}: {value}")
    return 0


def _admission_from_args(args: argparse.Namespace):
    """An AdmissionConfig from the CLI's admission knobs."""
    from repro.service.aio import AdmissionConfig

    config = AdmissionConfig()
    if getattr(args, "max_inflight", None) is not None:
        config.max_inflight = args.max_inflight
    if getattr(args, "max_connections", None) is not None:
        config.max_connections = args.max_connections
    if getattr(args, "header_timeout", None) is not None:
        config.header_timeout = args.header_timeout
    if getattr(args, "idle_timeout", None) is not None:
        config.idle_timeout = args.idle_timeout
    return config


def _add_admission_args(parser) -> None:
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent heavy requests before 429 shedding "
             "(default 64; docs/SERVING.md)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="open-socket cap; newcomers beyond it get 429 + close "
             "(default 4096)",
    )
    parser.add_argument(
        "--header-timeout", type=float, default=None, metavar="SECONDS",
        help="reap a connection whose request frame stalls this long "
             "(slowloris defense; default 5)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        help="close idle keep-alive connections after this long "
             "(default 60)",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    if not (args.snapshot or args.smoke):
        raise SystemExit(
            "serve needs --snapshot PATH: build one first with "
            "`repro snapshot build --out PATH` (or pass --smoke)"
        )
    if args.chaos is None:
        return _serve(args)
    # Dev/soak mode: arm the canned chaos plan process-wide so the
    # snapshot and journal seams misbehave — the server should stay up
    # (degraded at worst).  The previous plan comes back
    # when the command returns.  docs/RESILIENCE.md.
    from repro.resilience import FaultPlan, active_plan

    plan = FaultPlan.default_chaos(args.chaos)
    print(f"chaos mode: {plan.describe()['specs']} (seed {args.chaos})")
    with active_plan(plan):
        status = _serve(args)
    print(f"chaos seams crossed: {plan.describe()['crossings']}")
    return status


def _serve(args: argparse.Namespace) -> int:
    from repro.service import FormDirectory, serve_directory

    directory = FormDirectory.from_snapshot(
        args.snapshot or _smoke_snapshot(),
        cache_size=args.cache_size,
        auto_recluster=not args.no_auto_recluster,
        journal=args.journal,
    )
    server = serve_directory(
        directory,
        host=args.host,
        port=0 if args.smoke else args.port,
        max_request_bytes=args.max_request_bytes,
        admission=_admission_from_args(args),
    )
    stats = directory.stats()
    print(
        f"form directory: {stats['pages']} pages in {stats['clusters']} "
        "clusters"
    )
    if not args.smoke:
        return _serve_until_interrupted(server)

    # Boot on an ephemeral port, probe /healthz, one /classify and one
    # /add over a real socket, and shut down cleanly — the CI smoke.
    # The add crosses the journal seam when --journal is given; under an
    # armed chaos plan it may fail there with a structured 503, after
    # which /healthz must still answer 200.
    server.serve_in_thread()
    base = server.base_url
    try:
        health = _http_json(base + "/healthz")
        assert health["status"] == "ok", health
        outcome = _http_json(base + "/classify", _PROBE_PAGE)
        assert outcome["ok"] and isinstance(outcome["cluster"], int), outcome
        status, added = _http_reply(base + "/add", _PROBE_PAGE)
        refused = (
            status == 503
            and args.chaos is not None
            and added["error"]["code"] == "upstream_unavailable"
        )
        assert (status == 200 and added["ok"]) or refused, (status, added)
        _http_json(base + "/healthz")
        print(
            f"serve smoke ok: {base} classified into cluster "
            f"{outcome['cluster']} ({', '.join(outcome['top_terms'][:3])}); "
            f"add answered {status}"
        )
    finally:
        server.shut_down()
    return 0


def _serve_until_interrupted(server, label: str = "serving") -> int:
    """Serve until Ctrl-C (SIGINT), then shut the server down."""
    print(f"{label} on {server.base_url} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.shut_down()
    return 0


def _smoke_snapshot(seed: int = 42):
    """The 64-page snapshot the ``serve`` and ``router`` smokes boot:
    a scaled-down benchmark, so a whole boot-probe-shutdown cycle stays
    in seconds."""
    from repro.core import CAFCConfig, CAFCPipeline
    from repro.service import build_snapshot
    from repro.webgen.config import GeneratorConfig
    from repro.webgen.corpus import generate_benchmark

    config = GeneratorConfig(
        pages_per_domain={
            "airfare": 9, "auto": 8, "book": 8, "hotel": 9,
            "job": 8, "movie": 8, "music": 8, "rental": 6,
        },
        single_attribute_per_domain=2,
        mixed_entertainment_pages=2,
        small_hubs_per_domain=6,
        medium_hubs_per_domain=3,
        n_directories=15,
        n_travel_portals=2,
        seed=seed,
    )
    raw_pages = generate_benchmark(config=config).raw_pages()
    pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
    result = pipeline.organize(raw_pages)
    return build_snapshot(result, pipeline.vectorizer, pipeline.config)


#: The form page both smokes send: a flight search.
_PROBE_PAGE = {
    "url": "http://smoke.example/form",
    "html": "<html><title>flight search</title><body>"
            "<form><input name='from'><input name='to'></form>"
            "book cheap flights and airline tickets</body></html>",
}


def _http_json(url: str, payload: Optional[dict] = None):
    """GET ``url`` (or POST ``payload`` to it as JSON); the decoded reply,
    which must come with status 200."""
    status, body = _http_reply(url, payload)
    assert status == 200, (url, status, body)
    return body


def _http_reply(url: str, payload: Optional[dict] = None):
    """GET ``url`` (or POST ``payload`` to it as JSON); the status and
    the decoded reply, error statuses included."""
    import json
    import urllib.error
    import urllib.request

    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}, method="POST",
        )
    try:
        with urllib.request.urlopen(request, timeout=15) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read().decode("utf-8"))


def _lease_path(lease_dir: str, shard_index: int) -> str:
    """The per-shard lease file inside a shared --lease-dir."""
    import os

    os.makedirs(lease_dir, exist_ok=True)
    return os.path.join(lease_dir, f"shard-{shard_index:02d}.lease")


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.distrib import LeaseStore, ShardNode, serve_shard, split_snapshot
    from repro.service import Snapshot

    if args.split:
        import os

        snapshot = Snapshot.load(args.snapshot)
        parts = split_snapshot(snapshot, args.split, placement=args.placement)
        os.makedirs(args.out_dir, exist_ok=True)
        for part in parts:
            shard_index = part.meta["shard"]
            path = os.path.join(
                args.out_dir, f"shard-{shard_index:02d}.json.gz"
            )
            part.save(path)
            print(
                f"shard {shard_index}: {part.n_pages} pages / "
                f"{part.n_clusters} clusters -> {path}"
            )
        return 0

    snapshot = Snapshot.load(args.snapshot)
    lease_store = None
    if args.lease_dir:
        shard_index = int((snapshot.meta or {}).get("shard", 0))
        lease_store = LeaseStore(_lease_path(args.lease_dir, shard_index))
    node = ShardNode(
        snapshot,
        journal=args.journal,
        segment_records=args.segment_records,
        lease_store=lease_store,
        lease_ttl=args.lease_ttl,
        epoch=args.epoch,
    )
    server = serve_shard(
        node, host=args.host, port=args.port,
        admission=_admission_from_args(args),
    )
    health = node.healthz()
    print(
        f"shard {health['shard']}/{health['n_shards']} "
        f"({health['placement']} placement): {health['pages']} pages in "
        f"{health['clusters']} clusters; journal "
        f"{'on' if node.journal else 'off'}; epoch {node.epoch}"
        + (f"; lease {lease_store.path}" if lease_store else "")
    )
    return _serve_until_interrupted(server)


def _cmd_replica(args: argparse.Namespace) -> int:
    import threading

    from repro.distrib import (
        HttpShardClient,
        ReplicaNode,
        ShardUnavailable,
        serve_replica,
    )

    leader = HttpShardClient(args.leader, timeout=args.request_timeout)
    replica = ReplicaNode(leader, name=args.name, max_lag_records=args.max_lag)
    position = replica.bootstrap()
    print(f"bootstrapped from {args.leader} at journal position {position}")
    server = serve_replica(
        replica, host=args.host, port=args.port,
        admission=_admission_from_args(args),
    )

    stop = threading.Event()

    def tail() -> None:
        misses = 0
        while not stop.is_set():
            try:
                report = replica.poll()
                misses = 0
                if report["segments"]:
                    print(
                        f"applied {report['segments']} segment(s), "
                        f"position {report['applied']}, lag {report['lag']}"
                    )
            except ShardUnavailable as exc:
                misses += 1
                if (
                    args.leader_journal
                    and args.promote_after
                    and misses >= args.promote_after
                    and not replica.promoted
                ):
                    print(f"leader gone ({exc}); promoting")
                    promote_kwargs = {}
                    if args.lease_dir and replica.node is not None:
                        promote_kwargs["lease_store"] = _lease_path(
                            args.lease_dir, replica.node.shard_index
                        )
                        promote_kwargs["lease_ttl"] = args.lease_ttl
                    replica.promote(args.leader_journal, **promote_kwargs)
                    print(
                        "promoted: serving writes at position "
                        f"{replica.applied}, epoch {replica.epoch}"
                    )
                    return
            stop.wait(args.poll_ms / 1000.0)

    tailer = threading.Thread(target=tail, name="repro-replica-tail",
                              daemon=True)
    tailer.start()
    try:
        return _serve_until_interrupted(server, "serving (read-only)")
    finally:
        stop.set()


def _cmd_router(args: argparse.Namespace) -> int:
    from repro.distrib import DirectoryRouter, HttpShardClient, serve_router

    if args.smoke:
        return _router_smoke(args)
    if not args.shard:
        raise SystemExit("router needs at least one --shard (or --smoke)")
    shards = []
    for index, entry in enumerate(args.shard):
        endpoints = [
            HttpShardClient(
                url.strip(), timeout=args.shard_timeout,
                name=f"shard-{index}@{url.strip()}",
            )
            for url in entry.split(",")
            if url.strip()
        ]
        if not endpoints:
            raise SystemExit(f"--shard entry {index} has no URLs")
        shards.append(endpoints)
    router = DirectoryRouter(
        shards, placement=args.placement, shard_timeout=args.shard_timeout
    )
    server = serve_router(
        router, host=args.host, port=args.port,
        admission=_admission_from_args(args),
    )
    print(
        f"router over {router.n_shards} shard(s), "
        f"{args.placement} placement, per-shard timeout "
        f"{args.shard_timeout}s"
    )
    return _serve_until_interrupted(server)


def _router_smoke(args: argparse.Namespace) -> int:
    """Boot router + 2 shards + 1 replica in-process over real sockets,
    round-trip a query and a write, shut down — the CI shard smoke."""
    import tempfile
    from pathlib import Path

    from repro.distrib import (
        DirectoryRouter,
        HttpShardClient,
        ReplicaNode,
        ShardNode,
        serve_replica,
        serve_router,
        serve_shard,
        split_snapshot,
    )

    snapshot = _smoke_snapshot(seed=args.seed)
    servers = []
    with tempfile.TemporaryDirectory(prefix="repro-shard-smoke-") as tmp:
        try:
            parts = split_snapshot(snapshot, 2, placement=args.placement)
            clients = []
            for part in parts:
                index = part.meta["shard"]
                node = ShardNode(
                    part, journal=Path(tmp) / f"shard-{index}.wal",
                    segment_records=8,
                )
                server = serve_shard(node)
                server.serve_in_thread()
                servers.append(server)
                clients.append(
                    HttpShardClient(server.base_url, name=f"shard-{index}")
                )
            replica = ReplicaNode(clients[0], name="replica-0")
            replica.bootstrap()
            replica_server = serve_replica(replica)
            replica_server.serve_in_thread()
            servers.append(replica_server)
            replica_client = HttpShardClient(
                replica_server.base_url, name="replica-0"
            )
            router = DirectoryRouter(
                [[clients[0], replica_client], [clients[1]]],
                placement=args.placement,
            )
            router_server = serve_router(router)
            router_server.serve_in_thread()
            servers.append(router_server)
            base = router_server.base_url

            health = _http_json(base + "/healthz")
            assert health["status"] == "ok", health
            search = _http_json(base + "/search?q=cheap+flight+ticket&n=3")
            assert search["ok"] and search["hits"], search
            assert not search["partial"], search
            added = _http_json(base + "/add", _PROBE_PAGE)
            assert added["ok"] and isinstance(added["cluster"], int), added
            report = replica.poll()
            print(
                f"shard smoke ok: {base} merged "
                f"{len(search['hits'])} hit(s) from "
                f"{len(search['shards']['answered'])} shards; add landed "
                f"on shard {added['shard']} cluster {added['cluster']}; "
                f"replica lag {report['lag']}"
            )
        finally:
            for server in servers:
                server.shut_down()
    return 0


def _cmd_failover(args: argparse.Namespace) -> int:
    """Watch a leader's lease (or health) and auto-promote a replica —
    the operational face of :class:`repro.distrib.fence.
    FailoverCoordinator` (docs/SHARDING.md, "Automatic failover")."""
    import json

    from repro.distrib import FailoverCoordinator, HttpShardClient, LeaseStore

    leader = HttpShardClient(
        args.leader, timeout=args.request_timeout, name="leader"
    )
    replicas = [
        HttpShardClient(
            url, timeout=args.request_timeout, name=f"replica-{index}"
        )
        for index, url in enumerate(args.replica)
    ]
    lease_store = None
    if args.lease_dir:
        lease_store = LeaseStore(
            _lease_path(args.lease_dir, args.shard_index)
        )
    coordinator = FailoverCoordinator(
        leader,
        replicas,
        args.leader_journal,
        lease_store=lease_store,
        shard_index=args.shard_index,
        miss_threshold=args.miss_threshold,
    )
    mode = (
        f"lease {lease_store.path}" if lease_store else "health probes"
    )
    print(
        f"watching {args.leader} via {mode}; "
        f"{len(replicas)} candidate replica(s), "
        f"promote after {args.miss_threshold} miss(es)"
    )
    if args.once:
        event = coordinator.tick()
    else:
        try:
            coordinator.run(interval=args.interval)
        except KeyboardInterrupt:
            print("\nstopping")
            return 0
        event = coordinator.last_event or {"action": "stopped"}
    print(json.dumps(event, sort_keys=True))
    return 0 if event.get("action") in ("promoted", "alive", "suspect") else 1


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ingestion knob (docs/INGESTION.md)."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="ingestion pool size; 0 = one per CPU, 1 = serial "
             "(parallel output is bit-identical to serial)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAFC: cluster hidden-web databases by form-page context",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_exp = subparsers.add_parser("experiments", help="run the paper's experiments")
    p_exp.add_argument("--seed", type=int, default=42, help="corpus seed")
    p_exp.add_argument("--runs", type=int, default=20, help="CAFC-C trials")
    p_exp.add_argument("--only", default="", help="run one experiment id")
    p_exp.add_argument("--list", action="store_true",
                       help="list experiment ids and exit")
    _add_parallel_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_corpus = subparsers.add_parser("corpus", help="generate the benchmark corpus")
    p_corpus.add_argument("--seed", type=int, default=42)
    p_corpus.add_argument("--save", help="write the dataset to this JSON path")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_ingest = subparsers.add_parser(
        "ingest",
        help="streamed ingestion over generated pages (bounded memory)",
    )
    p_ingest.add_argument(
        "--stream", action="store_true",
        help="use the streaming path (required; batch = `repro organize`)",
    )
    p_ingest.add_argument("--pages", type=int, default=100_000,
                          help="pages to stream (default 100k)")
    p_ingest.add_argument("--seed", type=int, default=42)
    p_ingest.add_argument("--k", type=int, default=8,
                          help="number of clusters")
    p_ingest.add_argument("--batch-size", type=int, default=256,
                          help="pages per mini-batch")
    p_ingest.add_argument(
        "--drift-threshold", type=float, default=0.1,
        help="re-weight when the IDF drift bound exceeds this "
             "(0 = exact prefix statistics every batch)",
    )
    p_ingest.add_argument("--reservoir-size", type=int, default=512,
                          help="re-clustering reservoir capacity")
    p_ingest.add_argument(
        "--vocab-budget", type=int, default=150_000,
        help="prune rare terms when a space's DF table exceeds this",
    )
    p_ingest.add_argument("--min-df", type=int, default=2,
                          help="frequency floor for vocabulary pruning")
    p_ingest.add_argument(
        "--rss-cap-mb", type=int, default=400,
        help="--smoke fails if peak RSS exceeds this many MB",
    )
    p_ingest.add_argument(
        "--smoke", action="store_true",
        help="20k-page streamed ingest under the RSS cap, then a "
             "batch-parity gate on the reference corpus (CI self-check)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_org = subparsers.add_parser("organize", help="cluster a form-page dataset")
    p_org.add_argument("--dataset", help="JSON dataset path (default: benchmark)")
    p_org.add_argument("--seed", type=int, default=42)
    p_org.add_argument("--k", type=int, default=8, help="number of clusters")
    p_org.add_argument(
        "--algorithm", choices=["cafc-ch", "cafc-c", "hac"], default="cafc-ch"
    )
    p_org.add_argument(
        "--save-result", help="write the organized directory to this JSON path"
    )
    p_org.add_argument(
        "--scheme", choices=["auto", "off", "eq1", "bm25", "tf"],
        default="auto",
        help="term-weighting scheme (default: auto = Equation 1; "
             "off = raw location-weighted TF — docs/RANKING.md)",
    )
    p_org.add_argument(
        "--profile", action="store_true",
        help="print similarity-engine statistics (build time, comparisons, "
             "cache hits)",
    )
    _add_parallel_flags(p_org)
    p_org.set_defaults(func=_cmd_organize)

    p_explore = subparsers.add_parser(
        "explore", help="keyword search over organized clusters"
    )
    p_explore.add_argument("--dataset", help="JSON dataset path (default: benchmark)")
    p_explore.add_argument("--seed", type=int, default=42)
    p_explore.add_argument("--k", type=int, default=8)
    p_explore.add_argument("--query", help="keyword query to answer")
    p_explore.add_argument("-n", type=int, default=3, help="max hits to show")
    p_explore.set_defaults(func=_cmd_explore)

    p_unify = subparsers.add_parser(
        "unify", help="build a unified query interface over one cluster"
    )
    p_unify.add_argument("--dataset", help="JSON dataset path (default: benchmark)")
    p_unify.add_argument("--seed", type=int, default=42)
    p_unify.add_argument("--k", type=int, default=8)
    p_unify.add_argument("--cluster", type=int, default=0, help="cluster index")
    p_unify.add_argument("--min-coverage", type=float, default=0.3)
    p_unify.add_argument("--html", action="store_true",
                         help="also print the unified interface as HTML")
    p_unify.set_defaults(func=_cmd_unify)

    p_snap = subparsers.add_parser(
        "snapshot", help="build or inspect directory snapshots"
    )
    snap_sub = p_snap.add_subparsers(dest="snapshot_command", required=True)

    p_snap_build = snap_sub.add_parser(
        "build", help="organize a dataset and persist the built index"
    )
    p_snap_build.add_argument(
        "--dataset", help="JSON dataset path (default: benchmark)"
    )
    p_snap_build.add_argument("--seed", type=int, default=42)
    p_snap_build.add_argument("--k", type=int, default=8)
    p_snap_build.add_argument(
        "--algorithm", choices=["cafc-ch", "cafc-c", "hac"], default="cafc-ch"
    )
    p_snap_build.add_argument(
        "--scheme", choices=["auto", "off", "eq1", "bm25", "tf"],
        default="auto",
        help="term-weighting scheme baked into the snapshot "
             "(default: auto = Equation 1)",
    )
    p_snap_build.add_argument(
        "--out", required=True,
        help="snapshot path (gzipped when it ends in .gz)",
    )
    _add_parallel_flags(p_snap_build)
    p_snap_build.set_defaults(func=_cmd_snapshot_build)

    p_snap_inspect = snap_sub.add_parser(
        "inspect", help="summarize a snapshot without materializing it"
    )
    p_snap_inspect.add_argument("path", help="snapshot path")
    p_snap_inspect.set_defaults(func=_cmd_snapshot_inspect)

    p_serve = subparsers.add_parser(
        "serve", help="run the form-directory HTTP server (docs/SERVING.md)"
    )
    p_serve.add_argument(
        "--snapshot", metavar="PATH",
        help="snapshot to serve, from `repro snapshot build` "
             "(required unless --smoke)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="classify LRU result-cache capacity (0 disables)",
    )
    p_serve.add_argument(
        "--no-auto-recluster", action="store_true",
        help="do not repair drift in a background thread",
    )
    p_serve.add_argument(
        "--max-request-bytes", type=int, default=2 * 1024 * 1024,
        help="reject request bodies larger than this (413)",
    )
    p_serve.add_argument(
        "--journal", metavar="PATH",
        help="write-ahead journal path: every add/remove/recluster is "
             "fsynced there before it is applied, and an existing "
             "journal is replayed on boot (crash recovery — "
             "docs/RESILIENCE.md)",
    )
    p_serve.add_argument(
        "--chaos", type=int, metavar="SEED",
        help="arm the canned fault-injection plan with this seed "
             "(deterministic chaos soak; docs/RESILIENCE.md)",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="boot the 64-page smoke snapshot on an ephemeral port, "
             "probe /healthz and /classify, shut down (CI self-check)",
    )
    _add_admission_args(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_shard = subparsers.add_parser(
        "shard",
        help="serve one shard of a split directory, or split a snapshot "
             "into shards (docs/SHARDING.md)",
    )
    p_shard.add_argument(
        "--snapshot", required=True,
        help="shard snapshot to serve (or the full snapshot to --split)",
    )
    p_shard.add_argument(
        "--split", type=int, metavar="N",
        help="split mode: write N shard snapshots to --out-dir and exit",
    )
    p_shard.add_argument(
        "--out-dir", default="shards",
        help="directory for --split output (shard-NN.json.gz)",
    )
    p_shard.add_argument(
        "--placement", choices=["cluster", "hash"], default="cluster",
        help="partition assignment: 'cluster' keeps whole clusters "
             "together (bit-identical merge parity), 'hash' balances "
             "pages by sha256(url)",
    )
    p_shard.add_argument("--host", default="127.0.0.1")
    p_shard.add_argument("--port", type=int, default=8081)
    p_shard.add_argument(
        "--journal", metavar="PATH",
        help="write-ahead journal; rotation armed so sealed segments "
             "feed replicas (/replication/*)",
    )
    p_shard.add_argument(
        "--segment-records", type=int, default=64,
        help="seal the active journal segment after this many records",
    )
    p_shard.add_argument(
        "--lease-dir", metavar="DIR",
        help="shared lease directory (one shard-NN.lease file per "
             "shard); writes are acknowledged only while this node "
             "holds a live lease at its epoch (docs/SHARDING.md)",
    )
    p_shard.add_argument(
        "--lease-ttl", type=float, default=10.0,
        help="leader lease time-to-live in seconds (renewed at "
             "half-life)",
    )
    p_shard.add_argument(
        "--epoch", type=int, default=0,
        help="starting epoch floor for the journal (recovered epoch "
             "wins if higher); normally left at 0",
    )
    _add_admission_args(p_shard)
    p_shard.set_defaults(func=_cmd_shard)

    p_replica = subparsers.add_parser(
        "replica",
        help="run a read replica tailing a shard's journal segments "
             "(docs/SHARDING.md)",
    )
    p_replica.add_argument(
        "--leader", required=True, metavar="URL",
        help="base URL of the shard to follow (e.g. http://host:8081)",
    )
    p_replica.add_argument("--host", default="127.0.0.1")
    p_replica.add_argument("--port", type=int, default=8082)
    p_replica.add_argument("--name", default="replica")
    p_replica.add_argument(
        "--poll-ms", type=float, default=500.0,
        help="how often to poll the leader's replication manifest",
    )
    p_replica.add_argument(
        "--max-lag", type=int, default=256,
        help="grade 'recovering' above this many unapplied records",
    )
    p_replica.add_argument(
        "--request-timeout", type=float, default=10.0,
        help="per-request timeout talking to the leader",
    )
    p_replica.add_argument(
        "--leader-journal", metavar="PATH",
        help="the leader's on-disk journal (shared storage); enables "
             "automatic promotion when the leader stops answering",
    )
    p_replica.add_argument(
        "--promote-after", type=int, default=3,
        help="promote after this many consecutive failed polls "
             "(needs --leader-journal; 0 disables)",
    )
    p_replica.add_argument(
        "--lease-dir", metavar="DIR",
        help="shared lease directory; on promotion the new leader "
             "takes the shard's lease at its bumped epoch, fencing "
             "the old one",
    )
    p_replica.add_argument(
        "--lease-ttl", type=float, default=10.0,
        help="lease time-to-live the promoted leader renews under",
    )
    _add_admission_args(p_replica)
    p_replica.set_defaults(func=_cmd_replica)

    p_router = subparsers.add_parser(
        "router",
        help="scatter-gather front end over shard endpoints "
             "(docs/SHARDING.md)",
    )
    p_router.add_argument(
        "--shard", action="append", metavar="URL[,URL...]",
        help="one logical shard as a failover list (leader first, "
             "replicas after); repeat per shard, in shard order",
    )
    p_router.add_argument(
        "--placement", choices=["cluster", "hash"], default="cluster",
        help="must match how the snapshots were split (routes writes)",
    )
    p_router.add_argument("--host", default="127.0.0.1")
    p_router.add_argument("--port", type=int, default=8080)
    p_router.add_argument(
        "--shard-timeout", type=float, default=5.0,
        help="per-shard fan-out timeout; a slower shard is dropped from "
             "the response (flagged partial), not waited for",
    )
    p_router.add_argument("--seed", type=int, default=42)
    p_router.add_argument(
        "--smoke", action="store_true",
        help="boot router + 2 shards + 1 replica in-process, round-trip "
             "/search, /add and /healthz, shut down (CI self-check)",
    )
    _add_admission_args(p_router)
    p_router.set_defaults(func=_cmd_router)

    p_failover = subparsers.add_parser(
        "failover",
        help="watch a shard leader and auto-promote the most-caught-up "
             "replica when it dies (docs/SHARDING.md)",
    )
    p_failover.add_argument(
        "--leader", required=True, metavar="URL",
        help="base URL of the leader being watched",
    )
    p_failover.add_argument(
        "--replica", action="append", required=True, metavar="URL",
        help="candidate replica base URL; repeat per replica",
    )
    p_failover.add_argument(
        "--leader-journal", required=True, metavar="PATH",
        help="the leader's on-disk journal (shared storage) the "
             "promoted replica drains and adopts",
    )
    p_failover.add_argument(
        "--lease-dir", metavar="DIR",
        help="shared lease directory: leader death = missing/expired "
             "lease (without it, failed health probes)",
    )
    p_failover.add_argument(
        "--shard-index", type=int, default=0,
        help="logical shard being supervised (picks the lease file)",
    )
    p_failover.add_argument(
        "--miss-threshold", type=int, default=3,
        help="consecutive dead observations before promoting",
    )
    p_failover.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between detection ticks",
    )
    p_failover.add_argument(
        "--request-timeout", type=float, default=10.0,
        help="per-request timeout talking to nodes",
    )
    p_failover.add_argument(
        "--once", action="store_true",
        help="run a single detection tick and print its event (cron "
             "mode)",
    )
    p_failover.set_defaults(func=_cmd_failover)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
