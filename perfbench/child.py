"""Subprocess entry points of the benchmark.

``prepare`` generates a seed's inputs (the corpus, unseen pages, the
served snapshot and the request pools) and writes them to a directory.
``organize`` is one fresh process of the organize workload: load the
corpus, organize it with CAFC-CH, build and save the snapshot, then
classify unseen pages against the result, with cold caches as a
``repro snapshot build`` user has them.  Both print one JSON line.
"""

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

ORGANIZE_K = 8
SERVE_K = 32
UNSEEN_BASE = 1_000_000
N_UNSEEN = 600
CLASSIFY_WINDOW = 50
CLASSIFY_BASE = 2_000_000
N_CLASSIFY = 900
N_QUERIES = 400
NONSENSE = ("zqxv", "blorft", "quuxly", "vexnor", "plimb")


def _page_json(raw) -> dict:
    return {
        "url": raw.url, "html": raw.html, "backlinks": list(raw.backlinks),
        "label": raw.label, "anchor_texts": list(raw.anchor_texts),
    }


def _queries(seed: int):
    """1-4 domain/topic terms per query; about one in ten matches nothing."""
    from repro.webgen.domains import DOMAINS

    rng = random.Random(f"perfbench.queries:{seed}")
    out = []
    for _ in range(N_QUERIES):
        if rng.random() < 0.1:
            words = rng.sample(NONSENSE, rng.randint(1, 2))
        else:
            domain = rng.choice(DOMAINS)
            pool = list(domain.topic_words)
            words = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
        out.append(" ".join(words))
    return out


def prepare(args) -> dict:
    from repro.webgen.config import GeneratorConfig
    from repro.webgen.corpus import generate_benchmark
    from repro.webgen.stream import page_at

    web = generate_benchmark(config=GeneratorConfig(seed=args.seed))
    raw = web.raw_pages()
    with open(os.path.join(args.out, "corpus.json"), "w") as handle:
        json.dump({
            "pages": [_page_json(page) for page in raw],
            "labels": web.labels(),
            "unseen": [
                _page_json(page_at(UNSEEN_BASE + i, seed=args.seed))
                for i in range(N_UNSEEN)
            ],
        }, handle)
    info = {"pages": len(raw)}
    if args.serve:
        from repro.core import CAFCConfig, CAFCPipeline
        from repro.service import build_snapshot

        pipeline = CAFCPipeline(CAFCConfig(k=SERVE_K))
        result = pipeline.organize(raw, "cafc-ch")
        build_snapshot(result, pipeline.vectorizer, pipeline.config).save(
            os.path.join(args.out, "directory.json.gz")
        )
        bodies = []
        for i in range(N_CLASSIFY):
            page = page_at(CLASSIFY_BASE + i, seed=args.seed)
            bodies.append(json.dumps({"url": page.url, "html": page.html}))
        with open(os.path.join(args.out, "pools.json"), "w") as handle:
            json.dump({"classify": bodies, "queries": _queries(args.seed)}, handle)
        info["clusters"] = result.n_clusters
    return info


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def organize(args) -> dict:
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from repro.clustering.types import Clustering
    from repro.core import CAFCConfig, CAFCPipeline
    from repro.core.form_page import RawFormPage
    from repro.eval import overall_f_measure, total_entropy
    from repro.service import build_snapshot, load_snapshot, save_snapshot
    from repro.vsm.interning import VOCABULARY

    with open(args.corpus) as handle:
        data = json.load(handle)
    raw = [RawFormPage(**page) for page in data["pages"]]
    unseen = [RawFormPage(**page) for page in data["unseen"]]
    # Set-up is this process's CPU time from its start until here.
    setup_cpu_s = time.process_time()
    loaded_at = time.perf_counter()

    # CPU time, not wall time, is the cost: on a shared host the wall
    # clock also counts the time this process waited for a CPU.  The
    # process pool's workers are reaped inside organize, so their CPU
    # time lands in RUSAGE_CHILDREN.  The perf_counter() stamps let the
    # runner match each phase with its speed probes.
    cpu0, children0 = time.process_time(), _children_cpu_s()
    started = time.perf_counter()
    pipeline = CAFCPipeline(CAFCConfig(k=ORGANIZE_K))
    result = pipeline.organize(raw, "cafc-ch")
    snapshot = build_snapshot(result, pipeline.vectorizer, pipeline.config)
    save_snapshot(snapshot, args.snapshot)
    finished = time.perf_counter()
    organize_cpu_s = time.process_time() - cpu0 + _children_cpu_s() - children0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Collect the organize's garbage now, not inside the timed classifies.
    gc.collect()
    # Each classify is costed by its own CPU time, in windows of pages
    # the runner scales by the probes over each window's interval.
    windows = []
    for first in range(0, len(unseen), CLASSIFY_WINDOW):
        costs = []
        window_start = time.perf_counter()
        for page in unseen[first:first + CLASSIFY_WINDOW]:
            t0 = time.thread_time()
            pipeline.classify(page, result)
            costs.append(time.thread_time() - t0)
        windows.append((window_start, time.perf_counter(), costs))

    # Quality and the reload check run after RSS is read, so they are
    # not charged to the organize.
    position = {page.url: i for i, page in enumerate(raw)}
    clustering = Clustering(
        [[position[page.url] for page in cluster.pages] for cluster in result.clusters]
    )
    t0 = time.perf_counter()
    loaded = load_snapshot(args.snapshot)
    load_s = time.perf_counter() - t0
    out = {
        "setup_cpu_s": setup_cpu_s,
        "loaded_at": loaded_at,
        "organize_s": finished - started,
        "organize_cpu_s": organize_cpu_s,
        "start": started,
        "end": finished,
        "pages": len(raw),
        "rss_mb": rss_mb,
        "classifies": len(unseen),
        "classify_windows": windows,
        "entropy": total_entropy(clustering, data["labels"]),
        "f_measure": overall_f_measure(clustering, data["labels"]),
        "reload_ok": loaded.n_pages == len(raw),
        "load_s": load_s,
        "snapshot_bytes": os.path.getsize(args.snapshot),
        "iterations": result.iterations,
        "comparisons": result.engine_stats.comparisons,
        "workers": pipeline.vectorizer.ingest_stats.workers,
        "vocab_terms": len(VOCABULARY),
    }
    if recorder is not None:
        recorder.dump(args.trace_out)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_prep = sub.add_parser("prepare")
    p_prep.add_argument("--seed", type=int, required=True)
    p_prep.add_argument("--out", required=True)
    p_prep.add_argument("--serve", action="store_true")
    p_org = sub.add_parser("organize")
    p_org.add_argument("--corpus", required=True)
    p_org.add_argument("--snapshot", required=True)
    p_org.add_argument("--trace-out")
    args = parser.parse_args()
    out = prepare(args) if args.cmd == "prepare" else organize(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
