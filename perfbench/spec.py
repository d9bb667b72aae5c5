"""The benchmark's definition: workloads, metrics, bounds and rates.

``python3 perfbench/spec.py`` validates these tables and rewrites
``BENCHMARK.json`` (the driver contract) and ``perfbench/PROVENANCE.json``
(host, rates, flush policy, tail percentiles, and which layer each
workload exists to show).
"""

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

RUN_SECONDS = 30

#: The tail percentile of the traced run's generator lateness, and the
#: fewest samples a run needs for it (10 beyond it).
TAIL_P = 90

#: Offered rate of the traced run's open-loop phase, identical on every
#: commit; set once at about half the serve_read capacity measured on
#: the commit the benchmark was defined on.
RATES = {"serve_read": 90.0}

#: The serve_read mix: shares of cluster search, page search and
#: classify; a classify repeats one of the last 8 bodies at this rate.
MIX = {"clusters": 0.5, "pages": 0.2, "classify": 0.3}
REPEAT_SHARE = 0.2

#: The nominal share of each kind of request, a repeated (so cached)
#: classify apart from a fresh one.
KIND_SHARES = {
    "clusters": MIX["clusters"],
    "pages": MIX["pages"],
    "classify": MIX["classify"] * (1.0 - REPEAT_SHARE),
    "classify_cached": MIX["classify"] * REPEAT_SHARE,
}

#: The requests of one untraced serve_read round, on a fresh server,
#: sent one at a time: the warm-up, then the mix in windows of the
#: given size (each window's requests are scaled by its probes).
WARM_REQUESTS = 100
MIX_REQUESTS = 1000
MIX_WINDOW = 100

#: Why the end-to-end metrics are scaled CPU times and not wall-clock
#: rates or latencies.
CPU_NOT_WALL = (
    "On a shared host a virtual CPU's speed swings by up to 2x for seconds "
    "to minutes, and the wall clock also counts the time it waited while "
    "the hypervisor ran someone else.  Wall-clock throughput and open-loop "
    "latencies of the same code spread 25-60% between runs there, and raw "
    "CPU time 10-90%.  So every run is pinned to one CPU, the kernel's "
    "CPU time of each piece of work is read, and a thread of the runner "
    "on the same CPU runs a fixed probe (perfbench/probe.py: html.parser, "
    "tokenising and dict work outside the program) every 80 ms; each "
    "figure is the work's CPU time scaled by the probe's mean time over "
    "the same interval.  The wall-clock figures stay in the traced run."
)

WORKLOADS = [
    {
        "name": "organize",
        "why": "paper batch path: fresh process organizes the 454-page "
               "corpus (CAFC-CH k=8) to a saved snapshot, then classifies "
               "unseen pages; html/text/vsm/clustering work, no service",
        "shows": [
            ["parallel.map_s", "cpu_ms_per_op"],
            ["vsm.weight_s", "cpu_ms_per_op"],
            ["core.cafc_ch.hub_seed_s", "cpu_ms_per_op"],
            ["clustering.kmeans_s", "cpu_ms_per_op"],
            ["service.snapshot.save_s", "cpu_ms_per_op"],
            ["core.vectorizer.transform_s", "classify_cpu_ms"],
        ],
    },
    {
        "name": "serve_read",
        "why": "read-only HTTP traffic on a served k=32 directory, one "
               "request at a time: 50% cluster search, 20% page search, 30% "
               "classify (1 in 5 repeats); index and cache on, no writes",
        "shows": [
            ["index.top_clusters_s", "cpu_ms_per_op"],
            ["index.top_pages_s", "cpu_ms_per_op"],
            ["service.app.json_encode_s", "cpu_ms_per_op"],
            ["service.aio.transport_s", "cpu_ms_per_op"],
            ["core.vectorizer.transform_s", "classify_cpu_ms"],
            ["core.incremental.classify_batch_s", "classify_cpu_ms"],
            ["service.snapshot.load_s", "setup_s"],
        ],
    },
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "scaled CPU time from launch until measured work can start: "
                "child process start to corpus loaded (organize); server "
                "start to its first /healthz 200, after snapshot load and "
                "index build (serve_read); median of the run's launches"},
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25,
     "meaning": "scaled CPU time per unit of work, user + system: per page "
                "taken from raw HTML to a saved snapshot, the process pool's "
                "workers included, median of the run's processes (organize); "
                "per request of the mix, server process, as the median cost "
                "of each kind of request weighted by its nominal share "
                "(serve_read)"},
    {"name": "classify_cpu_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "meaning": "scaled CPU time of one classify of an unseen page, median "
                "over the run's pages: in-process against the fresh result, "
                "classifying thread, in windows of 50 pages (organize); the "
                "mix's POST /classify answered without the cache, server "
                "process (serve_read)"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1,
     "meaning": "high-water RSS of the process doing the work (organize "
                "child, or server), median of the run's rounds"},
]

# name, unit, better, should move, on
PER_LAYER = [
    ("parallel.map_s", "s", "lower", "cpu_ms_per_op", "organize"),
    ("parallel.workers", "count", "higher", "cpu_ms_per_op", "organize"),
    ("html.parse_s", "s", "lower", "classify_cpu_ms", "organize; serve_read"),
    ("html.extract_s", "s", "lower", "classify_cpu_ms", "organize; serve_read"),
    ("text.analyze_s", "s", "lower", "classify_cpu_ms", "organize; serve_read"),
    ("text.stem_hit_ratio", "ratio", "higher", "classify_cpu_ms", "organize; serve_read"),
    ("vsm.weight_s", "s", "lower", "cpu_ms_per_op", "organize"),
    ("vsm.vocab_terms", "count", "lower", "peak_rss_mb", "organize"),
    ("core.cafc_ch.hub_seed_s", "s", "lower", "cpu_ms_per_op", "organize"),
    ("clustering.kmeans_s", "s", "lower", "cpu_ms_per_op", "organize"),
    ("clustering.kmeans_iterations", "count", "lower", "cpu_ms_per_op", "organize"),
    ("core.simengine.comparisons", "count", "lower", "cpu_ms_per_op", "organize"),
    ("service.snapshot.save_s", "s", "lower", "cpu_ms_per_op", "organize"),
    ("service.snapshot.bytes", "B", "lower", "cpu_ms_per_op", "organize"),
    ("service.snapshot.load_s", "s", "lower", "setup_s", "organize; serve_read"),
    ("core.vectorizer.transform_s", "s", "lower", "classify_cpu_ms", "organize; serve_read"),
    ("service.aio.transport_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("service.aio.executor_wait_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("service.app.handle_self_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("service.app.json_encode_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("service.directory.lock_wait_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("service.directory.batch_wait_s", "s", "lower", "classify_cpu_ms", "serve_read"),
    ("index.top_clusters_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("index.top_pages_s", "s", "lower", "cpu_ms_per_op", "serve_read"),
    ("core.incremental.classify_batch_s", "s", "lower", "classify_cpu_ms", "serve_read"),
    ("quality.entropy", "Eq5", "lower", "(must not move)", "organize"),
    ("quality.f_measure", "Eq6", "higher", "(must not move)", "organize"),
    ("bench.generator_late_tail_ms", "ms", "lower", "(run validity)", "serve_read"),
    ("bench.trace_overhead_ratio", "ratio", "lower", "(run validity)", "all"),
    ("bench.unattributed_share", "ratio", "lower", "(run validity)", "all"),
]

FLUSH_POLICY = (
    "serve_read writes nothing; the snapshot save in organize goes "
    "through the program's fsynced atomic writer"
)

DROPPED = {
    "serve_mixed": "journaled add/remove traffic; leaves the write lock, "
                   "journal fsync (repro.resilience.journal), index sync and "
                   "drift recluster unmeasured",
    "serve_sharded": "router over 2 shards; leaves repro.distrib (fan-out, "
                     "merge, write routing) unmeasured",
    "stream_ingest": "run_stream over the seeded stream; leaves repro.stream, "
                     "index.spill and the bounded vocabulary unmeasured",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _on in PER_LAYER
        ],
    }


def problems(doc: dict) -> list:
    """Every way ``doc`` breaks the driver's BENCHMARK.json contract."""
    out = []
    names = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            name = entry["name"]
            if not stats.valid_name(name):
                out.append(f"bad name {name!r}")
            if name in names:
                out.append(f"duplicate name {name!r}")
            names.add(name)
            if "unit" in entry and not stats.valid_unit(entry["unit"]):
                out.append(f"bad unit {entry['unit']!r} of {name}")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                out.append(f"why of {name} is not one line of <= 200 characters")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                out.append(f"bound of {name} outside (0, 0.25]")
    if not 2 <= len(doc["workloads"]) <= 8:
        out.append("need 2 to 8 workloads")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        out.append("setup_s must be an end-to-end metric in s, lower is better")
    return out


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    import numpy

    return {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit_measured_on": commit,
            "seeds": "any integer; each run derives corpus, pages, queries and "
                     "arrivals from --seed",
        },
        "offered_rates_per_s": RATES,
        "flush_policy": FLUSH_POLICY,
        "cpu_not_wall": CPU_NOT_WALL,
        "load": "one client process. Untraced serve_read: rounds of a "
                "fixed seeded request count, each on a fresh server, sent one "
                "at a time over one keep-alive connection so that each "
                "request's server CPU time is its own. Traced serve_read: "
                "time-boxed closed loop over nproc=2 keep-alive connections, "
                "then a Poisson open loop at the fixed rate, latency timed "
                "from each request's due time",
        "serve_read_round": {"warm": WARM_REQUESTS, "mix": MIX_REQUESTS,
                             "window": MIX_WINDOW},
        "serve_read_kind_shares": KIND_SHARES,
        "end_to_end": [
            dict(m, tail_percentile=TAIL_P, min_samples=stats.min_samples_for(TAIL_P))
            if m["name"].endswith("_tail_ms") else m
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b, "should_move": mv, "on": on}
            for n, u, b, mv, on in PER_LAYER
        ],
        "workloads": WORKLOADS,
        "dropped_workloads": DROPPED,
    }


def main() -> int:
    doc = benchmark_json()
    bad = problems(doc)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    with open(os.path.join(HERE, "PROVENANCE.json"), "w") as handle:
        json.dump(provenance(), handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
