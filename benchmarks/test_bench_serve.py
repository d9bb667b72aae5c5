"""Serving benchmark: the HTTP server under fan-out.

Not from the paper — this measures the connection layer added on top of
the reproduction.  One 454-page directory is served by the
``asyncio.Protocol`` server with admission control and hammered with
keep-alive ``/search`` traffic at three concurrency levels:

* **c=1** — single-connection latency floor;
* **c=64** — the scatter-gather sweet spot (the router's fan-out);
* **c=1024** — connection-count stress: the server must *sustain*
  this (zero errors, zero sheds, bounded p99).

Each row reports per-request latency (clock starts at the request's
write) and per-connection latency from connect start (clock starts
before ``open_connection``, so time queued in the server's accept path
counts too), next to throughput.

Before any timing, a **parity gate** drives a request sequence through
the server and through in-process ``DirectoryApp.handle`` on the *same*
app object and requires identical status and body bytes — the server
may only be benchmarked while provably serving the same API.

A final **saturation run** points c=64 at a server with a
deliberately tiny in-flight budget and proves shedding is structured:
every response is a clean 200 or a 429 with ``Retry-After`` — zero
resets, zero silent drops (served + shed == sent).

Records ``BENCH_serve.json`` at the repo root.  Absolute numbers are
shared-host noise; the hard assertions are the parity gate, sustained
c=1024, and lossless shedding.
"""

import asyncio
import json
import os
import statistics
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from repro.core.config import CAFCConfig
from repro.core.pipeline import CAFCPipeline
from repro.service.aio import AdmissionConfig, serve_directory
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_serve.json"

QUERIES = (
    "flight airfare ticket",
    "book novel author",
    "job career salary engineer",
    "movie theater actor",
    "hotel room reservation",
    "car rental pickup",
)

#: (concurrency, requests per connection, rounds) — totals chosen so
#: each level finishes in seconds on one CPU while still exercising the
#: shape; best-of-``rounds`` is kept, matching the repo's other bench
#: harnesses (``timed()`` in test_bench_shard is best-of-5).
LOAD_LEVELS = ((1, 256, 2), (64, 8, 3), (1024, 2, 2))

DIRECTORY_KWARGS = dict(
    journal=None, auto_recluster=False, cache_size=0
)


@pytest.fixture(scope="module")
def snapshot(context):
    config = CAFCConfig(k=32)
    pipeline = CAFCPipeline(config)
    return build_snapshot(
        pipeline.organize(context.raw_pages), pipeline.vectorizer, config
    )


def _search_targets():
    return [
        "/search?" + urllib.parse.urlencode({"q": query, "n": 5})
        for query in QUERIES
    ]


# ---------------------------------------------------------------------------
# The async load client (keep-alive, per-request latency).
# ---------------------------------------------------------------------------


async def _read_response(reader):
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed connection")
    status = int(line.split()[1])
    content_length = 0
    close = False
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        lowered = header.lower()
        if lowered.startswith(b"content-length:"):
            content_length = int(header.split(b":", 1)[1])
        elif lowered.startswith(b"connection: close"):
            close = True
    body = await reader.readexactly(content_length)
    return status, body, close


async def _run_load(host, port, targets, concurrency, per_connection):
    """Hammer the server with ``concurrency`` keep-alive connections.

    Returns ``{latencies, connection_latencies, statuses,
    connect_errors}`` — a request that dies mid-flight records a
    synthetic status 0 so nothing vanishes from the accounting.
    ``connection_latencies`` holds, per fully served connection, the
    time from the start of its connect to its last response.
    """
    latencies = []
    connection_latencies = []
    statuses = []
    connect_errors = [0]
    # Open connections through a gate so c=1024 doesn't SYN-flood the
    # accept backlog in one instant.
    connect_gate = asyncio.Semaphore(128)

    async def worker(worker_id):
        async with connect_gate:
            connect_started = time.perf_counter()
            for attempt in range(3):
                try:
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    break
                except OSError:
                    if attempt == 2:
                        connect_errors[0] += 1
                        return
                    await asyncio.sleep(0.05 * (attempt + 1))
        try:
            for step in range(per_connection):
                target = targets[(worker_id + step) % len(targets)]
                request = (
                    f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n"
                ).encode("ascii")
                started = time.perf_counter()
                try:
                    writer.write(request)
                    await writer.drain()
                    status, _, close = await asyncio.wait_for(
                        _read_response(reader), timeout=120
                    )
                except (ConnectionError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError, OSError):
                    statuses.append(0)
                    return
                latencies.append(time.perf_counter() - started)
                statuses.append(status)
                if close:
                    return
            connection_latencies.append(
                time.perf_counter() - connect_started
            )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await asyncio.gather(*(worker(i) for i in range(concurrency)))
    return {
        "latencies": latencies,
        "connection_latencies": connection_latencies,
        "statuses": statuses,
        "connect_errors": connect_errors[0],
    }


def _pct(sorted_values, q):
    if not sorted_values:
        return float("nan")
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * (len(sorted_values) - 1)))]


def _load_row(host, port, concurrency, per_connection, rounds=1):
    targets = _search_targets()
    best = None
    for _ in range(max(1, rounds)):
        started = time.perf_counter()
        attempt = asyncio.run(
            _run_load(host, port, targets, concurrency, per_connection)
        )
        seconds = time.perf_counter() - started
        if best is None or seconds < best[1]:
            best = (attempt, seconds)
    outcome, elapsed = best
    latencies = sorted(outcome["latencies"])
    per_conn = sorted(outcome["connection_latencies"])
    sent = concurrency * per_connection
    ok = sum(1 for s in outcome["statuses"] if s == 200)
    shed = sum(1 for s in outcome["statuses"] if s == 429)
    broken = sum(1 for s in outcome["statuses"] if s == 0)

    row = {
        "concurrency": concurrency,
        "requests_sent": sent,
        "requests_ok": ok,
        "requests_shed": shed,
        "requests_broken": broken,
        "connect_errors": outcome["connect_errors"],
        "p50_ms": round(_pct(latencies, 0.50) * 1e3, 2),
        "p99_ms": round(_pct(latencies, 0.99) * 1e3, 2),
        "mean_ms": round(statistics.fmean(latencies) * 1e3, 2)
        if latencies else float("nan"),
        "connection_p50_ms": round(_pct(per_conn, 0.50) * 1e3, 2),
        "connection_p99_ms": round(_pct(per_conn, 0.99) * 1e3, 2),
        "throughput_rps": round(ok / elapsed, 1),
        "wall_seconds": round(elapsed, 2),
    }
    print(
        f"  c={concurrency:<5} {ok:>5}/{sent} ok  "
        f"p50 {row['p50_ms']:7.2f}ms  p99 {row['p99_ms']:8.2f}ms  "
        f"conn p50 {row['connection_p50_ms']:8.2f}ms  "
        f"p99 {row['connection_p99_ms']:8.2f}ms  "
        f"{row['throughput_rps']:8.1f} req/s"
    )
    return row


# ---------------------------------------------------------------------------
# Parity gate.
# ---------------------------------------------------------------------------


def _fetch(base, target, payload=None):
    if payload is None:
        request = urllib.request.Request(base + target)
    else:
        request = urllib.request.Request(
            base + target, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _parity_gate(directory, raw_pages):
    """The server must answer exactly what in-process
    ``DirectoryApp.handle`` returns for the same request."""
    server = serve_directory(directory)
    server.serve_in_thread()
    app = server.app
    page = raw_pages[0]
    classify_body = {
        "url": page.url,
        "html": page.html,
        "backlinks": list(page.backlinks),
        "anchor_texts": list(page.anchor_texts),
    }
    cases = [(t, None) for t in _search_targets()]
    cases += [
        ("/clusters?max_urls=3", None),
        ("/search?q=", None),                      # 400
        ("/bogus", None),                          # 404
        ("/classify", classify_body),
        ("/classify", {"nope": 1}),                # 400
    ]
    try:
        for target, payload in cases:
            status, body = _fetch(server.base_url, target, payload)
            if payload is None:
                want = app.handle("GET", target)
            else:
                data = json.dumps(payload).encode("utf-8")
                want = app.handle("POST", target, lambda: data)
            assert status == want.status, (target, status, want.status)
            assert body == want.body, target
    finally:
        server.shut_down()  # closes the directory


# ---------------------------------------------------------------------------
# The benchmark.
# ---------------------------------------------------------------------------


def test_bench_serve_load_levels(snapshot, context):
    print(f"\n[{len(context.raw_pages)} pages, k=32, "
          f"{os.cpu_count()} cpu(s)]")

    # Gate first: the server is only timed while provably serving the
    # same bytes as the in-process app.
    _parity_gate(
        FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS),
        context.raw_pages,
    )
    print("  parity gate: server == DirectoryApp.handle (byte-identical)")

    # Budgets sized for the c=1024 sustain run (the shedding behavior
    # gets its own dedicated phase below).
    admission = AdmissionConfig(
        max_inflight=2048, cheap_inflight=64, max_connections=4096
    )
    server = serve_directory(
        FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS),
        admission=admission,
    )
    server.serve_in_thread()
    rows = []
    try:
        for concurrency, per_connection, rounds in LOAD_LEVELS:
            rows.append(_load_row(
                "127.0.0.1", server.port,
                concurrency, per_connection, rounds=rounds,
            ))
    finally:
        server.shut_down()

    # The server must SUSTAIN c=1024: every request answered 200, none
    # shed, none broken, p99 finite.
    sustain = {row["concurrency"]: row for row in rows}[1024]
    assert sustain["requests_ok"] == sustain["requests_sent"], sustain
    assert sustain["requests_broken"] == 0, sustain
    assert sustain["connect_errors"] == 0, sustain
    assert sustain["p99_ms"] == sustain["p99_ms"], sustain  # not NaN

    # Saturation: a tiny in-flight budget under c=64 must shed — and
    # shed CLEANLY.  served + shed == sent, no resets, no silent drops.
    saturation = _saturation_run(snapshot)

    RESULTS_PATH.write_text(json.dumps({
        "benchmark": "serve",
        "corpus_pages": len(context.raw_pages),
        "k": 32,
        "cpu_count": os.cpu_count(),
        "endpoint": "/search?q=...&n=5 (keep-alive GET)",
        "load_levels": [
            {"concurrency": c, "requests_per_connection": r,
             "best_of_rounds": rounds}
            for c, r, rounds in LOAD_LEVELS
        ],
        "rows": rows,
        "saturation": saturation,
        "note": (
            "The asyncio HTTP server (event-loop parse + threaded app "
            "dispatch) over one DirectoryApp; the load client runs in "
            "the same process.  A parity gate against in-process "
            "DirectoryApp.handle (status + body bytes) ran before any "
            "timing.  p50/p99_ms time each request from its write; "
            "connection_p50/p99_ms time each connection from the start "
            "of its connect to its last response, so queueing in "
            "accept counts too.  The rows use max_inflight=2048 so "
            "c=1024 is a sustain test (zero sheds required); the "
            "saturation block uses max_inflight=4 to prove shedding is "
            "lossless: every request is a clean 200 or a structured "
            "429 + Retry-After, served + shed == sent, zero connection "
            "resets."
        ),
    }, indent=2) + "\n")
    print(f"  wrote {RESULTS_PATH.name}")


# ---------------------------------------------------------------------------
# Open-loop load (fixed arrival rate).
# ---------------------------------------------------------------------------


async def _run_open_loop(host, port, targets, rate_rps, duration_s):
    """Issue requests on a fixed schedule, regardless of completions.

    The closed-loop client above can only offer load as fast as
    responses return, so a slow server quietly throttles its own
    benchmark (coordinated omission).  Here every request has a planned
    arrival time fixed up front; latency is measured from that *planned*
    instant to completion, so queueing delay the server causes is
    charged to the server.  Each request uses its own connection — an
    arrival is an independent client, not a turn on a shared pipe.
    """
    loop = asyncio.get_running_loop()
    n_requests = int(rate_rps * duration_s)
    latencies = []
    statuses = []
    start = loop.time()

    async def one(i):
        planned = start + i / rate_rps
        delay = planned - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        target = targets[i % len(targets)]
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            statuses.append(0)
            return
        try:
            request = (
                f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(request)
            await writer.drain()
            status, _, _ = await asyncio.wait_for(
                _read_response(reader), timeout=120
            )
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, OSError):
            statuses.append(0)
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        latencies.append(loop.time() - planned)
        statuses.append(status)

    await asyncio.gather(*(one(i) for i in range(n_requests)))
    elapsed = loop.time() - start
    return {
        "latencies": latencies,
        "statuses": statuses,
        "elapsed": elapsed,
        "sent": n_requests,
    }


def test_bench_serve_open_loop(snapshot, context):
    """Fixed-arrival-rate levels against the server.

    Appends an ``open_loop`` block to ``BENCH_serve.json`` (the
    closed-loop rows stay untouched so trajectories remain comparable).
    """
    print(f"\n[open-loop /search, {os.cpu_count()} cpu(s)]")
    admission = AdmissionConfig(
        max_inflight=2048, cheap_inflight=64, max_connections=4096
    )
    server = serve_directory(
        FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS),
        admission=admission,
    )
    server.serve_in_thread()
    rows = []
    try:
        for rate in (50, 200, 400):
            outcome = asyncio.run(_run_open_loop(
                "127.0.0.1", server.port, _search_targets(),
                rate_rps=rate, duration_s=4.0,
            ))
            latencies = sorted(outcome["latencies"])
            ok = sum(1 for s in outcome["statuses"] if s == 200)
            shed = sum(1 for s in outcome["statuses"] if s == 429)
            broken = sum(1 for s in outcome["statuses"] if s == 0)

            def pct(q):
                if not latencies:
                    return float("nan")
                return latencies[min(len(latencies) - 1,
                                     int(q * (len(latencies) - 1)))]

            row = {
                "offered_rps": rate,
                "requests_sent": outcome["sent"],
                "requests_ok": ok,
                "requests_shed": shed,
                "requests_broken": broken,
                "achieved_rps": round(ok / outcome["elapsed"], 1),
                "p50_ms": round(pct(0.50) * 1e3, 2),
                "p99_ms": round(pct(0.99) * 1e3, 2),
                "wall_seconds": round(outcome["elapsed"], 2),
            }
            rows.append(row)
            print(
                f"  offered {rate:>4} req/s: {ok}/{outcome['sent']} ok  "
                f"p50 {row['p50_ms']:7.2f}ms  p99 {row['p99_ms']:8.2f}ms  "
                f"achieved {row['achieved_rps']:6.1f} req/s"
            )
            # Open-loop soundness: every arrival is accounted for, and
            # nothing died to a reset (shedding, if any, is structured).
            assert ok + shed + broken == outcome["sent"]
            assert broken == 0, f"{broken} open-loop requests broke"
    finally:
        server.shut_down()

    payload = (
        json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists()
        else {"benchmark": "serve"}
    )
    payload["open_loop"] = {
        "endpoint": "/search?q=...&n=5 (one connection per request)",
        "duration_seconds": 4.0,
        "rows": rows,
        "note": (
            "Arrivals on a fixed schedule independent of completions; "
            "latency measured from the planned arrival instant, so "
            "server-induced queueing is charged to the server "
            "(no coordinated omission)."
        ),
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {RESULTS_PATH.name} (open_loop block)")


def _saturation_run(snapshot):
    admission = AdmissionConfig(max_inflight=4, heavy_workers=4)
    server = serve_directory(
        FormDirectory.from_snapshot(snapshot, **DIRECTORY_KWARGS),
        admission=admission,
    )
    server.serve_in_thread()
    concurrency, per_connection = 64, 5
    try:
        outcome = asyncio.run(_run_load(
            "127.0.0.1", server.port, _search_targets(),
            concurrency, per_connection,
        ))
    finally:
        server.shut_down()
    sent = concurrency * per_connection
    ok = sum(1 for s in outcome["statuses"] if s == 200)
    shed = sum(1 for s in outcome["statuses"] if s == 429)
    broken = sum(1 for s in outcome["statuses"] if s == 0)
    assert broken == 0, f"{broken} requests died to connection resets"
    assert outcome["connect_errors"] == 0
    assert shed > 0, "saturation run produced no shedding"
    assert ok + shed == sent, (ok, shed, sent)  # zero silent drops
    shed_ratio = shed / sent
    print(
        f"  saturation c={concurrency} max_inflight=4: {ok} served, "
        f"{shed} shed ({shed_ratio:.0%}), 0 broken — lossless"
    )
    return {
        "concurrency": concurrency,
        "max_inflight": 4,
        "requests_sent": sent,
        "requests_ok": ok,
        "requests_shed": shed,
        "requests_broken": broken,
        "shed_ratio": round(shed_ratio, 3),
    }
