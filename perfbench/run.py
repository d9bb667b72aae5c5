#!/usr/bin/env python3
"""The form directory's benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload organize --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
A run whose correctness gate fails reports no numbers and exits 1.
Workloads, metrics and rates are defined in ``spec.py``.
"""

import argparse
import asyncio
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from urllib.parse import quote

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spec  # noqa: E402
import stats  # noqa: E402

perf = time.perf_counter

TIMEOUT_S = 10.0
CONNECTIONS = 2          # traced run: nproc of the host the benchmark was defined on
WARMUP_S = 1.0           # traced run: time-boxed phases
CAPACITY_SHARE = 0.3     # of --seconds; the rest is the open loop
BODIES_PER_ROUND = 300   # of the 900 classify bodies; a round uses fewer
SAMPLE_EVERY = 8         # every 8th response is checked against the reference


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, timeout=170) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_metrics() -> dict:
    return {name: 0.0 for name, *_ in spec.PER_LAYER}


def load_spans(path):
    with open(path) as handle:
        trace = json.load(handle)
    spans = [
        {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "rid": s[5]}
        for s in trace["spans"]
    ]
    return trace, spans, stats.self_times(spans)


def stem_ratio(trace) -> float:
    lookups = trace["stem_lookups"]
    return 1.0 - trace["stem_misses"] / lookups if lookups else 0.0


def report_raw(op_ms, classify_ms, probe_s) -> None:
    """The unscaled CPU figures, on stderr, for whoever reads the log."""
    print(f"unscaled: cpu_ms_per_op {op_ms:.4f}, classify_cpu_ms "
          f"{classify_ms:.4f}, probe {probe_s * 1000.0:.4f} ms", file=sys.stderr)


# ----------------------------------------------------------------------
# organize
# ----------------------------------------------------------------------

def organize_once(work, rep, trace_out=None) -> dict:
    args = ["organize", "--corpus", os.path.join(work, "corpus.json"),
            "--snapshot", os.path.join(work, f"organized-{rep}.json.gz")]
    if trace_out:
        args += ["--trace-out", trace_out]
    launched = perf()
    return dict(run_child(args), launched=launched)


def run_organize(seed, seconds, trace, work, speed) -> dict:
    run_child(["prepare", "--seed", str(seed), "--out", work])
    reps = []
    started = perf()
    while not reps or perf() - started < seconds:
        reps.append(organize_once(work, len(reps)))

    first = reps[0]
    correct = all(
        r["reload_ok"] and r["entropy"] == first["entropy"]
        and r["f_measure"] == first["f_measure"]
        for r in reps
    ) and first["f_measure"] >= 0.9
    attempted = sum(1 + r["classifies"] for r in reps)
    if not correct:
        return {"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}

    if not trace:
        metrics = {
            "setup_s": statistics.median(
                probe.scaled_ms(r["setup_cpu_s"], speed.mean_s(r["launched"], r["loaded_at"]))
                / 1000.0 for r in reps
            ),
            "cpu_ms_per_op": statistics.median(
                probe.scaled_ms(r["organize_cpu_s"], speed.mean_s(r["start"], r["end"]))
                / r["pages"] for r in reps
            ),
            # Each page by its own CPU time, median over all pages of the
            # run, so a few pages with many unseen words or a collection
            # pause do not decide the figure.
            "classify_cpu_ms": statistics.median(
                probe.scaled_ms(cost, speed.mean_s(start, end))
                for r in reps for start, end, costs in r["classify_windows"]
                for cost in costs
            ),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        }
        report_raw(
            statistics.median(1000.0 * r["organize_cpu_s"] / r["pages"] for r in reps),
            statistics.median(1000.0 * cost for r in reps
                              for _, _, costs in r["classify_windows"] for cost in costs),
            statistics.median(speed.mean_s(r["start"], r["end"]) for r in reps),
        )
        return {"correct": True, "attempted": attempted, "failed": 0,
                "metrics": metrics}

    trace_path = os.path.join(work, "organize-spans.json")
    traced = organize_once(work, "traced", trace_out=trace_path)
    raw_trace, spans, selfs = load_spans(trace_path)
    m = layer_metrics()
    attributed = 0.0
    for span in spans:
        name = span["name"]
        if name not in m:
            continue
        m[name] += selfs[span["id"]]
        if traced["start"] <= span["start"] <= traced["end"]:
            attributed += selfs[span["id"]]
    m.update({
        "parallel.workers": traced["workers"],
        "text.stem_hit_ratio": stem_ratio(raw_trace),
        "vsm.vocab_terms": traced["vocab_terms"],
        "clustering.kmeans_iterations": traced["iterations"],
        "core.simengine.comparisons": traced["comparisons"],
        "service.snapshot.bytes": traced["snapshot_bytes"],
        "quality.entropy": traced["entropy"],
        "quality.f_measure": traced["f_measure"],
        "bench.trace_overhead_ratio": traced["organize_s"]
        / statistics.median(r["organize_s"] for r in reps) - 1.0,
        "bench.unattributed_share": max(0.0, traced["organize_s"] - attributed)
        / traced["organize_s"],
    })
    return {"correct": traced["entropy"] == first["entropy"],
            "attempted": attempted + 1, "failed": 0, "metrics": m}


# ----------------------------------------------------------------------
# serve_read: the server, the traffic and the load generator
# ----------------------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port, path, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """``repro serve`` as its own process, started as an operator would."""

    def __init__(self, work, tag, trace_out=None) -> None:
        self.port = free_port()
        serve = ["serve", "--snapshot", os.path.join(work, "directory.json.gz"),
                 "--port", str(self.port)]
        if trace_out:
            argv = [sys.executable, os.path.join(HERE, "launch.py"),
                    "--trace-out", trace_out, *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self.log = open(os.path.join(work, f"server-{tag}.log"), "w")
        started = perf()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        deadline = started + 120.0
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                status, _ = http_get(self.port, "/healthz", timeout=1.0)
                if status == 200:
                    break
            except OSError:
                pass
            if perf() > deadline:
                self.stop()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.005)
        self.setup_cpu_s = self.cpu_s()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def cpu_s(self) -> float:
        """CPU time of the server, all its threads (ended ones included),
        in nanosecond steps: the process CPU clock that
        clock_getcpuclockid(3) names, built as the kernel encodes it.

        The kernel leaves out the time the host's hypervisor ran someone
        else, which a wall clock on a shared host does not."""
        return time.clock_gettime((~self.proc.pid << 3) | 2)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Traffic:
    """The serve_read mix, drawn from seeded pools at send time.

    Round ``index`` of a run draws its own stream and starts
    ``BODIES_PER_ROUND`` bodies further into the pool, so a run's rounds
    send different pages; each round has a fresh server, so a body
    classified in an earlier round is not cached."""

    def __init__(self, seed, pools, index=0) -> None:
        self.rng = random.Random(f"perfbench.traffic:{seed}:{index}")
        self.bodies = [body.encode("utf-8") for body in pools["classify"]]
        self.queries = pools["queries"]
        self.next_body = index * BODIES_PER_ROUND
        self.recent = []
        self.sampled = []

    def next(self, rid):
        roll = self.rng.random()
        searches = spec.MIX["clusters"] + spec.MIX["pages"]
        if roll < searches:
            scope = "clusters" if roll < spec.MIX["clusters"] else "pages"
            query = quote(self.rng.choice(self.queries))
            return "GET", f"/search?q={query}&scope={scope}&rid={rid}", b""
        if self.recent and self.rng.random() < spec.REPEAT_SHARE:
            body = self.rng.choice(self.recent)
        else:
            body = self.bodies[self.next_body % len(self.bodies)]
            self.next_body += 1
            self.recent = (self.recent + [body])[-8:]
        return "POST", f"/classify?rid={rid}", body

    def observe(self, rid, method, target, body, status, data) -> None:
        if rid % SAMPLE_EVERY == 0:
            self.sampled.append((method, target, body, status, data))


class Sample:
    __slots__ = ("rid", "due", "queued", "method", "kind", "sent", "done",
                 "status", "cpu")

    def __init__(self, rid, due, queued) -> None:
        self.rid, self.due, self.queued = rid, due, queued
        self.method = self.kind = ""
        self.sent = self.done = self.cpu = 0.0
        self.status = 0


class Connection:
    """One keep-alive HTTP/1.1 connection of the load generator."""

    def __init__(self, port) -> None:
        self.port = port
        self.reader = self.writer = None

    async def call(self, method, target, body):
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port
            )
        head = f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.writer.write(head.encode("latin-1") + b"\r\n" + body)
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("connection closed")
        status = int(line.split()[1])
        length, close = 0, False
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and "close" in value.lower():
                close = True
        data = await self.reader.readexactly(length)
        if close:
            self.close()
        return status, data

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def send(conn, traffic, sample) -> None:
    method, target, body = traffic.next(sample.rid)
    sample.method = method
    sample.sent = perf()
    try:
        status, data = await asyncio.wait_for(conn.call(method, target, body), TIMEOUT_S)
    except (OSError, ConnectionError, asyncio.TimeoutError,
            asyncio.IncompleteReadError, ValueError, IndexError):
        conn.close()
        status, data = 0, b""
    sample.done = perf()
    sample.status = status
    sample.kind = request_kind(method, target, status, data)
    traffic.observe(sample.rid, method, target, body, status, data)


def request_kind(method, target, status, data) -> str:
    """``clusters``, ``pages``, ``classify`` or ``classify_cached``."""
    if method == "GET":
        return "clusters" if "scope=clusters" in target else "pages"
    if status == 200 and json.loads(data).get("cached"):
        return "classify_cached"
    return "classify"


async def one_by_one(port, traffic, rids, n, cpu_s):
    """The next ``n`` requests of ``traffic``, one at a time over one
    keep-alive connection, each with the server CPU time ``cpu_s`` moved
    while it was in flight."""
    samples = []
    conn = Connection(port)
    try:
        for _ in range(n):
            now = perf()
            sample = Sample(next(rids), now, now)
            cpu0 = cpu_s()
            await send(conn, traffic, sample)
            sample.cpu = cpu_s() - cpu0
            samples.append(sample)
    finally:
        conn.close()
    return samples


async def closed_loop(port, traffic, rids, seconds):
    """``CONNECTIONS`` clients, each sending its next request as soon as
    the previous one completes, for ``seconds``."""
    samples = []
    deadline = perf() + seconds

    async def client():
        conn = Connection(port)
        try:
            while perf() < deadline:
                now = perf()
                sample = Sample(next(rids), now, now)
                await send(conn, traffic, sample)
                samples.append(sample)
        finally:
            conn.close()

    started = perf()
    await asyncio.gather(*(client() for _ in range(CONNECTIONS)))
    return samples, perf() - started


async def open_loop(port, traffic, rids, offsets):
    """Requests due at ``offsets``; one waiting for a busy connection is
    still timed from its due time."""
    queue = asyncio.Queue()
    samples = []
    t0 = perf() + 0.05

    async def producer():
        for offset in offsets:
            due = t0 + offset
            delay = due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = Sample(next(rids), due, perf())
            samples.append(sample)
            queue.put_nowait(sample)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def client():
        conn = Connection(port)
        try:
            while True:
                sample = await queue.get()
                if sample is None:
                    return
                await send(conn, traffic, sample)
        finally:
            conn.close()

    await asyncio.gather(producer(), *(client() for _ in range(CONNECTIONS)))
    return samples, t0, t0 + (offsets[-1] if offsets else 0.0)


def latency_ms(sample) -> float:
    if sample.status != 200:
        return TIMEOUT_S * 1000.0
    return stats.due_latency(sample.due, sample.done) * 1000.0


def reference_check(work, sampled) -> bool:
    """Byte-compare sampled responses with an in-process directory built
    from the same snapshot.  Classify answers are compared without the
    cache/batching fields, and similarities to 1e-9."""
    sys.path.insert(0, SRC)
    from repro.service import DirectoryApp, FormDirectory

    directory = FormDirectory.from_snapshot(os.path.join(work, "directory.json.gz"))
    app = DirectoryApp(directory)
    try:
        for method, target, body, status, data in sampled:
            response = app.handle(method, target, lambda body=body: body)
            if response.status != status:
                return False
            if method == "GET":
                if response.body != data:
                    return False
                continue
            got, want = json.loads(data), json.loads(response.body)
            for volatile in ("cached", "batch_size"):
                got.pop(volatile, None)
                want.pop(volatile, None)
            if abs(got.pop("similarity") - want.pop("similarity")) > 1e-9 or got != want:
                return False
    finally:
        directory.close()
    return True


def drive(port, traffic, seconds, seed, with_open_loop=True):
    rids = itertools.count(1)
    cap_s = seconds * CAPACITY_SHARE

    async def phases():
        warm, _ = await closed_loop(port, traffic, rids, WARMUP_S)
        cap, elapsed = await closed_loop(port, traffic, rids, cap_s)
        if not with_open_loop:
            return warm, cap, elapsed, [], 0.0, 0.0
        offsets = stats.arrival_offsets(
            spec.RATES["serve_read"], seconds - cap_s, seed
        )
        opened, start, end = await open_loop(port, traffic, rids, offsets)
        return warm, cap, elapsed, opened, start, end

    return asyncio.run(phases())


def serve_round(work, pools, seed, index, n_pages, speed) -> dict:
    """One fresh server and a fixed, seeded sequence of requests: a
    warm-up, then the read mix in windows.  Each request is costed by
    the server CPU time it took, scaled by the speed ``speed`` saw on the
    same CPU over its window."""
    launched = perf()
    server = Server(work, f"round{index}")
    setup_s = probe.scaled_ms(server.setup_cpu_s, speed.mean_s(launched, perf())) / 1000.0
    try:
        status, health = http_get(server.port, "/healthz")
        pages_ok = status == 200 and json.loads(health)["pages"] == n_pages
        traffic = Traffic(seed, pools, index)
        rids = itertools.count(1)

        async def requests():
            warm = await one_by_one(server.port, traffic, rids, spec.WARM_REQUESTS,
                                    server.cpu_s)
            costed = []
            for _ in range(spec.MIX_REQUESTS // spec.MIX_WINDOW):
                start = perf()
                window = await one_by_one(server.port, traffic, rids, spec.MIX_WINDOW,
                                          server.cpu_s)
                probe_s = speed.mean_s(start, perf())
                costed += [(s, probe.scaled_ms(s.cpu, probe_s), probe_s) for s in window]
            return warm, costed

        warm, costed = asyncio.run(requests())
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    return {
        "pages_ok": pages_ok, "samples": warm + [s for s, _, _ in costed],
        "costed": costed, "sampled": traffic.sampled,
        "setup_s": setup_s, "rss_mb": rss_mb,
    }


def run_serve(seed, seconds, trace, work, speed) -> dict:
    run_child(["prepare", "--seed", str(seed), "--out", work, "--serve"])
    with open(os.path.join(work, "pools.json")) as handle:
        pools = json.load(handle)
    with open(os.path.join(work, "corpus.json")) as handle:
        n_pages = len(json.load(handle)["pages"])
    if trace:
        return traced_serve(seed, seconds, work, pools, n_pages)

    rounds = []
    started = perf()
    while not rounds or perf() - started < seconds:
        rounds.append(serve_round(work, pools, seed, len(rounds), n_pages, speed))
    every = [s for r in rounds for s in r["samples"]]
    failed = sum(s.status != 200 for s in every)
    correct = all(r["pages_ok"] for r in rounds) and reference_check(
        work, [s for r in rounds for s in r["sampled"]]
    )
    if not correct:
        return {"correct": False, "attempted": len(every), "failed": failed,
                "metrics": {}}
    # Each kind of request is costed by its median, so a few pages with
    # many unseen words or a collection pause do not decide the figure;
    # the mix is the kinds' medians weighted by their nominal shares.
    scaled, unscaled, probes = {}, {}, []
    for r in rounds:
        for sample, ms, probe_s in r["costed"]:
            scaled.setdefault(sample.kind, []).append(ms)
            unscaled.setdefault(sample.kind, []).append(1000.0 * sample.cpu)
            probes.append(probe_s)
    missing = set(spec.KIND_SHARES) - set(scaled)
    if missing:
        raise RuntimeError(f"no {sorted(missing)} requests in the mix")

    def mix_ms(costs):
        return sum(share * statistics.median(costs[kind])
                   for kind, share in spec.KIND_SHARES.items())

    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "cpu_ms_per_op": mix_ms(scaled),
        "classify_cpu_ms": statistics.median(scaled["classify"]),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    report_raw(mix_ms(unscaled), statistics.median(unscaled["classify"]),
               statistics.median(probes))
    return {"correct": True, "attempted": len(every), "failed": failed,
            "metrics": metrics}


def traced_serve(seed, seconds, work, pools, n_pages) -> dict:
    """Time-boxed closed and open loops on a server launched with the
    spans armed, plus the same closed loop untraced for the overhead."""
    server = Server(work, "untraced")
    try:
        _, cap, elapsed, *_ = drive(server.port, Traffic(seed, pools), seconds,
                                    seed, with_open_loop=False)
    finally:
        server.stop()
    untraced_cap = sum(s.status == 200 for s in cap) / elapsed
    trace_path = os.path.join(work, "serve-spans.json")
    server = Server(work, "measured", trace_out=trace_path)
    try:
        traffic = Traffic(seed, pools)
        status, health = http_get(server.port, "/healthz")
        pages_ok = status == 200 and json.loads(health)["pages"] == n_pages
        warm, cap, elapsed, opened, open_start, open_end = drive(
            server.port, traffic, seconds, seed
        )
    finally:
        server.stop()

    every = warm + cap + opened
    failed = sum(s.status != 200 for s in every)
    correct = pages_ok and reference_check(work, traffic.sampled)
    if not correct:
        return {"correct": False, "attempted": len(every), "failed": failed,
                "metrics": {}}
    capacity = sum(s.status == 200 for s in cap) / elapsed
    latencies = [latency_ms(s) for s in opened if s.method == "POST"]
    late = [(s.queued - s.due) * 1000.0 for s in opened]
    late_tail = stats.percentile(late, spec.TAIL_P)
    if late_tail > 0.25 * statistics.median(latencies):
        print(f"warning: generator ran late (p{spec.TAIL_P} {late_tail:.2f} ms), "
              "rivalling the latencies it measures", file=sys.stderr)

    raw_trace, spans, selfs = load_spans(trace_path)
    m = layer_metrics()
    in_window = [s for s in spans if open_start <= s["start"] <= open_end + TIMEOUT_S]
    client = {s.rid: s.done - s.sent for s in opened if s.status == 200}
    dispatch = {s["rid"]: s["end"] - s["start"] for s in in_window
                if s["name"] == "service.aio.dispatch"}
    handle = {s["rid"]: s["end"] - s["start"] for s in in_window
              if s["name"] == "service.app.handle_self_s"}
    unattributed = sum(t for rid, t in client.items() if rid not in dispatch)
    for span in in_window:
        name = span["name"]
        if name in m:
            m[name] += selfs[span["id"]]
        elif span["rid"] in client and name != "service.aio.dispatch":
            unattributed += selfs[span["id"]]
    for span in spans:
        if span["name"] == "service.snapshot.load_s":
            m["service.snapshot.load_s"] += selfs[span["id"]]
    # The batcher thread scores while classify waits: time classify
    # spent neither vectorizing nor in classify_batch is the batch wait.
    m["service.directory.batch_wait_s"] = max(
        0.0, m["service.directory.batch_wait_s"] - m["core.incremental.classify_batch_s"]
    )
    m["service.aio.transport_s"] = sum(
        client[rid] - dispatch[rid] for rid in client if rid in dispatch
    )
    m["service.aio.executor_wait_s"] = sum(
        dispatch[rid] - handle[rid] for rid in dispatch if rid in handle and rid in client
    )
    total = sum(client.values())
    m.update({
        "text.stem_hit_ratio": stem_ratio(raw_trace),
        "bench.generator_late_tail_ms": late_tail,
        "bench.trace_overhead_ratio": untraced_cap / capacity - 1.0,
        "bench.unattributed_share": unattributed / total if total else 0.0,
    })
    return {"correct": True, "attempted": len(every), "failed": failed, "metrics": m}


WORKLOADS = {"organize": run_organize, "serve_read": run_serve}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    # Everything the run starts inherits one CPU, so the speed probes of
    # the sampler thread see the CPU the work runs on.  With the server and its load generator
    # on two CPUs, the server's CPU time per request was also 30-50%
    # higher and far less steady (2-vCPU guest, Intel Xeon host).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with probe.Sampler() as speed:
            result = WORKLOADS[args.workload](args.seed, args.seconds,
                                              bool(args.trace), work, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    units.update({name: unit for name, unit, *_ in spec.PER_LAYER})
    result["metrics"] = {
        name: {"value": float(value), "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
