"""Shard clients — how the router and replicas talk to a shard.

Two transports behind one duck-typed interface:

* :class:`LocalShardClient` calls a :class:`~repro.distrib.shard.
  ShardNode` in-process.  This is what the parity tests and the bench
  harness use — no sockets, no serialization noise, the merged answer
  is compared float-for-float against the single-node directory.
* :class:`HttpShardClient` speaks the shard HTTP API
  (:mod:`repro.distrib.http`) over pooled persistent
  ``http.client.HTTPConnection`` keep-alive sockets (reconnect-on-
  stale) — the deployment transport, exercised end-to-end by
  ``repro router --smoke``.

Both raise :class:`ShardUnavailable` for anything that means "this
endpoint cannot answer right now" (connection refused, 5xx, timeout,
an injected fault) so the router's failover/partial-result logic has
one exception type to catch.
"""

import http.client
import json
import socket
import threading
import urllib.parse
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.core.form_page import RawFormPage
from repro.distrib.shard import ShardNode
from repro.resilience.faults import FaultError
from repro.resilience.journal import JournalError, StaleEpochError


class ShardUnavailable(Exception):
    """The shard endpoint cannot answer (dead, unreachable, or 5xx)."""

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"shard {name}: {reason}")
        self.name = name
        self.reason = reason


class SegmentGone(Exception):
    """The requested sealed segment was folded into a snapshot — the
    tailing replica must re-bootstrap instead of replaying a gap."""


def raw_page_to_body(raw: RawFormPage) -> Dict[str, object]:
    """The ``/classify`` / ``/add`` request body for a raw page."""
    return {
        "url": raw.url,
        "html": raw.html,
        "backlinks": list(raw.backlinks),
        "anchor_texts": list(raw.anchor_texts),
    }


class LocalShardClient:
    """In-process transport: a thin adapter over a :class:`ShardNode`.

    ``alive`` lets failover tests kill a node without tearing down its
    state: a dead client raises :class:`ShardUnavailable` on every call,
    exactly like a refused connection.
    """

    def __init__(self, shard: ShardNode, name: Optional[str] = None) -> None:
        self.shard = shard
        self.name = name or shard.name
        self.alive = True

    def _check(self) -> None:
        if not self.alive:
            raise ShardUnavailable(self.name, "node is down")

    def _guard(self, fn, *args, **kwargs):
        self._check()
        try:
            return fn(*args, **kwargs)
        except StaleEpochError:
            # Not an availability problem: the node answered, and the
            # answer is "I am fenced".  The router failovers on it and
            # the HTTP face maps it to 409.
            raise
        except (FaultError, TimeoutError) as exc:
            raise ShardUnavailable(
                self.name, f"{type(exc).__name__}: {exc}"
            ) from exc

    def kill(self) -> None:
        """Simulate node death (state stays on 'disk' for promotion)."""
        self.alive = False

    @contextmanager
    def deadline(self, seconds: float):
        """Deadline-budget seam (no-op in-process: local calls cannot
        be socket-capped; the router's fan-out ``wait`` still bounds
        them)."""
        yield

    # -- serving ------------------------------------------------------

    def search(
        self, query: str, n: int = 3, scope: str = "clusters"
    ) -> List[Dict[str, object]]:
        if scope == "pages":
            return self._guard(self.shard.search_pages, query, n=n)
        return self._guard(self.shard.search, query, n=n)

    def classify(self, raw: RawFormPage) -> Dict[str, object]:
        return self._guard(self.shard.classify, raw)

    def add(self, raw: RawFormPage) -> Dict[str, object]:
        return self._guard(self.shard.add, raw)

    def remove(self, url: str) -> bool:
        return self._guard(self.shard.remove, url)

    def healthz(self) -> Dict[str, object]:
        self._check()
        return self.shard.healthz()

    def promote(self, leader_journal: str, **kwargs) -> Dict[str, object]:
        """Promote the wrapped replica (duck-typed: only meaningful
        when this client wraps a :class:`~repro.distrib.replica.
        ReplicaNode`).  Returns the structured reply the coordinator
        and the HTTP ``POST /promote`` route share."""
        node = self._guard(self.shard.promote, leader_journal, **kwargs)
        return {
            "ok": True,
            "name": self.name,
            "epoch": node.epoch,
            "applied": getattr(self.shard, "applied", 0),
            "drained": getattr(self.shard, "drained_on_promotion", 0),
        }

    # -- replication --------------------------------------------------

    def replication_manifest(self) -> Dict[str, object]:
        return self._guard(self.shard.replication_manifest)

    def replication_segment(self, seq: int) -> bytes:
        self._check()
        try:
            return self.shard.replication_segment(seq)
        except JournalError as exc:
            raise SegmentGone(str(exc)) from exc
        except (FaultError, TimeoutError) as exc:
            raise ShardUnavailable(
                self.name, f"{type(exc).__name__}: {exc}"
            ) from exc

    def replication_snapshot(self) -> bytes:
        return self._guard(self.shard.replication_snapshot)


class HttpShardClient:
    """HTTP transport for a shard (or replica) endpoint.

    Connections are *pooled and persistent*: each request borrows an
    ``http.client.HTTPConnection`` from a per-client stack (which keeps
    at most four idle connections), speaks keep-alive HTTP/1.1, and
    returns it for the next call — the scatter-gather fan-out no longer
    pays a TCP handshake per shard per request.  A borrowed connection that turns out to be stale (the
    server closed the keep-alive socket between requests) is discarded
    and the request retried once on a fresh connection; fresh-connection
    failures surface immediately as :class:`ShardUnavailable`.
    ``pooled=False`` restores the legacy open-per-call behavior (the
    A/B baseline in ``benchmarks/test_bench_shard.py``).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        name: Optional[str] = None,
        pooled: bool = True,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.name = name or self.base_url
        self.pooled = pooled
        split = urllib.parse.urlsplit(self.base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"HttpShardClient needs an http:// base URL, got "
                f"{base_url!r}"
            )
        self._host = split.hostname
        self._port = split.port or 80
        self._prefix = split.path.rstrip("/")
        self._pool: List[http.client.HTTPConnection] = []
        self._pool_lock = threading.Lock()
        self._budget = threading.local()

    # -- deadline budget ----------------------------------------------

    @contextmanager
    def deadline(self, seconds: float):
        """Cap this thread's requests at ``seconds`` — the caller's
        *remaining* budget, not the constructor's fixed timeout.

        The router's scatter-gather enters each failover attempt under
        the leg's remaining deadline, so the second endpoint of a
        failover list is tried with whatever time the first one left,
        instead of a full fresh ``timeout`` that could blow the
        request's overall budget.  Thread-local, so concurrent fan-out
        legs sharing a client cannot clobber each other.
        """
        previous = getattr(self._budget, "timeout", None)
        self._budget.timeout = max(0.001, float(seconds))
        try:
            yield
        finally:
            self._budget.timeout = previous

    @property
    def effective_timeout(self) -> float:
        override = getattr(self._budget, "timeout", None)
        return self.timeout if override is None else override

    # -- connection pool ----------------------------------------------

    def _acquire(self) -> Tuple[http.client.HTTPConnection, bool]:
        """(connection, was_reused) — pooled connections may be stale."""
        timeout = self.effective_timeout
        if self.pooled:
            with self._pool_lock:
                if self._pool:
                    conn = self._pool.pop()
                    conn.timeout = timeout
                    if conn.sock is not None:
                        conn.sock.settimeout(timeout)
                    return conn, True
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=timeout
        )
        return conn, False

    def _release(self, conn: http.client.HTTPConnection) -> None:
        if self.pooled:
            with self._pool_lock:
                if len(self._pool) < 4:
                    self._pool.append(conn)
                    return
        conn.close()

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    # -- plumbing -----------------------------------------------------

    #: Failures that mean "the keep-alive socket went stale between
    #: requests" — safe to retry once on a fresh connection, but only
    #: when the failed connection was a *reused* one.
    _STALE_ERRORS = (
        http.client.BadStatusLine,
        http.client.CannotSendRequest,
        http.client.ResponseNotReady,
        ConnectionResetError,
        BrokenPipeError,
        ConnectionAbortedError,
    )

    def _request(
        self,
        path: str,
        body: Optional[dict] = None,
        query: Optional[dict] = None,
        raw: bool = False,
        error_body_is_answer: bool = False,
    ):
        target = self._prefix + path
        if query:
            target += "?" + urllib.parse.urlencode(query)
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"

        for attempt in (0, 1):
            conn, reused = self._acquire()
            try:
                conn.request(
                    "POST" if data is not None else "GET",
                    target, body=data, headers=headers,
                )
                resp = conn.getresponse()
                payload = resp.read()
            except self._STALE_ERRORS as exc:
                conn.close()
                if reused and attempt == 0:
                    continue  # reconnect-on-stale: one fresh retry
                raise ShardUnavailable(self.name, str(exc)) from exc
            except (socket.timeout, OSError,
                    http.client.HTTPException) as exc:
                conn.close()
                raise ShardUnavailable(self.name, str(exc)) from exc
            if resp.will_close:
                conn.close()
            else:
                self._release(conn)
            return self._interpret(
                path, resp.status, payload, raw, error_body_is_answer
            )
        raise ShardUnavailable(self.name, "unreachable")  # pragma: no cover

    def _interpret(
        self,
        path: str,
        status: int,
        payload: bytes,
        raw: bool,
        error_body_is_answer: bool,
    ):
        if status >= 400:
            if status == 404 and path.startswith("/replication/segment"):
                raise SegmentGone(
                    payload.decode("utf-8", "replace")[:200]
                )
            if status == 409:
                # The structured fencing rejection: surface it as the
                # same exception the in-process transport raises, with
                # the server's current epoch attached, so callers can
                # re-resolve the leader instead of retrying a zombie.
                try:
                    error = json.loads(payload.decode("utf-8")).get(
                        "error", {}
                    )
                except (UnicodeDecodeError, json.JSONDecodeError):
                    error = {}
                if error.get("code") == "stale_epoch":
                    raise StaleEpochError(
                        int(error.get("epoch", 0)),
                        int(error.get("offered", 0)),
                        str(error.get("message", "")),
                    )
            if error_body_is_answer:
                # 503-recovering still carries a JSON status body — that
                # is an answer ("recovering"), not an unavailable
                # endpoint.
                try:
                    return json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    raise ShardUnavailable(self.name, f"HTTP {status}")
            detail = payload.decode("utf-8", "replace")[:200]
            raise ShardUnavailable(self.name, f"HTTP {status}: {detail}")
        if raw:
            return payload
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ShardUnavailable(
                self.name, f"bad JSON reply: {exc}"
            ) from exc

    # -- serving ------------------------------------------------------

    def search(
        self, query: str, n: int = 3, scope: str = "clusters"
    ) -> List[Dict[str, object]]:
        reply = self._request(
            "/search", query={"q": query, "n": n, "scope": scope}
        )
        return reply.get("hits", [])

    def classify(self, raw: RawFormPage) -> Dict[str, object]:
        return self._request("/classify", body=raw_page_to_body(raw))

    def add(self, raw: RawFormPage) -> Dict[str, object]:
        return self._request("/add", body=raw_page_to_body(raw))

    def remove(self, url: str) -> bool:
        reply = self._request("/remove", body={"url": url})
        return bool(reply.get("removed", False))

    def healthz(self) -> Dict[str, object]:
        return self._request("/healthz", error_body_is_answer=True)

    def promote(
        self,
        leader_journal: str,
        lease_store=None,
        lease_ttl: Optional[float] = None,
        **kwargs,
    ) -> Dict[str, object]:
        """Ask a replica endpoint to take over (``POST /promote``).

        ``lease_store`` may be a path or a LeaseStore — only its path
        crosses the wire (the lease *file* is the shared-storage
        contract, exactly like the journal path).
        """
        body: Dict[str, object] = {"leader_journal": str(leader_journal)}
        if lease_store is not None:
            body["lease_file"] = str(getattr(lease_store, "path", lease_store))
        if lease_ttl is not None:
            body["lease_ttl"] = float(lease_ttl)
        body.update(kwargs)
        return self._request("/promote", body=body)

    # -- replication --------------------------------------------------

    def replication_manifest(self) -> Dict[str, object]:
        return self._request("/replication/manifest")

    def replication_segment(self, seq: int) -> bytes:
        return self._request(
            "/replication/segment", query={"seq": seq}, raw=True
        )

    def replication_snapshot(self) -> bytes:
        return self._request("/replication/snapshot", raw=True)


__all__ = [
    "HttpShardClient",
    "LocalShardClient",
    "SegmentGone",
    "ShardUnavailable",
    "raw_page_to_body",
]
