"""HTTP faces of the distributed directory — shard, replica, router.

All three are apps (:class:`ShardApp`, :class:`ReplicaApp`,
:class:`RouterApp`) over the single-node plumbing
(:class:`~repro.service.app.DirectoryApp` — bounded bodies, structured
errors, request metrics), served by the one HTTP server,
:class:`~repro.service.aio.AsyncHTTPServer`, with its admission control
(``admission=`` on the ``serve_*`` factories, ``--max-inflight`` and
friends on the CLI).

* **shard** (:func:`serve_shard`) — the full single-node API with
  global cluster ids, plus the replication feed
  (``/replication/manifest``, ``/replication/segment?seq=N`` as raw
  crc-framed bytes, ``/replication/snapshot`` as version-3 snapshot
  bytes);
* **replica** (:func:`serve_replica`) — reads only (``/search``,
  ``/classify``, ``/healthz``, ``/metrics``) until promoted; write
  endpoints answer 403 so a misconfigured client cannot fork the copy;
* **router** (:func:`serve_router`) — the public front: fan-out
  ``/search`` / ``/classify`` / ``/add`` / ``/remove`` with partial
  responses, aggregated ``/healthz``, and 503 + ``Retry-After`` when no
  shard answers.
"""

import json
from typing import Callable, Dict, Optional

from repro.distrib.replica import ReplicaNode
from repro.distrib.router import (
    ALL_SHARDS_RETRY_AFTER,
    AllShardsUnavailable,
    DirectoryRouter,
)
from repro.distrib.shard import ShardNode
from repro.resilience.journal import JournalError
from repro.service.aio import AdmissionConfig, AsyncHTTPServer
from repro.service.app import (
    ApiError,
    BaseApp,
    DEFAULT_MAX_REQUEST_BYTES,
    DirectoryApp,
    METRICS_CONTENT_TYPE,
    Response,
    _raw_page_from_body,
    json_response,
)


class ShardApp(DirectoryApp):
    """Single-node API in global ids + the replication feed."""

    server_version = "repro-shard/1.0"

    def __init__(self, shard: ShardNode) -> None:
        self._shard = shard

    @property
    def shard(self) -> ShardNode:
        return self._shard

    @property
    def directory(self):
        return self.shard.directory

    def close(self) -> None:
        self.shard.close()

    def get_routes(self) -> Dict[str, Callable]:
        routes = super().get_routes()
        routes.update(
            {
                "/replication/manifest": self._get_replication_manifest,
                "/replication/segment": self._get_replication_segment,
                "/replication/snapshot": self._get_replication_snapshot,
            }
        )
        return routes

    def _get_healthz(self, query: dict) -> Response:
        # The single-node health body, merged with the shard's identity
        # record — which is where ``epoch`` / ``role`` /
        # ``lease_remaining`` live, so a failover runbook (or the
        # router's leader re-resolution) reads them straight off
        # /healthz.
        response = super()._get_healthz(query)
        if response.status != 200:
            return response
        payload = json.loads(response.body.decode("utf-8"))
        payload.update(self.shard.healthz())
        return json_response(200, payload)

    # -- reads in global ids ------------------------------------------

    def _get_search(self, query: dict) -> Response:
        terms, n, scope = self._search_params(query)
        if scope == "clusters":
            hits = self.shard.search(terms, n=n)
        else:
            hits = self.shard.search_pages(terms, n=n)
        return json_response(
            200, {"ok": True, "query": terms, "scope": scope, "hits": hits}
        )

    def _post_classify(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        return json_response(200, {"ok": True, **self.shard.classify(raw)})

    def _post_add(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        return json_response(200, {"ok": True, **self.shard.add(raw)})

    def _post_remove(self, body: dict) -> Response:
        # Through the shard, not the bare directory: removes are writes
        # and must pass the same leadership check as adds.
        url = body.get("url")
        if not isinstance(url, str) or not url:
            raise ApiError(
                400, "bad_request", "'url' must be a non-empty string"
            )
        removed = self.shard.remove(url)
        return json_response(
            200, {"ok": True, "url": url, "removed": removed}
        )

    # -- replication feed ---------------------------------------------

    def _get_replication_manifest(self, query: dict) -> Response:
        return json_response(
            200, {"ok": True, **self.shard.replication_manifest()}
        )

    def _get_replication_segment(self, query: dict) -> Response:
        seq = self._int_param(query, "seq", -1, low=1, high=10**9)
        if seq < 0:
            raise ApiError(400, "bad_request", "missing parameter 'seq'")
        try:
            data = self.shard.replication_segment(seq)
        except JournalError as exc:
            # Folded away: the replica re-bootstraps from /snapshot.
            raise ApiError(404, "segment_gone", str(exc))
        return Response(200, data, content_type="application/octet-stream")

    def _get_replication_snapshot(self, query: dict) -> Response:
        return Response(
            200, self.shard.replication_snapshot(),
            content_type="application/octet-stream",
        )


class ReplicaApp(ShardApp):
    """Read-only shard API over a tailing replica."""

    server_version = "repro-replica/1.0"

    def __init__(self, replica: ReplicaNode) -> None:
        self.replica = replica

    @property
    def shard(self) -> ShardNode:
        node = self.replica.node
        if node is None:
            raise ApiError(
                503, "recovering", "replica has not bootstrapped yet",
                retry_after=1,
            )
        return node

    @property
    def metrics_registry(self):
        return self.replica.metrics

    def close(self) -> None:
        self.replica.close()

    def post_routes(self) -> Dict[str, Callable]:
        # Classify is read-only; mutations would fork the copy.
        return {
            "/classify": self._post_classify,
            "/add": self._refusing(super().post_routes()["/add"]),
            "/remove": self._refusing(super().post_routes()["/remove"]),
            "/promote": self._post_promote,
        }

    def _post_promote(self, body: dict) -> Response:
        """Take over from the dead leader (``repro failover`` and the
        coordinator drive this).  Body: ``leader_journal`` (required),
        optional ``lease_dir``/``lease_file`` and ``lease_ttl``.

        Double promotion — concurrent or repeated — answers a clean
        409 ``already_promoted`` instead of corrupting state.
        """
        leader_journal = body.get("leader_journal")
        if not isinstance(leader_journal, str) or not leader_journal:
            raise ApiError(
                400, "bad_request",
                "'leader_journal' must be a non-empty path string",
            )
        kwargs = {}
        lease_file = body.get("lease_file")
        if isinstance(lease_file, str) and lease_file:
            kwargs["lease_store"] = lease_file
            ttl = body.get("lease_ttl")
            if ttl is not None:
                kwargs["lease_ttl"] = float(ttl)
        try:
            node = self.replica.promote(leader_journal, **kwargs)
        except RuntimeError as exc:
            raise ApiError(409, "already_promoted", str(exc))
        return json_response(
            200,
            {
                "ok": True,
                "name": self.replica.name,
                "epoch": node.epoch,
                "applied": self.replica.applied,
                "drained": getattr(self.replica, "drained_on_promotion", 0),
            },
        )

    def _refusing(self, inner: Callable) -> Callable:
        def refuse_unless_promoted(body: dict) -> Response:
            if self.replica.promoted:
                # Promotion makes this a leader; serve the write normally.
                return inner(body)
            raise ApiError(
                403, "read_only_replica",
                "this node is a read replica; write to the leader",
            )

        return refuse_unless_promoted

    def _get_healthz(self, query: dict) -> Response:
        record = self.replica.healthz()
        if record["status"] == "recovering":
            return json_response(
                503, {"ok": False, **record},
                extra_headers=(("Retry-After", "1"),),
            )
        return json_response(200, {"ok": True, **record})


class RouterApp(BaseApp):
    """The public scatter-gather front end."""

    server_version = "repro-router/1.0"

    def __init__(self, router: DirectoryRouter) -> None:
        self.router = router

    @property
    def metrics_registry(self):
        return self.router.metrics

    def close(self) -> None:
        self.router.close()

    def get_routes(self) -> Dict[str, Callable]:
        return {
            "/healthz": self._get_healthz,
            "/metrics": self._get_metrics,
            "/search": self._get_search,
        }

    def post_routes(self) -> Dict[str, Callable]:
        return {
            "/classify": self._post_classify,
            "/add": self._post_add,
            "/remove": self._post_remove,
        }

    @staticmethod
    def _unavailable(exc: AllShardsUnavailable) -> ApiError:
        return ApiError(
            503, "all_shards_unavailable", str(exc),
            retry_after=ALL_SHARDS_RETRY_AFTER,
        )

    def _get_metrics(self, query: dict) -> Response:
        return Response(
            200,
            self.router.metrics.render().encode("utf-8"),
            content_type=METRICS_CONTENT_TYPE,
        )

    def _get_healthz(self, query: dict) -> Response:
        try:
            record = self.router.healthz()
        except AllShardsUnavailable as exc:
            raise self._unavailable(exc)
        return json_response(
            200, {"ok": record["status"] == "ok", **record}
        )

    def _get_search(self, query: dict) -> Response:
        terms = query.get("q", [""])[0]
        if not terms.strip():
            raise ApiError(400, "bad_request", "missing query parameter 'q'")
        n = self._int_param(query, "n", 3, low=1, high=100)
        scope = query.get("scope", ["clusters"])[0]
        if scope not in ("clusters", "pages"):
            raise ApiError(
                400, "bad_request", "'scope' must be 'clusters' or 'pages'"
            )
        try:
            reply = self.router.search(terms, n=n, scope=scope)
        except AllShardsUnavailable as exc:
            raise self._unavailable(exc)
        return json_response(200, {"ok": True, **reply})

    def _post_classify(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        try:
            reply = self.router.classify(raw)
        except AllShardsUnavailable as exc:
            raise self._unavailable(exc)
        return json_response(200, {"ok": True, **reply})

    def _post_add(self, body: dict) -> Response:
        raw = _raw_page_from_body(body)
        try:
            reply = self.router.add(raw)
        except AllShardsUnavailable as exc:
            raise self._unavailable(exc)
        return json_response(200, {"ok": True, **reply})

    def _post_remove(self, body: dict) -> Response:
        url = body.get("url")
        if not isinstance(url, str) or not url:
            raise ApiError(
                400, "bad_request", "'url' must be a non-empty string"
            )
        try:
            reply = self.router.remove(url)
        except AllShardsUnavailable as exc:
            raise self._unavailable(exc)
        return json_response(200, {"ok": True, **reply})


def serve_shard(
    shard: ShardNode,
    host: str = "127.0.0.1",
    port: int = 0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    admission: Optional[AdmissionConfig] = None,
) -> AsyncHTTPServer:
    """Bind a shard server (port 0 picks an ephemeral port)."""
    return AsyncHTTPServer(
        ShardApp(shard), (host, port),
        max_request_bytes=max_request_bytes, admission=admission,
    )


def serve_replica(
    replica: ReplicaNode,
    host: str = "127.0.0.1",
    port: int = 0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    admission: Optional[AdmissionConfig] = None,
) -> AsyncHTTPServer:
    """Bind a replica server."""
    return AsyncHTTPServer(
        ReplicaApp(replica), (host, port),
        max_request_bytes=max_request_bytes, admission=admission,
    )


def serve_router(
    router: DirectoryRouter,
    host: str = "127.0.0.1",
    port: int = 0,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    admission: Optional[AdmissionConfig] = None,
) -> AsyncHTTPServer:
    """Bind a router server."""
    return AsyncHTTPServer(
        RouterApp(router), (host, port),
        max_request_bytes=max_request_bytes, admission=admission,
    )


__all__ = [
    "ReplicaApp",
    "RouterApp",
    "ShardApp",
    "serve_replica",
    "serve_router",
    "serve_shard",
]
