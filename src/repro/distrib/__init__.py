"""repro.distrib — the sharded, replicated form directory.

The step from "one box" to the millions-of-users north star
(ROADMAP item 1): partition the directory across shard processes,
replicate each shard by shipping sealed write-ahead-journal segments,
and put a scatter-gather router in front.

* :mod:`~repro.distrib.placement` — stable partition assignment
  (cluster-routed for bit-identical parity, hash-routed for balance)
  and :func:`split_snapshot`;
* :mod:`~repro.distrib.shard` — a partition node: ``FormDirectory`` +
  global-id remapping + the journal-segment replication feed;
* :mod:`~repro.distrib.replica` — snapshot-bootstrap, segment-tailing
  read replicas that promote on leader death with zero acknowledged
  writes lost;
* :mod:`~repro.distrib.router` — deterministic k-way merged fan-out
  with per-shard timeouts and partial-result degradation;
* :mod:`~repro.distrib.fence` — epoch-fenced leadership: the
  file-backed leader :class:`~repro.distrib.fence.LeaseStore` and the
  :class:`~repro.distrib.fence.FailoverCoordinator` that detects a
  dead leader, promotes the most-caught-up replica, and repoints the
  router (``repro failover``);
* :mod:`~repro.distrib.client` — the in-process and HTTP shard
  clients;
* :mod:`~repro.distrib.http` — the shard, replica and router apps and
  their ``serve_*`` factories, all on the one
  :class:`~repro.service.aio.AsyncHTTPServer` (``repro shard`` /
  ``repro replica`` / ``repro router``).

See docs/SHARDING.md for topology, protocol, and the ops runbook.
"""

from repro.distrib.client import (
    HttpShardClient,
    LocalShardClient,
    SegmentGone,
    ShardUnavailable,
)
from repro.distrib.fence import (
    DEFAULT_LEASE_TTL,
    FailoverCoordinator,
    Lease,
    LeaseHeld,
    LeaseStore,
    StaleEpochError,
)
from repro.distrib.http import (
    ReplicaApp,
    RouterApp,
    ShardApp,
    serve_replica,
    serve_router,
    serve_shard,
)
from repro.distrib.placement import (
    PLACEMENT_CHOICES,
    shard_for_cluster,
    shard_for_url,
    split_snapshot,
    validate_placement,
)
from repro.distrib.replica import ReplicaNode
from repro.distrib.router import AllShardsUnavailable, DirectoryRouter
from repro.distrib.shard import DEFAULT_SEGMENT_RECORDS, ShardNode

__all__ = [
    "AllShardsUnavailable",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_SEGMENT_RECORDS",
    "DirectoryRouter",
    "FailoverCoordinator",
    "HttpShardClient",
    "Lease",
    "LeaseHeld",
    "LeaseStore",
    "LocalShardClient",
    "PLACEMENT_CHOICES",
    "StaleEpochError",
    "ReplicaApp",
    "ReplicaNode",
    "RouterApp",
    "SegmentGone",
    "ShardApp",
    "ShardNode",
    "ShardUnavailable",
    "serve_replica",
    "serve_router",
    "serve_shard",
    "shard_for_cluster",
    "shard_for_url",
    "split_snapshot",
    "validate_placement",
]
