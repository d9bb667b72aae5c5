"""repro.service — the form-directory server.

The paper's motivation is a hidden web "so vast and dynamic" that an
organization of its sources must be *maintained and served*, not just
computed once.  This package turns the offline CAFC pipeline into a
long-running directory service:

* :mod:`repro.service.snapshot` — persist/load a fully built index
  (vectorizer statistics, centroids, page assignments, config) so a
  server cold-starts in milliseconds without re-running the pipeline;
* :mod:`repro.service.directory` — a thread-safe façade over
  :class:`~repro.core.incremental.IncrementalOrganizer` with inline
  Equation-3 classification, an LRU result cache, indexed search, and
  drift-triggered background re-clustering;
* :mod:`repro.service.app` — the JSON application, free of sockets
  (classify / add / remove / search / clusters / healthz / metrics);
* :mod:`repro.service.aio` — the HTTP server, one ``asyncio`` event
  loop: keep-alive + pipelining, admission control with structured
  ``429 + Retry-After`` load shedding, slowloris/idle reaping;
  :func:`serve_directory` binds it over a directory;
* :mod:`repro.service.metrics` — latency histograms, request/cache
  counters and engine-stats rollups in Prometheus text format.

The serving layer itself uses only the standard library; the
similarity engine underneath needs NumPy (the one declared dependency).
Importing this package loads neither the batch pipeline nor the
clustering algorithms; a drift recluster imports k-means when it runs.
"""

from repro.service.aio import (
    AdmissionConfig,
    AsyncHTTPServer,
    serve_directory,
)
from repro.service.app import ApiError, BaseApp, DirectoryApp, Response
from repro.service.directory import ClassifyOutcome, FormDirectory
from repro.service.metrics import MetricsRegistry
from repro.service.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    build_snapshot,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)

__all__ = [
    "AdmissionConfig",
    "ApiError",
    "AsyncHTTPServer",
    "BaseApp",
    "ClassifyOutcome",
    "DirectoryApp",
    "FormDirectory",
    "Response",
    "serve_directory",
    "MetricsRegistry",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "build_snapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_info",
]
