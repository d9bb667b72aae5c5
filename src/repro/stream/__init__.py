"""repro.stream — bounded-memory streaming ingestion (docs/INGESTION.md).

Pages arrive as a *generator*; the pipeline never holds the corpus:

* :class:`~repro.stream.ingest.StreamingIngestor` — per-batch observe →
  drift-gated re-weight → emit, with the ``LOC*TF*threshold`` weight
  error bound;
* :class:`~repro.stream.organizer.StreamOrganizer` — mini-batch k-means
  over a deterministic reservoir, re-vectorized at re-weight events;
* :func:`~repro.stream.runner.run_stream` /
  :func:`~repro.stream.runner.reference_parity` — the end-to-end driver
  and the batch-parity acceptance gate;
* :class:`~repro.stream.config.StreamConfig` — the knobs
  ``run_stream`` takes.
"""

from repro.stream.config import StreamConfig
from repro.stream.ingest import StreamedPage, StreamingIngestor, StreamStats
from repro.stream.organizer import StreamOrganizer
from repro.stream.runner import (
    StreamRunResult,
    final_labeling,
    reference_parity,
    run_stream,
)

__all__ = [
    "StreamConfig",
    "StreamOrganizer",
    "StreamRunResult",
    "StreamStats",
    "StreamedPage",
    "StreamingIngestor",
    "final_labeling",
    "reference_parity",
    "run_stream",
]
