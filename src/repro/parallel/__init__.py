"""Parallel ingestion & vectorization — the map/reduce corpus pipeline.

The paper's vectorization (Section 2.1) is embarrassingly parallel at
the page level: each ``FP = (PC, FC)`` is parsed, tokenized and stemmed
independently, and only the IDF pass needs global state.  This package
turns that observation into a two-phase engine:

1. **map** — workers turn raw HTML into located-term analyses (the
   CPU-heavy ~80%: parse + tokenize + Porter-stem);
2. **reduce** — the parent merges per-space document frequencies in
   deterministic page order and emits the Equation-1 TF-IDF vectors.

The non-negotiable invariant: parallel output is **bit-identical** to
serial output — same vocabulary order, same DF counts, same float
weights (pinned by ``tests/test_parallel_ingest.py`` over the full
benchmark corpus).  See docs/INGESTION.md for the determinism contract
and the serial / process-pool plan.
"""

from repro.parallel.cache import AnalysisCache, page_analysis_key
from repro.parallel.config import ParallelConfig
from repro.parallel.ingest import (
    IngestError,
    IngestStats,
    PageAnalysis,
    analyze_form_page,
    analyze_pages,
    parallel_map,
)

__all__ = [
    "AnalysisCache",
    "IngestError",
    "IngestStats",
    "PageAnalysis",
    "ParallelConfig",
    "analyze_form_page",
    "analyze_pages",
    "page_analysis_key",
    "parallel_map",
]
