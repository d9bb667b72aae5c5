"""Streaming-ingestion knobs."""

from dataclasses import dataclass


@dataclass
class StreamConfig:
    """Configuration for the streaming ingestion path (``repro.stream``).

    ``drift_threshold`` is the quantified relaxation at the heart of
    streaming Eq-1: emitted weights may differ from the exact
    prefix-statistics weights by at most ``LOC * TF * drift_threshold``
    per term (see :class:`~repro.vsm.schemes.IdfDriftTracker`).  ``0``
    re-prepares contexts every batch — exact, but O(batches) re-weights.

    ``vocab_budget`` / ``min_df`` bound the per-space DF tables: when a
    re-weight finds more than ``vocab_budget`` distinct terms in a
    space, terms with document frequency below ``min_df`` are pruned
    before the new contexts are prepared.  ``vocab_budget=0`` prunes at
    every re-weight; ``min_df<=1`` disables pruning entirely.
    """

    batch_size: int = 256
    drift_threshold: float = 0.1
    reservoir_size: int = 512
    vocab_budget: int = 150_000
    min_df: int = 2

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.drift_threshold < 0.0:
            raise ValueError("drift_threshold must be >= 0")
        if self.reservoir_size < 1:
            raise ValueError("reservoir_size must be positive")
        if self.vocab_budget < 0:
            raise ValueError("vocab_budget must be >= 0")


__all__ = ["StreamConfig"]
