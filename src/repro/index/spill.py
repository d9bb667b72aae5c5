"""Spill-to-disk posting lists: a two-tier SpaceIndex for unbounded streams.

The resident :class:`~repro.index.postings.SpaceIndex` holds every row
in memory — posting lists *and* the raw vectors for exact re-scoring —
which is exactly right for a directory of hundreds of clusters and
wrong for a stream of 100k+ pages.  A
:class:`SpillingSpaceIndex` keeps only the most recent rows resident;
once ``segment_rows`` accumulate, they are sealed into an immutable
on-disk segment (crc-framed records via :mod:`repro.datasets.store`)
and the resident tier is emptied.  Memory is then O(resident tier +
term directory), independent of how many rows ever flowed through.

Segment layout (one framed JSON record each):

* record 0 — header: format version, row range, and per-row
  ``[norm, meta]`` (meta is the caller's tag, e.g. the page URL);
* one record per term — the term string (resident postings are keyed
  by process-local :data:`~repro.vsm.interning.VOCABULARY` ids, which
  the flush resolves) and its posting list ``[[row, prenormed weight]]``.
  Segments written before the format dropped it also carry a per-term
  ``"max"``, which readers ignore.

Readers verify every checksum once at open while building a
``term -> file offset`` directory, then seek postings on demand.

**Search contract.**  The resident tier answers through the same
window-rescored :func:`~repro.index.retrieval.top_k_exact` as the
in-memory index — bit-identical to a scan of those rows.  Sealed
segments keep no row vectors to rescore, so their rows are scored by
the same term-at-a-time accumulation
(:func:`~repro.index.retrieval.accumulate_postings`) over the query's
posting lists: since posted weights are pre-normalized and the query is
pre-divided by its norm, the accumulated sum is the cosine up to float
rounding.  The merged top-k is therefore exact on both tiers up to that
rounding (tests pin agreement with an all-resident index to 1e-9).
"""

import heapq
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.datasets.store import (
    DatasetFormatError,
    iter_framed_records,
    read_framed_record,
    write_framed_records,
)
from repro.index.postings import SpaceIndex
from repro.index.retrieval import (
    RetrievalStats,
    accumulate_postings,
    top_k_exact,
)
from repro.vsm.interning import VOCABULARY
from repro.vsm.vector import SparseVector

_SEGMENT_FORMAT_VERSION = 1


class SpillSegment:
    """One sealed, immutable on-disk segment (read side).

    Opening scans the whole file once — verifying every crc — and keeps
    only the term directory and row range in memory.  Posting lists and
    row metadata are seeked on demand.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._term_offsets: Dict[str, int] = {}
        self._header_offset = 0
        self.start_row = 0
        self.n_rows = 0
        self.n_terms = 0
        header_seen = False
        for offset, record in iter_framed_records(self.path):
            kind = record.get("kind") if isinstance(record, dict) else None
            if not header_seen:
                if kind != "header":
                    raise DatasetFormatError(self.path, kind, "header")
                version = record.get("format_version")
                if version != _SEGMENT_FORMAT_VERSION:
                    raise DatasetFormatError(
                        self.path, version, _SEGMENT_FORMAT_VERSION
                    )
                self._header_offset = offset
                self.start_row = int(record.get("start_row", 0))
                self.n_rows = int(record.get("n_rows", 0))
                header_seen = True
            elif kind == "postings":
                self._term_offsets[record["term"]] = offset
        if not header_seen:
            raise DatasetFormatError(self.path, None, "header")
        self.n_terms = len(self._term_offsets)

    def __len__(self) -> int:
        return self.n_rows

    def __contains__(self, row_id: int) -> bool:
        return self.start_row <= row_id < self.start_row + self.n_rows

    def terms(self) -> Iterator[str]:
        return iter(self._term_offsets)

    def postings(self, term: str) -> List[Tuple[int, float]]:
        """The term's ``(row, prenormed weight)`` list (seeked on demand)."""
        offset = self._term_offsets.get(term)
        if offset is None:
            return []
        with open(self.path, "rb") as handle:
            record = read_framed_record(handle, offset, path=self.path)
        return [(int(row), float(weight)) for row, weight in record["postings"]]

    def rows(self) -> Dict[int, Tuple[float, object]]:
        """``row -> (norm, meta)`` — re-read from the header on demand."""
        with open(self.path, "rb") as handle:
            record = read_framed_record(
                handle, self._header_offset, path=self.path
            )
        return {
            int(row): (float(entry[0]), entry[1])
            for row, entry in record["rows"].items()
        }


class SpillingSpaceIndex:
    """A :class:`SpaceIndex` whose history spills to sealed segments.

    ``directory`` is where segments live; an existing directory's
    ``segment-*.seg`` files are re-opened, so a restarted process keeps
    its spilled history (resident rows, by design, were not yet
    durable).  ``meta`` on :meth:`add_row` tags the row with whatever
    the caller needs back from search hits (the stream path passes page
    URLs); resident metadata rides in memory until the flush seals it
    into the segment header.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_rows: int = 4096,
    ) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_rows = segment_rows
        self.resident = SpaceIndex()
        self._resident_meta: Dict[int, object] = {}
        self.segments: List[SpillSegment] = [
            SpillSegment(path)
            for path in sorted(self.directory.glob("segment-*.seg"))
        ]

    # ----------------------------------------------------------------
    # Introspection.
    # ----------------------------------------------------------------

    @property
    def n_resident(self) -> int:
        return len(self.resident)

    @property
    def n_spilled(self) -> int:
        return sum(segment.n_rows for segment in self.segments)

    def __len__(self) -> int:
        return self.n_resident + self.n_spilled

    def _metas(self, row_ids: List[int]) -> List[object]:
        """Each row's meta, reading any segment's header at most once."""
        headers: Dict[SpillSegment, Dict[int, Tuple[float, object]]] = {}

        def meta(row_id: int) -> object:
            if row_id in self._resident_meta:
                return self._resident_meta[row_id]
            for segment in self.segments:
                if row_id in segment:
                    if segment not in headers:
                        headers[segment] = segment.rows()
                    entry = headers[segment].get(row_id)
                    return entry[1] if entry is not None else None
            return None

        return [meta(row_id) for row_id in row_ids]

    # ----------------------------------------------------------------
    # Writes.
    # ----------------------------------------------------------------

    def add_row(
        self, row_id: int, vector: SparseVector, meta: object = None
    ) -> None:
        """Index one row in the resident tier, spilling when it fills.

        Row ids must be globally unique and — for segment row-range
        lookups to stay cheap — monotonically increasing across the
        stream (the streaming ingestor's running page index).
        """
        self.resident.add_row(row_id, vector)
        self._resident_meta[row_id] = meta
        if len(self.resident) >= self.segment_rows:
            self.flush()

    def flush(self) -> Optional[SpillSegment]:
        """Seal the resident tier into a new on-disk segment.

        No-op when nothing is resident.  The segment write is atomic
        (tmp + fsync + rename); the resident tier is cleared only after
        the rename, so a crash mid-flush loses nothing already sealed.
        """
        rows = sorted(self.resident.rows())
        if not rows:
            return None
        start_row = rows[0]

        def records():
            yield {
                "kind": "header",
                "format_version": _SEGMENT_FORMAT_VERSION,
                "start_row": start_row,
                "n_rows": len(rows),
                "rows": {
                    str(row): [
                        self.resident.norm(row),
                        self._resident_meta.get(row),
                    ]
                    for row in rows
                },
            }
            # Resident posting lists are already pre-normalized; the
            # segment stores them verbatim, so spilled scoring uses the
            # same floats the resident accumulators would have.  Ids are
            # process-local, so the segment names each term by string.
            term_of = VOCABULARY.term
            resident = self.resident
            for term_id in sorted(resident.term_ids(), key=term_of):
                yield {
                    "kind": "postings",
                    "term": term_of(term_id),
                    "postings": resident.postings(term_id),
                }

        path = self.directory / f"segment-{len(self.segments):06d}.seg"
        write_framed_records(records(), path)
        segment = SpillSegment(path)
        self.segments.append(segment)
        self.resident.clear()
        self._resident_meta = {}
        return segment

    # ----------------------------------------------------------------
    # Search.
    # ----------------------------------------------------------------

    def search(
        self,
        query: SparseVector,
        k: int,
        stats: Optional[RetrievalStats] = None,
    ) -> List[Tuple[int, float, object]]:
        """Exact top-``k`` rows across both tiers for a combined query.

        Returns ``[(row_id, cosine, meta)]`` sorted by ``(-score,
        row_id)``.  Resident rows go through the window-rescored exact
        top-k; spilled rows through term-at-a-time accumulation (see
        the module docstring for why both are exact).
        """
        if k <= 0:
            return []
        norm = query.norm()
        if norm == 0.0:
            return []
        if stats is None:
            stats = RetrievalStats()

        merged: List[Tuple[int, float]] = []
        if len(self.resident):
            resident = self.resident

            def score_exact(row_id: int) -> float:
                return resident.vector(row_id).dot(query) / (
                    resident.norm(row_id) * norm
                )

            merged.extend(top_k_exact(
                resident, query, k, score_exact, stats=stats, norm=norm,
            ))

        terms = query.items()
        for segment in self.segments:
            stats.rows_total += segment.n_rows
            partials = accumulate_postings(terms, 1.0 / norm, segment.postings)
            top = heapq.nsmallest(
                k, partials.items(), key=lambda kv: (-kv[1], kv[0])
            )
            merged.extend((row, score) for row, score in top if score > 0.0)
            stats.rows_scored += len(top)

        merged.sort(key=lambda hit: (-hit[1], hit[0]))
        hits = merged[:k]
        metas = self._metas([row for row, _ in hits])
        return [(row, score, meta) for (row, score), meta in zip(hits, metas)]


__all__ = ["SpillSegment", "SpillingSpaceIndex"]
