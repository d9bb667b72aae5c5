"""Shared term-id interning — the vocabulary table behind ``SparseVector``.

Struct-of-arrays sparse vectors (:mod:`repro.vsm.vector`) do not store
term strings at all: each term is interned once, process-wide, into an
append-only bijection ``term <-> small int id``, and vectors pack the
ids into a C-level ``array('q')``.  Across a corpus the same few
thousand stems repeat in tens of thousands of vectors, so interning
collapses per-vector string storage to 8 bytes per coordinate and turns
dict probes during dot products into integer hashing.

The table is process-global (:data:`VOCABULARY`) and never shrinks;
ids are meaningless outside the process, which is why
``SparseVector.__reduce__`` pickles vectors back through their term
strings.  It is the only term table in-memory scoring uses: the
batched engine (:mod:`repro.core.simengine`) and every posting list
(:mod:`repro.index.postings`) key terms by these ids, and strings
appear only where data leaves the process (snapshots, cluster
labels, matched query terms).  Because nothing frees an id, serving
never interns a query's words: :class:`~repro.vsm.vector.KeywordQuery`
only looks them up.
"""

import sys
import threading
from typing import Dict, List, Optional


class TermTable:
    """A thread-safe, append-only ``term <-> id`` bijection.

    Reads (:meth:`id_of`, :meth:`term`) are lock-free attribute lookups;
    only first-time interning takes the lock.  ``term(tid)`` is valid
    for any id ever returned, because the term list is appended before
    the id is published.
    """

    __slots__ = ("_lock", "_ids", "_terms")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: Dict[str, int] = {}
        self._terms: List[str] = []

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: str) -> int:
        """The id for ``term``, allocating one on first sight."""
        tid = self._ids.get(term)
        if tid is not None:
            return tid
        with self._lock:
            tid = self._ids.get(term)
            if tid is None:
                tid = len(self._terms)
                self._terms.append(term)
                self._ids[term] = tid
            return tid

    def id_of(self, term: str) -> Optional[int]:
        """The id for ``term`` if it was ever interned, else ``None``."""
        return self._ids.get(term)

    def term(self, tid: int) -> str:
        """The term string behind ``tid``."""
        return self._terms[tid]

    def bytes_estimate(self) -> int:
        """Approximate resident bytes of the table (strings + dict + list).

        String payloads are exact (``sys.getsizeof`` per term, counted
        once — the dict key and list entry are the same object); the
        dict/list overheads are the containers' own ``getsizeof`` plus
        8 bytes per reference for the int values.  Good enough for the
        ``vocab_bytes_estimate`` gauge to show growth, which is the
        point — unbounded interning must at least be *visible*.
        """
        terms = self._terms
        string_bytes = sum(sys.getsizeof(term) for term in terms)
        return (
            string_bytes
            + sys.getsizeof(self._ids)
            + sys.getsizeof(terms)
            + 8 * len(terms)  # int values in the id dict
        )

    def stats(self) -> Dict[str, int]:
        """``{"terms": ..., "bytes_estimate": ...}`` for gauges and CLIs."""
        return {"terms": len(self), "bytes_estimate": self.bytes_estimate()}


#: The process-wide vocabulary every :class:`~repro.vsm.vector.SparseVector`
#: interns against.
VOCABULARY = TermTable()
