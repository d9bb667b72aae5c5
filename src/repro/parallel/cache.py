"""Content-hash keyed caches for per-page analyses.

A page analysis (parse + tokenize + stem) is a pure function of the
page's URL, HTML, anchor texts, and the analyzer configuration — so it
can be memoized by a stable digest of exactly those inputs.  Two layers:

* :class:`AnalysisCache` — a bounded in-memory LRU, owned by the
  vectorizer.  Makes ``transform_new`` reuse the analysis computed
  during ``fit_transform`` (the service ``/classify`` retry path), and
  lets repeated ``fit_transform`` calls in one process skip the map
  phase entirely.
* :class:`DiskAnalysisCache` — an optional on-disk store (one JSON file
  per digest, sharded by prefix, written through the same fsynced
  atomic writer as every other stored artifact).  Re-runs and
  experiment batteries across processes skip re-parsing unchanged
  pages.

Determinism: the cached form stores term lists in original document
order with exact integer counts, so a cache hit reproduces the same
``PageAnalysis`` — and therefore the same vectors — bit-for-bit.
"""

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from repro.core.form_page import RawFormPage
from repro.html.text_extract import TextLocation

#: Bump when the stored analysis layout changes.
_CACHE_FORMAT_VERSION = 1


def analyzer_fingerprint(analyzer) -> str:
    """A stable digest of the analyzer configuration.

    Analyses are only interchangeable between runs that tokenize, filter
    and stem identically; ablations (custom stopword sets, disabled
    stemming) must never share cache entries with default runs.
    """
    hasher = hashlib.sha256()
    hasher.update(type(analyzer).__name__.encode("utf-8"))
    hasher.update(b"\x1f")
    hasher.update(",".join(sorted(analyzer.stopwords)).encode("utf-8"))
    hasher.update(b"\x1f")
    stemmer = getattr(analyzer, "stemmer", None)
    hasher.update((type(stemmer).__name__ if stemmer else "none").encode("utf-8"))
    return hasher.hexdigest()[:16]


def page_analysis_key(raw: RawFormPage, analyzer_print: str) -> str:
    """Digest of everything a page analysis depends on.

    Backlinks are deliberately excluded — they never enter the text
    analysis (only the vector-building step consumes them).
    """
    hasher = hashlib.sha256()
    for part in (analyzer_print, raw.url, raw.html, "\x00".join(raw.anchor_texts)):
        # Malformed pages (e.g. html=None from a failed fetch) still get a
        # key; the analysis itself then fails with a typed IngestError.
        hasher.update(str(part).encode("utf-8", "replace"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


class AnalysisCache:
    """A bounded in-memory LRU of :class:`~repro.parallel.ingest.PageAnalysis`.

    Thread-safe: every operation holds an internal lock, because the
    server's worker pool runs ``transform_new`` outside the
    directory locks and concurrent ``/classify`` / ``/add`` requests hit
    this cache simultaneously.  The lock is a dict move plus a counter
    bump — negligible next to the parse it saves.  ``max_size=0``
    disables storage (every ``get`` misses), which keeps call sites
    branch-free.
    """

    def __init__(self, max_size: int = 4096) -> None:
        self.max_size = max(0, int(max_size))
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: str, analysis) -> None:
        if self.max_size == 0:
            return
        with self._lock:
            self._entries[key] = analysis
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class DiskAnalysisCache:
    """On-disk page-analysis store: ``<dir>/<k[:2]>/<key>.json``.

    Reads tolerate missing or corrupt entries (they count as misses and
    get rewritten); writes go through
    :func:`repro.datasets.store.atomic_write_json`, so a crashed run
    never leaves a torn entry behind.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str):
        # Imported here, not at module top: repro.datasets pulls the
        # pipeline back in, and this module sits below core in the
        # import graph.
        from repro.datasets.store import read_json

        path = self._path(key)
        try:
            payload = read_json(path)
        except (OSError, ValueError):
            self.misses += 1
            return None
        analysis = analysis_from_json(payload)
        if analysis is None:
            self.misses += 1
            return None
        self.hits += 1
        return analysis

    def put(self, key: str, analysis) -> None:
        from repro.datasets.store import atomic_write_json

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(analysis_to_json(analysis), path)


# ----------------------------------------------------------------------
# JSON round trip for PageAnalysis (imported lazily by the ingest module
# to avoid a cycle; the payload is exact — strings and ints only).
# ----------------------------------------------------------------------


def analysis_to_json(analysis) -> dict:
    return {
        "v": _CACHE_FORMAT_VERSION,
        "pc": [[term, loc.value] for term, loc in analysis.pc_terms],
        "fc": [[term, loc.value] for term, loc in analysis.fc_terms],
        "attrs": analysis.attribute_count,
        "on_page": analysis.on_page_terms,
    }


def analysis_from_json(payload):
    from repro.parallel.ingest import PageAnalysis

    if not isinstance(payload, dict) or payload.get("v") != _CACHE_FORMAT_VERSION:
        return None
    try:
        return PageAnalysis(
            pc_terms=[
                (str(term), TextLocation(loc)) for term, loc in payload["pc"]
            ],
            fc_terms=[
                (str(term), TextLocation(loc)) for term, loc in payload["fc"]
            ],
            attribute_count=int(payload["attrs"]),
            on_page_terms=int(payload["on_page"]),
        )
    except (KeyError, TypeError, ValueError):
        return None
