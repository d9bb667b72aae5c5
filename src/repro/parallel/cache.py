"""The content-hash keyed in-memory cache of per-page analyses.

A page analysis (parse + tokenize + stem) is a pure function of the
page's URL, HTML and anchor texts under a given analyzer, so it can be
memoized by a stable digest of exactly those inputs.
:class:`AnalysisCache` is a bounded in-memory LRU owned by the
vectorizer, and only that vectorizer's analyzer ever fills it, so the
analyzer does not enter the key.  It makes ``transform_new`` reuse the
analysis computed during ``fit_transform`` (the service ``/classify``
retry path), and lets repeated ``fit_transform`` calls in one process
skip the map phase entirely.  A hit is the very ``PageAnalysis`` object
that was stored, so it reproduces the same vectors bit-for-bit.
"""

import hashlib
import threading
from collections import OrderedDict

from repro.core.form_page import RawFormPage

#: Entries an :class:`AnalysisCache` keeps by default — room for the
#: 454-page benchmark corpus several times over.
DEFAULT_CACHE_SIZE = 4096


def page_analysis_key(raw: RawFormPage) -> str:
    """Digest of everything a page analysis depends on.

    Backlinks are deliberately excluded — they never enter the text
    analysis (only the vector-building step consumes them).
    """
    hasher = hashlib.sha256()
    for part in (raw.url, raw.html, "\x00".join(raw.anchor_texts)):
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
    this cache simultaneously.  The lock guards a dict lookup and move —
    negligible next to the parse it saves.
    """

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.max_size = max(0, int(max_size))
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: str, analysis) -> None:
        with self._lock:
            self._entries[key] = analysis
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
