"""Spans around calls into the program's layers, kept in memory.

:func:`install` wraps the public functions named in :data:`TARGETS`
from the benchmark's own code; the program itself is not edited.  A
span is ``(id, parent, name, start, end, request id)``.  Spans nest per
thread: a wrapped call made while another wrapped call runs on the
same thread becomes its child and inherits its request id.  The server
entry points read the request id from the ``rid`` query parameter the
load generator appends to every target.

Span names ending in ``_s`` are per-layer metrics; the others
(``core.pipeline.organize``, ``service.directory.search`` ...) only
give the tree its structure, and their self time is what the run
reports as unattributed.
"""

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

#: (module, attribute, span name, index of the request-target argument)
TARGETS = (
    ("repro.parallel.ingest", "analyze_pages", "parallel.map_s", None),
    ("repro.html.parser", "parse_html", "html.parse_s", None),
    ("repro.html.text_extract", "extract_located_text", "html.extract_s", None),
    ("repro.html.forms", "extract_forms", "html.extract_s", None),
    ("repro.text.analyzer", "TextAnalyzer.analyze", "text.analyze_s", None),
    ("repro.core.vectorizer", "FormPageVectorizer.fit_transform", "vsm.weight_s", None),
    ("repro.core.vectorizer", "FormPageVectorizer.transform_new",
     "core.vectorizer.transform_s", None),
    ("repro.core.hubs", "build_hub_clusters", "core.cafc_ch.hub_seed_s", None),
    ("repro.core.seeds", "select_hub_clusters", "core.cafc_ch.hub_seed_s", None),
    ("repro.core.simengine", "SimilarityEngine.kmeans", "clustering.kmeans_s", None),
    ("repro.clustering.kmeans", "kmeans", "clustering.kmeans_s", None),
    ("repro.core.pipeline", "CAFCPipeline.organize", "core.pipeline.organize", None),
    ("repro.core.pipeline", "CAFCPipeline.classify", "core.pipeline.classify", None),
    ("repro.service.snapshot", "Snapshot.save", "service.snapshot.save_s", None),
    ("repro.service.snapshot", "Snapshot.load", "service.snapshot.load_s", None),
    ("repro.service.aio", "AsyncHTTPServer.dispatch", "service.aio.dispatch", 2),
    ("repro.service.app", "BaseApp.handle", "service.app.handle_self_s", 2),
    ("repro.service.app", "json_bytes", "service.app.json_encode_s", None),
    ("repro.service.directory", "RWLock.acquire_read",
     "service.directory.lock_wait_s", None),
    ("repro.service.directory", "RWLock.acquire_write",
     "service.directory.lock_wait_s", None),
    ("repro.service.directory", "FormDirectory.classify",
     "service.directory.batch_wait_s", None),
    ("repro.service.directory", "FormDirectory.search",
     "service.directory.search", None),
    ("repro.service.directory", "FormDirectory.search_pages",
     "service.directory.search_pages", None),
    ("repro.index.directory_index", "DirectoryIndex.top_clusters",
     "index.top_clusters_s", None),
    ("repro.index.directory_index", "DirectoryIndex.top_pages",
     "index.top_pages_s", None),
    ("repro.core.incremental", "IncrementalOrganizer.classify_batch",
     "core.incremental.classify_batch_s", None),
)


def request_id(target):
    """The ``rid`` the load generator put last in a request target."""
    if isinstance(target, str):
        at = target.rfind("rid=")
        if at >= 0:
            try:
                return int(target[at + 4:])
            except ValueError:
                return None
    return None


class Recorder:
    """Spans in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # id(analyzer) -> (analyzer, memo size when first seen)
        self._analyzers = {}
        self.stem_lookups = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, rid_arg=None):
        recorder = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(recorder._ids)
                rid = request_id(args[rid_arg]) if rid_arg is not None else None
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    recorder.spans.append(
                        (sid, None, name, start, time.perf_counter(), rid)
                    )
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent, parent_rid = stack[-1] if stack else (None, None)
            sid = next(recorder._ids)
            rid = request_id(args[rid_arg]) if rid_arg is not None else parent_rid
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, parent, name, start, end, rid))
        return wrapper

    def count_stems(self, fn):
        """Count stem lookups through ``TextAnalyzer.analyze`` (one per
        kept token); memo misses are the growth of the analyzer's memo."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(analyzer, text):
            with recorder._lock:
                if id(analyzer) not in recorder._analyzers:
                    recorder._analyzers[id(analyzer)] = (
                        analyzer, len(getattr(analyzer, "_cache", ()))
                    )
            terms = fn(analyzer, text)
            with recorder._lock:
                recorder.stem_lookups += len(terms)
            return terms
        return wrapper

    def dump(self, path) -> None:
        misses = sum(
            len(getattr(analyzer, "_cache", ())) - first
            for analyzer, first in self._analyzers.values()
        )
        with open(path, "w") as handle:
            json.dump({
                "spans": self.spans,
                "stem_lookups": self.stem_lookups,
                "stem_misses": misses,
            }, handle)


def _replace_everywhere(original, wrapped) -> None:
    """Point every ``repro`` module attribute bound to ``original`` (its
    home module and every ``from x import f``) at ``wrapped``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every target; import the program's modules first so that
    names imported from one module into another are all rebound."""
    for module_name in ("repro.cli", "repro.service", "repro.core",
                        "repro.core.cafc_ch"):
        importlib.import_module(module_name)
    for module_name, attr, name, rid_arg in TARGETS:
        module = importlib.import_module(module_name)
        owner, _, method = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                setattr(cls, method, classmethod(
                    recorder.wrap(original.__func__, name, rid_arg)
                ))
                continue
            fn = original
            if attr == "TextAnalyzer.analyze":
                fn = recorder.count_stems(fn)
            setattr(cls, method, recorder.wrap(fn, name, rid_arg))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, recorder.wrap(original, name, rid_arg))
