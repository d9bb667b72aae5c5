"""Directory snapshots — cold-starting the server without the pipeline.

A snapshot is everything a serving process needs to answer classify /
add / search requests exactly as the process that built the clustering
would:

* the fitted vectorizer state (per-space document frequencies, the LOC
  policy, the backlink cap) — what ``transform_new`` consumes;
* every managed page's vectors and assignment, grouped by cluster;
* each cluster's centroid and each page's cohesion contribution, as a
  load would otherwise recompute them (the centroid re-summed over the
  stored page order, zero for an empty cluster; the contribution
  scored against that centroid);
* the :class:`~repro.core.config.CAFCConfig` of the run;
* descriptive cluster labels for /clusters and /search responses.

Format version 3 is the only one written: a small JSON header plus
little-endian packed buffers over one term table (layout below).
Weights are stored as the float64 bits they are in memory, so a
load-from-snapshot organizer classifies **bit-identically** to the
organizer it was built from — pinned by
``tests/test_service_snapshot.py`` over the full benchmark corpus,
against the version-2 JSON writer kept as the oracle in
``tests/oracle.py``.  Versions 1 and 2 (one JSON document, centroids
recomputed on load) still load to the same directory.

Version-3 layout (gzipped as a whole when the path ends in ``.gz``)::

    magic       8 bytes   b"RPDSNAP\\x03"
    header_len  u32 LE    bytes of the JSON header, padded to 8
    crc32       u32 LE    of everything after these 16 bytes
    header      JSON      kind, version, config, vectorizer state,
                          meta, term table, labels, URLs, backlinks,
                          per-page counts, cluster sizes, nnz counts
    buffers     LE, in :func:`_layout` order, sized by the header counts

Page and centroid vectors are CSR: ``offsets`` (two rows per page or
cluster, PC then FC), ``terms`` (indices into the header's term table)
and ``weights``.  A load checks every declared size against the byte
count before it slices anything, and every offset, term index and
weight before it builds a vector.  Artifacts go through the same
fsynced atomic writer as every other stored artifact
(:func:`repro.datasets.store.atomic_write_bytes`).
"""

import gzip
import json
import struct
import sys
import time
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage, VectorPair, centroid_of
from repro.core.incremental import IncrementalOrganizer, cohesion_contributions
from repro.core.result import CAFCResult, _label_terms
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer
from repro.datasets.store import DatasetFormatError, atomic_write_bytes
from repro.resilience.faults import inject
from repro.vsm.interning import VOCABULARY
from repro.vsm.schemes import UnknownSchemeError, scheme_from_dict
from repro.vsm.vector import SparseVector

#: The format this build writes.  It reads this one and the two JSON
#: formats before it: version 1 (pre-scheme-seam, Equation-1 state
#: only) and version 2 (any weighting scheme).
SNAPSHOT_FORMAT_VERSION = 3

_KIND = "repro-directory-snapshot"

_MAGIC = b"RPDSNAP\x03"
#: magic, header length, crc32 of the rest of the file.
_PREFIX = struct.Struct("<8sII")
_GZIP_MAGIC = b"\x1f\x8b"
#: gzip level for ``.gz`` snapshots: level 9 costs about twice the CPU
#: for under 2% fewer bytes on the packed buffers.
_GZIP_LEVEL = 6

#: A gzipped snapshot may inflate to at most this many times its own
#: size, or to ``_INFLATE_FLOOR`` bytes if that is more.  Real
#: snapshots inflate about 3x (version 3) to 10x (versions 1/2); a
#: compression bomb inflates up to about 1000x.
_INFLATE_RATIO = 64
_INFLATE_FLOOR = 16 << 20

#: Term indices take two bytes while the table has at most this many
#: terms, else four.
_SHORT_TERM_TABLE = 1 << 16


def _layout(
    n_pages: int, n_clusters: int, page_nnz: int, centroid_nnz: int, n_terms: int
) -> List[Tuple[str, np.dtype, int]]:
    """The packed buffers in file order: name, little-endian dtype and
    item count, all derived from header counts.  Wider items come
    first, so every buffer starts aligned to its item size."""
    term_dtype = "<u2" if n_terms <= _SHORT_TERM_TABLE else "<u4"
    return [
        (name, np.dtype(dtype), count)
        for name, dtype, count in (
            ("contributions", "<f8", n_pages),
            ("page_offsets", "<i8", 2 * n_pages + 1),
            ("page_weights", "<f8", page_nnz),
            ("centroid_offsets", "<i8", 2 * n_clusters + 1),
            ("centroid_weights", "<f8", centroid_nnz),
            ("page_terms", term_dtype, page_nnz),
            ("centroid_terms", term_dtype, centroid_nnz),
        )
    ]


_NATIVE_IS_LITTLE = sys.byteorder == "little"


def _scheme_name(vectorizer_state: dict) -> str:
    scheme = vectorizer_state.get("scheme")
    if isinstance(scheme, dict):
        return str(scheme.get("name", "eq1"))
    return "eq1"


def _check_scheme(vectorizer_state: dict, version, path) -> None:
    """Refuse state this build cannot weight as it was built."""
    scheme_name = _scheme_name(vectorizer_state)
    if version == 1 and scheme_name != "eq1":
        # A version-1 reader would silently treat this state as
        # Equation 1; refuse the mislabelled payload outright.
        raise DatasetFormatError(
            path, f"1 (scheme={scheme_name})", SNAPSHOT_FORMAT_VERSION
        )
    try:
        scheme_from_dict(vectorizer_state.get("scheme", {"name": "eq1"}))
    except UnknownSchemeError as exc:
        raise DatasetFormatError(
            path, f"{version} (scheme={exc.name!r})",
            SNAPSHOT_FORMAT_VERSION,
        ) from exc


def _config_from(state, path) -> CAFCConfig:
    """The run config stored in a snapshot, refused with ValueError when
    it is not a config object."""
    if not isinstance(state, dict):
        raise ValueError(f"{path}: 'config' must be an object")
    try:
        return CAFCConfig.from_dict(dict(state))
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed 'config': {exc}") from exc


def _page_to_json(page: FormPage) -> dict:
    return {
        "url": page.url,
        "label": page.label,
        "pc": dict(page.pc.items()),
        "fc": dict(page.fc.items()),
        "backlinks": sorted(page.backlinks),
        "form_term_count": page.form_term_count,
        "page_term_count": page.page_term_count,
        "attribute_count": page.attribute_count,
    }


def _page_from_json(data: dict) -> FormPage:
    return FormPage(
        url=data["url"],
        pc=SparseVector(data.get("pc", {})),
        fc=SparseVector(data.get("fc", {})),
        backlinks=frozenset(data.get("backlinks", ())),
        label=data.get("label"),
        form_term_count=data.get("form_term_count", 0),
        page_term_count=data.get("page_term_count", 0),
        attribute_count=data.get("attribute_count", 0),
    )


@dataclass
class Snapshot:
    """A serialized-ready directory: clusters of vectorized pages plus
    the fitted vectorizer state and run config."""

    clusters: List[List[FormPage]]
    vectorizer_state: dict
    config: CAFCConfig
    top_terms: List[List[str]] = field(default_factory=list)
    algorithm: str = "?"
    created_unix: float = 0.0
    #: Free-form carrier for deployment context the core directory does
    #: not interpret — the distrib layer stores the shard's placement
    #: and the journal position the snapshot folds through, so a replica
    #: bootstrapping from ``/replication/snapshot`` knows where to start
    #: tailing (docs/SHARDING.md).
    meta: Dict[str, object] = field(default_factory=dict)
    #: Each cluster's centroid as a load restores it: ``centroid_of``
    #: over the stored page order, zero for an empty cluster.  Filled by
    #: a version-3 load or by the builders; :meth:`settle` computes it
    #: otherwise.
    centroids: Optional[List[VectorPair]] = None
    #: Each page's cohesion contribution against those centroids, in
    #: cluster/page order (filled like :attr:`centroids`).
    contributions: Optional[List[float]] = None

    @property
    def n_pages(self) -> int:
        return sum(len(members) for members in self.clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    # ----------------------------------------------------------------
    # Materialization.
    # ----------------------------------------------------------------

    def vectorizer(self) -> FormPageVectorizer:
        """A fitted vectorizer reproducing the builder's ``transform_new``."""
        return FormPageVectorizer.from_state(self.vectorizer_state)

    def settle(self) -> Tuple[List[VectorPair], List[float]]:
        """The centroids and cohesion contributions a load restores,
        computed once if this snapshot does not carry them yet.

        Centroids are re-summed over the stored page order — the
        float-addition order the builder used — and the contributions
        are scored against them by a similarity of this snapshot's own,
        so no organizer's comparison count moves."""
        if self.centroids is None:
            self.centroids = [centroid_of(members) for members in self.clusters]
        if self.contributions is None:
            self.contributions = cohesion_contributions(
                self.clusters,
                self.centroids,
                FormPageSimilarity.from_config(self.config),
            )
        return self.centroids, self.contributions

    def to_organizer(
        self, drift_threshold: float = 0.7
    ) -> IncrementalOrganizer:
        """An :class:`IncrementalOrganizer` serving this snapshot, with
        the :meth:`settle` centroids and contributions restored as given,
        so every subsequent classification, the cohesion and the drift
        baseline match the builder's bit-for-bit."""
        centroids, contributions = self.settle()
        return IncrementalOrganizer(
            [list(members) for members in self.clusters],
            self.vectorizer(),
            config=self.config,
            drift_threshold=drift_threshold,
            centroids=list(centroids),
            contributions=contributions,
        )

    # ----------------------------------------------------------------
    # Checkpointing.
    # ----------------------------------------------------------------

    @classmethod
    def from_organizer(
        cls,
        organizer: IncrementalOrganizer,
        algorithm: str = "incremental",
        meta: Optional[Dict[str, object]] = None,
    ) -> "Snapshot":
        """Snapshot a *live* organizer — the checkpoint the directory
        writes before truncating its journal.

        Pages are stored in each cluster's live order, and the live
        centroid of a non-empty cluster is always a full re-sum over
        that order (``rebuild_centroid``), so it is stored as is.  The
        one exception is a cluster emptied by ``recluster`` (it keeps
        its final k-means centroid under the keep-previous convention);
        such a centroid is stored as zero, as a page-only snapshot
        always restored it, and the cluster re-earns pages from there.
        Contributions are scored afresh against the stored centroids
        when the snapshot is written or loaded.
        """
        empty = centroid_of([])
        return cls(
            clusters=[list(cluster.pages) for cluster in organizer.clusters],
            vectorizer_state=organizer.vectorizer.export_state(),
            config=organizer.config,
            top_terms=[
                _label_terms(cluster.centroid)
                for cluster in organizer.clusters
            ],
            algorithm=algorithm,
            created_unix=time.time(),
            meta=dict(meta) if meta else {},
            centroids=[
                cluster.centroid if cluster.pages else empty
                for cluster in organizer.clusters
            ],
        )

    # ----------------------------------------------------------------
    # Persistence.
    # ----------------------------------------------------------------

    def to_bytes(self, compress: bool = True) -> bytes:
        """The version-3 bytes :meth:`save` writes (gzipped unless
        ``compress`` is false) — also what the shard's
        ``/replication/snapshot`` endpoint ships, so replicas bootstrap
        from the exact bytes a file-based cold start would read."""
        if not self.clusters:
            raise ValueError("a snapshot needs at least one cluster")
        centroids, contributions = self.settle()
        pages = [page for members in self.clusters for page in members]
        if len(contributions) != len(pages) or len(centroids) != len(
            self.clusters
        ):
            raise ValueError("snapshot centroids/contributions do not fit")
        vectors = [vector for page in pages for vector in (page.pc, page.fc)]
        vectors += [vector for pair in centroids for vector in (pair.pc, pair.fc)]
        id_arrays = [vector.id_arrays() for vector in vectors]
        lengths = np.array([len(ids) for ids, _ in id_arrays], dtype=np.int64)
        offsets = np.zeros(len(vectors) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        vocab_ids = np.concatenate(
            [np.frombuffer(ids, dtype=np.int64) for ids, _ in id_arrays]
        )
        weights = np.concatenate(
            [np.frombuffer(vals, dtype=np.float64) for _, vals in id_arrays]
        )
        # One term table over every vector, in first-seen order.
        unique, first, inverse = np.unique(
            vocab_ids, return_index=True, return_inverse=True
        )
        by_first_seen = np.argsort(first, kind="stable")
        rank = np.empty(len(unique), dtype=np.int64)
        rank[by_first_seen] = np.arange(len(unique))
        local = rank[inverse.reshape(-1)]
        term_of = VOCABULARY.term
        terms = [term_of(tid) for tid in unique[by_first_seen].tolist()]

        n_page_rows = 2 * len(pages)
        split = int(offsets[n_page_rows])
        header = {
            "kind": _KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "created_unix": self.created_unix or time.time(),
            "algorithm": self.algorithm,
            "config": self.config.to_dict(),
            "vectorizer": self.vectorizer_state,
            "meta": dict(self.meta),
            "cluster_sizes": [len(members) for members in self.clusters],
            "top_terms": [list(labels) for labels in self._padded_terms()],
            "urls": [page.url for page in pages],
            "labels": [page.label for page in pages],
            "backlinks": [sorted(page.backlinks) for page in pages],
            "form_term_counts": [page.form_term_count for page in pages],
            "page_term_counts": [page.page_term_count for page in pages],
            "attribute_counts": [page.attribute_count for page in pages],
            "page_nnz": split,
            "centroid_nnz": len(vocab_ids) - split,
            "terms": terms,
        }
        encoded = json.dumps(header, separators=(",", ":")).encode("utf-8")
        encoded += b" " * (-len(encoded) % 8)
        buffers = {
            "contributions": np.array(contributions, dtype=np.float64),
            "page_offsets": offsets[: n_page_rows + 1],
            "page_weights": weights[:split],
            "centroid_offsets": offsets[n_page_rows:] - split,
            "centroid_weights": weights[split:],
            "page_terms": local[:split],
            "centroid_terms": local[split:],
        }
        layout = _layout(
            len(pages), len(self.clusters), split, len(vocab_ids) - split,
            len(terms),
        )
        body = encoded + b"".join(
            buffers[name].astype(dtype, copy=False).tobytes()
            for name, dtype, _ in layout
        )
        data = _PREFIX.pack(_MAGIC, len(encoded), zlib.crc32(body)) + body
        if compress:
            data = gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)
        return data

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot (gzipped when ``path`` ends in ``.gz``).

        The write is an injection seam (``"snapshot.save"``): an armed
        chaos plan may fail it *before* any bytes are written, and the
        atomic writer guarantees a failure mid-write leaves the previous
        snapshot intact either way.
        """
        inject("snapshot.save")
        path = Path(path)
        atomic_write_bytes(
            self.to_bytes(compress=path.name.endswith(".gz")), path
        )

    def _padded_terms(self) -> List[List[str]]:
        terms = list(self.top_terms)
        while len(terms) < len(self.clusters):
            terms.append([])
        return terms

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        """Load a snapshot written by :meth:`save` (any supported
        version, gzipped or not — detected from the bytes, not the name).

        Raises :class:`~repro.datasets.store.DatasetFormatError` on an
        unknown format version and ValueError on structural problems.
        ``"snapshot.load"`` is an injection seam.
        """
        inject("snapshot.load")
        with open(path, "rb") as handle:
            data = handle.read()
        return cls.from_bytes(data, source=path)

    @classmethod
    def from_bytes(
        cls, data: bytes, source: Union[str, Path] = "<bytes>"
    ) -> "Snapshot":
        """Validate and materialize snapshot bytes (file contents or a
        ``/replication/snapshot`` response body).  ``source`` names the
        origin in error messages."""
        if data[:2] == _GZIP_MAGIC:
            data = _gunzip(data, source)
        if data[: len(_MAGIC)] == _MAGIC:
            return _decode_packed(cls, data, source)
        return cls.from_payload(json.loads(data), source=source)

    @classmethod
    def from_payload(
        cls, payload: object, source: Union[str, Path] = "<payload>"
    ) -> "Snapshot":
        """Validate and materialize a version-1 or version-2 JSON
        payload (the formats written before version 3).  ``source``
        names the origin in error messages."""
        path = source
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a JSON object at top level")
        if payload.get("kind") != _KIND:
            raise ValueError(
                f"{path}: not a directory snapshot "
                f"(kind={payload.get('kind')!r})"
            )
        version = payload.get("format_version")
        if version == SNAPSHOT_FORMAT_VERSION:
            raise ValueError(
                f"{path}: a version-{version} snapshot is packed, "
                "not a JSON document"
            )
        if version not in (1, 2):
            raise DatasetFormatError(path, version, SNAPSHOT_FORMAT_VERSION)
        vectorizer_state = dict(payload.get("vectorizer", {}))
        _check_scheme(vectorizer_state, version, path)
        clusters_field = payload.get("clusters")
        if not isinstance(clusters_field, list) or not clusters_field:
            raise ValueError(f"{path}: 'clusters' must be a non-empty list")
        clusters: List[List[FormPage]] = []
        top_terms: List[List[str]] = []
        for index, entry in enumerate(clusters_field):
            try:
                clusters.append(
                    [_page_from_json(p) for p in entry.get("pages", [])]
                )
                top_terms.append(list(entry.get("top_terms", [])))
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    f"{path}: malformed cluster entry {index}: {exc}"
                ) from exc
        meta = payload.get("meta", {})
        return cls(
            clusters=clusters,
            vectorizer_state=vectorizer_state,
            config=_config_from(payload.get("config", {}), path),
            top_terms=top_terms,
            algorithm=str(payload.get("algorithm", "?")),
            created_unix=float(payload.get("created_unix", 0.0)),
            meta=dict(meta) if isinstance(meta, dict) else {},
        )


# --------------------------------------------------------------------
# Version 3: header checks and buffer decoding.
# --------------------------------------------------------------------


def _inflate_limit(compressed_size: int) -> int:
    return max(_INFLATE_FLOOR, _INFLATE_RATIO * compressed_size)


def _gunzip(data: bytes, source) -> bytes:
    """Inflate one gzip member, refusing (ValueError) a corrupt or
    truncated stream and one that would inflate past
    :func:`_inflate_limit` — before that much is allocated."""
    limit = _inflate_limit(len(data))
    inflater = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        inflated = inflater.decompress(data, limit)
    except zlib.error as exc:
        raise ValueError(f"{source}: corrupt gzip stream: {exc}") from exc
    if inflater.unconsumed_tail:
        raise ValueError(
            f"{source}: gzip stream inflates past {limit} bytes "
            f"({len(data)} compressed)"
        )
    if not inflater.eof or inflater.unused_data:
        raise ValueError(f"{source}: corrupt gzip stream: truncated or trailing bytes")
    return inflated


def _parse_header(header_bytes: bytes, path) -> dict:
    """Parse a version-3 header and check its kind, version and scheme."""
    try:
        header = json.loads(header_bytes)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: unreadable snapshot header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: snapshot header is not a JSON object")
    if header.get("kind") != _KIND:
        raise ValueError(
            f"{path}: not a directory snapshot (kind={header.get('kind')!r})"
        )
    version = header.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise DatasetFormatError(path, version, SNAPSHOT_FORMAT_VERSION)
    vectorizer_state = header.get("vectorizer")
    if not isinstance(vectorizer_state, dict):
        raise ValueError(f"{path}: 'vectorizer' must be an object")
    _check_scheme(vectorizer_state, version, path)
    return header


def _field(header: dict, name: str, kind, count: Optional[int], path) -> list:
    """``header[name]`` as a list of ``count`` items of type ``kind``."""
    value = header.get(name)
    if not isinstance(value, list) or (count is not None and len(value) != count):
        raise ValueError(
            f"{path}: '{name}' must be a list of {count} items"
            if count is not None else f"{path}: '{name}' must be a list"
        )
    if not all(kind(item) for item in value):
        raise ValueError(f"{path}: malformed item in '{name}'")
    return value


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_str(value) -> bool:
    return type(value) is str


def _is_str_list(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _check_rows(offsets, terms, weights, n_terms: int, what: str, path) -> None:
    """CSR sanity: monotone offsets spanning the entries, term indices
    in the table and distinct within a row, finite positive weights."""
    nnz = len(terms)
    if offsets[0] != 0 or offsets[-1] != nnz or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"{path}: {what} offsets are not monotone over {nnz}")
    if not nnz:
        return
    if int(terms.max()) >= n_terms:
        raise ValueError(f"{path}: {what} term index outside the term table")
    if not np.all((weights > 0.0) & (weights < np.inf)):
        raise ValueError(f"{path}: {what} weight not finite and positive")
    row_of = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
    keys = np.sort(row_of * n_terms + terms)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError(f"{path}: {what} row repeats a term")


def _rows(offsets, terms, weights, remap) -> List[SparseVector]:
    """CSR buffers (already checked) as vectors over VOCABULARY ids."""
    ids = array("q", remap[terms].tobytes())
    vals = array("d", weights.tobytes())
    if not _NATIVE_IS_LITTLE:
        vals.byteswap()
    bounds = offsets.tolist()
    return [
        SparseVector.from_arrays(ids[start:end], vals[start:end])
        for start, end in zip(bounds, bounds[1:])
    ]


def _decode_packed(cls, data: bytes, path) -> Snapshot:
    size = len(data) - _PREFIX.size
    if size < 0:
        raise ValueError(f"{path}: truncated snapshot ({len(data)} bytes)")
    _, header_len, crc = _PREFIX.unpack_from(data)
    if header_len > size:
        raise ValueError(
            f"{path}: header of {header_len} bytes declared, {size} present"
        )
    view = memoryview(data)
    if zlib.crc32(view[_PREFIX.size:]) != crc:
        raise ValueError(f"{path}: snapshot checksum mismatch")
    body = _PREFIX.size + header_len
    header = _parse_header(bytes(view[_PREFIX.size: body]), path)

    sizes = _field(header, "cluster_sizes", _is_count, None, path)
    if not sizes:
        raise ValueError(f"{path}: 'clusters' must be a non-empty list")
    n_pages, n_clusters = sum(sizes), len(sizes)
    terms = _field(header, "terms", _is_str, None, path)
    if len(set(terms)) != len(terms):
        raise ValueError(f"{path}: term table repeats a term")
    urls = _field(header, "urls", _is_str, n_pages, path)
    labels = _field(
        header, "labels", lambda v: v is None or type(v) is str, n_pages, path
    )
    backlinks = _field(header, "backlinks", _is_str_list, n_pages, path)
    form_terms = _field(header, "form_term_counts", _is_count, n_pages, path)
    page_terms = _field(header, "page_term_counts", _is_count, n_pages, path)
    attributes = _field(header, "attribute_counts", _is_count, n_pages, path)
    top_terms = _field(header, "top_terms", _is_str_list, n_clusters, path)
    page_nnz, centroid_nnz = header.get("page_nnz"), header.get("centroid_nnz")
    if not (_is_count(page_nnz) and _is_count(centroid_nnz)):
        raise ValueError(f"{path}: 'page_nnz'/'centroid_nnz' must be counts")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: 'meta' must be an object")
    config = _config_from(header.get("config", {}), path)

    # Every declared count against the byte count, before any slicing.
    n_terms = len(terms)
    plan = _layout(n_pages, n_clusters, page_nnz, centroid_nnz, n_terms)
    needed = sum(dtype.itemsize * count for _, dtype, count in plan)
    if needed != len(data) - body:
        raise ValueError(
            f"{path}: buffers need {needed} bytes, {len(data) - body} present"
        )
    buffers = {}
    position = body
    for name, dtype, count in plan:
        buffers[name] = np.frombuffer(data, dtype=dtype, count=count, offset=position)
        position += dtype.itemsize * count

    contributions = buffers["contributions"]
    if not np.all(np.isfinite(contributions)):
        raise ValueError(f"{path}: cohesion contribution not finite")
    for what in ("page", "centroid"):
        _check_rows(
            buffers[f"{what}_offsets"], buffers[f"{what}_terms"],
            buffers[f"{what}_weights"], n_terms, what, path,
        )

    remap = np.fromiter(
        map(VOCABULARY.intern, terms), dtype=np.int64, count=n_terms
    )
    page_vectors = _rows(
        buffers["page_offsets"], buffers["page_terms"],
        buffers["page_weights"], remap,
    )
    centroid_vectors = _rows(
        buffers["centroid_offsets"], buffers["centroid_terms"],
        buffers["centroid_weights"], remap,
    )
    pages = [
        FormPage(
            url=urls[i],
            pc=page_vectors[2 * i],
            fc=page_vectors[2 * i + 1],
            backlinks=frozenset(backlinks[i]),
            label=labels[i],
            form_term_count=form_terms[i],
            page_term_count=page_terms[i],
            attribute_count=attributes[i],
        )
        for i in range(n_pages)
    ]
    clusters: List[List[FormPage]] = []
    start = 0
    for count in sizes:
        clusters.append(pages[start: start + count])
        start += count
    return cls(
        clusters=clusters,
        vectorizer_state=dict(header["vectorizer"]),
        config=config,
        top_terms=[list(labels) for labels in top_terms],
        algorithm=str(header.get("algorithm", "?")),
        created_unix=float(header.get("created_unix", 0.0)),
        meta=dict(meta),
        centroids=[
            VectorPair(pc=centroid_vectors[2 * j], fc=centroid_vectors[2 * j + 1])
            for j in range(n_clusters)
        ],
        contributions=contributions.tolist(),
    )


def build_snapshot(
    result: CAFCResult,
    vectorizer: FormPageVectorizer,
    config: Optional[CAFCConfig] = None,
) -> Snapshot:
    """Snapshot an organized directory (a pipeline result + its fitted
    vectorizer).  Each result cluster's centroid is ``centroid_of`` its
    pages in their order (the pipeline and ``load_result`` build them
    so), which is what a load restores, so it is stored as is."""
    return Snapshot(
        clusters=[list(cluster.pages) for cluster in result.clusters],
        vectorizer_state=vectorizer.export_state(),
        config=config or CAFCConfig(),
        top_terms=[list(cluster.top_terms) for cluster in result.clusters],
        algorithm=result.algorithm,
        created_unix=time.time(),
        centroids=[cluster.centroid for cluster in result.clusters],
    )


def save_snapshot(snapshot: Snapshot, path: Union[str, Path]) -> None:
    """Module-level alias for :meth:`Snapshot.save`."""
    snapshot.save(path)


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Module-level alias for :meth:`Snapshot.load`."""
    return Snapshot.load(path)


def snapshot_info(path: Union[str, Path]) -> Dict[str, object]:
    """Cheap summary of a stored snapshot (for ``repro snapshot inspect``).

    A version-3 file is read only up to the end of its header (through
    gzip, only as far as that); its buffers are neither read nor
    checked.  Version-1/2 files are one JSON document and read whole.
    """
    with open(path, "rb") as raw:
        gzipped = raw.read(2) == _GZIP_MAGIC
        size = raw.seek(0, 2)
    # Reads stop at the bytes a whole load would accept.
    limit = _inflate_limit(size) if gzipped else size
    opener = gzip.open if gzipped else open
    with opener(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
        if prefix[: len(_MAGIC)] == _MAGIC and len(prefix) == _PREFIX.size:
            header_len = _PREFIX.unpack(prefix)[1]
            header_bytes = handle.read(min(header_len, limit))
            if len(header_bytes) != header_len:
                raise ValueError(
                    f"{path}: header of {header_len} bytes declared, "
                    f"{len(header_bytes)} present"
                )
            header = _parse_header(header_bytes, path)
            sizes = header.get("cluster_sizes", [])
            top_terms = header.get("top_terms", [])
        else:
            document = prefix + handle.read(limit + 1 - len(prefix))
            if len(document) > limit:
                raise ValueError(f"{path}: gzip stream inflates past {limit} bytes")
            header = json.loads(document)
            if not isinstance(header, dict):
                raise ValueError(f"{path}: expected a JSON object at top level")
            clusters = header.get("clusters", [])
            sizes = [len(entry.get("pages", [])) for entry in clusters]
            top_terms = [entry.get("top_terms", []) for entry in clusters]
    vectorizer = header.get("vectorizer", {})
    if not isinstance(vectorizer, dict):
        vectorizer = {}
    return {
        "kind": header.get("kind"),
        "format_version": header.get("format_version"),
        "created_unix": header.get("created_unix"),
        "algorithm": header.get("algorithm"),
        "scheme": _scheme_name(vectorizer),
        "n_clusters": len(sizes),
        "n_pages": sum(sizes),
        "cluster_sizes": sizes,
        "top_terms": [list(terms)[:4] for terms in top_terms],
        "pc_vocabulary": len(
            vectorizer.get("pc_corpus", {}).get("document_frequency", {})
        ),
        "fc_vocabulary": len(
            vectorizer.get("fc_corpus", {}).get("document_frequency", {})
        ),
    }
