"""Directory snapshots — cold-starting the server without the pipeline.

A snapshot is everything a serving process needs to answer classify /
add / search requests exactly as the process that built the clustering
would:

* the fitted vectorizer state (per-space document frequencies, the LOC
  policy, the backlink cap) — what ``transform_new`` consumes;
* every managed page's vectors and assignment, grouped by cluster (the
  centroids are recomputed from these on load, reproducing the exact
  float-addition order of the builder);
* the :class:`~repro.core.config.CAFCConfig` of the run;
* descriptive cluster labels for /clusters and /search responses.

Counts are integers and weights plain floats, and ``json`` round-trips
Python floats exactly (repr-based), so a load-from-snapshot organizer
classifies **bit-identically** to the organizer it was built from —
pinned by ``tests/test_service_snapshot.py`` over the full benchmark
corpus.

Artifacts are versioned JSON, gzipped when the path ends in ``.gz``,
written via the same fsynced atomic writer as every other stored
artifact (:func:`repro.datasets.store.atomic_write_json`).
"""

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage
from repro.core.incremental import IncrementalOrganizer
from repro.core.result import CAFCResult, _label_terms
from repro.core.vectorizer import FormPageVectorizer
from repro.datasets.store import DatasetFormatError, atomic_write_json, read_json
from repro.resilience.faults import inject
from repro.vsm.schemes import UnknownSchemeError, scheme_from_dict
from repro.vsm.vector import SparseVector

#: The newest format this build writes and reads.  Version 1 is the
#: pre-scheme-seam format, which is (and can only be) Equation-1 state;
#: Equation-1 snapshots are still written as version 1 so older tooling
#: keeps reading them.  Non-default weighting schemes bump the payload
#: to version 2, so a version-1-only reader refuses them with a
#: :class:`~repro.datasets.store.DatasetFormatError` instead of
#: silently re-weighting with Equation 1.
SNAPSHOT_FORMAT_VERSION = 2

_SUPPORTED_FORMAT_VERSIONS = (1, 2)

_KIND = "repro-directory-snapshot"


def _scheme_name(vectorizer_state: dict) -> str:
    scheme = vectorizer_state.get("scheme")
    if isinstance(scheme, dict):
        return str(scheme.get("name", "eq1"))
    return "eq1"


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

    def to_organizer(
        self, drift_threshold: float = 0.7
    ) -> IncrementalOrganizer:
        """An :class:`IncrementalOrganizer` serving this snapshot.

        Centroids are rebuilt from the stored page vectors in stored
        order — the same float-addition order the builder used — so
        every subsequent classification matches the builder's
        bit-for-bit.
        """
        return IncrementalOrganizer(
            [list(members) for members in self.clusters],
            self.vectorizer(),
            config=self.config,
            drift_threshold=drift_threshold,
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

        Pages are stored in each cluster's live order, and organizer
        centroids are always full re-sums over that order
        (``rebuild_centroid``), so :meth:`to_organizer` reproduces them
        bit-identically.  The one exception is a cluster emptied by
        ``recluster`` (it keeps its final k-means centroid under the
        keep-previous convention, which a page-only snapshot cannot
        carry); such a centroid reverts to zero on load and the cluster
        re-earns pages from there.
        """
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
        )

    # ----------------------------------------------------------------
    # Persistence.
    # ----------------------------------------------------------------

    def to_payload(self) -> dict:
        """The versioned JSON payload :meth:`save` writes — also what
        the shard's ``/replication/snapshot`` endpoint ships over the
        wire, so replicas bootstrap from the exact bytes a file-based
        cold start would read."""
        # Equation-1 state keeps the pre-seam version so older readers
        # stay compatible; any other scheme gates on version 2.
        version = 1 if _scheme_name(self.vectorizer_state) == "eq1" else 2
        payload = {
            "format_version": version,
            "kind": _KIND,
            "created_unix": self.created_unix or time.time(),
            "algorithm": self.algorithm,
            "config": self.config.to_dict(),
            "vectorizer": self.vectorizer_state,
            "clusters": [
                {
                    "top_terms": list(terms),
                    "pages": [_page_to_json(page) for page in members],
                }
                for members, terms in zip(self.clusters, self._padded_terms())
            ],
        }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    def save(self, path: Union[str, Path]) -> None:
        """Write the snapshot (gzipped when ``path`` ends in ``.gz``).

        The write is an injection seam (``"snapshot.save"``): an armed
        chaos plan may fail it *before* any bytes are written, and the
        atomic writer guarantees a failure mid-write leaves the previous
        snapshot intact either way.
        """
        inject("snapshot.save")
        path = Path(path)
        atomic_write_json(
            self.to_payload(), path, compress=path.name.endswith(".gz")
        )

    def _padded_terms(self) -> List[List[str]]:
        terms = list(self.top_terms)
        while len(terms) < len(self.clusters):
            terms.append([])
        return terms

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        """Load a snapshot written by :meth:`save`.

        Raises :class:`~repro.datasets.store.DatasetFormatError` on an
        unknown format version and ValueError on structural problems.
        ``"snapshot.load"`` is an injection seam.
        """
        inject("snapshot.load")
        payload = read_json(path)
        return cls.from_payload(payload, source=path)

    @classmethod
    def from_payload(
        cls, payload: object, source: Union[str, Path] = "<payload>"
    ) -> "Snapshot":
        """Validate and materialize a snapshot payload (file contents or
        a ``/replication/snapshot`` response body).  ``source`` names the
        origin in error messages."""
        path = source
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected a JSON object at top level")
        if payload.get("kind") != _KIND:
            raise ValueError(
                f"{path}: not a directory snapshot "
                f"(kind={payload.get('kind')!r})"
            )
        version = payload.get("format_version")
        if version not in _SUPPORTED_FORMAT_VERSIONS:
            raise DatasetFormatError(path, version, SNAPSHOT_FORMAT_VERSION)
        vectorizer_state = dict(payload.get("vectorizer", {}))
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
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}: malformed cluster entry {index}: {exc}"
                ) from exc
        meta = payload.get("meta", {})
        return cls(
            clusters=clusters,
            vectorizer_state=vectorizer_state,
            config=CAFCConfig.from_dict(dict(payload.get("config", {}))),
            top_terms=top_terms,
            algorithm=str(payload.get("algorithm", "?")),
            created_unix=float(payload.get("created_unix", 0.0)),
            meta=dict(meta) if isinstance(meta, dict) else {},
        )


def build_snapshot(
    result: CAFCResult,
    vectorizer: FormPageVectorizer,
    config: Optional[CAFCConfig] = None,
) -> Snapshot:
    """Snapshot an organized directory (a pipeline result + its fitted
    vectorizer)."""
    return Snapshot(
        clusters=[list(cluster.pages) for cluster in result.clusters],
        vectorizer_state=vectorizer.export_state(),
        config=config or CAFCConfig(),
        top_terms=[list(cluster.top_terms) for cluster in result.clusters],
        algorithm=result.algorithm,
        created_unix=time.time(),
    )


def save_snapshot(snapshot: Snapshot, path: Union[str, Path]) -> None:
    """Module-level alias for :meth:`Snapshot.save`."""
    snapshot.save(path)


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Module-level alias for :meth:`Snapshot.load`."""
    return Snapshot.load(path)


def snapshot_info(path: Union[str, Path]) -> Dict[str, object]:
    """Cheap summary of a stored snapshot (for ``repro snapshot inspect``)."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    clusters = payload.get("clusters", [])
    sizes = [len(entry.get("pages", [])) for entry in clusters]
    vectorizer = payload.get("vectorizer", {})
    return {
        "kind": payload.get("kind"),
        "format_version": payload.get("format_version"),
        "created_unix": payload.get("created_unix"),
        "algorithm": payload.get("algorithm"),
        "scheme": _scheme_name(vectorizer if isinstance(vectorizer, dict) else {}),
        "n_clusters": len(clusters),
        "n_pages": sum(sizes),
        "cluster_sizes": sizes,
        "top_terms": [
            list(entry.get("top_terms", []))[:4] for entry in clusters
        ],
        "pc_vocabulary": len(
            vectorizer.get("pc_corpus", {}).get("document_frequency", {})
        ),
        "fc_vocabulary": len(
            vectorizer.get("fc_corpus", {}).get("document_frequency", {})
        ),
    }
