"""Persisting organized directories (CAFCResult) to JSON.

A hidden-web directory is only useful if it outlives the process that
built it.  The stored form keeps everything the explorer and the
classification path need: cluster membership, centroid vectors (sparse
term -> weight maps), descriptive terms, and bookkeeping.

Page HTML is *not* stored here — results reference pages by URL; the
raw pages live in the dataset store (:mod:`repro.datasets.store`).
"""

import json
from pathlib import Path
from typing import Union

from repro.core.form_page import FormPage, VectorPair
from repro.core.result import CAFCResult, OrganizedCluster
from repro.datasets.store import DatasetFormatError, atomic_write_json
from repro.vsm.vector import SparseVector

_FORMAT_VERSION = 1


def _vector_to_json(vector: SparseVector) -> dict:
    return dict(vector.items())


def _page_to_json(page: FormPage) -> dict:
    return {
        "url": page.url,
        "label": page.label,
        "pc": _vector_to_json(page.pc),
        "fc": _vector_to_json(page.fc),
        "backlinks": sorted(page.backlinks),
        "form_term_count": page.form_term_count,
        "page_term_count": page.page_term_count,
        "attribute_count": page.attribute_count,
    }


def _page_from_json(data: dict) -> FormPage:
    return FormPage(
        url=data["url"],
        pc=SparseVector(data["pc"]),
        fc=SparseVector(data["fc"]),
        backlinks=frozenset(data.get("backlinks", ())),
        label=data.get("label"),
        form_term_count=data.get("form_term_count", 0),
        page_term_count=data.get("page_term_count", 0),
        attribute_count=data.get("attribute_count", 0),
    )


def save_result(result: CAFCResult, path: Union[str, Path]) -> None:
    """Write an organized directory to ``path`` (atomic tmp+replace)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "algorithm": result.algorithm,
        "iterations": result.iterations,
        "used_hub_seeding": result.used_hub_seeding,
        "n_hub_clusters": result.n_hub_clusters,
        "seed_hub_urls": list(result.seed_hub_urls),
        "clusters": [
            {
                "top_terms": list(cluster.top_terms),
                "centroid_pc": _vector_to_json(cluster.centroid.pc),
                "centroid_fc": _vector_to_json(cluster.centroid.fc),
                "pages": [_page_to_json(page) for page in cluster.pages],
            }
            for cluster in result.clusters
        ],
    }
    atomic_write_json(payload, path)


def load_result(path: Union[str, Path]) -> CAFCResult:
    """Load a directory written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise DatasetFormatError(path, version, _FORMAT_VERSION)
    clusters = []
    for entry in payload.get("clusters", []):
        clusters.append(
            OrganizedCluster(
                pages=[_page_from_json(p) for p in entry.get("pages", [])],
                centroid=VectorPair(
                    pc=SparseVector(entry.get("centroid_pc", {})),
                    fc=SparseVector(entry.get("centroid_fc", {})),
                ),
                top_terms=list(entry.get("top_terms", [])),
            )
        )
    return CAFCResult(
        clusters=clusters,
        algorithm=payload.get("algorithm", "?"),
        iterations=payload.get("iterations", 0),
        used_hub_seeding=payload.get("used_hub_seeding", False),
        n_hub_clusters=payload.get("n_hub_clusters", 0),
        seed_hub_urls=list(payload.get("seed_hub_urls", [])),
    )
