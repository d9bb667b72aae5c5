"""CAFC — Context-Aware Form Clustering (the paper's contribution).

Public API
----------

* :class:`repro.core.config.CAFCConfig` — all tunables in one place
  (k, content mode, C1/C2, LOC weights, hub min-cardinality, ...).
* :class:`repro.core.form_page.RawFormPage` /
  :class:`repro.core.form_page.FormPage` — the form-page model
  ``FP(Backlink, PC, FC)`` of Sections 2.1 and 3.2.
* :class:`repro.core.vectorizer.FormPageVectorizer` — Equation 1 vectors.
* :class:`repro.core.similarity.FormPageSimilarity` — Equation 3: the
  one object holding C1/C2 and the content mode, scalar and batched.
* :class:`repro.core.simengine.SimilarityEngine` — the compiled sparse
  engine behind ``FormPageSimilarity.pairwise`` and the k-means loop
  (with :class:`~repro.core.simengine.EngineStats` instrumentation).
* :func:`repro.core.cafc_c.cafc_c` — Algorithm 1.
* :func:`repro.core.cafc_ch.cafc_ch` — Algorithm 2 (+ Algorithm 3 via
  :mod:`repro.core.hubs` and :mod:`repro.core.seeds`).
* :class:`repro.core.pipeline.CAFCPipeline` — one-call API from raw HTML
  pages (plus backlinks) to labelled clusters.
"""

from repro.core.cafc_c import cafc_c
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig, ContentMode
from repro.core.form_page import FormPage, RawFormPage
from repro.core.hubs import HubCluster, build_hub_clusters
from repro.core.incremental import IncrementalOrganizer
from repro.core.pipeline import CAFCPipeline, CAFCResult
from repro.core.seeds import select_hub_clusters
from repro.core.simengine import EngineStats, SimilarityEngine
from repro.core.similarity import FormPageSimilarity
from repro.core.vectorizer import FormPageVectorizer

__all__ = [
    "cafc_c",
    "cafc_ch",
    "CAFCConfig",
    "ContentMode",
    "FormPage",
    "RawFormPage",
    "HubCluster",
    "build_hub_clusters",
    "IncrementalOrganizer",
    "CAFCPipeline",
    "CAFCResult",
    "select_hub_clusters",
    "FormPageSimilarity",
    "SimilarityEngine",
    "EngineStats",
    "FormPageVectorizer",
]
