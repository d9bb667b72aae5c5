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

import importlib
import sys
import types

#: Public name -> the submodule that defines it, imported on first use,
#: so loading a served directory does not load the batch algorithms.
_EXPORTS = {
    "cafc_c": "repro.core.cafc_c",
    "cafc_ch": "repro.core.cafc_ch",
    "CAFCConfig": "repro.core.config",
    "ContentMode": "repro.core.config",
    "FormPage": "repro.core.form_page",
    "RawFormPage": "repro.core.form_page",
    "HubCluster": "repro.core.hubs",
    "build_hub_clusters": "repro.core.hubs",
    "IncrementalOrganizer": "repro.core.incremental",
    "CAFCPipeline": "repro.core.pipeline",
    "CAFCResult": "repro.core.result",
    "select_hub_clusters": "repro.core.seeds",
    "FormPageSimilarity": "repro.core.similarity",
    "SimilarityEngine": "repro.core.simengine",
    "EngineStats": "repro.core.simengine",
    "FormPageVectorizer": "repro.core.vectorizer",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


class _Package(types.ModuleType):
    """Keeps ``repro.core.cafc_c`` and ``repro.core.cafc_ch`` naming the
    algorithms.  Importing a submodule binds it on its package under its
    own name, and these two submodules share their names with the
    functions they define."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _EXPORTS.get(name) == value.__name__:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
