"""Schema-based form clustering — the He/Tao/Chang-style baseline.

Models each form page by the bag of its extracted attribute-label terms
(TF-IDF weighted over the label vocabulary) and clusters those schema
vectors with k-means.  This is a vector-space simplification of the
CIKM'04 approach (which used model-based categorical clustering), but it
preserves the property the paper's comparison turns on: **the only
evidence is attribute labels**, so

* forms whose labels cannot be extracted contribute empty vectors;
* single-attribute keyword forms ("Search") carry no schema signal at
  all and land in arbitrary clusters.
"""

import random
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines.label_extraction import extract_attribute_labels
from repro.clustering.kmeans import KMeansResult
from repro.core.config import ContentMode
from repro.core.form_page import RawFormPage, VectorPair
from repro.core.similarity import FormPageSimilarity
from repro.core.simengine import SimilarityEngine
from repro.text.analyzer import TextAnalyzer
from repro.vsm.corpus import CorpusStats
from repro.vsm.vector import SparseVector


@dataclass
class SchemaVector:
    """A form page reduced to its label schema."""

    url: str
    vector: SparseVector
    n_fields: int
    n_labelled_fields: int
    label: Optional[str] = None

    @property
    def has_schema_evidence(self) -> bool:
        return bool(self.vector)


class _SchemaPoint:
    """Adapter giving a schema vector the (PC, FC) shape the similarity
    engine compiles — the schema lives in the PC slot, FC stays empty."""

    __slots__ = ("pc", "fc")

    def __init__(self, schema: SchemaVector) -> None:
        self.pc = schema.vector
        self.fc = SparseVector()


class SchemaClusterer:
    """The schema-label clustering baseline.

    Usage::

        clusterer = SchemaClusterer(k=8, seed=0)
        schemas = clusterer.build_schemas(raw_pages)
        result = clusterer.cluster(schemas)
    """

    def __init__(
        self,
        k: int,
        seed: int = 0,
        analyzer: Optional[TextAnalyzer] = None,
        stop_fraction: float = 0.1,
        max_iterations: int = 50,
    ) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.seed = seed
        self.analyzer = analyzer or TextAnalyzer()
        self.stop_fraction = stop_fraction
        self.max_iterations = max_iterations

    # ----------------------------------------------------------------
    # Schema construction.
    # ----------------------------------------------------------------

    def build_schemas(self, raw_pages: Sequence[RawFormPage]) -> List[SchemaVector]:
        """Extract label schemas and TF-IDF weight them over the corpus."""
        analyzed: List[tuple] = []
        corpus = CorpusStats()
        for raw in raw_pages:
            per_form = extract_attribute_labels(raw.html)
            # The database form is normally the label-richest one.
            best_form = max(
                per_form,
                key=lambda labels: sum(1 for l in labels if l.has_label),
                default=[],
            )
            terms: List[str] = []
            labelled = 0
            for extracted in best_form:
                if extracted.has_label:
                    labelled += 1
                    terms.extend(self.analyzer.analyze(extracted.label))
            corpus.add_document(terms)
            analyzed.append((raw, terms, len(best_form), labelled))

        schemas: List[SchemaVector] = []
        for raw, terms, n_fields, labelled in analyzed:
            counts = Counter(terms)
            weights = {}
            for term, count in counts.items():
                idf = corpus.idf(term)
                if idf > 0.0:
                    weights[term] = count * idf
            schemas.append(
                SchemaVector(
                    url=raw.url,
                    vector=SparseVector(weights),
                    n_fields=n_fields,
                    n_labelled_fields=labelled,
                    label=raw.label,
                )
            )
        return schemas

    # ----------------------------------------------------------------
    # Clustering.
    # ----------------------------------------------------------------

    def cluster(self, schemas: Sequence[SchemaVector]) -> KMeansResult:
        """k-means over the schema vectors (random page seeds).

        Centroids in the result are plain :class:`SparseVector`.  The
        loop runs on the batched similarity engine, with the schema
        vectors compiled as a PC-only collection (plain cosine).
        """
        rng = random.Random(self.seed)
        if self.k > len(schemas):
            raise ValueError(
                f"cannot seed {self.k} clusters from {len(schemas)} schemas"
            )
        seed_indices = rng.sample(range(len(schemas)), self.k)
        seeds = [schemas[i].vector for i in seed_indices]

        engine = SimilarityEngine(
            [_SchemaPoint(s) for s in schemas],
            FormPageSimilarity(ContentMode.PC),
        )
        result = engine.kmeans(
            [VectorPair(pc=seed, fc=SparseVector()) for seed in seeds],
            stop_fraction=self.stop_fraction,
            max_iterations=self.max_iterations,
        )
        return KMeansResult(
            clustering=result.clustering,
            centroids=[pair.pc for pair in result.centroids],
            iterations=result.iterations,
            converged=result.converged,
        )

    def cluster_pages(self, raw_pages: Sequence[RawFormPage]) -> KMeansResult:
        """Convenience: extract schemas and cluster in one call."""
        return self.cluster(self.build_schemas(raw_pages))
