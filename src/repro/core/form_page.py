"""The form-page model: ``FP(Backlink, PC, FC)``.

Two representations exist:

* :class:`RawFormPage` — what a crawler hands the pipeline: a URL, the raw
  HTML, the backlink URLs retrieved from a search engine, and (for
  evaluation only) an optional gold domain label.
* :class:`FormPage` — the vectorized form of Sections 2.1 / 3.2: the PC and
  PC vectors plus the backlink set, ready for similarity computation.

Vectorization (raw -> vectorized) is the job of
:class:`repro.core.vectorizer.FormPageVectorizer` because Equation 1 needs
corpus-level IDF statistics, which no single page can compute alone.
"""

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.vsm.vector import SparseVector


@dataclass
class RawFormPage:
    """A crawled form page before vectorization.

    ``label`` is the gold-standard domain (Section 4.1's manual
    classification); it is carried for evaluation and never consulted by
    the clustering algorithms.
    """

    url: str
    html: str
    backlinks: List[str] = field(default_factory=list)
    label: Optional[str] = None
    # Anchor strings of links pointing at this page (Section-6 extension;
    # harvested via repro.link_analysis.anchor_text).  Folded into the PC
    # feature space with the ANCHOR location weight when present.
    anchor_texts: List[str] = field(default_factory=list)


@dataclass
class FormPage:
    """A vectorized form page: ``FP(Backlink, PC, FC)`` (Section 3.2).

    ``pc`` and ``fc`` are Equation-1 weighted term vectors.  ``backlinks``
    is a frozen set of URLs pointing at this page (possibly via its site
    root, per Section 3.1).  ``form_term_count`` and ``page_term_count``
    are raw (pre-IDF) term totals used for the Table 1 analysis.

    ``pc_norm`` / ``fc_norm`` are the Euclidean norms of the two
    vectors, computed once at construction (vectorize) time so that no
    similarity path ever recomputes them — they also warm the vectors'
    own norm caches, keeping every consumer on the same float.
    """

    url: str
    pc: SparseVector
    fc: SparseVector
    backlinks: FrozenSet[str] = frozenset()
    label: Optional[str] = None
    form_term_count: int = 0
    page_term_count: int = 0
    attribute_count: int = 0
    pc_norm: float = field(init=False, default=0.0)
    fc_norm: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.pc_norm = self.pc.norm()
        self.fc_norm = self.fc.norm()

    @property
    def is_single_attribute(self) -> bool:
        """Single-attribute (keyword-style) form, per Section 4.1."""
        return self.attribute_count == 1

    @property
    def terms_outside_form(self) -> int:
        """Page terms minus form terms — Table 1's quantity."""
        return max(self.page_term_count - self.form_term_count, 0)


@dataclass
class VectorPair:
    """A point in the combined (PC, FC) space — also used for centroids.

    Equation 4 averages member vectors per feature space; a centroid is
    therefore itself a (PC, FC) pair, which is why k-means over form pages
    can use one type for points and centroids.
    """

    pc: SparseVector
    fc: SparseVector

    @staticmethod
    def of(page: FormPage) -> "VectorPair":
        return VectorPair(pc=page.pc, fc=page.fc)


def centroid_of(pages: List[FormPage]) -> VectorPair:
    """Equation 4: per-space mean of the member pages' vectors."""
    from repro.vsm.vector import mean_vector

    return VectorPair(
        pc=mean_vector(page.pc for page in pages),
        fc=mean_vector(page.fc for page in pages),
    )
