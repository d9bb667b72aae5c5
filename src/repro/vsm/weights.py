"""Location-weighted TF-IDF primitives — Equation 1 of the paper.

``w_i = LOC_i * TF_i * log(N / n_i)``

``LOC_i`` is "a small integer whose value depends on the location of the
term" (Section 2.1).  The paper's concrete policy (Section 4.4):

* form contents (FC): terms inside ``<option>`` tags get a *lower* weight
  than the rest of the form — options reflect database contents, which vary
  wildly across sites, while the rest of the form reflects the schema;
* page contents (PC): terms inside ``<title>`` get a *higher* weight than
  body terms.

:class:`LocationWeights` captures the LOC policy; ``uniform()`` reproduces
the Section 4.4 ablation (all LOC factors = 1).

This module supplies the *primitives*; which formula actually turns
LOC-weighted TFs into a vector is decided one layer up, by the active
:class:`~repro.vsm.schemes.WeightingScheme`:

* :func:`run_term_frequencies` accumulates LOC-weighted TFs over a
  page's term runs — the scheme-independent first half of every
  scheme's emit phase;
* :func:`tf_idf_vector` is the Equation-1 emission, which
  :class:`~repro.vsm.schemes.Eq1Scheme` (the default, and the ``"auto"``
  alias of ``CAFCConfig.scheme``) delegates to unchanged, keeping the
  default bit-identical to the pre-seam vectorizer;
* alternative schemes (:class:`~repro.vsm.schemes.BM25Scheme`,
  :class:`~repro.vsm.schemes.TFScheme`) reuse the same TF primitive but
  replace the emission formula.  See docs/RANKING.md for the protocol
  and how to add a scheme.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.html.text_extract import TextLocation
from repro.vsm.corpus import CorpusStats
from repro.vsm.vector import SparseVector

#: One located-text fragment's analyzed terms, in scan order:
#: ``(location, inside_form, terms)``.  Runs keep the location (not its
#: factor) so any :class:`LocationWeights` can weigh the same analysis,
#: and hold only strings and enums so they cross process boundaries.
TermRun = Tuple[TextLocation, bool, List[str]]

__all__ = [
    "LocationWeights",
    "TermRun",
    "run_term_frequencies",
    "tf_idf_vector",
]


# Module globals: reading an enum member off its class costs several
# times a global lookup, and ``factor`` runs once per term run.
_TITLE = TextLocation.TITLE
_ANCHOR = TextLocation.ANCHOR
_OPTION = TextLocation.OPTION


@dataclass(frozen=True)
class LocationWeights:
    """LOC factors per text location.

    The defaults follow the paper's description: small integers, with
    option text discounted and title text boosted.  Anchor text sits
    between body and title — the paper lists link anchor text among the
    term locations search engines boost (Section 2.1).
    """

    title: int = 3
    anchor: int = 2
    body: int = 1
    # Fractional discount for <option> content.  The paper says "a lower
    # LOC_i value to content inside option tags"; with integer body weight 1
    # the only way down is fractional.
    option: float = 0.3

    def factor(self, location: TextLocation) -> float:
        """The LOC multiplier for a term at ``location``."""
        if location is _TITLE:
            return float(self.title)
        if location is _ANCHOR:
            return float(self.anchor)
        if location is _OPTION:
            return float(self.option)
        return float(self.body)

    @staticmethod
    def uniform() -> "LocationWeights":
        """All locations weighted 1 — the Section 4.4 ablation."""
        return LocationWeights(title=1, anchor=1, body=1, option=1.0)

    def to_dict(self) -> dict:
        """The LOC factors as JSON-safe data (snapshot support)."""
        return {
            "title": self.title,
            "anchor": self.anchor,
            "body": self.body,
            "option": self.option,
        }

    @staticmethod
    def from_dict(state: dict) -> "LocationWeights":
        """Rebuild a policy exported by :meth:`to_dict`."""
        return LocationWeights(
            title=int(state.get("title", 3)),
            anchor=int(state.get("anchor", 2)),
            body=int(state.get("body", 1)),
            option=float(state.get("option", 0.3)),
        )


def run_term_frequencies(
    runs: Iterable[TermRun], weights: LocationWeights
) -> Dict[str, float]:
    """Accumulate LOC-weighted term frequencies over term runs.

    Each occurrence of a term contributes its run's location factor, so
    a term appearing twice in the body and once in the title
    accumulates ``2*body + 1*title``.  The factor is looked up once per
    run, but added once per occurrence, in scan order, from 0:
    ``count * factor`` would round differently for fractional factors.
    """
    weighted: Dict[str, float] = {}
    get = weighted.get
    factor = weights.factor
    for location, _, terms in runs:
        loc = factor(location)
        for term in terms:
            weighted[term] = get(term, 0) + loc
    return weighted


def tf_idf_vector(
    weighted_term_frequencies: Mapping[str, float],
    corpus: CorpusStats,
    idf_map: Optional[Dict[str, float]] = None,
) -> SparseVector:
    """Build the Equation-1 vector from LOC-weighted TFs and corpus IDF.

    Terms with zero IDF (present in every document, or unknown) drop out of
    the vector — they cannot discriminate anything.

    ``idf_map`` (from :meth:`CorpusStats.idf_map`) replaces the per-term
    ``corpus.idf`` method calls with dict lookups when the caller
    vectorizes a whole collection; both paths compute ``log(N / n_i)``
    from the same integers, so the floats are identical.
    """
    weights = {}
    if idf_map is not None:
        get_idf = idf_map.get
        for term, weighted_tf in weighted_term_frequencies.items():
            idf = get_idf(term, 0.0)
            if idf > 0.0:
                weights[term] = weighted_tf * idf
        return SparseVector(weights)
    for term, weighted_tf in weighted_term_frequencies.items():
        idf = corpus.idf(term)
        if idf > 0.0:
            weights[term] = weighted_tf * idf
    return SparseVector(weights)
