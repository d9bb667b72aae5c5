"""Configuration for CAFC runs.

Defaults follow the paper's experimental setup (Section 4): k = 8 domains,
FC and PC weighted equally (C1 = C2 = 1), k-means stopping when fewer than
10% of pages move, hub clusters below cardinality 8 pruned, at most 100
backlinks per page.
"""

import enum
from dataclasses import dataclass, field

from repro.options import SCHEME_CHOICES, validate_option
from repro.parallel.config import ParallelConfig
from repro.resilience.config import ResilienceConfig
from repro.vsm.weights import LocationWeights


class ContentMode(enum.Enum):
    """Which feature space(s) drive similarity — the Figure 2 axis."""

    FC = "fc"            # form contents only
    PC = "pc"            # page contents only
    FC_PC = "fc+pc"      # both, combined per Equation 3


def check_weights(page_weight: float, form_weight: float) -> None:
    """Equation 3's rule for C1 / C2: both non-negative, one positive.

    The one check behind :class:`CAFCConfig` and
    :class:`~repro.core.similarity.FormPageSimilarity`.
    """
    if page_weight < 0 or form_weight < 0:
        raise ValueError("feature-space weights must be non-negative")
    if page_weight == 0 and form_weight == 0:
        raise ValueError("at least one feature-space weight must be positive")


@dataclass
class CAFCConfig:
    """All CAFC tunables.

    Attributes
    ----------
    k:
        Number of clusters (the paper uses the number of domains, 8).
    content_mode:
        FC, PC, or FC+PC (Figure 2 configurations).
    page_weight / form_weight:
        C1 and C2 in Equation 3; the paper sets both to 1.
    location_weights:
        LOC factors for Equation 1; ``LocationWeights.uniform()``
        reproduces the Section 4.4 ablation.
    min_hub_cardinality:
        Hub clusters with fewer form pages are pruned before seed
        selection (Figure 3; the headline configuration uses 8).
    max_backlinks:
        Cap on backlinks retrieved per page (the paper extracted at most
        100 per page from AltaVista).
    use_root_page_backlinks:
        When a form page has no backlinks, also ask for backlinks of the
        site root page (Section 3.1's mitigation for missing data).
    stop_fraction:
        k-means stopping criterion: stop when fewer than this fraction of
        pages move across clusters in one iteration (paper: 10%).
    max_iterations:
        Hard iteration cap for k-means.
    seed:
        RNG seed for random-seed selection; runs are reproducible given
        the same seed.
    scheme:
        Term-weighting scheme for vectorization: ``"auto"`` (default;
        the paper's Equation 1), ``"eq1"``, ``"bm25"`` (Okapi BM25 with
        per-space [0, 1] normalization), ``"tf"`` / ``"off"`` (plain
        LOC-weighted TF, corpus weighting disabled).  Pass a
        :class:`~repro.vsm.schemes.WeightingScheme` instance directly
        to the vectorizer for tuned parameters.  See docs/RANKING.md.

        ``scheme`` follows the ``"auto" | "off" | <name>`` convention
        and validator of :mod:`repro.options`; the error names the
        offending field.
    parallel:
        Ingestion execution plan (workers and the analysis cache) — see
        :class:`~repro.parallel.config.ParallelConfig` and
        docs/INGESTION.md.  Parallel output is bit-identical to serial.
    resilience:
        Retry/backoff and circuit-breaker knobs for the flaky
        seams (the backlink API, request vectorization) — see
        :class:`~repro.resilience.config.ResilienceConfig` and
        docs/RESILIENCE.md.
    """

    k: int = 8
    content_mode: ContentMode = ContentMode.FC_PC
    page_weight: float = 1.0
    form_weight: float = 1.0
    location_weights: LocationWeights = field(default_factory=LocationWeights)
    min_hub_cardinality: int = 8
    max_backlinks: int = 100
    use_root_page_backlinks: bool = True
    stop_fraction: float = 0.1
    max_iterations: int = 50
    seed: int = 0
    scheme: str = "auto"
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    def to_dict(self) -> dict:
        """All tunables as JSON-safe data (snapshot support)."""
        return {
            "k": self.k,
            "content_mode": self.content_mode.value,
            "page_weight": self.page_weight,
            "form_weight": self.form_weight,
            "location_weights": self.location_weights.to_dict(),
            "min_hub_cardinality": self.min_hub_cardinality,
            "max_backlinks": self.max_backlinks,
            "use_root_page_backlinks": self.use_root_page_backlinks,
            "stop_fraction": self.stop_fraction,
            "max_iterations": self.max_iterations,
            "seed": self.seed,
            "scheme": self.scheme,
            "parallel": self.parallel.to_dict(),
            "resilience": self.resilience.to_dict(),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "CAFCConfig":
        """Rebuild a config exported by :meth:`to_dict` (validates).

        Keys this version no longer has (the ``"backend"``, ``"index"``
        and ``"stream"`` knobs older snapshots wrote) are ignored.
        """
        defaults = cls()
        return cls(
            k=int(state.get("k", defaults.k)),
            content_mode=ContentMode(
                state.get("content_mode", defaults.content_mode.value)
            ),
            page_weight=float(state.get("page_weight", defaults.page_weight)),
            form_weight=float(state.get("form_weight", defaults.form_weight)),
            location_weights=LocationWeights.from_dict(
                state.get("location_weights", {})
            ),
            min_hub_cardinality=int(
                state.get("min_hub_cardinality", defaults.min_hub_cardinality)
            ),
            max_backlinks=int(state.get("max_backlinks", defaults.max_backlinks)),
            use_root_page_backlinks=bool(
                state.get(
                    "use_root_page_backlinks", defaults.use_root_page_backlinks
                )
            ),
            stop_fraction=float(
                state.get("stop_fraction", defaults.stop_fraction)
            ),
            max_iterations=int(
                state.get("max_iterations", defaults.max_iterations)
            ),
            seed=int(state.get("seed", defaults.seed)),
            scheme=str(state.get("scheme", defaults.scheme)),
            parallel=ParallelConfig.from_dict(dict(state.get("parallel", {}))),
            resilience=ResilienceConfig.from_dict(
                dict(state.get("resilience", {}))
            ),
        )

    def __post_init__(self) -> None:
        validate_option("scheme", self.scheme, SCHEME_CHOICES)
        if self.k < 1:
            raise ValueError("k must be positive")
        check_weights(self.page_weight, self.form_weight)
        if not 0 <= self.stop_fraction < 1:
            raise ValueError("stop_fraction must be in [0, 1)")
        if self.min_hub_cardinality < 1:
            raise ValueError("min_hub_cardinality must be at least 1")
