"""Config sweeps: evaluate CAFC across a grid of configurations.

Adopters tuning CAFC for their own corpus need to answer "which knob
matters here?" — this module runs a labelled corpus across a declared
grid and reports entropy/F per cell, the same machinery the repo's own
ablation benches use, packaged for external use.
"""

import itertools
import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.cafc_c import cafc_c
from repro.core.cafc_ch import cafc_ch
from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage
from repro.eval.entropy import total_entropy
from repro.eval.fmeasure import overall_f_measure


@dataclass
class SweepCell:
    """One grid point and its measured quality."""

    overrides: Dict[str, object]
    entropy: float
    f_measure: float
    fell_back: bool = False   # CAFC-CH could not seed and used CAFC-C

    def label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.overrides.items()))


@dataclass
class SweepResult:
    cells: List[SweepCell] = field(default_factory=list)

    def best(self) -> SweepCell:
        if not self.cells:
            raise ValueError("empty sweep")
        return min(self.cells, key=lambda cell: cell.entropy)

    def as_rows(self) -> List[List[str]]:
        return [
            [cell.label(), f"{cell.entropy:.3f}", f"{cell.f_measure:.3f}",
             "fallback" if cell.fell_back else ""]
            for cell in self.cells
        ]


def sweep_configs(
    pages: Sequence[FormPage],
    grid: Mapping[str, Sequence[object]],
    base: Optional[CAFCConfig] = None,
    algorithm: str = "cafc-ch",
    n_runs: int = 1,
) -> SweepResult:
    """Evaluate every combination of the ``grid`` overrides.

    Parameters
    ----------
    pages:
        Vectorized form pages carrying gold labels (evaluation needs
        them; clustering never reads them).
    grid:
        Field name -> candidate values; fields must exist on
        :class:`CAFCConfig`.  The cartesian product is evaluated.
    base:
        Starting configuration the overrides are applied to.
    algorithm:
        ``"cafc-ch"`` (deterministic; falls back to CAFC-C when hub
        seeding fails) or ``"cafc-c"`` (averaged over ``n_runs`` seeds).
    n_runs:
        Random-seed trials per cell for ``"cafc-c"``.

    Raises
    ------
    ValueError
        For unknown grid fields, an empty grid, or pages without labels.
    """
    if algorithm not in ("cafc-ch", "cafc-c"):
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    base = base or CAFCConfig()
    for name in grid:
        if not hasattr(base, name):
            raise ValueError(f"CAFCConfig has no field {name!r}")
    if not grid:
        raise ValueError("empty grid")
    gold = [page.label for page in pages]
    if any(label is None for label in gold):
        raise ValueError("sweep evaluation needs gold labels on every page")

    names = sorted(grid)
    result = SweepResult()
    for values in itertools.product(*(grid[name] for name in names)):
        overrides: Dict[str, object] = dict(zip(names, values))
        config = replace(base, **overrides)
        fell_back = False
        if algorithm == "cafc-ch":
            try:
                clustering = cafc_ch(pages, config).clustering
            except ValueError:
                clustering = cafc_c(pages, config).clustering
                fell_back = True
            entropy = total_entropy(clustering, gold)
            f_measure = overall_f_measure(clustering, gold)
        else:
            entropies, f_measures = [], []
            for run_seed in range(n_runs):
                run_config = replace(config, seed=run_seed)
                clustering = cafc_c(pages, run_config).clustering
                entropies.append(total_entropy(clustering, gold))
                f_measures.append(overall_f_measure(clustering, gold))
            entropy = statistics.mean(entropies)
            f_measure = statistics.mean(f_measures)
        result.cells.append(
            SweepCell(
                overrides=overrides,
                entropy=entropy,
                f_measure=f_measure,
                fell_back=fell_back,
            )
        )
    return result
