"""Building a unified query interface from attribute correspondences.

Given the concept groups discovered over one cluster's forms, the
unified interface keeps every concept that appears in at least a
``min_coverage`` fraction of the forms, names it by its most common
label, and merges the option lists — the WISE-Integrator-style output
the paper cites as CAFC's downstream consumer.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.form_page import RawFormPage
from repro.integration.matching import (
    ConceptGroup,
    collect_attributes,
    match_attributes,
)


@dataclass
class UnifiedField:
    """One field of the unified interface."""

    label: str
    coverage: float            # fraction of source forms with this concept
    n_sources: int
    options: List[str]         # merged option values ([] = free text)
    example_labels: List[str]  # the label variants seen across sources

    @property
    def is_select(self) -> bool:
        return bool(self.options)


@dataclass
class UnifiedInterface:
    """A merged query interface over one cluster of forms."""

    fields: List[UnifiedField]
    n_source_forms: int
    n_concepts_discovered: int

    def to_html(self) -> str:
        """Render the unified interface as a plain HTML form."""
        rows = []
        for index, unified_field in enumerate(self.fields):
            name = f"field{index}"
            if unified_field.is_select:
                options = "".join(
                    f"<option>{value}</option>" for value in unified_field.options
                )
                control = f"<select name=\"{name}\">{options}</select>"
            else:
                control = f"<input type=\"text\" name=\"{name}\">"
            rows.append(
                f"<tr><td>{unified_field.label}</td><td>{control}</td></tr>"
            )
        body = "".join(rows)
        return (
            "<form action=\"/unified-search\" method=\"get\"><table>"
            + body
            + "<tr><td></td><td><input type=\"submit\" value=\"Search\"></td></tr>"
            "</table></form>"
        )


def build_unified_interface(
    raw_pages: Sequence[RawFormPage],
    min_coverage: float = 0.3,
    groups: Optional[List[ConceptGroup]] = None,
) -> UnifiedInterface:
    """Match attributes across ``raw_pages`` and merge into one interface.

    ``raw_pages`` should be the members of one CAFC cluster; matching
    across unrelated domains produces meaningless correspondences.
    Precomputed ``groups`` may be passed to skip the matching step.
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise ValueError("min_coverage must be in [0, 1]")
    n_forms = len(raw_pages)
    if groups is None:
        instances = collect_attributes(raw_pages)
        groups = match_attributes(instances)

    fields: List[UnifiedField] = []
    for group in groups:
        coverage = group.coverage(n_forms)
        if coverage < min_coverage:
            continue
        label_variants = sorted(
            {member.label for member in group.members if member.label}
        )
        fields.append(
            UnifiedField(
                label=group.canonical_label(),
                coverage=coverage,
                n_sources=len(group.form_indices),
                options=group.merged_options(),
                example_labels=label_variants[:6],
            )
        )
    fields.sort(key=lambda f: (-f.coverage, f.label))
    return UnifiedInterface(
        fields=fields,
        n_source_forms=n_forms,
        n_concepts_discovered=len(groups),
    )
