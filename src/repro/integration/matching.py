"""Attribute-correspondence discovery across a cluster's forms.

Different sites express the same concept with different labels ("Job
Category" vs "Industry") and partially overlapping option lists.  Within
a domain cluster, two evidence sources identify correspondences:

* **label similarity** — Jaccard overlap of the stemmed label tokens
  (``category`` matches ``job category``);
* **option-value overlap** — Jaccard overlap of select options (two
  attributes listing the same states match even when their labels
  share nothing, and vice versa).

Matching is greedy agglomerative: attribute instances start as
singleton groups; the most similar group pair merges while similarity
exceeds a threshold, with the constraint that a group never holds two
attributes *from the same form* (a form does not repeat a concept).
"""

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set

from repro.baselines.label_extraction import extract_attribute_labels
from repro.core.form_page import RawFormPage
from repro.html.forms import extract_forms
from repro.text.analyzer import TextAnalyzer


@dataclass
class AttributeInstance:
    """One attribute of one form, with its match evidence."""

    form_index: int            # which form page the attribute came from
    field_name: str
    label: str
    label_terms: FrozenSet[str]
    options: FrozenSet[str]    # normalized option strings

    def describe(self) -> str:
        return self.label or self.field_name


@dataclass
class ConceptGroup:
    """A set of corresponding attributes across forms."""

    members: List[AttributeInstance] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def form_indices(self) -> Set[int]:
        return {member.form_index for member in self.members}

    def coverage(self, n_forms: int) -> float:
        """Fraction of the cluster's forms containing this concept."""
        if n_forms == 0:
            return 0.0
        return len(self.form_indices) / n_forms

    def canonical_label(self) -> str:
        """The most frequent non-empty label (ties: shortest, then
        alphabetical)."""
        labels = [m.label for m in self.members if m.label]
        if not labels:
            return self.members[0].field_name if self.members else ""
        counts = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        return min(counts, key=lambda l: (-counts[l], len(l), l))

    def merged_options(self) -> List[str]:
        merged: Set[str] = set()
        for member in self.members:
            merged.update(member.options)
        return sorted(merged)


def _jaccard(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def attribute_similarity(a: AttributeInstance, b: AttributeInstance) -> float:
    """Combined match evidence in [0, 1].

    Labels and options each contribute; when both kinds of evidence are
    available the mean is used, otherwise whichever exists.  Identical
    field names (common across sites built from the same toolkits) add a
    small bonus, capped at 1.
    """
    label_score = _jaccard(a.label_terms, b.label_terms)
    option_score = _jaccard(a.options, b.options)
    have_labels = bool(a.label_terms and b.label_terms)
    have_options = bool(a.options and b.options)
    if have_labels and have_options:
        score = (label_score + option_score) / 2.0
    elif have_labels:
        score = label_score
    elif have_options:
        score = option_score
    else:
        score = 0.0
    if a.field_name and a.field_name == b.field_name:
        score = min(1.0, score + 0.3)
    return score


def collect_attributes(
    raw_pages: Sequence[RawFormPage],
    analyzer: Optional[TextAnalyzer] = None,
) -> List[AttributeInstance]:
    """Extract every form attribute (with labels and options) from a
    cluster's pages."""
    analyzer = analyzer or TextAnalyzer()
    instances: List[AttributeInstance] = []
    for form_index, raw in enumerate(raw_pages):
        label_lists = extract_attribute_labels(raw.html)
        forms = extract_forms(raw.html)
        if not forms:
            continue
        # Pair the label-richest form with its structural extraction.
        best = max(
            range(len(label_lists)),
            key=lambda i: sum(1 for l in label_lists[i] if l.has_label),
        )
        labels = label_lists[best]
        form = forms[best]
        options_by_name = {}
        for form_field in form.visible_fields:
            if form_field.options:
                options_by_name[form_field.name] = frozenset(
                    option.text.strip().lower()
                    for option in form_field.options
                    if option.text.strip()
                )
        for extracted in labels:
            instances.append(
                AttributeInstance(
                    form_index=form_index,
                    field_name=extracted.field_name,
                    label=extracted.label,
                    label_terms=frozenset(analyzer.analyze(extracted.label)),
                    options=options_by_name.get(extracted.field_name, frozenset()),
                )
            )
    return instances


def match_attributes(
    instances: Sequence[AttributeInstance],
    threshold: float = 0.35,
) -> List[ConceptGroup]:
    """Greedy agglomerative matching into concept groups.

    Merges the most similar admissible group pair until no pair exceeds
    ``threshold``.  A merge is inadmissible when the merged group would
    contain two attributes from the same form.

    ``attribute_similarity`` over the instance pairs is computed exactly
    once, up front; every average-linkage group score across all merge
    rounds is then a sum over that matrix (the instances in a group
    never change, only their grouping does).
    """
    n = len(instances)
    pair_sims = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            value = attribute_similarity(instances[a], instances[b])
            pair_sims[a][b] = value
            pair_sims[b][a] = value

    groups = [ConceptGroup(members=[instance]) for instance in instances]
    # Parallel structure: the instance indices behind each group, in the
    # same member order, so group scores sum pair_sims in exactly the
    # order the per-pair recomputation used to.
    indices: List[List[int]] = [[i] for i in range(n)]

    def group_score(index_a: int, index_b: int) -> float:
        total = 0.0
        count = 0
        for a in indices[index_a]:
            row = pair_sims[a]
            for b in indices[index_b]:
                total += row[b]
                count += 1
        return total / count if count else 0.0

    while len(groups) > 1:
        best_pair = None
        best_score = threshold
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i].form_indices & groups[j].form_indices:
                    continue
                score = group_score(i, j)
                if score > best_score:
                    best_score = score
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        groups[i].members.extend(groups[j].members)
        indices[i].extend(indices[j])
        del groups[j]
        del indices[j]

    groups.sort(key=lambda g: (-g.size, g.canonical_label()))
    return groups
