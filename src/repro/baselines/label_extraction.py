"""Heuristic attribute-label extraction.

"Approaches to label extraction often use heuristics (e.g., based on the
layout of the page) to guess the appropriate label for a given form
attribute" (paper, Section 1).  This module implements the standard
heuristic ladder:

1. an explicit ``<label for=...>`` association;
2. a wrapping ``<label>`` element;
3. the nearest text fragment *preceding* the control in document order
   within the form (how tables/line layouts place labels);
4. the control's ``name``/``id`` attribute split into words.

The ladder works well on tidy forms and fails exactly where the paper
says schema-based approaches fail: label-less keyword boxes, image
buttons, text that sits outside the FORM tags.
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.html.dom import Element, NON_VISIBLE_TAGS, Text
from repro.html.parser import parse_html
from repro.text.tokenize import split_identifier

_CONTROL_TAGS = frozenset({"input", "select", "textarea"})
_NON_ATTRIBUTE_INPUT_TYPES = frozenset(
    {"hidden", "submit", "button", "image", "reset"}
)

# Generic strings that precede controls without describing them.
_USELESS_LABELS = frozenset(
    {"search", "go", "find", "submit", "ok", "enter", "click", "select"}
)


@dataclass
class ExtractedLabel:
    """One form attribute with its best-guess label."""

    field_name: str
    label: str
    source: str  # 'for' | 'wrap' | 'preceding' | 'name' | ''

    @property
    def has_label(self) -> bool:
        return bool(self.label)


def _is_attribute_control(element: Element) -> bool:
    if element.tag not in _CONTROL_TAGS:
        return False
    if element.tag == "input":
        input_type = element.get("type").lower()
        return input_type not in _NON_ATTRIBUTE_INPUT_TYPES
    return True


def _document_order_items(form: Element) -> List[object]:
    """Text fragments and controls of a form, flattened in document
    order.  Option text is skipped — option values are contents, not
    labels."""
    items: List[object] = []
    for node in form.iter_nodes(prune=_is_skipped):
        if isinstance(node, Text):
            fragment = node.data.strip()
            if fragment:
                items.append(fragment)
        elif not _is_skipped(node) and _is_attribute_control(node):
            items.append(node)
    return items


def _is_skipped(element: Element) -> bool:
    return element.tag in NON_VISIBLE_TAGS or element.tag == "option"


def _wrapping_label(control: Element) -> str:
    for ancestor in control.ancestors():
        if ancestor.tag == "label":
            return ancestor.text_content().strip()
    return ""


def _preceding_text(items: List[object], control_index: int) -> str:
    """The nearest non-useless text fragment before the control."""
    for index in range(control_index - 1, -1, -1):
        item = items[index]
        if isinstance(item, Element):
            # Another control intervenes: its label zone ends here.
            return ""
        text = str(item).strip()
        if text and text.lower() not in _USELESS_LABELS:
            return text
    return ""


def extract_attribute_labels(html_or_root) -> List[List[ExtractedLabel]]:
    """Extract attribute labels for every form in a page.

    Returns one list of :class:`ExtractedLabel` per ``<form>`` element,
    in document order.  Fields whose label cannot be guessed come back
    with ``label=''`` and ``source=''`` — the failure mode the paper
    highlights.
    """
    root = (
        parse_html(html_or_root) if isinstance(html_or_root, str) else html_or_root
    )

    explicit = {}
    for label_el in root.find_all("label"):
        target = label_el.get("for")
        if target:
            explicit[target] = label_el.text_content().strip()

    results: List[List[ExtractedLabel]] = []
    for form in root.find_all("form"):
        items = _document_order_items(form)
        labels: List[ExtractedLabel] = []
        for index, item in enumerate(items):
            if not isinstance(item, Element):
                continue
            control = item
            field_name = control.get("name") or control.get("id")

            label: Optional[str] = explicit.get(control.get("id")) or None
            source = "for" if label else ""
            if not label:
                label = _wrapping_label(control) or None
                source = "wrap" if label else ""
            if not label:
                label = _preceding_text(items, index) or None
                source = "preceding" if label else ""
            if not label:
                name_words = split_identifier(field_name)
                meaningful = [w for w in name_words if w not in _USELESS_LABELS and len(w) > 1]
                if meaningful:
                    label = " ".join(meaningful)
                    source = "name"
            labels.append(
                ExtractedLabel(
                    field_name=field_name,
                    label=label or "",
                    source=source,
                )
            )
        results.append(labels)
    return results
