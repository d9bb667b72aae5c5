"""Form extraction: structure of ``<form>`` elements.

The form-page model needs each form's visible text (FC), the text inside
``<option>`` tags (down-weighted by LOC in Equation 1), and enough field
structure to (a) ignore hidden fields (paper Section 4.1, footnote 3) and
(b) drive the generic searchable-form classifier.
"""

from dataclasses import dataclass, field
from typing import List

from repro.html.dom import Element, NON_VISIBLE_TAGS, Text
from repro.html.parser import parse_html

# Input types that never contribute user-visible schema information.
_NON_VISIBLE_INPUT_TYPES = frozenset({"hidden"})

# Input types that accept free text.
TEXT_INPUT_TYPES = frozenset({"text", "search", "email", "tel", "", "number"})


@dataclass
class SelectOption:
    """One ``<option>`` inside a ``<select>``."""

    value: str
    text: str


@dataclass
class FormField:
    """One form control (input / select / textarea / button)."""

    tag: str                       # input | select | textarea | button
    type: str                      # input @type (lowercase), '' otherwise
    name: str                      # @name or @id
    label: str = ""                # associated <label> text, if any
    options: List[SelectOption] = field(default_factory=list)

    @property
    def is_hidden(self) -> bool:
        """True for fields invisible to users (excluded from the model)."""
        return self.tag == "input" and self.type in _NON_VISIBLE_INPUT_TYPES

    @property
    def is_text_input(self) -> bool:
        """True for free-text entry fields."""
        if self.tag == "textarea":
            return True
        return self.tag == "input" and self.type in TEXT_INPUT_TYPES

    @property
    def is_password(self) -> bool:
        return self.tag == "input" and self.type == "password"

    @property
    def is_submit(self) -> bool:
        if self.tag == "button":
            return self.type in ("", "submit")
        return self.tag == "input" and self.type in ("submit", "image")


@dataclass
class Form:
    """A parsed ``<form>`` element.

    ``visible_text`` is the text between the FORM tags with markup removed
    and hidden-field content excluded — exactly the paper's FC source.
    ``option_text`` is the subset of that text that sits inside ``<option>``
    tags, so the vectorizer can apply the lower LOC weight.
    """

    action: str
    method: str
    fields: List[FormField]
    visible_text: str
    option_text: str

    # ----------------------------------------------------------------
    # Field-profile helpers (used by the searchable-form classifier).
    # ----------------------------------------------------------------

    @property
    def visible_fields(self) -> List[FormField]:
        return [f for f in self.fields if not f.is_hidden]

    @property
    def text_inputs(self) -> List[FormField]:
        return [f for f in self.visible_fields if f.is_text_input]

    @property
    def selects(self) -> List[FormField]:
        return [f for f in self.visible_fields if f.tag == "select"]

    @property
    def has_password_field(self) -> bool:
        return any(f.is_password for f in self.fields)

    @property
    def attribute_count(self) -> int:
        """Number of visible, non-submit controls (the paper's form 'size'
        notion for single- vs multi-attribute forms)."""
        return sum(
            1 for f in self.visible_fields if not f.is_submit
        )

    @property
    def is_single_attribute(self) -> bool:
        return self.attribute_count == 1


def _element_visible_text(element: Element) -> str:
    """Visible text under ``element``: skips scripts/styles and hidden inputs.

    Attribute-borne text that users see (submit button values, alt text,
    placeholders) is included, since it is rendered on the page.
    """
    parts: List[str] = []
    for node in element.iter_nodes(prune=_hides_children):
        if isinstance(node, Text):
            parts.append(node.data)
        elif node.tag == "input":
            _collect_input_text(node, parts)
        elif node.tag == "img":
            alt = node.get("alt")
            if alt:
                parts.append(alt)
    return " ".join(parts)


def _hides_children(element: Element) -> bool:
    return element.tag in NON_VISIBLE_TAGS or element.tag in ("input", "img")


def _collect_input_text(element: Element, parts: List[str]) -> None:
    """Rendered attribute values of an ``<input>``."""
    input_type = element.get("type").lower()
    if input_type not in _NON_VISIBLE_INPUT_TYPES:
        # Button captions render as text; a text input's default value
        # also renders.  Placeholder and alt text render in all cases.
        if input_type in ("submit", "button", "image", "reset"):
            value = element.get("value")
            if value:
                parts.append(value)
        for attr in ("placeholder", "alt"):
            value = element.get(attr)
            if value:
                parts.append(value)


def _field_label_map(root: Element) -> dict:
    """Map control id -> <label for=...> text for the whole document."""
    labels = {}
    for label_el in root.find_all("label"):
        target = label_el.get("for")
        if target:
            labels[target] = label_el.text_content().strip()
    return labels


def _extract_field(element: Element, labels: dict) -> FormField:
    tag = element.tag
    field_type = element.get("type").lower() if tag == "input" else ""
    name = element.get("name") or element.get("id")
    label = labels.get(element.get("id"), "")
    if not label:
        # <label>Text <input ...></label> pattern: use the wrapping label.
        for anc in element.ancestors():
            if anc.tag == "label":
                label = anc.text_content().strip()
                break
    options = []
    if tag == "select":
        options = [
            SelectOption(value=opt.get("value"), text=opt.text_content().strip())
            for opt in element.find_all("option")
        ]
    return FormField(tag=tag, type=field_type, name=name, label=label, options=options)


def extract_forms(root_or_html) -> List[Form]:
    """Extract every form from a DOM root or a raw HTML string.

    >>> forms = extract_forms('<form action="/s"><input name="q"></form>')
    >>> forms[0].text_inputs[0].name
    'q'
    """
    root = parse_html(root_or_html) if isinstance(root_or_html, str) else root_or_html
    labels = _field_label_map(root)
    forms = []
    for form_el in root.find_all("form"):
        fields = [
            _extract_field(el, labels)
            for el in form_el.iter()
            if el.tag in ("input", "select", "textarea", "button")
        ]
        option_parts = [
            opt.text_content() for opt in form_el.find_all("option")
        ]
        forms.append(
            Form(
                action=form_el.get("action"),
                method=form_el.get("method", "get").lower(),
                fields=fields,
                visible_text=_element_visible_text(form_el),
                option_text=" ".join(option_parts),
            )
        )
    return forms
