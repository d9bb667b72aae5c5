"""HTML substrate: tolerant parsing, form extraction, located text.

The paper's form-page model needs four things from an HTML page:

* the text inside the ``<form>`` element(s) — the FC feature space;
* the full page text — the PC feature space;
* term *locations* (``<title>``, ``<option>``, body) for the LOC weight
  factor in Equation 1;
* the structure of each form (fields, types, options, labels) so that
  searchable forms can be told apart from login/quote-request forms and
  hidden fields can be ignored (Section 4.1, footnote 3).

No third-party HTML library is a dependency, so this package implements
its own: one linear-time lexer (:mod:`repro.html.lexer`) under a small,
tolerant DOM for form structure and labels.  Located text (the first
three items) needs no tree: :func:`scan_page` streams it from the
lexer's tokens in one pass.
"""

from repro.html.dom import Element, Node, Text
from repro.html.forms import Form, FormField, SelectOption, extract_forms
from repro.html.parser import parse_html
from repro.html.text_extract import (
    LocatedText,
    PageScan,
    TextLocation,
    extract_located_text,
    scan_page,
)

__all__ = [
    "Element",
    "Node",
    "Text",
    "Form",
    "FormField",
    "SelectOption",
    "extract_forms",
    "parse_html",
    "LocatedText",
    "TextLocation",
    "extract_located_text",
    "PageScan",
    "scan_page",
]
