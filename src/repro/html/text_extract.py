"""Located text extraction: every visible term, tagged with where it sits.

Equation 1 multiplies term frequency by a location factor ``LOC_i``: terms
in the page ``<title>`` get a boost, terms inside form ``<option>`` tags
get a discount (they reflect database *contents*, which vary per site,
rather than the schema).  This module scans the page once and emits each
visible text fragment together with its :class:`TextLocation`, and whether
it is inside a ``<form>`` — the split that defines the FC vs PC feature
spaces.

The scan builds no DOM tree.  :class:`_LocatedTextScanner` keeps the same
open-element stack as :func:`~repro.html.parser.parse_html` (implicit
closers, void tags never pushed, stray end tags ignored, ``<x/>`` never
opened), so every fragment it emits as a ``html.parser`` event arrives is
the fragment a walk of the parsed tree would find, in the same order.
Each stack entry carries its location, form membership and visibility,
so an event costs a look at the top of the stack and the scan needs no
recursion, however deep the nesting.
"""

import enum
from dataclasses import dataclass
from html.parser import HTMLParser
from typing import List, NamedTuple, Optional, Tuple

from repro.html.dom import NON_VISIBLE_TAGS, SELF_NESTING_CLOSERS, VOID_TAGS


class TextLocation(enum.Enum):
    """Where a text fragment appears, for LOC weighting (Equation 1)."""

    TITLE = "title"       # inside <title>: boosted in PC
    OPTION = "option"     # inside <option>: discounted in FC
    ANCHOR = "anchor"     # inside <a>: informative link text
    BODY = "body"         # everything else


@dataclass
class LocatedText:
    """A visible text fragment with its location metadata."""

    text: str
    location: TextLocation
    inside_form: bool


class PageScan(NamedTuple):
    """One page's located text and the size of its largest form."""

    fragments: List[LocatedText]
    #: Visible, non-submit controls of the largest ``<form>``: what
    #: :attr:`repro.html.forms.Form.attribute_count` gives, maximized.
    attribute_count: int


# An open tag raises the location of everything under it to its own,
# in this order of precedence (TITLE beats OPTION beats ANCHOR).
_TAG_LOCATION = {
    "title": TextLocation.TITLE,
    "option": TextLocation.OPTION,
    "a": TextLocation.ANCHOR,
}
_PRECEDENCE = {
    TextLocation.TITLE: 3,
    TextLocation.OPTION: 2,
    TextLocation.ANCHOR: 1,
    TextLocation.BODY: 0,
}

# Input types whose caption (value, else alt) renders as text.
_BUTTON_INPUTS = frozenset({"submit", "button", "image", "reset"})

# Input types that are not form attributes (hidden, or submit controls).
_UNCOUNTED_INPUTS = frozenset({"hidden", "submit", "image"})

# Controls that count toward a form's attribute_count.  <button> never
# does: Form.attribute_count sees every button as a submit control.
_CONTROLS = frozenset({"input", "select", "textarea"})

# A stack entry: (tag, location, inside_form, hidden).
_Entry = Tuple[str, TextLocation, bool, bool]


def _attr(attrs: List[Tuple[str, Optional[str]]], name: str) -> str:
    """The last value of attribute ``name`` ('' when absent or bare),
    as the DOM's attribute dict would hold it."""
    for key, value in reversed(attrs):
        if key == name:
            return value or ""
    return ""


class _LocatedTextScanner(HTMLParser):
    """One pass over html.parser events: located text plus form sizes."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.fragments: List[LocatedText] = []
        self.attribute_count = 0
        self._stack: List[_Entry] = [("html", TextLocation.BODY, False, False)]
        # Controls counted so far in the outermost open <form>; a nested
        # form's controls are a subset of its outermost form's.
        self._form_fields = 0
        # The outermost visible <head>: its stack depth, its form
        # membership, and the text parts of its first <title> (None
        # until one opens; the title collects while _title_depth is set).
        self._head_depth: Optional[int] = None
        self._head_in_form = False
        self._title: Optional[List[str]] = None
        self._title_depth: Optional[int] = None

    # ----------------------------------------------------------------
    # Stack helpers.
    # ----------------------------------------------------------------

    def _open(self, tag: str) -> None:
        stack = self._stack
        _, location, inside_form, hidden = stack[-1]
        if tag == "head":
            if not hidden:
                # Only <head>'s first <title> is visible; it is emitted
                # when the head closes.
                self._head_depth = len(stack)
                self._head_in_form = inside_form
        elif tag == "title":
            if self._head_depth is not None and self._title is None:
                self._title = []
                self._title_depth = len(stack)
        elif tag == "form":
            if not inside_form:
                self._form_fields = 0
            inside_form = True
        elif tag in _CONTROLS:
            if inside_form:
                self._count_control()
        own = _TAG_LOCATION.get(tag)
        if own is not None and _PRECEDENCE[own] > _PRECEDENCE[location]:
            location = own
        stack.append((tag, location, inside_form, hidden or tag in NON_VISIBLE_TAGS))

    def _truncate(self, depth: int) -> None:
        del self._stack[depth:]
        if self._title_depth is not None and depth <= self._title_depth:
            self._title_depth = None
        if self._head_depth is not None and depth <= self._head_depth:
            self._close_head()

    def _close_head(self) -> None:
        text = " ".join(self._title or ()).strip()
        if text:
            self.fragments.append(
                LocatedText(text, TextLocation.TITLE, self._head_in_form)
            )
        self._head_depth = None
        self._title = None

    def _leaf(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        """A childless element (void, or ``<x/>``) under the stack top."""
        _, location, inside_form, hidden = self._stack[-1]
        if tag == "input":
            input_type = _attr(attrs, "type").lower()
            if inside_form and input_type not in _UNCOUNTED_INPUTS:
                self._count_control()
            if hidden:
                return
            if input_type in _BUTTON_INPUTS:
                text = _attr(attrs, "value") or _attr(attrs, "alt")
            elif input_type != "hidden":
                text = _attr(attrs, "placeholder")
            else:
                return
            if text:
                self.fragments.append(
                    LocatedText(text, TextLocation.BODY, inside_form)
                )
        elif tag == "img":
            alt = _attr(attrs, "alt")
            if alt and not hidden:
                self.fragments.append(LocatedText(alt, location, inside_form))
        elif tag in _CONTROLS:
            if inside_form:
                self._count_control()
        elif tag == "title":
            if self._head_depth is not None and self._title is None:
                self._title = []  # <title/>: the head's title, empty

    def _count_control(self) -> None:
        self._form_fields += 1
        if self._form_fields > self.attribute_count:
            self.attribute_count = self._form_fields

    # ----------------------------------------------------------------
    # html.parser callbacks (tags arrive lowercased).
    # ----------------------------------------------------------------

    def handle_starttag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        if tag == "html":
            return
        if tag in SELF_NESTING_CLOSERS and self._stack[-1][0] == tag:
            # <option>a<option>b  ==  <option>a</option><option>b</option>
            self._stack.pop()
        if tag in VOID_TAGS:
            self._leaf(tag, attrs)
        else:
            self._open(tag)

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        if tag != "html":
            self._leaf(tag, attrs)

    def handle_endtag(self, tag: str) -> None:
        if tag == "html" or tag in VOID_TAGS:
            return
        stack = self._stack
        for depth in range(len(stack) - 1, 0, -1):
            if stack[depth][0] == tag:
                self._truncate(depth)
                return

    def handle_data(self, data: str) -> None:
        if self._title_depth is not None and data and not data.isspace():
            self._title.append(data)
        _, location, inside_form, hidden = self._stack[-1]
        if hidden:
            return
        text = data.strip()
        if text:
            self.fragments.append(LocatedText(text, location, inside_form))

    def close(self) -> None:
        super().close()
        if self._head_depth is not None:
            self._close_head()  # an unclosed <head> ends with the page

    def error(self, message: str) -> None:  # pragma: no cover - py<3.10 shim
        pass


def scan_page(html: str) -> PageScan:
    """Located text and the largest form's attribute count, in one pass.

    >>> scan = scan_page(
    ...     "<title>Jobs</title><form><input name=q><select></select></form>")
    >>> [(f.text, f.location.value) for f in scan.fragments], scan.attribute_count
    ([('Jobs', 'title')], 2)
    """
    scanner = _LocatedTextScanner()
    scanner.feed(html)
    scanner.close()
    return PageScan(scanner.fragments, scanner.attribute_count)


def extract_located_text(html: str) -> List[LocatedText]:
    """Extract all visible text fragments with location + form membership.

    >>> frags = extract_located_text(
    ...     "<title>Jobs</title><form><option>Engineer</option></form>")
    >>> [(f.text, f.location.value, f.inside_form) for f in frags]
    [('Jobs', 'title', False), ('Engineer', 'option', True)]
    """
    return scan_page(html).fragments


def page_text(html: str) -> str:
    """All visible page text (the PC source), markup removed."""
    return " ".join(frag.text for frag in extract_located_text(html))


def form_text(html: str) -> str:
    """All visible text inside forms (the FC source)."""
    return " ".join(
        frag.text for frag in extract_located_text(html) if frag.inside_form
    )
