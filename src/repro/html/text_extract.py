"""Located text extraction: every visible term, tagged with where it sits.

Equation 1 multiplies term frequency by a location factor ``LOC_i``: terms
in the page ``<title>`` get a boost, terms inside form ``<option>`` tags
get a discount (they reflect database *contents*, which vary per site,
rather than the schema).  This module scans the page once and emits each
visible text fragment together with its :class:`TextLocation`, and whether
it is inside a ``<form>`` — the split that defines the FC vs PC feature
spaces.

The scan builds no DOM tree.  :class:`_LocatedTextScanner` drives the
lexer of :mod:`repro.html.lexer` by position (:func:`~repro.html.lexer.markup_at`
at each ``<``, the text between as :func:`~repro.html.lexer.tokens`
chunks it), runs a stack machine over what it reads and keeps the
same open-element stack as :func:`~repro.html.parser.parse_html`
(implicit closers, void tags never pushed, stray end tags ignored,
``<x/>`` never opened), so every fragment it emits as a token arrives
is the fragment a walk of the parsed tree would find, in the same
order.  Each stack entry carries its location rank, form membership
and visibility, so a token costs a look at the top of the stack and
the scan needs no recursion, however deep the nesting.

Most of a form page's tokens are ``<option>``/``</option>`` pairs, and
each one pushes an entry, adds its text and pops the entry again.  So
right after a ``<select>`` opens (and no ``<title>`` is collecting),
the scan reads the run of plain options that follows with one
:data:`~repro.html.lexer.PLAIN_OPTION` match each, and hands the first
construct that pattern misses back to the token path.
"""

import enum
from dataclasses import dataclass
from html import unescape
from typing import List, NamedTuple, Optional, Tuple

from repro.html.dom import NON_VISIBLE_TAGS, SELF_NESTING_CLOSERS, VOID_TAGS
from repro.html.lexer import (
    END, PLAIN_OPTION, RAWTEXT_END, START, STARTEND, markup_at,
)


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
# in this order of precedence (TITLE beats OPTION beats ANCHOR).  The
# stack carries the rank; _LOCATIONS turns it back into a TextLocation.
_LOCATIONS = (
    TextLocation.BODY, TextLocation.ANCHOR, TextLocation.OPTION, TextLocation.TITLE,
)
_TAG_RANK = {"a": 1, "option": 2, "title": 3}

# Input types whose caption (value, else alt) renders as text.
_BUTTON_INPUTS = frozenset({"submit", "button", "image", "reset"})

# Input types that are not form attributes (hidden, or submit controls).
_UNCOUNTED_INPUTS = frozenset({"hidden", "submit", "image"})

# Controls that count toward a form's attribute_count.  <button> never
# does: Form.attribute_count sees every button as a submit control.
_CONTROLS = frozenset({"input", "select", "textarea"})

# Opening these needs more than a push (see _LocatedTextScanner._open).
_STATEFUL_TAGS = frozenset({"head", "title", "form", "select", "textarea"})

# The only tags whose attributes the scan reads.
_ATTR_TAGS = frozenset({"input", "img"})

# A stack entry: (tag, location rank, inside_form, hidden).
_Entry = Tuple[str, int, bool, bool]


def _attr(attrs: List[Tuple[str, Optional[str]]], name: str) -> str:
    """The last value of attribute ``name`` ('' when absent or bare),
    as the DOM's attribute dict would hold it."""
    for key, value in reversed(attrs):
        if key == name:
            return value or ""
    return ""


class _LocatedTextScanner:
    """One pass over the lexer's tokens: located text plus form sizes."""

    def __init__(self) -> None:
        self.fragments: List[LocatedText] = []
        self.attribute_count = 0
        self._stack: List[_Entry] = [("html", 0, False, False)]
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

    def scan(self, html: str) -> None:
        stack = self._stack
        emit = self.fragments.append
        find = html.find
        n = len(html)
        pos = 0
        while pos < n:
            lt = find("<", pos)
            if lt == pos:
                pos, token = markup_at(html, pos, n, _ATTR_TAGS)
                if token is None:
                    continue
                kind, value, attrs = token
                if kind == END:
                    if value == "html" or value in VOID_TAGS:
                        continue
                    for depth in range(len(stack) - 1, 0, -1):
                        if stack[depth][0] == value:
                            del stack[depth:]
                            if self._head_depth is not None or self._title_depth is not None:
                                self._truncated(depth)
                            break
                    continue
                if kind == STARTEND:
                    if value != "html":
                        self._leaf(value, attrs)
                    continue
                if kind == START:
                    if value == "html":
                        continue
                    if value in SELF_NESTING_CLOSERS and stack[-1][0] == value:
                        # <option>a<option>b  ==  <option>a</option><option>b</option>
                        stack.pop()
                    if value in VOID_TAGS:
                        self._leaf(value, attrs)
                    elif value in _STATEFUL_TAGS:
                        self._open(value)
                        if value == "select" and self._title_depth is None:
                            pos = self._options(html, pos)
                    else:
                        _, rank, inside_form, hidden = stack[-1]
                        own = _TAG_RANK.get(value, 0)
                        stack.append((
                            value, own if own > rank else rank, inside_form,
                            hidden or value in NON_VISIBLE_TAGS,
                        ))
                        if value in RAWTEXT_END:
                            pos = self._raw_text(html, value, pos)
                    continue
            else:
                if lt < 0:
                    lt = n
                value = unescape(html[pos:lt])
                pos = lt
            if self._title_depth is not None and value and not value.isspace():
                self._title.append(value)
            _, rank, inside_form, hidden = stack[-1]
            if not hidden:
                text = value.strip()
                if text:
                    emit(LocatedText(text, _LOCATIONS[rank], inside_form))
        if self._head_depth is not None:
            self._close_head()  # an unclosed <head> ends with the page

    def _raw_text(self, html: str, tag: str, pos: int) -> int:
        """Skip the raw body of the ``<script>``/``<style>`` just pushed
        and pop it; return the end of its end tag (of the page, if it
        never closes).  The body is hidden: only a collecting title
        reads it."""
        close = RAWTEXT_END[tag].search(html, pos)
        if close is None:
            return len(html)  # an unclosed raw-text body is dropped
        body = html[pos:close.start()]
        if self._title_depth is not None and body and not body.isspace():
            self._title.append(body)
        self._stack.pop()
        return close.end()

    def _options(self, html: str, pos: int) -> int:
        """Read the plain ``<option>text</option>`` run that follows the
        ``<select>`` just pushed, one match per option; return where the
        run ends.

        Each option pushes an entry, adds its text and pops it again, so
        under the same stack top and with no title collecting the token
        path would emit the same fragments.  The first construct
        :data:`PLAIN_OPTION` does not match is left to that path.
        """
        _, rank, inside_form, hidden = self._stack[-1]
        location = _LOCATIONS[max(rank, _TAG_RANK["option"])]
        emit = self.fragments.append
        option = PLAIN_OPTION.match
        while True:
            match = option(html, pos)
            if match is None:
                return pos
            pos = match.end()
            text = match.group(1)
            if text and not hidden:
                text = unescape(text).strip()
                if text:
                    emit(LocatedText(text, location, inside_form))

    # ----------------------------------------------------------------
    # Stack helpers.
    # ----------------------------------------------------------------

    def _open(self, tag: str) -> None:
        """Push one of the _STATEFUL_TAGS."""
        stack = self._stack
        _, rank, inside_form, hidden = stack[-1]
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
            rank = _TAG_RANK["title"]
        elif tag == "form":
            if not inside_form:
                self._form_fields = 0
            inside_form = True
        elif inside_form:  # select or textarea
            self._count_control()
        stack.append((tag, rank, inside_form, hidden or tag in NON_VISIBLE_TAGS))

    def _truncated(self, depth: int) -> None:
        """Close the title and head that the stack lost at ``depth``."""
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
        _, rank, inside_form, hidden = self._stack[-1]
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
                self.fragments.append(LocatedText(alt, _LOCATIONS[rank], inside_form))
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


def scan_page(html: str) -> PageScan:
    """Located text and the largest form's attribute count, in one pass.

    >>> scan = scan_page(
    ...     "<title>Jobs</title><form><input name=q><select></select></form>")
    >>> [(f.text, f.location.value) for f in scan.fragments], scan.attribute_count
    ([('Jobs', 'title')], 2)
    """
    scanner = _LocatedTextScanner()
    scanner.scan(html)
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
