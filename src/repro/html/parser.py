"""Tolerant HTML -> DOM parsing on top of ``html.parser``.

Real form pages (the paper's corpus was crawled in 2005-2006) are full of
unclosed tags, stray end tags and implicit nesting.  The parser below keeps
an open-element stack, auto-closes void tags, handles implicit closers
(``<option>`` after ``<option>``, ``<li>`` after ``<li>``, ...) and ignores
end tags that match nothing — it never raises on malformed input.

The located-text scanner in :mod:`repro.html.text_extract` applies the
same stack rules without building the tree; a change to one belongs in
both (``tests/test_located_scan.py`` checks they agree).
"""

from html.parser import HTMLParser
from typing import List, Tuple

from repro.html.dom import Element, SELF_NESTING_CLOSERS, Text, VOID_TAGS


class _DomBuilder(HTMLParser):
    """Incremental DOM builder driven by html.parser events."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = Element("html")
        self._stack: List[Element] = [self.root]

    # ----------------------------------------------------------------
    # Stack helpers.
    # ----------------------------------------------------------------

    @property
    def _top(self) -> Element:
        return self._stack[-1]

    def _open(self, element: Element) -> None:
        self._top.append(element)
        self._stack.append(element)

    def _close_through(self, tag: str) -> bool:
        """Pop the stack through the nearest open ``tag``.

        Returns False (and pops nothing) when ``tag`` is not open — stray
        end tags are simply ignored.
        """
        for depth in range(len(self._stack) - 1, 0, -1):
            if self._stack[depth].tag == tag:
                del self._stack[depth:]
                return True
        return False

    # ----------------------------------------------------------------
    # html.parser callbacks.
    # ----------------------------------------------------------------

    def handle_starttag(self, tag: str, attrs: List[Tuple[str, str]]) -> None:
        tag = tag.lower()
        attr_dict = {name.lower(): (value or "") for name, value in attrs}
        if tag == "html":
            # Merge attributes into the synthetic root instead of nesting.
            self.root.attrs.update(attr_dict)
            return
        if tag in SELF_NESTING_CLOSERS and self._top.tag == tag:
            # <option>a<option>b  ==  <option>a</option><option>b</option>
            self._stack.pop()
        element = Element(tag, attr_dict)
        if tag in VOID_TAGS:
            self._top.append(element)
        else:
            self._open(element)

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, str]]) -> None:
        tag = tag.lower()
        attr_dict = {name.lower(): (value or "") for name, value in attrs}
        if tag == "html":
            self.root.attrs.update(attr_dict)
            return
        self._top.append(Element(tag, attr_dict))

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "html" or tag in VOID_TAGS:
            return
        self._close_through(tag)

    def handle_data(self, data: str) -> None:
        if data and not data.isspace():
            self._top.append(Text(data))

    def error(self, message: str) -> None:  # pragma: no cover - py<3.10 shim
        # html.parser in non-strict mode never calls this, but older
        # interpreters require the method to exist.
        pass


def parse_html(html: str) -> Element:
    """Parse ``html`` into a DOM tree rooted at a synthetic ``<html>`` node.

    The parser is tolerant: malformed markup produces a best-effort tree and
    never raises.

    >>> root = parse_html("<title>Jobs</title><form><input name=q></form>")
    >>> root.find("form").find("input").get("name")
    'q'
    """
    builder = _DomBuilder()
    builder.feed(html)
    builder.close()
    return builder.root
