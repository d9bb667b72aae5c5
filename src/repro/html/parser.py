"""Tolerant HTML -> DOM parsing on top of :mod:`repro.html.lexer`.

Real form pages (the paper's corpus was crawled in 2005-2006) are full of
unclosed tags, stray end tags and implicit nesting.  The parser below keeps
an open-element stack, auto-closes void tags, handles implicit closers
(``<option>`` after ``<option>``, ``<li>`` after ``<li>``, ...) and ignores
end tags that match nothing — it never raises on malformed input.

The located-text scanner in :mod:`repro.html.text_extract` applies the
same stack rules without building the tree; a change to one belongs in
both (``tests/test_located_scan.py`` checks they agree).
"""

from typing import List

from repro.html.dom import Element, SELF_NESTING_CLOSERS, Text, VOID_TAGS
from repro.html.lexer import END, START, TEXT, tokens


def parse_html(html: str) -> Element:
    """Parse ``html`` into a DOM tree rooted at a synthetic ``<html>`` node.

    The parser is tolerant: malformed markup produces a best-effort tree and
    never raises.

    >>> root = parse_html("<title>Jobs</title><form><input name=q></form>")
    >>> root.find("form").find("input").get("name")
    'q'
    """
    root = Element("html")
    stack: List[Element] = [root]
    for kind, value, attrs in tokens(html):
        if kind == TEXT:
            if value and not value.isspace():
                stack[-1].append(Text(value))
        elif kind == END:
            if value == "html" or value in VOID_TAGS:
                continue
            # Pop through the nearest open element; a stray end tag
            # matches nothing and is ignored.
            for depth in range(len(stack) - 1, 0, -1):
                if stack[depth].tag == value:
                    del stack[depth:]
                    break
        else:
            attr_dict = {name: (text or "") for name, text in attrs}
            if value == "html":
                # Merge attributes into the synthetic root instead of nesting.
                root.attrs.update(attr_dict)
                continue
            if kind == START and value in SELF_NESTING_CLOSERS and stack[-1].tag == value:
                # <option>a<option>b  ==  <option>a</option><option>b</option>
                stack.pop()
            element = Element(value, attr_dict)
            stack[-1].append(element)
            if kind == START and value not in VOID_TAGS:
                stack.append(element)
    return root
