"""One linear-time HTML lexer for the located-text scan and the DOM.

:func:`tokens` turns a page into a flat stream of ``(kind, value,
attrs)`` tuples:

* ``(TEXT, data, None)``: character data, charrefs resolved with
  :func:`html.unescape` (the raw bodies of ``<script>``/``<style>`` and
  malformed start tags stay as written);
* ``(START, tag, attrs)`` and ``(STARTEND, tag, attrs)``: ``<tag ...>``
  and ``<tag .../>``, the tag lowercased, ``attrs`` a list of
  ``(name, value)`` pairs (``value`` is ``None`` for a bare attribute);
* ``(END, tag, None)``: ``</tag>``.

Comments, ``<!...>`` declarations and ``<?...>`` instructions are
skipped.  Text is chunked exactly as the standard library's
``html.parser`` (with ``convert_charrefs=True``) hands it to
``handle_data``: one chunk between two pieces of markup, and a ``<``
that opens no markup is a chunk of its own.

Tokenization follows ``html.parser`` on every input but one kind.  A
plain tag (``<name attr=v ...>``) is read by one regex; anything else
falls back to the stdlib rules, which are copied here.  The exception
is the end of input.  Where ``html.parser`` would wait for more input
(a comment, declaration, instruction or tag that never closes), its
``close()`` re-reads the rest as text, and re-scans to the end of input
from every later ``<``: quadratic time on hostile input.  This lexer
follows the HTML5 tokenizer instead: at end of input, an unterminated
comment, declaration or instruction closes and an unterminated tag is
dropped.  Either way the construct runs to the end of the page, so
nothing after it is emitted.  An unclosed ``<script>``/``<style>``
body is dropped too, as ``html.parser`` drops it.  Each byte is
visited a bounded number of times.

:func:`tokens` is a loop over :func:`markup_at` (one piece of markup
at a ``<``) and :data:`RAWTEXT_END`; the located-text scan drives the
same two by position, and adds :data:`PLAIN_OPTION`, which reads one
``<option>`` with its text in a single match, under the same attribute
grammar as a plain tag.
"""

import re
from html import unescape
from typing import Dict, Iterator, List, Optional, Pattern, Tuple

TEXT, START, STARTEND, END = range(4)

Attrs = List[Tuple[str, Optional[str]]]
Token = Tuple[int, str, Optional[Attrs]]

#: Tags whose body is raw text up to the matching end tag.
RAWTEXT_END: Dict[str, Pattern] = {
    tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")
}

# A plain end tag, or a plain start tag: ASCII whitespace only, attribute
# names and bare values from a conservative alphabet.  Whatever it matches, the stdlib rules
# below read the same way; whatever it misses, they read instead.
_WS = r"[ \t\n\r\f]"
_NAME = r"[a-zA-Z_:][-.:\w]*"
_VALUE = r"""(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+)"""
_PLAIN_ATTRS = rf"(?:{_WS}+{_NAME}(?:{_WS}*={_WS}*{_VALUE})?)*"
_PLAIN_TAG = re.compile(
    r"<(?:/([a-zA-Z][-.a-zA-Z0-9:_]*)\s*"  # an end tag, as html.parser reads it
    rf"|([a-zA-Z][-.:\w]*)({_PLAIN_ATTRS}){_WS}*(/?))>"
)

# "option", any case, spelled letter by letter: under re.I the "i"
# would also match "\u0130" and "\u0131", which name other tags.
_OPTION = "[oO][pP][tT][iI][oO][nN]"
#: Whitespace, then one plain ``<option ...>text</option>``, read as
#: :func:`tokens` reads it: a whitespace TEXT, START, one TEXT (group 1,
#: not yet unescaped) and END.
PLAIN_OPTION = re.compile(
    rf"\s*<{_OPTION}{_PLAIN_ATTRS}{_WS}*>([^<]*)</{_OPTION}\s*>"
)
_PLAIN_ATTR = re.compile(rf"{_WS}+({_NAME})(?:{_WS}*={_WS}*({_VALUE}))?")

# The stdlib rules (``html.parser`` and ``_markupbase``, Python 3.10-3.12).
_TAG_FIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR_FIND = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*'
)
_START_TAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECL_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_SECTION_CLOSE = re.compile(r"]\s*]\s*>")
_MS_MARKED_SECTION_CLOSE = re.compile(r"]\s*>")
_MARKED_SECTIONS = frozenset({"temp", "cdata", "ignore", "include", "rcdata"})
_MS_MARKED_SECTIONS = frozenset({"if", "else", "endif"})

_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_INCOMPLETE_AFTER_TAG = _ASCII_LETTERS | {"=", ""}


def tokens(html: str, attr_tags: Optional[frozenset] = None) -> Iterator[Token]:
    """Tokenize ``html`` in one pass.

    ``attr_tags`` limits which plain start tags get their attributes
    built (the others carry an empty list); ``None`` builds them all.

    >>> list(tokens("<p class=x>a &amp; b</p><!-- c --><br/>"))
    [(1, 'p', [('class', 'x')]), (0, 'a & b', None), (3, 'p', None), (2, 'br', [])]
    """
    find = html.find
    n = len(html)
    pos = 0
    while pos < n:
        lt = find("<", pos)
        if lt < 0:
            yield TEXT, unescape(html[pos:]), None
            return
        if lt > pos:
            yield TEXT, unescape(html[pos:lt]), None
        pos, token = markup_at(html, lt, n, attr_tags)
        if token is None:
            continue
        yield token
        if token[0] == START and token[1] in RAWTEXT_END:
            close = RAWTEXT_END[token[1]].search(html, pos)
            if close is None:
                return  # an unclosed raw-text body is dropped
            if close.start() > pos:
                yield TEXT, html[pos:close.start()], None
            yield END, token[1], None
            pos = close.end()


def markup_at(
    html: str, lt: int, n: int, attr_tags: Optional[frozenset]
) -> Tuple[int, Optional[Token]]:
    """The markup at ``html[lt] == '<'``: where it ends, and its token
    (``None`` for one that emits nothing).  An unterminated construct
    ends at ``n == len(html)``; ``attr_tags`` is as for :func:`tokens`.
    """
    match = _PLAIN_TAG.match(html, lt)
    if match is None:
        return _markup(html, lt, n)
    end_tag, tag, raw_attrs, slash = match.groups()
    if end_tag:
        return match.end(), (END, end_tag.lower(), None)
    tag = tag.lower()
    if raw_attrs and (attr_tags is None or tag in attr_tags):
        attrs = _plain_attrs(raw_attrs)
    else:
        attrs = []
    return match.end(), (STARTEND if slash else START, tag, attrs)


def _plain_attrs(raw: str) -> Attrs:
    attrs: Attrs = []
    for name, value in _PLAIN_ATTR.findall(raw):
        if not value:
            attrs.append((name.lower(), None))
            continue
        if value[0] in "'\"":
            value = value[1:-1]
        attrs.append((name.lower(), unescape(value) if value else value))
    return attrs


def _markup(html: str, i: int, n: int) -> Tuple[int, Optional[Token]]:
    """The construct at ``html[i] == '<'`` that the plain-tag regex
    missed: where it ends, and its token (``None`` for one that emits
    nothing).  An unterminated construct ends at ``n``."""
    nxt = html[i + 1:i + 2]
    if nxt in _ASCII_LETTERS:
        return _start_tag(html, i, n)
    if nxt == "/":
        return _end_tag(html, i, n)
    if html.startswith("<!--", i):
        close = _COMMENT_CLOSE.search(html, i + 4)
        return (close.end() if close else n), None
    if nxt == "?":
        return _after_gt(html, i + 2, n), None
    if nxt == "!":
        return _declaration(html, i, n), None
    return i + 1, (TEXT, "<", None)


def _after_gt(html: str, start: int, n: int) -> int:
    """Just past the first ``>`` at or after ``start``, else ``n``."""
    gt = html.find(">", start)
    return gt + 1 if gt >= 0 else n


def _start_tag(html: str, i: int, n: int) -> Tuple[int, Optional[Token]]:
    # html.parser's check_for_whole_start_tag ...
    j = _START_TAG_END.match(html, i).end()
    nxt = html[j:j + 1]
    if nxt == ">":
        endpos = j + 1
    elif nxt == "/":
        if not html.startswith("/>", j):
            return n, None
        endpos = j + 2
    elif nxt in _INCOMPLETE_AFTER_TAG:
        return n, None
    else:
        endpos = j
    # ... and parse_starttag.
    match = _TAG_FIND.match(html, i + 1)
    k = match.end()
    tag = match.group(1).lower()
    attrs: Attrs = []
    while k < endpos:
        match = _ATTR_FIND.match(html, k)
        if not match:
            break
        name, rest, value = match.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value:
            value = unescape(value)
        attrs.append((name.lower(), value))
        k = match.end()
    end = html[k:endpos].strip()
    if end == ">":
        return endpos, (START, tag, attrs)
    if end == "/>":
        return endpos, (STARTEND, tag, attrs)
    return endpos, (TEXT, html[i:endpos], None)


def _end_tag(html: str, i: int, n: int) -> Tuple[int, Optional[Token]]:
    gt = html.find(">", i + 1)
    if gt < 0:
        return n, None
    match = _END_TAG.match(html, i)
    if match:
        return gt + 1, (END, match.group(1).lower(), None)
    name = _TAG_FIND.match(html, i + 2)
    if not name:
        if html.startswith("</>", i):
            return i + 3, None
        return gt + 1, None  # a bogus comment
    # Whatever sits between the name and the '>' is ignored.
    return html.find(">", name.end()) + 1, (END, name.group(1).lower(), None)


def _declaration(html: str, i: int, n: int) -> int:
    """End of a ``<!...>`` that is not a ``<!--`` comment."""
    if html.startswith("<![", i):
        return _marked_section(html, i, n)
    if html[i:i + 9].lower() == "<!doctype":
        return _after_gt(html, i + 9, n)
    return _after_gt(html, i + 2, n)  # a bogus comment


def _marked_section(html: str, i: int, n: int) -> int:
    if i + 3 == n:
        return n
    name = _DECL_NAME.match(html, i + 3)
    if name is None:
        # html.parser raises on a nameless section; read a bogus comment.
        return _after_gt(html, i + 2, n)
    if name.end() == n:
        return n
    keyword = name.group().strip().lower()
    if keyword in _MARKED_SECTIONS:
        close = _MARKED_SECTION_CLOSE.search(html, i + 3)
    elif keyword in _MS_MARKED_SECTIONS:
        close = _MS_MARKED_SECTION_CLOSE.search(html, i + 3)
    else:
        # html.parser raises on an unknown keyword; read a bogus comment.
        return _after_gt(html, i + 2, n)
    return close.end() if close else n
