"""The HTML lexer against the standard library's ``html.parser``.

:func:`repro.html.lexer.tokens` must emit exactly the events a
``html.parser`` subclass records (``tests/oracle.py``), and
:func:`repro.html.parser.parse_html` must build exactly the tree the
stdlib-driven builder does.  The one place the two routes part is the
end of input, where the lexer follows the HTML5 tokenizer; that rule is
pinned on its own here, along with the linear time it buys on hostile
input.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.dom import Text
from repro.html.lexer import END, START, STARTEND, TEXT, tokens
from repro.html.parser import parse_html
from repro.html.text_extract import scan_page
from repro.webgen.stream import page_at
from tests.oracle import stdlib_parse_html, stdlib_tokens
from tests.test_located_scan import EDGE_CASES, tag_soup

# ----------------------------------------------------------------------
# Token-level differential test.
# ----------------------------------------------------------------------

_PIECES = [
    "<", "</", "<!--", "-->", "--", "<?", "?>", "<!doctype html", "<!DOCTYPE",
    "<!", ">", "/>", "/", "'", '"', "=", "==", " ", "\n", "\t", "\x0b", "\xa0",
    "a", "B", "p", "Title", "x=y/", "x=/y/", "b='c'", 'c="d e"', "d=e/",
    "&amp;", "&#39;", "&lt", "&copy", "&#x41;", "&", "&#1;",
    "<script>", "</script>", "<SCRIPT type=x>", "</scrip", "</script >",
    "<style>", "</STYLE >", "<style/>", "script", "style",
    "<a href=", "<a HREF='/x?a=1&amp;b=2'>", "</A>", "<input type=submit value=",
    "<INPUT TYPE=Image ALT=Go>", "<img alt=", "<title>", "</title>", "<p",
    "<br/>", "<div class='c'>", "</div>", "<A B=C D>", "<form>", "</form>",
    "<option>", "<select>", "`", "\x00", "é", "<![CDATA[", "]]>", "<![if x]>",
]

html_soup = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(alphabet="ab<>/='\" &;", max_size=6)),
    max_size=40,
).map("".join)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(html_soup)
def test_tokens_match_stdlib_events(html):
    assert list(tokens(html)) == stdlib_tokens(html), html


@pytest.mark.parametrize("seed", [1, 7])
def test_streamed_page_tokens_match_stdlib(seed):
    for index in range(100):
        html = page_at(index, seed=seed).html
        assert list(tokens(html)) == stdlib_tokens(html)


def test_attr_tags_limits_only_attributes():
    html = "<p class=x><input type=submit value=Go><img alt=logo/><a href=y>z</a>"
    wanted = frozenset({"input", "img"})
    full = list(tokens(html))
    limited = list(tokens(html, wanted))
    assert [token[:2] for token in limited] == [token[:2] for token in full]
    for (kind, tag, attrs), (_, _, full_attrs) in zip(limited, full):
        if kind in (START, STARTEND):
            assert attrs == (full_attrs if tag in wanted else [])


# ----------------------------------------------------------------------
# The DOM built from the lexer equals the stdlib-driven tree.
# ----------------------------------------------------------------------

def tree(node):
    if isinstance(node, Text):
        return node.data
    return (node.tag, sorted(node.attrs.items()), [tree(child) for child in node.children])


def assert_same_tree(html):
    assert tree(parse_html(html)) == tree(stdlib_parse_html(html)), html


def test_tree_on_paper_corpus(benchmark_raw_pages):
    for raw in benchmark_raw_pages:
        assert_same_tree(raw.html)


@pytest.mark.parametrize("html", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_tree_on_edge_cases(html):
    assert_same_tree(html)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tag_soup)
def test_tree_on_tag_soup(html):
    assert_same_tree(html)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(html_soup)
def test_tree_on_html_soup(html):
    assert_same_tree(html)


# ----------------------------------------------------------------------
# End of input: an unterminated construct runs to the end of the page.
# ----------------------------------------------------------------------

UNTERMINATED = {
    "comment": "<p>kept</p><!-- never closed, lost",
    "comment with a gt": "<p>kept</p><!-- never closed -> lost",
    "declaration": "<p>kept</p><!doctype html lost",
    "bogus comment": "<p>kept</p><!x lost",
    "instruction": "<p>kept</p><?php lost",
    "marked section": "<p>kept</p><![CDATA[ lost>",
    "start tag": "<p>kept</p><a href=x lost",
    "start tag in a quote": "<p>kept</p><a title='x>lost</a>",
    "start tag at a bare slash": "<p>kept</p><a/",
    "end tag": "<p>kept</p></a lost",
}


@pytest.mark.parametrize("html", UNTERMINATED.values(), ids=UNTERMINATED.keys())
def test_unterminated_construct_ends_the_page(html):
    assert [token for token in tokens(html) if token[0] == TEXT] == [
        (TEXT, "kept", None)
    ]
    assert [f.text for f in scan_page(html).fragments] == ["kept"]


def test_end_of_input_keeps_text_and_drops_raw_text_bodies():
    assert list(tokens("a &amp; b <")) == [(TEXT, "a & b ", None), (TEXT, "<", None)]
    assert list(tokens("<p>a</p><script>never")) == [
        (START, "p", []), (TEXT, "a", None), (END, "p", None), (START, "script", []),
    ]


def test_nameless_marked_section_is_a_bogus_comment():
    # html.parser raises AssertionError on these.
    assert list(tokens("<![ x]>a<![foo[y]>b")) == [(TEXT, "a", None), (TEXT, "b", None)]


# ----------------------------------------------------------------------
# Hostile input scans in linear time.
# ----------------------------------------------------------------------

HOSTILE_BYTES = 512 * 1024
HOSTILE_CPU_SECONDS = 2.0


def _repeat(unit):
    return unit * (HOSTILE_BYTES // len(unit))


HOSTILE = {
    "open attribute quote": _repeat("<a b='"),
    "open comment": _repeat("<!--"),
    "open instruction": _repeat("<?x"),
    "open end tag": _repeat("</a"),
    "open doctype": _repeat("<!doctype"),
    "script end tag prefixes": "<script>" + _repeat("</scrip"),
    "closed quoted tags": _repeat("<a b ='x>"),
    "lone angle brackets": _repeat("< a"),
    "option end tags without gt": "<select>" + _repeat("<option>x</option"),
    "open option quotes": "<select>" + _repeat("<option value='"),
    "options never closed": "<select>" + _repeat("<option>"),
    "closed option run": "<select>" + _repeat("<option>x</option> "),
    "selects with a broken option": _repeat("<select><option value='a>x</option"),
}


@pytest.mark.parametrize("html", HOSTILE.values(), ids=HOSTILE.keys())
@pytest.mark.parametrize("route", [scan_page, parse_html], ids=["scan", "dom"])
def test_hostile_input_is_linear(route, html):
    start = time.process_time()
    route(html)
    elapsed = time.process_time() - start
    assert elapsed < HOSTILE_CPU_SECONDS, f"{elapsed:.2f} s of CPU"


def test_hostile_tag_is_dropped_whole():
    assert parse_html(HOSTILE["open attribute quote"]).children == []


def test_runtime_does_not_import_html_parser():
    code = (
        "import sys, repro.cli, repro.service.app\n"
        "from repro.html import extract_forms, scan_page\n"
        "scan_page('<p>a</p>'); extract_forms('<form><input></form>')\n"
        "assert 'html.parser' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
