"""The one-pass located-text scanner against the DOM oracle.

:func:`repro.html.text_extract.scan_page` must yield exactly the
``(text, location, inside_form)`` fragments and the largest-form
``attribute_count`` that parsing a tree with the standard library's
``html.parser``, walking it and extracting its forms
(``tests/oracle.py``) gives — on the paper corpus, on streamed pages,
on hand-built edge cases and on seeded tag soup.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.label_extraction import extract_attribute_labels
from repro.core.config import CAFCConfig
from repro.core.form_page import RawFormPage
from repro.core.pipeline import CAFCPipeline
from repro.html.forms import extract_forms
from repro.html.parser import parse_html
from repro.html.text_extract import TextLocation, extract_located_text, scan_page
from repro.link_analysis.anchor_text import _anchors_in
from repro.parallel.ingest import analyze_form_page
from repro.service.app import DirectoryApp
from repro.service.directory import FormDirectory
from repro.service.snapshot import build_snapshot
from repro.text.analyzer import TextAnalyzer
from repro.webgen.stream import page_at
from tests.oracle import (
    dom_attribute_count, dom_located_text, dom_page_analysis, stdlib_parse_html,
)


def fragments(located):
    return [(f.text, f.location, f.inside_form) for f in located]


def assert_matches_oracle(html):
    scan = scan_page(html)
    root = stdlib_parse_html(html)
    assert fragments(scan.fragments) == fragments(dom_located_text(root)), html
    assert scan.attribute_count == dom_attribute_count(root), html


class TestRealPages:
    def test_paper_corpus(self, benchmark_raw_pages):
        for raw in benchmark_raw_pages:
            assert_matches_oracle(raw.html)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_streamed_pages(self, seed):
        for index in range(150):
            assert_matches_oracle(page_at(index, seed=seed).html)

    def test_page_analysis_equals_oracle(self, benchmark_raw_pages):
        analyzer = TextAnalyzer()
        for raw in benchmark_raw_pages:
            assert analyze_form_page(raw, analyzer) == dom_page_analysis(raw, analyzer)

    def test_anchor_texts_follow_page_terms(self):
        raw = RawFormPage("http://a.com/", "<p>hotel deals</p>",
                          anchor_texts=["cheap flights"])
        analyzer = TextAnalyzer()
        analysis = analyze_form_page(raw, analyzer)
        assert analysis == dom_page_analysis(raw, analyzer)
        assert analysis.on_page_terms == 2
        assert analysis.runs[-1] == (TextLocation.ANCHOR, False, ["cheap", "flight"])


EDGE_CASES = {
    "empty title before the real one":
        "<head><title/><title>Real</title></head><p>body</p>",
    "unclosed head": "<head><title>Only</title><p>swallowed",
    "head inside noscript":
        "<noscript><head><title>Gone</title></head></noscript><p>kept</p>",
    "title nested in a title":
        "<head><title>Outer <title>Inner</title> tail</title></head>",
    "body title nested in a title": "<title>a<title>b</title>c</title>",
    "title inside noscript inside head":
        "<head><noscript><title>Found</title></noscript><title>Later</title></head>",
    "form in head":
        "<head><form><title>T</title><input name=q><select></select></form></head>",
    "head in form":
        "<form><head><title>In form</title></head><input name=a></form>",
    "form closed inside head": "<form><head><title>X</title></form><p>after</p>",
    "head closed by an ancestor": "<div><head><title>T</title></div><p>after</p>",
    "nested heads": "<head><head><title>A</title></head><title>B</title></head>",
    "nested forms":
        "<form><input name=a><form><input name=b><select></select></form>"
        "<textarea></textarea></form><form><input name=c></form>",
    "input types":
        "<form><input type=IMAGE alt='go img'><input type=hidden value=h>"
        "<input type=reset value=Clear><input type=Submit value=Go>"
        "<input type=button value=''><input type=text placeholder=city>"
        "<input type=checkbox><button>Press</button></form>",
    "empty value falls back to alt":
        "<form><input type=submit value='' alt='Search now'></form>",
    "duplicate attributes": "<form><input type=hidden type=text placeholder=a"
                            " placeholder=b></form>",
    "whitespace-only caption": "<form><input type=submit value='  '></form>",
    "img locations":
        "<a href=x><img alt=logo></a><option><img alt=opt></option>"
        "<title><img alt=t></title><img alt=plain>",
    "input inside title and anchor":
        "<title><input type=submit value=Go></title><a><input placeholder=p></a>",
    "self-closing tags":
        "<form><input/><select/><textarea/><form/><div/>text<a/>more</form>",
    "implicit closers":
        "<select><option>a<option>b<option/>c</select><p>x<p>y<li>z<li>w",
    "stray end tags": "</form></a><a>link</title>text</option></a></div>",
    "html tags": "<html lang=en><p>a</p></html><html>b</html>",
    "hidden regions":
        "<script>x<b>y</b></script><style>s</style><template><p>t</p>"
        "<input placeholder=tp></template><noscript>n<img alt=i></noscript>ok",
    "form inside template":
        "<template><form><input name=a><input name=b></form></template>",
    "void end tags": "<p>a</br>b</input>c</img></p>",
    "charrefs and split data": "<p>a &amp; b < c &lt; d</p><a>x &gt y</a>",
    "unclosed script at the end": "<p>seen</p><script>never",
    "comments and declarations":
        "<!DOCTYPE html><!-- c --><p>a<!-- d -->b</p><?pi x?>",
}


@pytest.mark.parametrize("html", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_case_matches_oracle(html):
    assert_matches_oracle(html)


def test_head_title_emitted_once_when_head_closes():
    located = extract_located_text(
        "<p>before</p><head><title>Outer<title>Inner</title>tail</title>"
        "</head><p>after</p>"
    )
    assert fragments(located) == [
        ("before", TextLocation.BODY, False),
        ("Outer Inner tail", TextLocation.TITLE, False),
        ("after", TextLocation.BODY, False),
    ]


def test_empty_head_title_hides_later_titles():
    assert extract_located_text("<head><title/><title>Real</title></head>") == []


def test_attribute_count_counts_largest_form():
    scan = scan_page(EDGE_CASES["nested forms"])
    # The outer form holds a, b, the select and the textarea.
    assert scan.attribute_count == 4


# ----------------------------------------------------------------------
# Seeded tag soup.
# ----------------------------------------------------------------------

_TAGS = [
    "title", "head", "option", "a", "form", "script", "style", "noscript",
    "template", "select", "textarea", "button", "p", "li", "div", "span",
    "td", "tr", "html", "label", "input", "img", "br",
]
_ATTRS = [
    "", " type=submit value=Go", " type=image alt=pic", " type=hidden value=h",
    " type=reset", " type=TEXT placeholder='city name'", " value='' alt=Alt",
    " alt=logo", " placeholder=p", " type=checkbox",
]
_TEXTS = ["job", "cheap flights", "  ", "a &amp; b", "x < y", "\n", "Hotel"]

_token = st.one_of(
    st.builds("<{}{}>".format, st.sampled_from(_TAGS), st.sampled_from(_ATTRS)),
    st.builds("<{}{}/>".format, st.sampled_from(_TAGS), st.sampled_from(_ATTRS)),
    st.builds("</{}>".format, st.sampled_from(_TAGS)),
    st.sampled_from(_TEXTS),
)
tag_soup = st.lists(_token, max_size=40).map("".join)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tag_soup)
def test_tag_soup_matches_oracle(html):
    assert_matches_oracle(html)


# ----------------------------------------------------------------------
# Option runs: the scan reads a <select>'s plain options one match
# each and leaves whatever else it meets to the token path.
# ----------------------------------------------------------------------

_OPTION_OPENS = ["<option{}>", "<OPTION{}>", "<Option{} >", "<option{}\n>"]
_OPTION_ATTRS = [
    "", " value=a", ' value="a>b"', " value='a>b'", " value='say \"hi\"'",
    " value=\"it's\"", " selected", " selected value=x value=y",
    " VALUE = 'q>'", " data-x=1/", " a=`b`",
]
_OPTION_TEXTS = [
    "Engineer", "a &amp; b", "x &lt; y", "  ", "\n\t", "", "&nbsp;", "5 > 3",
]
# "" leaves the option to its implicit closer.
_OPTION_CLOSES = ["</option>", "</OPTION>", "</Option >", "</option\n>", ""]
_option = st.builds(
    lambda gap, tag, attrs, text, close: gap + tag.format(attrs) + text + close,
    st.sampled_from(["", " ", "\n  "]), st.sampled_from(_OPTION_OPENS),
    st.sampled_from(_OPTION_ATTRS), st.sampled_from(_OPTION_TEXTS),
    st.sampled_from(_OPTION_CLOSES),
)
_SELECT_EXTRAS = [
    "<optgroup label='g>h'>", "</optgroup>", "<select>", "</select>",
    "<option/>", "loose text", "<b>bold</b>", "<!-- c -->", "</option>",
]
# (prefix, suffix): where the <select> sits.
_SELECT_CONTEXTS = [
    ("<form>", "</form>"), ("", ""), ("<form><title>", "</title></form>"),
    ("<head><title>", "</title></head>"), ("<title>", "</title>"),
    ("<form><a href=x>", "</a></form>"), ("<form><noscript>", "</noscript></form>"),
    ("<template><form>", "</form></template>"), ("<head>", "</head>"),
]
# Ends of input inside an option run.
_RUN_CUTS = [
    "<option>cut", "<option value='a", "<option>x</option", "<option>x</opt",
    "<opt", "<option>x</option>  ",
]


@st.composite
def select_pages(draw):
    prefix, suffix = draw(st.sampled_from(_SELECT_CONTEXTS))
    page = prefix + draw(st.sampled_from(["<select>", "<SELECT name=s>", "<select\n>"]))
    page += "".join(draw(st.lists(
        st.one_of(_option, st.sampled_from(_SELECT_EXTRAS)), max_size=8)))
    cut = draw(st.one_of(st.none(), st.sampled_from(_RUN_CUTS)))
    if cut is not None:
        return page + cut
    return page + draw(st.sampled_from(["</select>", ""])) + suffix + draw(
        st.sampled_from(["", "<p>after</p>", "<select><option>again</option></select>"]))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(select_pages())
def test_option_runs_match_oracle(html):
    assert_matches_oracle(html)


OPTION_CASES = {
    "quoted gt in a value": '<form><select><option value="a>b">x</option></select></form>',
    "dotted capital I is another tag":
        "<form><select><opt\u0130on>x</opt\u0130on><option>y</option></select></form>",
    "dotless i is another tag":
        "<select><opt\u0131on>x</option><option>y</opt\u0131on></select>",
    "run then implicit closer":
        "<form><select><option>a</option><option>b<option>c</select></form>",
    "run under a collecting title":
        "<head><title><select><option>a</option></select></title></head>",
}


@pytest.mark.parametrize("html", OPTION_CASES.values(), ids=OPTION_CASES.keys())
def test_option_case_matches_oracle(html):
    assert_matches_oracle(html)


def test_option_text_after_a_quoted_gt():
    scan = scan_page(OPTION_CASES["quoted gt in a value"])
    assert fragments(scan.fragments) == [("x", TextLocation.OPTION, True)]
    assert scan.attribute_count == 1


# ----------------------------------------------------------------------
# Deep nesting.
# ----------------------------------------------------------------------

DEPTH = 10_000
DEEP_PAGE = (
    "<title>Deep jobs</title>" + "<div>" * DEPTH
    + "<form><input name=city placeholder='job city'><select><option>Engineer"
    + "</option></select></form>" + "</div>" * DEPTH
)


def test_deep_nesting_is_analyzed():
    analysis = analyze_form_page(RawFormPage("http://deep.com/", DEEP_PAGE),
                                 TextAnalyzer())
    assert [term for _, _, terms in analysis.fc_runs for term in terms] == [
        "job", "citi", "engin",
    ]
    assert analysis.runs[0] == (TextLocation.TITLE, False, ["deep", "job"])
    assert analysis.attribute_count == 2


def test_deep_nesting_classifies(small_raw_pages):
    config = CAFCConfig(k=4, min_hub_cardinality=3)
    pipeline = CAFCPipeline(config)
    result = pipeline.organize(small_raw_pages)
    directory = FormDirectory.from_snapshot(
        build_snapshot(result, pipeline.vectorizer, config),
        cache_size=0, auto_recluster=False,
    )
    app = DirectoryApp(directory)
    try:
        body = json.dumps({"url": "http://deep.com/", "html": DEEP_PAGE})
        response = app.handle("POST", "/classify", lambda: body.encode("utf-8"))
        assert response.status == 200, response.body
        assert json.loads(response.body)["ok"] is True
    finally:
        app.close()



def _deep_page(depth):
    return DEEP_PAGE.replace("<div>" * DEPTH, "<div>" * depth).replace(
        "</div>" * DEPTH, "</div>" * depth)


def _deep_form(depth):
    return (
        "<title>Deep jobs</title>" + "<div>" * depth
        + "<form><label>Job city <input name=city></label>" + "<span>" * depth
        + "<a href='/all'>all jobs</a><select><option>Engineer</option></select>"
        + "</span>" * depth + "</form>" + "</div>" * depth
    )


@pytest.mark.parametrize("page", [_deep_page, _deep_form])
def test_deep_nesting_on_the_dom_route(page):
    """The tree, forms, labels and anchors of a deep page equal those of
    the same page nested three deep."""
    deep, shallow = page(DEPTH), page(3)
    root = parse_html(deep)
    extra_elements = (deep.count("<") - shallow.count("<")) // 2
    assert len(list(root.iter())) == len(list(parse_html(shallow).iter())) + extra_elements
    assert root.text_content() == parse_html(shallow).text_content()
    assert extract_forms(deep) == extract_forms(shallow)
    assert extract_attribute_labels(deep) == extract_attribute_labels(shallow)
    assert _anchors_in(deep) == _anchors_in(shallow)
