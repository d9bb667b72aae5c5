"""Tests for FormPageVectorizer (Equation 1 over a collection)."""

import pytest

from repro.core.form_page import RawFormPage
from repro.core.vectorizer import FormPageVectorizer
from repro.vsm.weights import LocationWeights


def raw(url, html, label=None, backlinks=()):
    return RawFormPage(url=url, html=html, backlinks=list(backlinks), label=label)


JOB_HTML = """
<html><head><title>Acme Jobs</title></head><body>
<p>career employment salary recruiter</p>
<form><b>Job Search</b><select name=cat>
<option>Engineering</option><option>Sales</option></select>
<input type=submit value=Search></form>
</body></html>
"""

HOTEL_HTML = """
<html><head><title>Zenith Hotels</title></head><body>
<p>hotel rooms lodging reservations amenities</p>
<form><b>Hotel Search</b><select name=city>
<option>Boston</option><option>Denver</option></select>
<input type=submit value=Search></form>
</body></html>
"""

BOOK_HTML = """
<html><head><title>Readmore Books</title></head><body>
<p>books authors publishers paperback novels</p>
<form><b>Book Search</b><input type=text name=title>
<input type=submit value=Search></form>
</body></html>
"""


class TestFitTransform:
    def _pages(self):
        vectorizer = FormPageVectorizer()
        pages = vectorizer.fit_transform(
            [
                raw("http://a.com/s", JOB_HTML, "job"),
                raw("http://b.com/s", HOTEL_HTML, "hotel"),
                raw("http://c.com/s", BOOK_HTML, "book"),
            ]
        )
        return vectorizer, pages

    def test_one_output_per_input(self):
        _, pages = self._pages()
        assert len(pages) == 3

    def test_labels_carried(self):
        _, pages = self._pages()
        assert [p.label for p in pages] == ["job", "hotel", "book"]

    def test_fc_contains_form_terms_only(self):
        _, pages = self._pages()
        job = pages[0]
        # "career" appears only outside the form.
        assert "career" not in job.fc
        assert "career" in job.pc

    def test_pc_superset_of_fc_terms(self):
        _, pages = self._pages()
        for page in pages:
            for term in page.fc.terms():
                assert term in page.pc

    def test_domain_terms_have_weight(self):
        _, pages = self._pages()
        job = pages[0]
        assert job.pc["salari"] > 0  # stemmed 'salary', unique to this page

    def test_ubiquitous_terms_dropped(self):
        _, pages = self._pages()
        # 'search' appears in every document (submit caption) -> IDF 0.
        for page in pages:
            assert "search" not in page.fc

    def test_term_counts_tracked(self):
        _, pages = self._pages()
        for page in pages:
            assert page.page_term_count >= page.form_term_count > 0

    def test_attribute_counts(self):
        _, pages = self._pages()
        assert pages[0].attribute_count == 1   # one select
        assert pages[2].attribute_count == 1   # one text input
        assert pages[2].is_single_attribute

    def test_backlinks_capped(self):
        vectorizer = FormPageVectorizer(max_backlinks=2)
        page = vectorizer.fit_transform(
            [raw("http://a.com/s", JOB_HTML, backlinks=["u1", "u2", "u3"])]
        )[0]
        assert len(page.backlinks) == 2


class TestTransformNew:
    def test_requires_fit(self):
        vectorizer = FormPageVectorizer()
        with pytest.raises(RuntimeError):
            vectorizer.transform_new(raw("http://x.com/", JOB_HTML))

    def test_new_page_scored_against_frozen_corpus(self):
        vectorizer = FormPageVectorizer()
        vectorizer.fit_transform(
            [
                raw("http://a.com/s", JOB_HTML),
                raw("http://b.com/s", HOTEL_HTML),
                raw("http://c.com/s", BOOK_HTML),
            ]
        )
        new_page = vectorizer.transform_new(raw("http://d.com/s", JOB_HTML))
        assert "career" in new_page.pc

    def test_unseen_terms_dropped(self):
        vectorizer = FormPageVectorizer()
        vectorizer.fit_transform([raw("http://a.com/s", JOB_HTML),
                                  raw("http://b.com/s", HOTEL_HTML)])
        alien = "<html><body><p>xylophone zebra</p><form><input type=text name=q></form></body></html>"
        new_page = vectorizer.transform_new(raw("http://d.com/s", alien))
        assert "xylophon" not in new_page.pc


class TestRefit:
    @pytest.mark.parametrize("scheme", ["eq1", "bm25"])
    def test_second_fit_equals_fresh_fit(self, small_raw_pages, scheme):
        """A fit starts from empty statistics: fitting one vectorizer
        twice gives the first fit's N, DFs and vectors, bit for bit."""
        raw_pages = small_raw_pages[:60]
        fresh = FormPageVectorizer(scheme=scheme)
        expected = fresh.fit_transform(raw_pages)
        refit = FormPageVectorizer(scheme=scheme)
        refit.fit_transform(raw_pages)
        pages = refit.fit_transform(raw_pages)
        assert refit.export_state() == fresh.export_state()
        assert refit.pc_corpus.document_count == len(raw_pages)
        assert [p.pc for p in pages] == [p.pc for p in expected]
        assert [p.fc for p in pages] == [p.fc for p in expected]
        probe = small_raw_pages[60]
        assert refit.transform_new(probe).pc == fresh.transform_new(probe).pc


class TestLocationWeighting:
    def test_title_terms_boosted(self):
        html_title = "<html><head><title>hotel</title></head><body><p>unrelated</p><form><input type=text name=q></form></body></html>"
        html_body = "<html><body><p>hotel unrelated</p><form><input type=text name=q></form></body></html>"
        other = "<html><body><p>filler words here</p><form><input type=text name=q></form></body></html>"
        vectorizer = FormPageVectorizer(location_weights=LocationWeights(title=3))
        pages = vectorizer.fit_transform(
            [raw("http://a.com/", html_title), raw("http://b.com/", html_body),
             raw("http://c.com/", other)]
        )
        assert pages[0].pc["hotel"] == pytest.approx(3 * pages[1].pc["hotel"])

    def test_option_terms_discounted(self):
        html_option = "<html><body><form><select name=g><option>jazz</option></select></form><p>pad</p></body></html>"
        html_label = "<html><body><form>jazz <input type=text name=g></form><p>pad</p></body></html>"
        other = "<html><body><p>other page entirely</p><form><input type=text name=q></form></body></html>"
        weights = LocationWeights(option=0.5)
        vectorizer = FormPageVectorizer(location_weights=weights)
        pages = vectorizer.fit_transform(
            [raw("http://a.com/", html_option), raw("http://b.com/", html_label),
             raw("http://c.com/", other)]
        )
        assert pages[0].fc["jazz"] == pytest.approx(0.5 * pages[1].fc["jazz"])

    def test_uniform_weights_equalize(self):
        vectorizer = FormPageVectorizer(location_weights=LocationWeights.uniform())
        html_title = "<html><head><title>hotel</title></head><body><form><input type=text name=q></form></body></html>"
        html_body = "<html><body>hotel<form><input type=text name=q></form></body></html>"
        other = "<html><body><p>different</p><form><input type=text name=q></form></body></html>"
        pages = vectorizer.fit_transform(
            [raw("http://a.com/", html_title), raw("http://b.com/", html_body),
             raw("http://c.com/", other)]
        )
        assert pages[0].pc["hotel"] == pytest.approx(pages[1].pc["hotel"])
