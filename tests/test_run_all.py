"""Tests for the run-all experiment driver and markup invariance."""

import random

import pytest

from repro.experiments.run_all import experiment_names, run_all
from repro.text.analyzer import TextAnalyzer
from repro.webgen.pages_gen import _paragraphs


class TestRunAll:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_all(only="nonsense")

    def test_single_experiment_report(self):
        report = run_all(only="corpus_profile", n_runs=1)
        assert "Section 4.1" in report
        assert "Figure 2" not in report

    def test_experiment_names_stable(self):
        names = experiment_names()
        assert "fig2" in names and "robustness" in names
        assert len(names) == len(set(names))


class TestSharedMatrixParity:
    def test_direct_table2_matches_run_all(self):
        """``run_table2`` computing its own matrix gives the same cells
        as the run-all shared matrix node."""
        from repro.experiments import table2
        from repro.experiments.context import get_context

        report = run_all(only="table2", n_runs=1)
        direct = table2.run_table2(get_context(seed=42), n_kmeans_runs=1)
        assert table2.format_table2(direct) in report


class TestSloppyMarkupInvariance:
    """Sloppy markup must change the HTML but never the visible terms."""

    def test_same_analyzed_terms(self):
        from repro.html.text_extract import page_text

        words = ["flight", "hotel", "career", "album"] * 6
        analyzer = TextAnalyzer()
        clean = _paragraphs(words, random.Random(3), sloppy=False)
        sloppy = _paragraphs(words, random.Random(3), sloppy=True)
        assert clean != sloppy  # the markup differs ...
        clean_terms = sorted(analyzer.analyze(page_text(f"<body>{clean}</body>")))
        sloppy_terms = sorted(analyzer.analyze(page_text(f"<body>{sloppy}</body>")))
        assert clean_terms == sloppy_terms  # ... the content does not

    def test_sloppy_markup_parses(self):
        from repro.html.parser import parse_html

        words = ["job"] * 40
        sloppy = _paragraphs(words, random.Random(1), sloppy=True)
        root = parse_html(f"<html><body>{sloppy}</body></html>")
        assert root.find("p") is not None
