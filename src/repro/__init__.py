"""repro — a reproduction of CAFC (Context-Aware Form Clustering).

Implements "Organizing Hidden-Web Databases by Clustering Visible Web
Documents" (Barbosa, Freire, Silva — ICDE 2007): the form-page model, the
CAFC-C and CAFC-CH clustering algorithms, every substrate they stand on
(HTML parsing, text analysis, TF-IDF, k-means/HAC, a simulated web with a
`link:` backlink API), and the paper's full experimental harness.

Quickstart::

    from repro import CAFCConfig, CAFCPipeline
    from repro.webgen import generate_benchmark

    corpus = generate_benchmark(seed=42)
    pipeline = CAFCPipeline(CAFCConfig(k=8))
    result = pipeline.organize(corpus.raw_pages())
    for cluster in result.clusters:
        print(cluster.size, cluster.top_terms)
"""

__version__ = "1.0.0"

__all__ = [
    "CAFCConfig",
    "CAFCPipeline",
    "CAFCResult",
    "ContentMode",
    "FormPage",
    "RawFormPage",
    "cafc_c",
    "cafc_ch",
    "__version__",
]


def __getattr__(name):
    # Public names load on first use, so ``import repro.cli`` (or the
    # server) loads only what it runs; :mod:`repro.core` resolves them.
    if name in __all__:
        from repro import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
