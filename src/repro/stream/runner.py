"""Drive a full streamed organize run, and measure batch parity.

:func:`run_stream` wires the three streaming pieces together — the
drift-gated :class:`~repro.stream.ingest.StreamingIngestor`, the
reservoir-backed :class:`~repro.stream.organizer.StreamOrganizer` —
and consumes a page iterable without ever materializing it.

:func:`reference_parity` is the acceptance gate shared by ``repro
ingest --stream --smoke``, ``tests/test_stream.py`` and
``benchmarks/test_bench_stream.py``: organize the 454-page reference
corpus both ways (batch CAFC-C and streamed) and report entropy /
F-measure side by side.  The batch baseline is CAFC-C — content-only
with random seeding — because streamed pages carry no backlink graph,
so CAFC-CH's hub seeding would be comparing against information the
stream never sees.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.clustering.types import Clustering
from repro.core.config import CAFCConfig
from repro.core.form_page import RawFormPage
from repro.core.pipeline import CAFCPipeline
from repro.eval import overall_f_measure, total_entropy
from repro.stream.config import StreamConfig
from repro.stream.ingest import StreamedPage, StreamingIngestor
from repro.stream.organizer import StreamOrganizer


@dataclass
class StreamRunResult:
    """Everything a caller can want back from a streamed organize."""

    ingestor: StreamingIngestor
    organizer: StreamOrganizer
    # Populated only under ``keep_pages=True`` (reference-corpus runs);
    # unbounded streams must not retain their pages.
    pages: Optional[List[StreamedPage]]

    @property
    def stats(self):
        return self.ingestor.stats


def run_stream(
    raw_pages: Iterable[RawFormPage],
    n_clusters: int = 8,
    config: Optional[StreamConfig] = None,
    keep_pages: bool = False,
) -> StreamRunResult:
    """Stream ``raw_pages`` end to end: ingest, then cluster.

    One terminal re-weight runs after the stream is drained so
    late-arriving vocabulary enters the contexts and the reservoir
    (hence the centroids) reflects the final statistics — the state
    :meth:`StreamOrganizer.assign` labels against.
    """
    config = config or StreamConfig()
    ingestor = StreamingIngestor(config)
    organizer = StreamOrganizer(
        n_clusters, reservoir_size=config.reservoir_size
    ).attach(ingestor)
    kept: Optional[List[StreamedPage]] = [] if keep_pages else None

    for batch in ingestor.ingest(raw_pages):
        organizer.observe_batch(batch)
        if kept is not None:
            kept.extend(batch)

    organizer.ensure_ready()
    ingestor.reweight()
    return StreamRunResult(ingestor=ingestor, organizer=organizer, pages=kept)


def final_labeling(result: StreamRunResult) -> Clustering:
    """Label every kept page under the final contexts and centroids.

    Re-emits each page from its retained TF counters (so weights match
    the terminal re-weight) and assigns it with the trained organizer.
    Cluster order follows learner centroid order; empty clusters drop.
    """
    if result.pages is None:
        raise ValueError("final_labeling needs a keep_pages=True run")
    vectorizer = result.ingestor.vectorizer
    members: Dict[int, List[int]] = {}
    for position, entry in enumerate(result.pages):
        cluster, _ = result.organizer.assign(entry.reemit(vectorizer).page)
        members.setdefault(cluster, []).append(position)
    return Clustering([members[c] for c in sorted(members)])


def reference_parity(
    seed: int = 42,
    n_clusters: int = 8,
    config: Optional[StreamConfig] = None,
) -> Dict[str, object]:
    """Batch-vs-stream quality on the generated reference corpus.

    Returns entropy and overall F-measure for both paths plus their
    deltas (positive delta = stream worse).  The smoke gate and the
    benchmark pin tolerances on these deltas.
    """
    from repro.webgen import generate_benchmark

    web = generate_benchmark(seed=seed)
    raw = web.raw_pages()
    gold = web.labels()

    pipeline = CAFCPipeline(CAFCConfig(k=n_clusters))
    batch_result = pipeline.organize(raw, algorithm="cafc-c")
    position = {page.url: i for i, page in enumerate(raw)}
    batch_clustering = Clustering(
        [
            [position[page.url] for page in cluster.pages]
            for cluster in batch_result.clusters
        ]
    )
    batch_entropy = total_entropy(batch_clustering, gold)
    batch_f = overall_f_measure(batch_clustering, gold)

    run = run_stream(
        iter(raw), n_clusters=n_clusters, config=config, keep_pages=True
    )
    stream_clustering = final_labeling(run)
    stream_entropy = total_entropy(stream_clustering, gold)
    stream_f = overall_f_measure(stream_clustering, gold)

    return {
        "n_pages": len(raw),
        "batch": {"entropy": batch_entropy, "f_measure": batch_f},
        "stream": {
            "entropy": stream_entropy,
            "f_measure": stream_f,
            "reweights": run.stats.reweights,
            "pc_vocab": run.stats.pc_vocab,
            "fc_vocab": run.stats.fc_vocab,
        },
        "delta_entropy": stream_entropy - batch_entropy,
        "delta_f": batch_f - stream_f,
    }


__all__ = [
    "StreamRunResult",
    "final_labeling",
    "reference_parity",
    "run_stream",
]
