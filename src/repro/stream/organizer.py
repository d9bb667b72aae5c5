"""The streaming organizer: bounded-memory clustering over a page stream.

Memory model (the whole point): O(vocabulary + k centroids + reservoir),
independent of stream length.  The organizer keeps

* a deterministic :class:`~repro.clustering.minibatch.ReservoirSample`
  of :class:`~repro.stream.ingest.StreamedPage` entries — each retains
  its LOC-weighted TF counters, so re-weight events can re-vectorize
  the reservoir without HTML or re-analysis;
* one :class:`~repro.clustering.minibatch.MiniBatchKMeans` learner,
  bootstrapped from ``k`` seeded-random reservoir members once
  ``bootstrap_pages`` have streamed past (forced by :meth:`ensure_ready`
  at end of stream for short streams).

Per batch, the learner takes one ``partial_fit`` over the emitted
pages.  At a re-weight event (registered via
:meth:`StreamingIngestor.on_reweight`) the old contexts' vectors become
stale **as a set**: cosines among same-context vectors are still
meaningful, but blending new-context points into old-context centroids
is not.  The organizer therefore re-emits every reservoir member under
the fresh contexts and rebuilds each centroid as the mean of the
re-emitted members assigned to it (assignment taken under the *old*
contexts, where it was well-defined); a cluster left empty keeps a
re-emission of its nearest member.  Learning-rate counts survive, so
the schedule keeps decaying across re-weights.

Final labeling is :meth:`assign` — score-only, no mutation — which the
parity harness runs over the whole corpus after a terminal re-weight.
"""

import random
from typing import List, Optional, Sequence, Tuple

from repro.clustering.minibatch import MiniBatchKMeans, ReservoirSample
from repro.core.form_page import FormPage, VectorPair
from repro.stream.ingest import StreamedPage, StreamingIngestor
from repro.vsm.vector import mean_vector


class StreamOrganizer:
    """Mini-batch clustering driven by a :class:`StreamingIngestor`.

    ``n_clusters`` is the paper's ``k``; assignment is the paper's
    Equation 3 (FC+PC, C1 = C2 = 1).  Construct, then :meth:`attach` to
    an ingestor (wires the re-weight listener), then feed every emitted
    batch to :meth:`observe_batch`.
    """

    def __init__(
        self,
        n_clusters: int,
        reservoir_size: int = 512,
        bootstrap_pages: int = 256,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        self.n_clusters = n_clusters
        self.bootstrap_pages = max(bootstrap_pages, n_clusters)
        self.reservoir = ReservoirSample(reservoir_size)
        self._seed_rng = random.Random("repro.stream.organizer:0")
        self.learner: Optional[MiniBatchKMeans] = None
        self.n_reweight_rebuilds = 0

    # ----------------------------------------------------------------
    # Wiring.
    # ----------------------------------------------------------------

    def attach(self, ingestor: StreamingIngestor) -> "StreamOrganizer":
        ingestor.on_reweight(self._on_reweight)
        return self

    @property
    def ready(self) -> bool:
        return self.learner is not None

    # ----------------------------------------------------------------
    # Streaming.
    # ----------------------------------------------------------------

    def observe_batch(self, batch: Sequence[StreamedPage]) -> None:
        """Absorb one emitted batch (the learner trains on it once
        bootstrapped)."""
        for entry in batch:
            self.reservoir.offer(entry)
        if self.learner is None:
            if self.reservoir.n_seen < self.bootstrap_pages:
                return
            self._bootstrap()
            # The bootstrap already trained on the reservoir, which
            # contains (a sample of) this batch; fall through to
            # partial_fit anyway — one extra pass is harmless and keeps
            # the code path uniform.
        self.learner.partial_fit([entry.page for entry in batch])

    def ensure_ready(self) -> None:
        """Force a bootstrap at end-of-stream for short streams."""
        if self.learner is None:
            if not self.reservoir.items:
                raise RuntimeError("cannot bootstrap an empty stream")
            self._bootstrap()

    def assign(self, page: FormPage) -> Tuple[int, float]:
        """Best cluster for ``page`` (score-only; the final labeling pass)."""
        if self.learner is None:
            raise RuntimeError("organizer not bootstrapped yet")
        return self.learner.assign(page)

    def centroid_pairs(self) -> List[VectorPair]:
        if self.learner is None:
            raise RuntimeError("organizer not bootstrapped yet")
        return self.learner.centroid_pairs()

    # ----------------------------------------------------------------
    # Internals.
    # ----------------------------------------------------------------

    def _bootstrap(self) -> None:
        members = self.reservoir.items
        k = min(self.n_clusters, len(members))
        seed_entries = self._seed_rng.sample(members, k)
        self.learner = MiniBatchKMeans([entry.page for entry in seed_entries])
        pages = [entry.page for entry in members]
        for _ in range(3):
            for start in range(0, len(pages), 64):
                self.learner.partial_fit(pages[start : start + 64])

    def _on_reweight(self, ingestor: StreamingIngestor) -> None:
        """Re-vectorize the reservoir and rebuild centroids in the new
        weight space (see module docstring)."""
        entries = self.reservoir.items
        if not entries:
            return
        learner = self.learner
        # Assignment under the old contexts, where centroid cosines are
        # well-defined; falls back to "everything in cluster 0" before
        # bootstrap (the reservoir is then just a holding pen).
        if learner is not None:
            assigned = [learner.assign(entry.page)[0] for entry in entries]
        else:
            assigned = [0] * len(entries)

        refreshed = [entry.reemit(ingestor.vectorizer) for entry in entries]
        self.reservoir.replace_all(refreshed)

        if learner is None:
            return
        by_cluster: List[List[FormPage]] = [[] for _ in range(len(learner))]
        for entry, cluster in zip(refreshed, assigned):
            by_cluster[cluster].append(entry.page)
        seeds: List[VectorPair] = []
        for cluster, members in enumerate(by_cluster):
            if members:
                seeds.append(
                    VectorPair(
                        pc=mean_vector([p.pc for p in members]),
                        fc=mean_vector([p.fc for p in members]),
                    )
                )
            else:
                # Emptied cluster: keep it alive on its nearest member
                # (scored under the old contexts, taken re-emitted) so a
                # later batch can still win it back.
                scores = [
                    learner.similarity(entry.page)[cluster]
                    for entry in entries
                ]
                nearest = max(
                    range(len(refreshed)),
                    key=lambda i: (scores[i], -i),
                )
                page = refreshed[nearest].page
                seeds.append(VectorPair(pc=page.pc, fc=page.fc))
        learner.reseed(seeds)
        self.n_reweight_rebuilds += 1


__all__ = ["StreamOrganizer"]
