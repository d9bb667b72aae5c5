"""Mini-batch k-means over sparse (PC, FC) pairs — the streaming organizer's core.

Batch k-means (:mod:`repro.clustering.kmeans`) re-assigns *every* point
each iteration, which assumes the collection fits in memory and can be
walked repeatedly.  A stream cannot be walked twice.  This module
implements the Sculley (WWW 2010) mini-batch variant: points arrive in
small batches, each point updates only its winning centroid, and the
per-centroid learning rate ``eta = 1 / count`` decays so centroids
converge to the running mean of everything ever assigned to them.

Two representation tricks keep the update O(nnz(point)) instead of
O(nnz(centroid)):

* centroids are held as ``alpha * weights`` — a scalar multiplier over a
  mutable ``{term id: float}`` dict — so the decay ``(1 - eta) * c``
  touches one scalar, and only the incoming point's coordinates are
  written;
* cosine assignment is scale-invariant, so scoring ignores ``alpha``
  entirely and divides by an incrementally maintained sum of squares.

The module is deliberately ignorant of :mod:`repro.core`: points are
anything with ``.pc`` / ``.fc`` :class:`~repro.vsm.vector.SparseVector`
attributes (``FormPage`` and ``VectorPair`` both qualify), which keeps
the clustering package a generic substrate.
"""

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.vsm.vector import SparseVector

# Rescale the alpha-trick accumulator before the multiplier underflows.
_ALPHA_FLOOR = 1e-9


class _SpaceCentroid:
    """One feature space of a mini-batch centroid: ``alpha * weights``."""

    __slots__ = ("weights", "alpha", "sumsq")

    def __init__(self, vector: Optional[SparseVector] = None) -> None:
        if vector is None:
            self.weights: Dict[int, float] = {}
            self.sumsq = 0.0
        else:
            # Struct-of-arrays internals: interned ids + packed floats.
            self.weights = dict(zip(vector._ids, vector._vals))
            self.sumsq = sum(w * w for w in self.weights.values())
        self.alpha = 1.0

    def cosine(self, vector: SparseVector, vector_norm: float) -> float:
        """Cosine against the true centroid (``alpha`` cancels)."""
        if self.sumsq <= 0.0 or vector_norm == 0.0:
            return 0.0
        weights = self.weights
        dot = 0.0
        for tid, value in zip(vector._ids, vector._vals):
            hit = weights.get(tid)
            if hit is not None:
                dot += value * hit
        if dot == 0.0:
            return 0.0
        return dot / (math.sqrt(self.sumsq) * vector_norm)

    def blend(self, vector: SparseVector, eta: float) -> None:
        """``c <- (1 - eta) * c + eta * x`` in O(nnz(x))."""
        decay = 1.0 - eta
        if decay <= 0.0:
            # eta == 1: the centroid *becomes* the point (first assignment).
            self.weights = dict(zip(vector._ids, vector._vals))
            self.sumsq = sum(w * w for w in self.weights.values())
            self.alpha = 1.0
            return
        self.alpha *= decay
        self.sumsq *= decay * decay
        if self.alpha < _ALPHA_FLOOR:
            alpha = self.alpha
            self.weights = {
                tid: value * alpha for tid, value in self.weights.items()
            }
            self.sumsq = sum(w * w for w in self.weights.values())
            self.alpha = 1.0
        scale = eta / self.alpha
        weights = self.weights
        sumsq = self.sumsq
        for tid, value in zip(vector._ids, vector._vals):
            old = weights.get(tid, 0.0)
            new = old + value * scale
            weights[tid] = new
            sumsq += new * new - old * old
        self.sumsq = max(sumsq, 0.0)

    def to_vector(self) -> SparseVector:
        alpha = self.alpha
        return SparseVector.from_ids(
            (tid, value * alpha) for tid, value in self.weights.items()
        )


class MiniBatchKMeans:
    """Streaming centroid maintenance with Equation-3 assignment.

    ``seeds`` are the initial centroids as ``.pc`` / ``.fc`` holders.
    Scoring is the paper's Equation 3 (FC+PC, C1 = C2 = 1), the only
    configuration the streaming path runs.  :meth:`partial_fit`
    consumes one mini-batch; :meth:`assign` scores without mutating
    (the final labeling pass).  Determinism: ties break toward the
    lowest centroid index, matching the batch engine's argmax.
    """

    def __init__(self, seeds: Sequence) -> None:
        if not seeds:
            raise ValueError("need at least one seed centroid")
        self.pc: List[_SpaceCentroid] = [
            _SpaceCentroid(seed.pc) for seed in seeds
        ]
        self.fc: List[_SpaceCentroid] = [
            _SpaceCentroid(seed.fc) for seed in seeds
        ]
        self.counts: List[int] = [1] * len(self.pc)
        self.n_updates = 0

    def __len__(self) -> int:
        return len(self.counts)

    def similarity(self, point) -> List[float]:
        """Equation-3 score of ``point`` against every centroid:
        ``(cos(PC) + cos(FC)) * 0.5``."""
        pc = point.pc
        fc = point.fc
        pc_norm = getattr(point, "pc_norm", None)
        fc_norm = getattr(point, "fc_norm", None)
        if pc_norm is None:
            pc_norm = pc.norm()
        if fc_norm is None:
            fc_norm = fc.norm()
        return [
            (
                self.pc[index].cosine(pc, pc_norm)
                + self.fc[index].cosine(fc, fc_norm)
            ) * 0.5
            for index in range(len(self.counts))
        ]

    def assign(self, point) -> Tuple[int, float]:
        """Best centroid for ``point`` (no mutation); ties to lowest index."""
        scores = self.similarity(point)
        best = max(range(len(scores)), key=lambda i: (scores[i], -i))
        return best, scores[best]

    def partial_fit(self, batch: Sequence) -> List[int]:
        """Absorb one mini-batch (assign, then per-point centroid update).

        Assignment for the whole batch happens against the centroids as
        they stood at batch entry (the Sculley formulation: cache the
        centroid per point, then apply learning-rate updates), so the
        result is independent of intra-batch order effects on scoring.
        """
        assignments = [self.assign(point)[0] for point in batch]
        for point, index in zip(batch, assignments):
            self.counts[index] += 1
            eta = 1.0 / self.counts[index]
            self.pc[index].blend(point.pc, eta)
            self.fc[index].blend(point.fc, eta)
            self.n_updates += 1
        return assignments

    def centroid_pairs(self) -> List:
        """Materialize the centroids as :class:`~repro.core.form_page.
        VectorPair` objects (imported lazily — layering)."""
        from repro.core.form_page import VectorPair

        return [
            VectorPair(pc=self.pc[i].to_vector(), fc=self.fc[i].to_vector())
            for i in range(len(self.counts))
        ]

    def reseed(self, seeds: Sequence) -> None:
        """Replace centroid coordinates (a re-weight event re-vectorized
        them); the counts, hence the learning-rate schedule, carry on."""
        if len(seeds) != len(self.counts):
            raise ValueError("reseed must preserve the number of centroids")
        self.pc = [_SpaceCentroid(seed.pc) for seed in seeds]
        self.fc = [_SpaceCentroid(seed.fc) for seed in seeds]


class ReservoirSample:
    """Deterministic Algorithm-R reservoir over a stream.

    Keeps a uniform sample of at most ``capacity`` items using a seeded
    RNG, so two runs over the same stream retain the same members.  The
    streaming organizer re-clusters on this bounded set instead of full
    passes, and re-vectorizes it on re-weight events.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.items: List = []
        self.n_seen = 0
        self._rng = random.Random(f"repro.reservoir:{seed}")

    def __len__(self) -> int:
        return len(self.items)

    def offer(self, item) -> bool:
        """Consider one stream item; returns True when it was retained."""
        self.n_seen += 1
        if len(self.items) < self.capacity:
            self.items.append(item)
            return True
        slot = self._rng.randrange(self.n_seen)
        if slot < self.capacity:
            self.items[slot] = item
            return True
        return False

    def replace_all(self, items: Sequence) -> None:
        """Swap the retained items in place (re-vectorization on
        re-weight); membership and order are preserved."""
        if len(items) != len(self.items):
            raise ValueError("replace_all must preserve reservoir size")
        self.items = list(items)


__all__ = ["MiniBatchKMeans", "ReservoirSample"]
