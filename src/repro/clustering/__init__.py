"""Generic clustering substrate.

The paper builds on two classic strategies (Section 2.2 and Section 4.3):

* :func:`repro.clustering.kmeans.kmeans` — a partition centroid-based
  k-means engine, parameterized over the point type via pluggable
  similarity and centroid functions, with the paper's stopping criterion
  (stop when fewer than a fraction of points move between clusters).
* :func:`repro.clustering.hac.hac` — hierarchical agglomerative clustering
  with single / complete / average linkage (Lance-Williams updates over a
  numpy similarity matrix), cut at ``k`` clusters.
* :mod:`repro.clustering.seeding` — random seed selection and the
  "HAC-over-a-sample" seeding scheme the paper evaluates in Section 4.3.
"""

import sys

from repro._lazy import LazyPackage

#: Public name -> the submodule that defines it, imported on first use,
#: so a served directory's drift recluster (batched k-means) loads
#: neither agglomerative clustering nor the mini-batch learner.
_EXPORTS = {
    "Linkage": "repro.clustering.hac",
    "hac": "repro.clustering.hac",
    "KMeansResult": "repro.clustering.kmeans",
    "kmeans": "repro.clustering.kmeans",
    "MiniBatchKMeans": "repro.clustering.minibatch",
    "ReservoirSample": "repro.clustering.minibatch",
    "hac_seed_groups": "repro.clustering.seeding",
    "random_seed_indices": "repro.clustering.seeding",
    "Clustering": "repro.clustering.types",
}

__all__ = list(_EXPORTS)

sys.modules[__name__].__class__ = LazyPackage
