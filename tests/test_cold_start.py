"""The serving import path loads only what serving runs, and nothing in
the program needs SciPy.

Each check runs in a fresh interpreter with SciPy blocked
(``sys.modules["scipy"] = None`` makes any ``import scipy`` fail):

* a CAFC-CH organize of a small corpus, which runs Algorithm 3's
  all-pairs kernel over the hub centroids, saved as a snapshot;
* ``import repro.cli``, a ``FormDirectory.from_snapshot`` load of that
  snapshot and one classify, after which no batch-only module is loaded;
* a served directory's drift recluster (batched k-means), after which
  neither agglomerative clustering nor the mini-batch learner is loaded;
* every public name of ``repro`` and ``repro.core`` still resolves to
  what it names, whichever submodules were imported first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Modules only the batch pipeline, recluster or streaming ingest load.
BATCH_ONLY = (
    "repro.core.pipeline",
    "repro.core.cafc_ch",
    "repro.core.hubs",
    "repro.clustering.hac",
    "repro.clustering.minibatch",
)

BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"

ORGANIZE = BLOCK_SCIPY + """
from repro.core import CAFCConfig, CAFCPipeline
from repro.service import build_snapshot
from repro.webgen.corpus import generate_benchmark
from tests.conftest import small_config

raw = generate_benchmark(config=small_config()).raw_pages()
pipeline = CAFCPipeline(CAFCConfig(k=8, min_hub_cardinality=3))
result = pipeline.organize(raw, "cafc-ch")
build_snapshot(result, pipeline.vectorizer, pipeline.config).save(sys.argv[1])
print(json.dumps({"hub_seeded": result.used_hub_seeding, "pages": result.n_pages}))
"""

SERVE = BLOCK_SCIPY + """
import repro.cli
from repro.core.form_page import RawFormPage
from repro.service import FormDirectory

directory = FormDirectory.from_snapshot(sys.argv[1])
outcome = directory.classify(RawFormPage(
    url="http://cold-start.example/search",
    html="<html><body><form>Departure city <input name=from> "
         "Arrival city <input name=to> flights</form></body></html>",
))
print(json.dumps({"cluster": outcome.cluster, "modules": sorted(sys.modules)}))
"""

RECLUSTER = BLOCK_SCIPY + """
from repro.service import FormDirectory

directory = FormDirectory.from_snapshot(sys.argv[1], auto_recluster=False)
directory.recluster()
print(json.dumps({"reclusters": directory.n_reclusters, "modules": sorted(sys.modules)}))
"""

PUBLIC_NAMES = """
import types
import repro.core.pipeline  # binds the cafc_c / cafc_ch submodules first
import repro, repro.core, repro.clustering

for package in (repro, repro.core, repro.clustering):
    for name in package.__all__:
        value = getattr(package, name)
        assert not isinstance(value, types.ModuleType), (package.__name__, name)
from repro.core import cafc_c, cafc_ch
from repro.core.cafc_c import cafc_c as algorithm_1
from repro.core.cafc_ch import cafc_ch as algorithm_2
assert cafc_c is algorithm_1 and repro.cafc_c is algorithm_1
assert cafc_ch is algorithm_2 and repro.cafc_ch is algorithm_2
import repro.clustering.hac, repro.clustering.kmeans
from repro.clustering import hac, kmeans
from repro.clustering.hac import hac as agglomerative
from repro.clustering.kmeans import kmeans as partitional
assert hac is agglomerative and kmeans is partitional
print(json.dumps({"ok": True}))
"""


def run(code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", "import json\n" + code, *args],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "directory.json.gz"
    organized = run(ORGANIZE, str(path))
    assert organized["hub_seeded"], "the hub-distance kernel did not run"
    return path


def test_organize_without_scipy(snapshot):
    assert snapshot.exists()


def test_serving_loads_no_batch_module(snapshot):
    served = run(SERVE, str(snapshot))
    assert served["cluster"] >= 0
    modules = set(served["modules"])
    loaded = sorted(
        name for name in modules
        if name in BATCH_ONLY or name.startswith("repro.webgraph")
    )
    assert loaded == []
    assert "scipy.sparse" not in modules


def test_recluster_loads_no_hac_or_minibatch(snapshot):
    served = run(RECLUSTER, str(snapshot))
    assert served["reclusters"] == 1
    modules = set(served["modules"])
    assert "repro.clustering.kmeans" in modules
    assert "repro.clustering.hac" not in modules
    assert "repro.clustering.minibatch" not in modules


def test_public_names_resolve():
    assert run(PUBLIC_NAMES) == {"ok": True}
