"""The benchmark's traced names still resolve in the program.

``perfbench/spans.py`` wraps the functions named in its ``TARGETS``
when ``perfbench/run.py --trace 1`` runs; a renamed or deleted function
makes that run fail at ``install()``.  This test imports the spans
module by path (the benchmark directory is not a package) and resolves
every target the way ``install()`` does: a ``Class.method`` must be
defined on the class itself, a plain name must be a module attribute.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


def test_targets_are_listed():
    assert TARGETS
    assert {module for module, *_ in TARGETS} >= {
        "repro.service.directory", "repro.core.incremental",
        "repro.index.directory_index",
    }


@pytest.mark.parametrize(
    "module_name, attr",
    [(module, attr) for module, attr, _, _ in TARGETS],
    ids=[f"{module}:{attr}" for module, attr, _, _ in TARGETS],
)
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        assert name in cls.__dict__, f"{module_name}.{attr} is not defined"
    else:
        assert callable(getattr(module, name)), f"{module_name}.{attr}"
