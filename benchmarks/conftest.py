"""Shared benchmark fixtures.

Benchmarks operate on the full 454-page benchmark corpus (the paper's
scale).  Everything expensive and shared — generation, vectorization,
hub harvesting, the pairwise similarity matrix — is computed once per
session here so each bench times only its own experiment.

Every ``test_bench_*`` both *times* the experiment (via the
``benchmark`` fixture) and *prints* the regenerated table/figure next to
the paper's numbers, so ``pytest benchmarks/ --benchmark-only -s``
reproduces the paper's evaluation section end to end.
"""

import pytest

from repro.experiments.context import get_context


def pytest_addoption(parser):
    # ``make bench-smoke`` passes --timeout for environments that carry
    # pytest-timeout; this container does not, so accept the flag as a
    # no-op.  Guarded so a real pytest-timeout plugin wins if present.
    try:
        parser.addoption(
            "--timeout", action="store", default=None,
            help="accepted for compatibility; no-op without pytest-timeout",
        )
    except ValueError:
        pass


@pytest.fixture(scope="session")
def context():
    return get_context(seed=42)


@pytest.fixture(scope="session")
def sim_matrix(context):
    return context.similarity_matrix()


# The paper averages CAFC-C over 20 runs; benches use a smaller trial
# count so the whole suite stays in CI-friendly time.  Override with
# REPRO_BENCH_RUNS.
import os

BENCH_RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "12"))
