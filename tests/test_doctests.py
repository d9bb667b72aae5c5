"""Run the executable examples embedded in module docstrings.

Keeps the ``>>>`` snippets in API docstrings honest — they are the first
thing a reader tries.
"""

import doctest
import importlib

import pytest

# Modules that carry ``>>>`` examples.  Imported by name (not attribute
# access) because package __init__ re-exports can shadow submodules.
MODULE_NAMES = [
    "repro.text.tokenize",
    "repro.html.lexer",
    "repro.html.parser",
    "repro.html.text_extract",
    "repro.html.forms",
    "repro.webgraph.urls",
    "repro.webgen.domains",
    "repro.experiments.reporting",
]


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0, f"{module_name} has no doctests"
