"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` replaces each ``(module, name)`` pair of its
``SITES`` table with a bare ``getattr``; a name that no longer resolves
crashes every traced command. The table is read from that file as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.SITES.items() for name in names]


@pytest.mark.parametrize("module_name,name", _sites())
def test_traced_name_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))
