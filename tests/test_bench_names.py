"""Every function the benchmark's tracer wraps still exists in ncw.

``bench/tracing.py`` patches ncw from outside, by (module, qualified name);
a rename or deletion in ncw would otherwise only surface as a failing
``--trace 1`` run.  This test reads ``bench/`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

import pytest

import ncw.cli  # noqa: F401  (loads every ncw module, as the tracer does)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


_spec = importlib.util.spec_from_file_location("ncw_bench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TRACED = [
    (group, module, qualname)
    for group, names in tracing.SPANNED.items()
    for module, qualname in names
]


@pytest.mark.parametrize("group, module, qualname", TRACED)
def test_traced_name_resolves(group, module, qualname):
    _, fn = tracing._resolve(module, qualname)
    assert callable(fn), f"{group}: {module}.{qualname} is not callable"
