"""Every function the benchmark's tracer wraps still exists in ncw, and
the solver's assembly still calls the operators it wraps.

``bench/tracing.py`` patches ncw from outside, by (module, qualified name);
a rename or deletion in ncw would otherwise only surface as a failing
``--trace 1`` run, and work moved into an unwrapped private function only as
a per-layer figure that quietly drops.  These tests read ``bench/`` and
change nothing there.
"""

import pytest

import ncw.cli  # noqa: F401  (loads every ncw module, as the tracer does)
from helpers import bench_tracing

tracing = bench_tracing()

TRACED = [
    (group, module, qualname)
    for group, names in tracing.SPANNED.items()
    for module, qualname in names
]


@pytest.mark.parametrize("group, module, qualname", TRACED)
def test_traced_name_resolves(group, module, qualname):
    _, fn = tracing._resolve(module, qualname)
    assert callable(fn), f"{group}: {module}.{qualname} is not callable"


def test_the_tracer_sees_the_solvers_operator_calls():
    # the solver assembles through the public Lie operators, which the
    # tracer spans; a private copy of one would hide assembly from the
    # tensors.lie group.  A milne solve takes L_X gamma and L_X theta, then
    # L_Y G and its raised transport, each once (L_Y G spans a Lie
    # derivative of its own)
    import ncw.solver
    from ncw.structures import flat_structure

    s = flat_structure(2).induced_nc()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ncw.solver.solve_symmetries(s, "milne", 1)
    finally:
        tracer.uninstall()
    lie, solve = tracing.GROUPS.index("tensors.lie"), tracing.GROUPS.index("solver.solve")
    spans = list(zip(tracer.group, tracer.parent))
    assert sum(g == lie and p >= 0 and tracer.group[p] == solve for g, p in spans) == 4
