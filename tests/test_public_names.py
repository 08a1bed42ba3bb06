"""Every public name of ncw has a caller in the package, or a reason here
that this test checks.

A public name is a top-level def, class or assignment of ``src/ncw/*.py``
(``__init__.py`` aside) whose name does not start with ``_``; every public
entry of ``ncw.__all__`` must be one.  A caller is a NAME token of that code
other than the definition itself: a name in a docstring, a comment or a
string does not count, and neither does a re-export in ``__init__.py``.

A public name without a caller needs an entry in REASONS, of one of three
kinds, each checked:

* ``("criterion", id)``: a ``test_criterion_<id>_*`` of
  ``tests/test_acceptance.py`` refers to the name;
* ``("paper", phrase)``: the phrase occurs verbatim in PAPER.md, and the
  name is what computes it;
* PENDING: ``bench/tracing.SPANNED`` wraps the name, so it stays until a
  change to the benchmark points SPANNED at the function that does its
  work.

An entry whose name no longer exists, or has gained a caller, is stale and
fails too.
"""

import ast
import io
import tokenize
from functools import cache
from pathlib import Path

import pytest

import ncw
from helpers import bench_tracing

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ncw"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
PAPER = ROOT / "PAPER.md"

PENDING = ("pending", "bench/tracing.SPANNED")

REASONS = {
    "flat_structure": ("criterion", "01"),
    "verify_coriolis_identity": ("criterion", "04a"),
    "raise_connection": ("criterion", "04b"),
    "extended_mil_bracket": ("criterion", "08"),
    "bargmann_bracket": ("criterion", "09"),
    "bargmann_from_field": ("criterion", "09"),
    "gal_extension_cocycle": ("criterion", "09"),
    "extended_gal_bracket": ("criterion", "09"),
    "noncentrality_check": ("criterion", "10"),
    "extended_cor_bracket": ("criterion", "11"),
    "gauge_bracket": ("criterion", "11"),
    "tensor_product": ("criterion", "11"),
    "FLAVORS": ("paper", r"{\it three} different nested Lie algebras"),
    "milne_standard_from_field": ("paper", "the newly highlighted Milne algebra"),
    "finite_gauge_apply": ("paper", "a Newtonian principle of general covariance"),
    "boost_for_coriolis": PENDING,
    "milne_f_split": PENDING,
    "galilei_f_solve": PENDING,
    "geodesic_connection": PENDING,
}


@cache
def package_names() -> tuple[dict[str, str], frozenset[str]]:
    """({public top-level name: its module}, the names that have a caller)."""
    defined: dict[str, str] = {}
    called: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        sites, def_lines = set(), set()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                def_lines.add(node.lineno)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stores = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                names = [n.id for n in stores]
                sites.update((n.lineno, n.col_offset) for n in stores)
            else:
                continue
            defined.update((name, path.stem) for name in names if not name.startswith("_"))
        previous = None
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                # the name a top-level def or class statement binds
                defines = previous in ("def", "class") and tok.start[0] in def_lines
                if not defines and tok.start not in sites:
                    called.add(tok.string)
            previous = tok.string
    return defined, frozenset(called)


def uncalled() -> dict[str, str]:
    defined, called = package_names()
    return {name: module for name, module in defined.items() if name not in called}


def test_every_public_name_has_a_caller_or_a_reason():
    missing = sorted(f"{m}.{name}" for name, m in uncalled().items() if name not in REASONS)
    assert not missing, f"public names with no caller in ncw and no reason: {missing}"


def test_every_entry_of_all_resolves_to_a_guarded_name():
    defined, _ = package_names()
    unresolved = [name for name in ncw.__all__ if not hasattr(ncw, name)]
    assert not unresolved, f"ncw.__all__ entries that do not resolve: {unresolved}"
    # a dunder such as __version__ is metadata, not API: it is not guarded
    unguarded = [n for n in ncw.__all__ if not n.startswith("_") and n not in defined]
    assert not unguarded, f"ncw.__all__ entries not defined at the top of a module: {unguarded}"


def test_all_is_every_name_init_imports_and_the_version():
    """``__all__`` is derived from the imports of ``__init__.py``: a
    re-export the derivation drops, or a private helper it lets in, fails."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(ncw.__all__) == sorted(imported + ["__version__"])
    private = [n for n in ncw.__all__ if n.startswith("_") and n != "__version__"]
    assert not private, f"private names in ncw.__all__: {private}"


@pytest.mark.parametrize("name", sorted(REASONS))
def test_no_reason_is_stale(name):
    defined, called = package_names()
    assert name in defined, f"{name} has a reason but is no public name of ncw"
    assert name not in called, f"{name} has a caller in ncw now: drop its reason"


@cache
def criteria() -> dict[str, set[str]]:
    """{test_criterion_* function: every name and attribute it refers to}."""
    tree = ast.parse(ACCEPTANCE.read_text())
    return {
        node.name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")
    }


@pytest.mark.parametrize("name", sorted(REASONS))
def test_each_reason_holds(name):
    kind, detail = REASONS[name]
    if kind == "criterion":
        tests = {t: refs for t, refs in criteria().items() if t.startswith(f"test_criterion_{detail}_")}
        assert tests, f"{name}: no acceptance criterion {detail}"
        assert any(name in refs for refs in tests.values()), (
            f"{name}: criterion {detail} ({', '.join(tests)}) does not refer to it"
        )
    elif kind == "paper":
        assert detail in PAPER.read_text(), f"{name}: PAPER.md does not say {detail!r}"
    else:
        assert (kind, detail) == PENDING, f"{name}: unknown reason {REASONS[name]!r}"
        module = f"ncw.{package_names()[0][name]}"
        spanned = {entry for names in bench_tracing().SPANNED.values() for entry in names}
        assert (module, name) in spanned, f"{name}: pending, but SPANNED does not wrap it"
