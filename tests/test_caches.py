"""Every cache that lives across calls is bounded, or allowlisted with the
reason its key domain is what it is.

An `ast` scan of `src/arthurcalc/*.py` lists each use of `functools.cache`
and `functools.lru_cache`: as a decorator, or called on a function. An
`lru_cache` with a `maxsize` other than None is bounded. `cache`, and an
`lru_cache` whose `maxsize` is None, are unbounded, and each must be named
in `ALLOWED` with a one-line reason for its key domain. A cache is named by
its module and the qualified name of the function it wraps, the name it is
assigned to, or the function that builds it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arthurcalc"
FACTORIES = {"cache", "lru_cache"}

ALLOWED = {
    "cli._build_parser": "takes no arguments: one parser per process",
    "roots.build_root_datum": "keyed on a CartanSpec: at most 5 families x 24 ranks",
    "roots.dual_datum": "keyed on a RootDatum, whose matrix is its spec's Cartan matrix "
    "or the transpose: at most 2 per CartanSpec",
    "scenarios._trivial_sl2": "keyed on a dual CartanSpec: at most 5 families x 24 ranks",
    "scenarios._field_names": "keyed on a class",
    "scenarios._decoder": "keyed on an annotation of the package's records and its label",
    "scenarios._sorted_keys": "keyed on a class",
}


def is_factory(node: ast.AST) -> bool:
    """`cache`, `lru_cache`, `functools.cache` or `functools.lru_cache`."""
    if isinstance(node, ast.Name):
        return node.id in FACTORIES
    return isinstance(node, ast.Attribute) and node.attr in FACTORIES


def bounded(use: ast.AST) -> bool:
    """Whether a use of a factory (its bare name, or a call of it) keeps a
    bounded number of entries: `cache` never does, and `lru_cache` does
    unless its `maxsize` is None (bare, with no arguments or on a function,
    it keeps 128)."""
    factory = use.func if isinstance(use, ast.Call) else use
    if (factory.id if isinstance(factory, ast.Name) else factory.attr) == "cache":
        return False
    if not isinstance(use, ast.Call):
        return True
    maxsize = [k.value for k in use.keywords if k.arg == "maxsize"] + use.args[:1]
    return not (maxsize and isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None)


class CacheFinder(ast.NodeVisitor):
    """(qualified name, bounded) for each cache use in one module."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[tuple[str, bool]] = []

    def visit_Call(self, node: ast.Call) -> None:
        if not is_factory(node.func):
            self.generic_visit(node)
            return
        self.found.append((".".join(self.scope), bounded(node)))
        for child in node.args + [k.value for k in node.keywords]:
            self.visit(child)

    def visit_Name(self, node: ast.Name) -> None:
        if is_factory(node):
            self.found.append((".".join(self.scope), bounded(node)))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if is_factory(node):
            self.found.append((".".join(self.scope), bounded(node)))
        else:
            self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)  # the decorators too are named after it
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign | ast.AnnAssign) -> None:
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        self.scope.append(target.id if isinstance(target, ast.Name) else "<assign>")
        self.generic_visit(node)
        self.scope.pop()

    visit_AnnAssign = visit_Assign


def package_caches() -> list[tuple[str, bool]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = CacheFinder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        found += finder.found
    return found


def test_every_unbounded_cache_is_allowlisted_with_a_reason():
    caches = package_caches()
    unbounded = sorted({name for name, ok in caches if not ok})
    assert [name for name in unbounded if name not in ALLOWED] == []
    # no stale entry: each allowlisted name is an unbounded cache today
    assert sorted(ALLOWED) == unbounded
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())


def test_the_scan_sees_every_form_of_cache():
    names = dict(package_caches())
    assert names["lfactors._graded"] is True  # @lru_cache(maxsize=MAX_GRADINGS)
    assert names["nilpotent.sl2_from_partition"] is True  # @lru_cache(maxsize=MAX_PARTITIONS)
    assert names["scenarios._trivial_sl2"] is False  # lru_cache(maxsize=None)(lambda ...)
    assert names["cli._build_parser"] is False  # @functools.cache
    source = """
from functools import cache, lru_cache
import functools

@lru_cache
def a(x): ...

@lru_cache()
def b(x): ...

@lru_cache(64)
def c(x): ...

@functools.lru_cache(maxsize=None)
def d(x): ...

@cache
def e(x): ...

f = lru_cache(None)(len)
g: object = lru_cache(maxsize=8)(len)

class H:
    def h(self):
        return cache(lambda k: k)
"""
    finder = CacheFinder("m")
    finder.visit(ast.parse(source))
    assert finder.found == [
        ("m.a", True), ("m.b", True), ("m.c", True), ("m.d", False), ("m.e", False),
        ("m.f", False), ("m.g", True), ("m.H.h", False),
    ]
