"""Every cache that lives across calls has a row in the README cache table,
and every row of that table names such a cache.

An `ast` scan of `src/arthurcalc/*.py` lists each use of `functools.cache`
and `functools.lru_cache`: as a decorator, or called on a function. An
`lru_cache` with a `maxsize` other than None is bounded. `cache`, and an
`lru_cache` whose `maxsize` is None, are unbounded. A cache is named by its
module and the qualified name of the function it wraps, the name it is
assigned to, or the function that builds it.

The README table is the one list of caches, and its columns give each
cache's key, its bound (for an unbounded cache, the reason its key domain
is finite) and why it is kept. A row names its caches in its first cell
as `module.name`; a name there is a scanned cache, or a module-level dict
that a function of the package fills (`codec._root_texts`, the texts of
root fields keyed by the root's identity). The codec's one annotation
cache, `codec._codec`, builds each annotation's decoder and writer
together, so it has one row.

A cache that lives with one object is a `roots.cached_attribute`, the one
such mechanism: the last tests pin its behaviour and scan the package for
`functools.cached_property`.
"""

import ast
import re
from dataclasses import FrozenInstanceError, dataclass
from importlib import import_module
from pathlib import Path

import pytest

from arthurcalc.roots import cached_attribute

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arthurcalc"
README = ROOT / "README.md"
FACTORIES = {"cache", "lru_cache"}
HEADER = "| cache | key | bound | kept because |"


def cache_table(readme: str) -> dict[str, list[str]]:
    """The README cache table: each name in a row's first cell, with the
    row's cells."""
    lines = readme.splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        names = [name for name in re.findall(r"`([^`]+)`", cells[0]) if "." in name]
        assert names, f"a row that names no cache: {line}"
        for name in names:
            table[name] = cells
    return table


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
    # the allowlist is the README table, which lists every cache, bounded or not
    table = cache_table(README.read_text())
    caches = dict(package_caches())
    assert [name for name in caches if name not in table] == []
    for name, cells in table.items():
        assert len(cells) == 4 and all(cells), f"a row without its key, bound or reason: {name}"
        if name not in caches:  # a dict the scan cannot see
            module, attr = name.split(".")
            assert type(getattr(import_module(f"arthurcalc.{module}"), attr, None)) is dict, name
        else:
            # an unbounded cache states why its key domain is finite; a
            # bounded one names its size instead
            assert cells[2].startswith("finite: ") == (not caches[name]), name


def test_a_row_that_names_no_cache_fails():
    rule = HEADER + "\n|---|---|---|---|\n"
    readme = README.read_text().replace(rule, rule + "| `len` | x | y | z |\n")
    with pytest.raises(AssertionError, match="names no cache"):
        cache_table(readme)


def test_the_scan_sees_every_form_of_cache():
    names = dict(package_caches())
    assert names["lfactors._graded"] is True  # @lru_cache(maxsize=MAX_GRADINGS)
    assert names["nilpotent._partition_sl2"] is True  # @lru_cache(maxsize=MAX_PARTITIONS)
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
i = lru_cache(maxsize=None)(lambda k: k)

class H:
    def h(self):
        return cache(lambda k: k)
"""
    finder = CacheFinder("m")
    finder.visit(ast.parse(source))
    assert finder.found == [
        ("m.a", True), ("m.b", True), ("m.c", True), ("m.d", False), ("m.e", False),
        ("m.f", False), ("m.g", True), ("m.i", False), ("m.H.h", False),
    ]


# -- caches that live with one object ----------------------------------------


class Counted:
    def __init__(self):
        self.calls = 0

    @cached_attribute
    def value(self):
        """A fresh object per computation."""
        self.calls += 1
        return object()


@dataclass(frozen=True)
class Frozen:
    n: int

    @cached_attribute
    def doubled(self):
        return [2 * self.n]


def test_a_cached_attribute_computes_once_per_instance():
    a, b = Counted(), Counted()
    first = a.value
    assert a.value is first and a.calls == 1
    assert b.value is not first and b.calls == 1


def test_a_cached_attribute_read_on_the_class_is_the_descriptor():
    descriptor = Counted.value
    assert isinstance(descriptor, cached_attribute)
    assert descriptor.name == "value"
    assert descriptor.__doc__ == "A fresh object per computation."


def test_a_cached_attribute_works_on_a_frozen_dataclass():
    record = Frozen(3)
    assert record.doubled == [6]
    assert vars(record)["doubled"] is record.doubled
    with pytest.raises(FrozenInstanceError):
        record.n = 4
    # the stored value is no field: equality and hash stay the fields'
    assert record == Frozen(3) and hash(record) == hash(Frozen(3))


def cached_property_uses(tree: ast.AST) -> list[int]:
    """Lines that import, name or read `functools.cached_property`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "cached_property" for a in node.names)
        or isinstance(node, ast.Name) and node.id == "cached_property"
        or isinstance(node, ast.Attribute) and node.attr == "cached_property"
    ]


def test_one_cached_property_mechanism():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := cached_property_uses(ast.parse(path.read_text())))
    }
    assert found == {}
    # the scan sees each form of use
    source = "from functools import cached_property\nimport functools\nx = functools.cached_property\n"
    assert cached_property_uses(ast.parse(source)) == [1, 3]
