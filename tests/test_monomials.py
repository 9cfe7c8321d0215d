"""One construction of exact values from integer pairs.

`parameters.monomials_over(D, pairs)` turns integer pairs over one
denominator into `QMonomial`s: the coordinates of a parameter the package
builds and the eigenvalues of an L-factor. An `ast` scan of
`src/arthurcalc/*.py` lists each call of `QMonomial`, named by its module
and the qualified name of the function that makes it, and allows exactly
three: `monomials_over`, `evaluate_root` (the certificate) and
`recompose_parameter` (the public path that builds a parameter by hand).
The report decoder builds its values from strings through the record's
annotations and calls no constructor by name.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arthurcalc.lfactors import eigenvalues_by_level, grade_nilradical, l_factor, pole_locations
from arthurcalc.parameters import (
    QMonomial,
    monomials_over,
    recompose_parameter,
    unit_parameter,
)
from arthurcalc.roots import CartanSpec, build_root_datum

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arthurcalc"

CONSTRUCTIONS = {
    "parameters.monomials_over",
    "parameters.evaluate_root",
    "parameters.recompose_parameter",
}


class ConstructionFinder(ast.NodeVisitor):
    """The qualified name of the scope of each call of `QMonomial` (by name
    or as an attribute) in one module."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: list[str] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "QMonomial":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_AsyncFunctionDef = visit_FunctionDef


def package_constructions() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        finder = ConstructionFinder(path.stem)
        finder.visit(ast.parse(path.read_text()))
        found += finder.found
    return found


def test_values_are_built_in_one_function_and_two_named_paths():
    assert sorted(set(package_constructions())) == sorted(CONSTRUCTIONS)


def test_the_scan_sees_every_form_of_call():
    source = """
from arthurcalc import parameters
from arthurcalc.parameters import QMonomial

one = QMonomial()

def f(x):
    return [QMonomial(x) for _ in range(2)]

class C:
    def g(self):
        return parameters.QMonomial(angle=self)

    @property
    def h(self):
        return (lambda: QMonomial(self))()
"""
    finder = ConstructionFinder("m")
    finder.visit(ast.parse(source))
    assert finder.found == ["m", "m.f", "m.C.g", "m.C.h"]


@st.composite
def denominators_and_pairs(draw):
    D = draw(st.integers(1, 60))
    pair = st.tuples(st.integers(-3 * D, 3 * D), st.integers(0, D - 1))
    # pairs drawn from a small pool, so some repeat
    pool = draw(st.lists(pair, min_size=1, max_size=8))
    return D, draw(st.lists(st.sampled_from(pool), max_size=30))


@settings(max_examples=300, deadline=None)
@given(denominators_and_pairs())
def test_monomials_over_builds_each_distinct_value_once(drawn):
    D, pairs = drawn
    values = monomials_over(D, iter(pairs))
    assert type(values) is tuple
    assert values == tuple(QMonomial(Fraction(e, D), Fraction(a, D)) for e, a in pairs)
    # one QMonomial per distinct pair, and one Fraction per distinct numerator
    assert len({id(v) for v in values}) == len(set(pairs))
    for v, pair in zip(values, pairs):
        assert all((v is w) == (pair == other) for w, other in zip(values, pairs))
    fractions = {id(x) for v in values for x in (v.q_exp, v.angle)}
    assert len(fractions) == len({n for pair in pairs for n in pair})


SPECS = [CartanSpec("A", 3), CartanSpec("B", 3), CartanSpec("C", 3), CartanSpec("D", 4),
         CartanSpec("G", 2)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_levels_and_poles_pick_the_factors_own_values(spec, data):
    d = build_root_datum(spec)
    rank = d.rank
    # angles and exponents over small denominators, so values repeat
    rational = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 4]))
    angles = data.draw(st.lists(rational, min_size=rank, max_size=rank))
    exponents = data.draw(st.lists(rational, min_size=rank, max_size=rank))
    p = recompose_parameter(unit_parameter(d, angles), exponents)
    g = grade_nilradical(d, frozenset(data.draw(st.sets(st.integers(0, rank - 1)))))
    for orientation in ("r", "r-tilde"):
        L = l_factor(g, p, orientation)
        members = {id(v) for v in L.eigenvalues}
        by_level = eigenvalues_by_level(g, L)
        assert all(id(v) in members for block in by_level for v in block)
        assert sorted(map(len, by_level)) == sorted(len(roots) for _, roots in g.levels)
        exponents_of = {id(v.q_exp) for v in L.eigenvalues if v.angle == 0}
        poles = pole_locations(L)
        assert all(id(x) in exponents_of for x in poles)
        assert list(poles) == sorted(v.q_exp for v in L.eigenvalues if v.angle == 0)
