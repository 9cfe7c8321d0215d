"""The height recurrence against one dot product per root.

Every positive root that is not simple is its parent plus one simple root,
so `root_values` evaluates an integer vector on all of them with one
addition each. It is compared with the dot products of `oracle` on every
type the package accepts, A1-A24, B2-B24, C2-C24, D3-D24 and G2 and their
duals; the grading (the nilradical, so the Levi split too) and the
eigenvalue pairs built on it are compared at ranks 7-24, past the rank-6
lattice tests. Every Levi of five small types checks that the shared,
cached grading equals a fresh one, and that bad Levi indices are refused.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import dot_eigenvalues, dot_grading, dot_root_values, trivial_parameter

from arthurcalc import lfactors
from arthurcalc.classifier import standard_module_datum
from arthurcalc.errors import ValidationError
from arthurcalc.lfactors import GradedNilradical, grade_nilradical, l_factor
from arthurcalc.nilpotent import sl2_from_partition
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    eigenvalue_pairs,
    make_arthur_parameter,
)
from arthurcalc.roots import (
    MAX_RANK,
    CartanSpec,
    build_root_datum,
    dual_datum,
    root_positions,
    root_values,
    validate_levi,
)

SPECS = (
    [CartanSpec("A", n) for n in range(1, MAX_RANK + 1)]
    + [CartanSpec(f, n) for f in "BC" for n in range(2, MAX_RANK + 1)]
    + [CartanSpec("D", n) for n in range(3, MAX_RANK + 1)]
    + [CartanSpec("G", 2)]
)


def both_data(spec):
    d = build_root_datum(spec)
    return d, dual_datum(d)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_links_add_one_simple_root_to_an_earlier_root(spec):
    for d in both_data(spec):
        roots, links = d.positive_roots, d.root_links
        assert len(links) == len(roots)
        for k, (root, link) in enumerate(zip(roots, links)):
            if sum(root) == 1:
                # the simple roots have no parent and come first, in index order
                assert link is None
                assert root == tuple(int(j == k) for j in range(d.rank))
                continue
            parent, i = link
            assert parent < k
            assert root == tuple(c + (j == i) for j, c in enumerate(roots[parent]))


@pytest.mark.parametrize("spec", SPECS, ids=str)
@given(st.data())
@settings(max_examples=5, deadline=None)
def test_root_values_match_the_dot_products(spec, data):
    for d in both_data(spec):
        vector = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=d.rank, max_size=d.rank))
        assert root_values(d, vector) == dot_root_values(d, vector)
        assert root_values(d, tuple(vector)) == dot_root_values(d, vector)


@pytest.mark.parametrize("spec", [spec for spec in SPECS if spec.rank <= 12], ids=str)
def test_gradings_carry_the_root_positions(spec):
    # a grading looks its positions up from its roots, so a shared grading
    # and one built by hand agree, for the empty and the full Levi and each
    # Levi of one or all but one index
    for d in both_data(spec):
        everything = frozenset(range(d.rank))
        levis = [frozenset(), everything]
        levis += [frozenset({i}) for i in range(d.rank)] + [everything - {i} for i in range(d.rank)]
        for theta in levis:
            g = grade_nilradical(d, theta)
            assert g.positions == tuple(root_positions(d, g.all_roots))
            assert GradedNilradical(d, theta, g.levels).positions == g.positions


def test_root_values_refuses_a_vector_of_the_wrong_length():
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError, match="vector length does not match rank"):
        root_values(d, (1, 2, 3))


LARGE = [spec for spec in SPECS if spec.rank > 6]
exponents = st.builds(Fraction, st.integers(-24, 24), st.sampled_from((1, 2, 3, 4)))
angles = st.builds(Fraction, st.integers(0, 11), st.sampled_from((1, 2, 3, 4, 6, 12)))


@given(st.sampled_from(LARGE), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_gradings_and_pairs_above_rank_six(spec, dual, data):
    d = both_data(spec)[dual]
    theta = frozenset(data.draw(st.sets(st.integers(0, d.rank - 1), max_size=d.rank)))
    p = UnramifiedParameter(
        d, tuple([QMonomial(data.draw(exponents), data.draw(angles)) for _ in range(d.rank)])
    )
    g = grade_nilradical(d, theta)
    assert g.levels == dot_grading(d, theta)
    D = p.integer_form[0]
    assert [
        (Fraction(qn, D), Fraction(an, D)) for qn, an in eigenvalue_pairs(g.positions, p)
    ] == list(dot_eigenvalues(g.all_roots, p))


# Orbits at ranks 7-24: each principal orbit (empty Levi) and orbits whose
# diagram has zeros, so that the Levi of the Langlands parameter is proper.
ORBITS = [
    ("A", 7, (8,)), ("A", 7, (4, 4)), ("A", 12, (5, 5, 3)), ("A", 24, (25,)),
    ("A", 24, (9, 8, 8)),
    ("B", 7, (15,)), ("B", 7, (5, 5, 3, 1, 1)), ("B", 12, (9, 9, 7)), ("B", 24, (49,)),
    ("C", 7, (14,)), ("C", 7, (6, 6, 2)), ("C", 12, (10, 7, 7)), ("C", 24, (48,)),
    ("D", 7, (13, 1)), ("D", 7, (5, 5, 3, 1)), ("D", 13, (11, 7, 7, 1)), ("D", 24, (47, 1)),
]


@pytest.mark.parametrize("family, rank, parts", ORBITS, ids=lambda x: str(x).replace(" ", ""))
def test_standard_module_gradings_above_rank_six(family, rank, parts):
    d = build_root_datum(CartanSpec(family, rank))
    psi = make_arthur_parameter(trivial_parameter(d), sl2_from_partition(family, rank, parts))
    sm = standard_module_datum(psi)
    g = grade_nilradical(d, sm.levi)
    assert g.levels == dot_grading(d, sm.levi)
    L = l_factor(g, sm.parameter, "r-tilde")
    assert [(Fraction(qn, L.D), Fraction(an, L.D)) for qn, an in L.pairs] == list(
        dot_eigenvalues(g.all_roots, sm.parameter)
    )
    principal = parts[0] >= sum(parts) - 1  # (n + 1), (2n + 1), (2n) or (2n - 1, 1)
    assert bool(sm.levi) is not principal


SMALL = [CartanSpec("A", 3), CartanSpec("B", 3), CartanSpec("C", 3), CartanSpec("D", 4), CartanSpec("G", 2)]


@pytest.mark.parametrize("spec", SMALL, ids=str)
def test_cached_gradings_equal_fresh_ones(spec):
    # every Levi of the datum and its dual: the shared grading equals one
    # built afresh and the dot-product reference, and is shared on reuse
    for d in both_data(spec):
        for bits in range(2**d.rank):
            theta = frozenset(i for i in range(d.rank) if bits >> i & 1)
            g = grade_nilradical(d, theta)
            fresh = lfactors._graded.__wrapped__(d, theta)
            assert fresh is not g
            assert (g.levels, g.all_roots, g.positions) == (
                fresh.levels, fresh.all_roots, fresh.positions
            )
            assert g.levels == dot_grading(d, theta)
            assert g.positions == tuple(root_positions(d, g.all_roots))
            assert grade_nilradical(d, set(theta)) is g


# a bad Levi index on a datum of the given rank, and the refusal it gets
BAD_INDICES = {
    "negative": lambda rank: (-1, "Levi index -1 outside"),
    "rank": lambda rank: (rank, f"Levi index {rank} outside"),
    "bool": lambda rank: (True, "Levi index True is not an integer"),
    "float": lambda rank: (0.0, "Levi index 0.0 is not an integer"),
    "str": lambda rank: ("0", "Levi index '0' is not an integer"),
}


@pytest.mark.parametrize("spec", SMALL, ids=str)
@pytest.mark.parametrize("kind", BAD_INDICES)
def test_gradings_refuse_bad_levi_indices(spec, kind):
    d = build_root_datum(spec)
    bad, message = BAD_INDICES[kind](d.rank)
    grade_nilradical(d, frozenset())  # a cached grading changes nothing
    for levi in ({bad}, {bad, 1}):
        with pytest.raises(ValidationError, match=re.escape(message)) as refused:
            grade_nilradical(d, levi)
        with pytest.raises(ValidationError) as reference:
            validate_levi(d, levi)
        assert str(refused.value) == str(reference.value)
        assert refused.value.field == "levi"
