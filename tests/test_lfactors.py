"""Graded nilradicals, L-factor eigenvalues, vanishing and pole detection."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import qmonomial_mul

from arthurcalc.errors import ValidationError
from arthurcalc.lfactors import (
    grade_nilradical,
    inverse_vanishes_at,
    l_factor,
    local_coefficient_ratio,
    pole_locations,
)
from arthurcalc.parameters import QMonomial, UnramifiedParameter, evaluate_root
from arthurcalc.roots import CartanSpec, build_root_datum


def q_parameter(d, exponents):
    return UnramifiedParameter(d, tuple(QMonomial(Fraction(e)) for e in exponents))


# -- grading ---------------------------------------------------------------------


def test_grading_a2_full_nilradical():
    d = build_root_datum(CartanSpec("A", 2))
    g = grade_nilradical(d, frozenset())
    assert g.levels == ((1, ((1, 0), (0, 1))), (2, ((1, 1),)))
    assert len(g.all_roots) == 3


def test_grading_a2_proper_levi():
    # with a1 inside the Levi, both remaining roots sit at level 1
    d = build_root_datum(CartanSpec("A", 2))
    g = grade_nilradical(d, frozenset({0}))
    assert g.levels == ((1, ((0, 1), (1, 1))),)


def test_grading_full_levi_is_empty():
    d = build_root_datum(CartanSpec("C", 2))
    g = grade_nilradical(d, frozenset({0, 1}))
    assert g.levels == ()
    assert len(g.all_roots) == 0


def test_grading_g2_levels():
    d = build_root_datum(CartanSpec("G", 2))
    g = grade_nilradical(d, frozenset())
    assert [level for level, _ in g.levels] == [1, 2, 3, 4, 5]
    assert len(g.all_roots) == 6


# -- orientations ------------------------------------------------------------------


def test_orientations_are_mutually_inverse():
    d = build_root_datum(CartanSpec("B", 2))
    g = grade_nilradical(d, frozenset())
    p = q_parameter(d, (Fraction(1, 2), Fraction(1)))
    direct = l_factor(g, p, "r-tilde")
    reciprocal = l_factor(g, p, "r")
    assert direct.roots == reciprocal.roots == g.all_roots
    for a, b in zip(direct.eigenvalues, reciprocal.eigenvalues):
        assert qmonomial_mul(a, b) == QMonomial()
    for root, value in zip(direct.roots, direct.eigenvalues):
        assert value == evaluate_root(root, p)


def test_l_factor_rejects_foreign_parameter():
    d = build_root_datum(CartanSpec("A", 2))
    other = build_root_datum(CartanSpec("B", 2))
    g = grade_nilradical(d, frozenset())
    p = q_parameter(other, (1, 1))
    with pytest.raises(ValidationError, match="different data"):
        l_factor(g, p, "r-tilde")
    with pytest.raises(ValidationError, match="orientation"):
        l_factor(g, q_parameter(d, (1, 1)), "sideways")


# -- vanishing -----------------------------------------------------------------------


def test_inverse_vanishing_needs_trivial_unit_and_matching_exponent():
    d = build_root_datum(CartanSpec("A", 1))
    g = grade_nilradical(d, frozenset())

    vanished, witnesses = inverse_vanishes_at(l_factor(g, q_parameter(d, (1,)), "r-tilde"), 1)
    assert vanished and witnesses == (0,)

    vanished, _ = inverse_vanishes_at(
        l_factor(g, q_parameter(d, (Fraction(1, 2),)), "r-tilde"), 1
    )
    assert not vanished

    twisted = UnramifiedParameter(d, (QMonomial(Fraction(1), Fraction(1, 2)),))
    vanished, _ = inverse_vanishes_at(l_factor(g, twisted, "r-tilde"), 1)
    assert not vanished  # unit part zeta(1/2) blocks the zero for every q


def test_pole_locations_sorted_with_multiplicity():
    d = build_root_datum(CartanSpec("A", 2))
    g = grade_nilradical(d, frozenset())
    L = l_factor(g, q_parameter(d, (Fraction(1, 2), Fraction(1, 2))), "r-tilde")
    assert pole_locations(L) == (Fraction(1, 2), Fraction(1, 2), Fraction(1))

    mixed = UnramifiedParameter(
        d, (QMonomial(Fraction(1, 2), Fraction(1, 4)), QMonomial(Fraction(1, 2)))
    )
    L = l_factor(g, mixed, "r-tilde")
    # the zeta(1/4)-twisted eigenvalues never meet the real axis
    assert pole_locations(L) == (Fraction(1, 2),)


# -- coefficient ratio ------------------------------------------------------------------


def test_rank1_reducibility_point_is_evaluation_exponent_one():
    d = build_root_datum(CartanSpec("A", 1))
    for e, expect_zero in [
        (Fraction(1, 2), False),
        (Fraction(2, 3), False),
        (Fraction(1), True),
        (Fraction(3, 2), False),
        (Fraction(2), False),
    ]:
        ratio = local_coefficient_ratio(d, frozenset(), q_parameter(d, (e,)))
        assert ratio.vanishes is expect_zero, e


def test_ratio_requires_strict_positivity_off_the_levi():
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError, match="not strictly positive"):
        local_coefficient_ratio(d, frozenset(), q_parameter(d, (0, 1)))
    # vanishing on the Levi itself is the expected shape
    ratio = local_coefficient_ratio(
        d, frozenset({0}), q_parameter(d, (0, Fraction(1, 2)))
    )
    assert not ratio.vanishes and ratio.irreducible
    # and exponent 1 off the Levi is a genuine reducibility point there
    ratio = local_coefficient_ratio(d, frozenset({0}), q_parameter(d, (0, 1)))
    assert ratio.vanishes and not ratio.irreducible


def test_ratio_witnesses_name_the_vanishing_factors():
    d = build_root_datum(CartanSpec("A", 2))
    ratio = local_coefficient_ratio(
        d, frozenset(), q_parameter(d, (Fraction(1, 2), Fraction(1, 2)))
    )
    assert ratio.vanishes
    witnessed = {ratio.denominator.roots[i] for i in ratio.witnesses}
    assert witnessed == {(1, 1)}


@given(
    st.tuples(
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]),
    )
)
@settings(max_examples=20, deadline=None)
def test_numerator_never_vanishes_under_dominance(exps):
    # the InvariantViolation guard inside the ratio must be unreachable
    # for strictly dominant twists
    d = build_root_datum(CartanSpec("C", 2))
    ratio = local_coefficient_ratio(d, frozenset(), q_parameter(d, exps))
    vanished, _ = inverse_vanishes_at(ratio.numerator, 0)
    assert not vanished
