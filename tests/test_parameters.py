"""QMonomial algebra, parameters, Weyl action, Arthur validation, recovery."""

from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import apply_word_vector, qmonomial_inverse, reflect_root

from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import SL2Data, sl2_from_partition
from arthurcalc.lfactors import GradedNilradical, l_factor
from arthurcalc.parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    decompose_parameter,
    defining_levi,
    eigenvalue_pairs,
    evaluate_root,
    is_tempered,
    langlands_parameter,
    make_arthur_parameter,
    recompose_parameter,
    recover_arthur_data,
    trivial_parameter,
)
from arthurcalc.roots import (
    CartanSpec,
    build_root_datum,
    dominantize,
    reflect_vector,
    root_positions,
)
from arthurcalc.sweeps import (
    DICHOTOMY_SPECS,
    iter_dichotomy_parameters,
    unit_grid,
    unit_parameter,
    valid_partitions,
)

monomials = st.builds(
    QMonomial,
    q_exp=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    angle=st.fractions(min_value=0, max_value=1, max_denominator=8),
)


def parameter_strategy(d):
    return st.tuples(*([monomials] * d.rank)).map(
        lambda coords: UnramifiedParameter(d, coords)
    )


# -- QMonomial -----------------------------------------------------------------


def test_angle_normalized_to_unit_interval():
    assert QMonomial.unit(Fraction(5, 4)).angle == Fraction(1, 4)
    assert QMonomial.unit(Fraction(-1, 3)).angle == Fraction(2, 3)
    assert QMonomial.unit(1).angle == 0


def test_str_forms():
    assert str(QMonomial.one()) == "1"
    assert str(QMonomial.q()) == "q"
    assert str(QMonomial.q(Fraction(3, 2))) == "q^(3/2)"
    assert str(QMonomial.unit(Fraction(1, 2))) == "zeta(1/2)"
    assert str(QMonomial.unit(Fraction(1, 2)) * QMonomial.q(1)) == "zeta(1/2)*q"


def test_is_q_power():
    assert QMonomial.q(1).is_q_power(1)
    assert not QMonomial.q(1).is_q_power(Fraction(1, 2))
    assert not (QMonomial.unit(Fraction(1, 2)) * QMonomial.q(1)).is_q_power(1)
    assert QMonomial.one().is_q_power(0)


@given(monomials, monomials, monomials)
def test_multiplication_is_associative_and_commutative(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@given(monomials)
def test_inverse_cancels(a):
    assert (a * qmonomial_inverse(a)).is_one


@given(monomials, st.integers(min_value=0, max_value=5))
def test_power_is_repeated_multiplication(a, n):
    out = QMonomial.one()
    for _ in range(n):
        out = out * a
    assert a ** n == out


# -- evaluation ----------------------------------------------------------------


def test_evaluate_root_is_multiplicative_in_coefficients():
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(
        d, (QMonomial(Fraction(1, 2), Fraction(1, 4)), QMonomial(Fraction(-1), Fraction(2, 3)))
    )
    v1 = evaluate_root((1, 0), p)
    v2 = evaluate_root((0, 1), p)
    assert evaluate_root((1, 1), p) == v1 * v2


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_weyl_equivariance_of_evaluation(data):
    spec = data.draw(
        st.sampled_from(
            [CartanSpec("A", 2), CartanSpec("B", 2), CartanSpec("C", 2), CartanSpec("G", 2)]
        )
    )
    d = build_root_datum(spec)
    p = data.draw(parameter_strategy(d))
    i = data.draw(st.integers(min_value=0, max_value=d.rank - 1))
    for beta in d.positive_roots:
        assert evaluate_root(reflect_root(d, i, beta), apply_word_parameter(p, (i,))) == \
            evaluate_root(beta, p)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_reflection_of_parameters_is_involutive(data):
    d = build_root_datum(CartanSpec("B", 2))
    p = data.draw(parameter_strategy(d))
    i = data.draw(st.integers(min_value=0, max_value=1))
    assert apply_word_parameter(p, (i, i)) == p


@pytest.mark.parametrize("letter", [-1, True, 2, 5, 1.0, "0", None])
def test_weyl_word_letters_must_be_simple_indices(letter):
    # -1 used to act as the last reflection, True as letter 1, and 5 raised
    # an IndexError
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(d, (QMonomial.q(1), QMonomial.unit(Fraction(1, 3))))
    for call in (
        lambda: apply_word_parameter(p, (0, letter, 1)),
        lambda: reflect_vector(d, letter, (Fraction(1), Fraction(2))),
    ):
        with pytest.raises(ValidationError, match="is not a simple index in 0..1") as info:
            call()
        assert info.value.field == "word"


def test_weyl_words_are_sequences_of_letters():
    d = build_root_datum(CartanSpec("A", 2))
    p = trivial_parameter(d)
    assert apply_word_parameter(p, ()) == apply_word_parameter(p, [0, 0]) == p
    with pytest.raises(ValidationError, match="expected a tuple of simple indices") as info:
        apply_word_parameter(p, 1)
    assert info.value.field == "word"


# -- decomposition ---------------------------------------------------------------


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_decompose_recompose_round_trip(data):
    d = build_root_datum(CartanSpec("C", 2))
    p = data.draw(parameter_strategy(d))
    units, exponents = decompose_parameter(p)
    assert is_tempered(units)
    assert recompose_parameter(units, exponents) == p


def test_defining_levi_requires_dominance():
    d = build_root_datum(CartanSpec("A", 2))
    assert defining_levi((Fraction(0), Fraction(1)), d) == frozenset({0})
    assert defining_levi((Fraction(0), Fraction(0)), d) == frozenset({0, 1})
    with pytest.raises(ValidationError, match="dominant"):
        defining_levi((Fraction(-1), Fraction(1)), d)


def test_eigenvalue_pairs_refuse_roots_outside_the_datum():
    # (1, 1, 1) on A2 used to give a truncated dot product, ((3, 0),)
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(d, (QMonomial.q(1), QMonomial.q(Fraction(1, 2))))
    assert eigenvalue_pairs(root_positions(d, ((1, 1), (0, 1))), p) == ((3, 0), (1, 0))
    for root in [(1, 1, 1), (1,), (2, 1), (1, -1), (0, 0), [1, 1], ([1], 1), 5]:
        with pytest.raises(ValidationError, match="is not a positive root of A2") as info:
            root_positions(d, ((1, 0), root))
        assert info.value.field == "roots"
    hand_built = GradedNilradical(d, frozenset(), ((1, ((1, 0), (0, 1))), (2, ((1, 1, 1),))))
    for orientation in ("r", "r-tilde"):
        with pytest.raises(ValidationError, match=r"\(1, 1, 1\) is not a positive root"):
            l_factor(hand_built, p, orientation)


@pytest.mark.parametrize(
    "datum, coords, field",
    [
        (CartanSpec("A", 2), (QMonomial.one(),) * 2, "datum"),
        (None, (QMonomial.one(),) * 2, "datum"),
        ("A2", (), "datum"),
        ("A2D", (1, 2), "coords[1]"),
        ("A2D", (QMonomial.one(), Fraction(1, 2)), "coords[2]"),
        ("A2D", ((0, 0), QMonomial.one()), "coords[1]"),
        ("A2D", None, "coords"),
        ("A2D", QMonomial.one(), "coords"),
    ],
)
def test_unramified_parameter_refuses_inputs_of_the_wrong_type(datum, coords, field):
    # (A2, (1, 2)) used to construct and fail later inside integer_form
    if datum == "A2D":
        datum = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError) as info:
        UnramifiedParameter(datum, coords)
    assert info.value.field == field


# -- Arthur parameters --------------------------------------------------------------


def test_arthur_parameter_requires_tempered_part():
    d = build_root_datum(CartanSpec("A", 1))
    phi = UnramifiedParameter(d, (QMonomial.q(Fraction(1, 2)),))
    with pytest.raises(ValidationError, match="coordinate 1 has nonzero exponent"):
        make_arthur_parameter(phi, SL2Data((0,), ()))


def test_centralizer_rejects_minus_one_on_regular_orbit():
    # unit -1 does not centralize the principal sl2 in rank 1
    d = build_root_datum(CartanSpec("A", 1))
    phi = UnramifiedParameter(d, (QMonomial.unit(Fraction(1, 2)),))
    with pytest.raises(ValidationError, match="centralizer condition fails at a1"):
        make_arthur_parameter(phi, sl2_from_partition("A", 1, (2,)))


def test_centralizer_accepts_central_units():
    d = build_root_datum(CartanSpec("C", 2))
    # support of [2,2] on the dual side: a2 and 2a1+a2; t = (-1, 1) passes
    phi = UnramifiedParameter(
        d, (QMonomial.unit(Fraction(1, 2)), QMonomial.one())
    )
    psi = make_arthur_parameter(phi, sl2_from_partition("C", 2, (2, 2)))
    assert psi.sl2.diagram == (0, 2)


def test_degenerate_nonzero_diagram_without_support_rejected():
    d = build_root_datum(CartanSpec("A", 1))
    with pytest.raises(ValidationError):
        make_arthur_parameter(trivial_parameter(d), SL2Data((2,), ()))


# -- the attached parameter ------------------------------------------------------------


def test_langlands_parameter_a1_principal():
    d = build_root_datum(CartanSpec("A", 1))
    psi = make_arthur_parameter(trivial_parameter(d), sl2_from_partition("A", 1, (2,)))
    p = langlands_parameter(psi)
    assert p.coords == (QMonomial.q(1),)
    assert not is_tempered(p)


def test_langlands_parameter_a2_subregular():
    d = build_root_datum(CartanSpec("A", 2))
    psi = make_arthur_parameter(trivial_parameter(d), sl2_from_partition("A", 2, (2, 1)))
    p = langlands_parameter(psi)
    assert p.coords == (QMonomial.q(Fraction(1, 2)), QMonomial.q(Fraction(1, 2)))


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_langlands_parameter_is_the_product_with_half_the_diagram(family, rank):
    d = build_root_datum(CartanSpec(family, rank))
    orbits = (
        [sl2_from_partition(family, rank, parts) for parts in valid_partitions(family, rank)]
        if family != "G"
        else [SL2Data(h, support) for h, support in [((2, 2), ((1, 0), (0, 1))), ((0, 2), ((0, 1),))]]
    )
    accepted = 0
    for sl2 in orbits:
        for units in map(partial(unit_parameter, d), unit_grid(rank)):
            try:
                psi = make_arthur_parameter(units, sl2)
            except ValidationError:
                continue  # the units do not centralize the orbit
            accepted += 1
            assert langlands_parameter(psi).coords == tuple(
                t * QMonomial.q(Fraction(h, 2)) for t, h in zip(units.coords, sl2.diagram)
            )
    assert accepted > len(orbits)  # units other than the trivial one pass too


def test_exponents_are_half_the_diagram():
    for family, rank, parts in [("B", 2, (2, 2, 1)), ("C", 3, (3, 3)), ("D", 4, (3, 2, 2, 1))]:
        d = build_root_datum(CartanSpec(family, rank))
        psi = make_arthur_parameter(
            trivial_parameter(d), sl2_from_partition(family, rank, parts)
        )
        _, exponents = decompose_parameter(langlands_parameter(psi))
        assert exponents == tuple(Fraction(v, 2) for v in psi.sl2.diagram)


# -- recovery --------------------------------------------------------------------------


def test_recover_round_trip_examples():
    for family, rank, parts in [
        ("A", 1, (2,)),
        ("A", 2, (2, 1)),
        ("B", 2, (3, 1, 1)),
        ("C", 2, (2, 2)),
        ("D", 4, (2, 2, 2, 2)),
    ]:
        d = build_root_datum(CartanSpec(family, rank))
        sl2 = sl2_from_partition(family, rank, parts)
        angles = tuple(Fraction(0) for _ in range(rank))
        phi = UnramifiedParameter(d, tuple(QMonomial.unit(a) for a in angles))
        psi = make_arthur_parameter(phi, sl2)
        units, diagram = recover_arthur_data(langlands_parameter(psi))
        assert diagram == sl2.diagram
        assert units == phi


def test_recover_dominantizes_non_dominant_input():
    d = build_root_datum(CartanSpec("A", 1))
    p = UnramifiedParameter(d, (QMonomial.q(Fraction(-1, 2)),))
    units, diagram = recover_arthur_data(p)
    assert diagram == (1,)
    assert units == trivial_parameter(d)


@cache
def dichotomy_parameters(spec):
    return tuple(iter_dichotomy_parameters(spec))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DICHOTOMY_SPECS), st.data())
def test_recover_inverts_a_random_conjugation(spec, data):
    """Conjugating the Langlands parameter by a random word and recovering
    gives the diagram back, with the unit angles moved by that word and then
    by dominantize's word, replayed by the oracle."""
    psi = data.draw(st.sampled_from(dichotomy_parameters(spec)))
    d = psi.datum
    word = tuple(data.draw(st.lists(st.integers(0, d.rank - 1), max_size=3 * d.rank)))
    moved = apply_word_parameter(langlands_parameter(psi), word)
    units, diagram = recover_arthur_data(moved)
    assert diagram == psi.sl2.diagram
    _, back = dominantize(d, decompose_parameter(moved)[1])
    replay = partial(apply_word_vector, d)
    half = tuple(Fraction(v, 2) for v in psi.sl2.diagram)
    assert replay(back, replay(word, half)) == half
    angles = replay(back, replay(word, tuple(t.angle for t in psi.tempered_part.coords)))
    assert all(t.q_exp == 0 for t in units.coords)
    assert [(t.angle - a) % 1 for t, a in zip(units.coords, angles)] == [0] * d.rank


def test_recover_rejects_non_arthur_shapes():
    d = build_root_datum(CartanSpec("A", 1))
    with pytest.raises(ValidationError, match="not half-integral"):
        recover_arthur_data(UnramifiedParameter(d, (QMonomial.q(Fraction(1, 3)),)))
    with pytest.raises(ValidationError, match="not of Arthur type"):
        recover_arthur_data(UnramifiedParameter(d, (QMonomial.q(Fraction(3, 2)),)))
