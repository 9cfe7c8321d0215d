"""QMonomial algebra, parameters, Weyl action, Arthur validation, recovery."""

from fractions import Fraction
from functools import cache, partial
from math import lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import (
    apply_word_vector,
    decompose_parameter,
    qmonomial_inverse,
    qmonomial_mul,
    qmonomial_pow,
    reference_format_root,
    reflect_root,
    trivial_parameter,
)

from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import SL2Data, sl2_from_partition
from arthurcalc import parameters
from arthurcalc.lfactors import GradedNilradical, l_factor
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    centralizer_failure,
    defining_levi,
    eigenvalue_pairs,
    evaluate_root,
    langlands_parameter,
    make_arthur_parameter,
    recompose_parameter,
    recover_arthur_data,
)
from arthurcalc.roots import (
    CartanSpec,
    build_root_datum,
    diagram_pairing,
    dominantize,
    dual_datum,
    format_root,
    over_common_denominator,
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


def both_data(spec):
    d = build_root_datum(spec)
    return d, dual_datum(d)


def parameter_strategy(d):
    return st.tuples(*([monomials] * d.rank)).map(
        lambda coords: UnramifiedParameter(d, coords)
    )


# -- QMonomial -----------------------------------------------------------------


def test_angle_normalized_to_unit_interval():
    assert QMonomial(angle=Fraction(5, 4)).angle == Fraction(1, 4)
    assert QMonomial(angle=Fraction(-1, 3)).angle == Fraction(2, 3)
    assert QMonomial(angle=1).angle == 0


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        (("x",), {}, "q_exp: expected a rational, got 'x'"),
        ((None,), {}, "q_exp: expected a rational, got None"),
        ((float("inf"),), {}, "q_exp: expected a rational, got inf"),
        ((), {"angle": 0.1}, "angle: expected a rational, got 0.1"),
        ((True,), {}, "q_exp: expected a rational, got True"),
    ],
)
def test_qmonomial_refuses_values_that_are_not_exact_rationals(args, kwargs, message):
    # these leaked a ValueError, TypeError or OverflowError, or were taken
    # as zeta(3602879701896397/36028797018963968) and as q
    with pytest.raises(ValidationError) as info:
        QMonomial(*args, **kwargs)
    assert str(info.value) == message


def test_str_forms():
    assert str(QMonomial()) == "1"
    assert str(QMonomial(1)) == "q"
    assert str(QMonomial(Fraction(3, 2))) == "q^(3/2)"
    assert str(QMonomial(angle=Fraction(1, 2))) == "zeta(1/2)"
    assert str(QMonomial(1, Fraction(1, 2))) == "zeta(1/2)*q"


def test_is_q_power():
    assert QMonomial(1).is_q_power(1)
    assert not QMonomial(1).is_q_power(Fraction(1, 2))
    assert not QMonomial(1, Fraction(1, 2)).is_q_power(1)
    assert QMonomial().is_q_power(0)


@given(monomials, monomials, monomials)
def test_multiplication_is_associative_and_commutative(a, b, c):
    """The reference algebra of the tests: the constructor's reduction mod 1
    makes the product of the oracle an abelian group law."""
    assert qmonomial_mul(qmonomial_mul(a, b), c) == qmonomial_mul(a, qmonomial_mul(b, c))
    assert qmonomial_mul(a, b) == qmonomial_mul(b, a)


@given(monomials)
def test_inverse_cancels(a):
    assert qmonomial_mul(a, qmonomial_inverse(a)) == QMonomial()


@given(monomials, st.integers(min_value=0, max_value=5))
def test_power_is_repeated_multiplication(a, n):
    out = QMonomial()
    for _ in range(n):
        out = qmonomial_mul(out, a)
    assert qmonomial_pow(a, n) == out


# -- evaluation ----------------------------------------------------------------


def test_evaluate_root_is_multiplicative_in_coefficients():
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(
        d, (QMonomial(Fraction(1, 2), Fraction(1, 4)), QMonomial(Fraction(-1), Fraction(2, 3)))
    )
    v1 = evaluate_root((1, 0), p)
    v2 = evaluate_root((0, 1), p)
    assert evaluate_root((1, 1), p) == qmonomial_mul(v1, v2)


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DICHOTOMY_SPECS + (CartanSpec("G", 2),)), st.data())
def test_word_action_matches_the_oracle_replay(spec, data):
    """A random word moves the exponents exactly as the oracle replays it on
    vectors, and the angles the same way mod 1."""
    d = data.draw(st.sampled_from(both_data(spec)))
    p = data.draw(parameter_strategy(d))
    word = tuple(data.draw(st.lists(st.integers(0, d.rank - 1), max_size=3 * d.rank)))
    moved = apply_word_parameter(p, word)
    assert moved.datum is d
    assert [t.q_exp for t in moved.coords] == list(
        apply_word_vector(d, word, tuple(t.q_exp for t in p.coords))
    )
    angles = apply_word_vector(d, word, tuple(t.angle for t in p.coords))
    assert [t.angle for t in moved.coords] == [a % 1 for a in angles]


@pytest.mark.parametrize("letter", [-1, True, 2, 5, 1.0, "0", None])
def test_weyl_word_letters_must_be_simple_indices(letter):
    # -1 used to act as the last reflection, True as letter 1, and 5 raised
    # an IndexError
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(d, (QMonomial(1), QMonomial(angle=Fraction(1, 3))))
    with pytest.raises(ValidationError, match="is not a simple index in 0..1") as info:
        apply_word_parameter(p, (0, letter, 1))
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
    assert all(t.q_exp == 0 for t in units.coords)
    assert recompose_parameter(units, exponents) == p


@pytest.mark.parametrize("exponent", ["1/2", "x", 0.5, None, True])
def test_recompose_refuses_exponents_that_are_not_exact_rationals(exponent):
    # "1/2", 0.5 and True were converted; "x" and None leaked a ValueError
    # and a TypeError
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError) as info:
        recompose_parameter(trivial_parameter(d), (Fraction(1, 2), exponent))
    assert str(info.value) == f"exponents: expected a rational, got {exponent!r}"


def test_defining_levi_requires_dominance():
    d = build_root_datum(CartanSpec("A", 2))
    assert defining_levi((Fraction(0), Fraction(1)), d) == frozenset({0})
    assert defining_levi((Fraction(0), Fraction(0)), d) == frozenset({0, 1})
    with pytest.raises(ValidationError, match="dominant"):
        defining_levi((Fraction(-1), Fraction(1)), d)


def test_eigenvalue_pairs_refuse_roots_outside_the_datum():
    # (1, 1, 1) on A2 used to give a truncated dot product, ((3, 0),)
    d = build_root_datum(CartanSpec("A", 2))
    p = UnramifiedParameter(d, (QMonomial(1), QMonomial(Fraction(1, 2))))
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
        (CartanSpec("A", 2), (QMonomial(),) * 2, "datum"),
        (None, (QMonomial(),) * 2, "datum"),
        ("A2", (), "datum"),
        ("A2D", (1, 2), "coords[1]"),
        ("A2D", (QMonomial(), Fraction(1, 2)), "coords[2]"),
        ("A2D", ((0, 0), QMonomial()), "coords[1]"),
        ("A2D", None, "coords"),
        ("A2D", QMonomial(), "coords"),
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
    phi = UnramifiedParameter(d, (QMonomial(Fraction(1, 2)),))
    with pytest.raises(ValidationError, match="coordinate 1 has nonzero exponent"):
        make_arthur_parameter(phi, SL2Data((0,), ()))


def test_centralizer_rejects_minus_one_on_regular_orbit():
    # unit -1 does not centralize the principal sl2 in rank 1
    d = build_root_datum(CartanSpec("A", 1))
    phi = UnramifiedParameter(d, (QMonomial(angle=Fraction(1, 2)),))
    with pytest.raises(ValidationError, match="centralizer condition fails at a1"):
        make_arthur_parameter(phi, sl2_from_partition("A", 1, (2,)))


@pytest.mark.parametrize(
    "sl2",
    [SL2Data((0, 0), ()), SL2Data((True, 0), ()), SL2Data([0], ()), "not sl2 data"],
    ids=["valid", "bool-entry", "short-list", "not-sl2"],
)
def test_a_nonzero_exponent_is_reported_before_the_sl2_data(sl2):
    d = build_root_datum(CartanSpec("A", 2))
    phi = UnramifiedParameter(d, (QMonomial(angle=Fraction(1, 3)), QMonomial(Fraction(1, 2))))
    with pytest.raises(ValidationError) as info:
        make_arthur_parameter(phi, sl2)
    assert info.value.field == "parameter"
    assert info.value.raw_message == (
        "coordinate 2 has nonzero exponent; the bounded part must be tempered"
    )


@pytest.mark.parametrize(
    ("family", "angles", "parts", "message"),
    [
        (
            "A",
            (Fraction(1, 2),),
            (2,),
            "centralizer condition fails at a1: evaluation zeta(1/2) is not 1",
        ),
        # angles over 3 and 4: the check reads numerators over D = 12
        (
            "A",
            (Fraction(1, 3), Fraction(1, 4)),
            (2, 1),
            "centralizer condition fails at a1 + a2: evaluation zeta(7/12) is not 1",
        ),
        (
            "C",
            (Fraction(1, 4), Fraction(1, 2)),
            (2, 2),
            "centralizer condition fails at a2: evaluation zeta(1/2) is not 1",
        ),
    ],
)
def test_centralizer_failure_names_the_root_and_its_value(family, angles, parts, message):
    d = build_root_datum(CartanSpec(family, len(angles)))
    phi = UnramifiedParameter(d, tuple(QMonomial(angle=a) for a in angles))
    with pytest.raises(ValidationError) as info:
        make_arthur_parameter(phi, sl2_from_partition(family, len(angles), parts))
    assert info.value.field == "parameter"
    assert info.value.raw_message == message


def test_every_sweep_refusal_matches_the_fraction_message():
    """Each mu_4 grid point that `centralizer_failure` rejects is refused
    with the message that `Fraction(n, D)` and the reference root formatter
    write: the refusal builds its text from integers."""
    values, coefficients = set(), set()
    for spec in DICHOTOMY_SPECS:
        datum = build_root_datum(spec)
        for parts in valid_partitions(spec.family, spec.rank):
            sl2 = sl2_from_partition(spec.family, spec.rank, parts)
            for grid_point in unit_grid(spec.rank):
                phi = unit_parameter(datum, grid_point)
                failure = centralizer_failure(phi, sl2)
                if failure is None:
                    continue
                (root, n), D = failure, phi.integer_form[0]
                with pytest.raises(ValidationError) as info:
                    make_arthur_parameter(phi, sl2)
                assert info.value.raw_message == (
                    f"centralizer condition fails at {reference_format_root(root)}: "
                    f"evaluation zeta({Fraction(n, D)}) is not 1"
                )
                values.add((D, n))
                coefficients.update(root)
    assert (4, 2) in values  # written 1/2
    assert {0, 1, 2} <= coefficients
    # a refusal names a positive root; the formatter also takes -1
    for root in [(-1,), (1, -1, 2, 0), (0, -1, -2, 3), (0, 0)]:
        assert format_root(root) == reference_format_root(root)


@pytest.mark.parametrize("spec", DICHOTOMY_SPECS, ids=str)
def test_sweep_skips_rejected_points_without_a_message(spec, monkeypatch):
    # the sweep keeps exactly the points that `make_arthur_parameter` accepts,
    # and a rejected point builds no message, root name or error
    datum = build_root_datum(spec)
    expected = []
    for parts in valid_partitions(spec.family, spec.rank):
        sl2 = sl2_from_partition(spec.family, spec.rank, parts)
        for grid_point in unit_grid(spec.rank):
            phi = unit_parameter(datum, grid_point)
            try:
                expected.append(make_arthur_parameter(phi, sl2))
            except ValidationError as error:
                assert error.raw_message.startswith("centralizer condition fails at ")
                assert centralizer_failure(phi, sl2) is not None
    assert len(expected) < len(valid_partitions(spec.family, spec.rank)) * 4**spec.rank

    def refuse(*args, **kwargs):
        raise AssertionError("a skipped point built a message")

    monkeypatch.setattr(parameters, "format_root", refuse)
    monkeypatch.setattr(parameters, "ValidationError", refuse)
    assert list(iter_dichotomy_parameters(spec)) == expected


def test_centralizer_accepts_central_units():
    d = build_root_datum(CartanSpec("C", 2))
    # support of [2,2] on the dual side: a2 and 2a1+a2; t = (-1, 1) passes
    phi = UnramifiedParameter(
        d, (QMonomial(angle=Fraction(1, 2)), QMonomial())
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
    assert p.coords == (QMonomial(1),)


def test_langlands_parameter_a2_subregular():
    d = build_root_datum(CartanSpec("A", 2))
    psi = make_arthur_parameter(trivial_parameter(d), sl2_from_partition("A", 2, (2, 1)))
    p = langlands_parameter(psi)
    assert p.coords == (QMonomial(Fraction(1, 2)), QMonomial(Fraction(1, 2)))


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
                qmonomial_mul(t, QMonomial(Fraction(h, 2))) for t, h in zip(units.coords, sl2.diagram)
            )
    assert accepted > len(orbits)  # units other than the trivial one pass too


LANGLANDS_SPECS = [CartanSpec(f, n) for f, n in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]]


@st.composite
def arthur_parameters(draw, specs=LANGLANDS_SPECS):
    """Expert sl2 data with any diagram in 0/1/2, odd entries included, and
    unit angles over denominators 1-12, one of them solved for so that the
    angles vanish on a support root; the support also takes every other
    root pairing to 2 on which they vanish. The datum is one of `specs`."""
    d = build_root_datum(draw(st.sampled_from(specs)))
    diagram = tuple(draw(st.lists(st.sampled_from((0, 1, 2)), min_size=d.rank, max_size=d.rank)))
    angles = [
        draw(st.builds(lambda m, n: Fraction(n % m, m), st.integers(1, 12), st.integers(0, 11)))
        for _ in range(d.rank)
    ]
    support = ()
    if any(diagram):
        pairing_two = [r for r in d.positive_roots if diagram_pairing(r, diagram) == 2]
        assume(pairing_two)
        root = draw(st.sampled_from(pairing_two))
        j = min((k for k, c in enumerate(root) if c), key=lambda k: root[k])
        rest = sum(c * a for k, (c, a) in enumerate(zip(root, angles)) if k != j)
        # a Fraction even at rank 1, where rest is the int 0
        angles[j] = Fraction(draw(st.integers(0, root[j] - 1)) - rest, root[j]) % 1
        support = tuple([r for r in pairing_two if sum(map(mul, r, angles)).denominator == 1])
    phi = UnramifiedParameter(d, tuple([QMonomial(angle=a) for a in angles]))
    return make_arthur_parameter(phi, SL2Data(diagram, support))


@settings(max_examples=300, deadline=None)
@given(arthur_parameters())
def test_langlands_integer_form_is_the_least_common_denominator_form(psi):
    p = langlands_parameter(psi)
    D, exponents, angles = p.integer_form
    values = [t.q_exp for t in p.coords] + [t.angle for t in p.coords]
    assert (D, exponents + angles) == over_common_denominator(values)
    assert D == lcm(*(x.denominator for x in values))  # no smaller D will do
    assert p.integer_form == UnramifiedParameter(p.datum, p.coords).integer_form


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
        phi = UnramifiedParameter(d, tuple(QMonomial(angle=a) for a in angles))
        psi = make_arthur_parameter(phi, sl2)
        units, diagram = recover_arthur_data(langlands_parameter(psi))
        assert diagram == sl2.diagram
        assert units == phi


def test_recover_dominantizes_non_dominant_input():
    d = build_root_datum(CartanSpec("A", 1))
    p = UnramifiedParameter(d, (QMonomial(Fraction(-1, 2)),))
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


RECOVER_DATA = [
    d for family, rank in [("A", 2), ("A", 3), ("B", 3), ("D", 4), ("G", 2)]
    for d in both_data(CartanSpec(family, rank))
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECOVER_DATA), st.data())
def test_recover_units_match_the_slow_route(d, data):
    """`recover_arthur_data` reflects only the angle numerators; its units
    must be the unit part of the parameter conjugated by dominantize's word,
    taken the slow way. The first two angles have denominators 3 and 4, so
    D mixes them; half the words are longer than the positive roots."""
    half = data.draw(st.tuples(*[st.sampled_from((0, Fraction(1, 2), 1))] * d.rank))
    denominators = (3, 4) + data.draw(st.tuples(*[st.sampled_from((1, 2, 5, 6))] * (d.rank - 2)))
    angles = [
        Fraction(data.draw(st.integers(1, n - 1) if n > 1 else st.just(0)), n) for n in denominators
    ]
    p = UnramifiedParameter(d, tuple(QMonomial(e, a) for e, a in zip(half, angles)))
    long = tuple(k % d.rank for k in range(len(d.positive_roots) + 1))
    word = data.draw(st.sampled_from(((), long))) + tuple(
        data.draw(st.lists(st.integers(0, d.rank - 1), max_size=3 * d.rank))
    )
    moved = apply_word_parameter(p, word)
    units, diagram = recover_arthur_data(moved)
    assert diagram == tuple(int(2 * e) for e in half)
    _, back = dominantize(d, decompose_parameter(moved)[1])
    assert units == decompose_parameter(apply_word_parameter(moved, back))[0]
    for t in units.coords:
        assert type(t.q_exp) is Fraction and t.q_exp == 0
        assert type(t.angle) is Fraction and 0 <= t.angle < 1


def test_recover_rejects_non_arthur_shapes():
    d = build_root_datum(CartanSpec("A", 1))
    with pytest.raises(ValidationError, match="not half-integral"):
        recover_arthur_data(UnramifiedParameter(d, (QMonomial(Fraction(1, 3)),)))
    with pytest.raises(ValidationError, match="not of Arthur type"):
        recover_arthur_data(UnramifiedParameter(d, (QMonomial(Fraction(3, 2)),)))
