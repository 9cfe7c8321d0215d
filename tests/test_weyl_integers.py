"""The Weyl action on integer numerators.

`apply_word_parameter` reflects the numerators of a parameter's integer
form, `dominantize` walks the numerators of its input over one
denominator, and `recover_arthur_data` walks the exponent numerators
with the same integer walk, `roots._dominant_walk`. The oracle replays compare with `==`, and `Fraction(1) == 1`,
so these tests also pin what an integer loop could get wrong unseen: every
coordinate out is a `Fraction` in lowest terms, every angle lies in [0, 1),
and the diagram is made of `int`s. The gate checks that the word loop
itself sees only `int`s.

A parameter the package builds records its integer form instead of
deriving it; the last tests hold every recorded form to the one a
parameter built by hand from the coordinates computes, and the
coordinates to the construction from Fractions.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import apply_word_vector
from test_parameters import arthur_parameters

from arthurcalc import parameters, roots
from arthurcalc.nilpotent import sl2_from_partition
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    langlands_parameter,
    make_arthur_parameter,
    recover_arthur_data,
    unit_parameter,
)
from arthurcalc.roots import CartanSpec, build_root_datum, dominantize, dual_datum
from arthurcalc.sweeps import DICHOTOMY_SPECS

F = Fraction

# (datum, (q_exp, angle) per coordinate): mixed denominators, so the
# integer form's D is the lcm of exponent and angle denominators.
CASES = [
    # exponent 1/3 with angle 1/4: D = 12
    (build_root_datum(CartanSpec("A", 2)), [(F(1, 3), F(1, 4)), (F(-2, 3), F(3, 4))]),
    # exponent 1/2 with angle 5/6: D = 6
    (build_root_datum(CartanSpec("G", 2)), [(F(1, 2), F(5, 6)), (F(-1), F(1, 3))]),
    (dual_datum(build_root_datum(CartanSpec("G", 2))), [(F(1, 2), F(5, 6)), (F(1, 3), F(1, 4))]),
    (
        dual_datum(build_root_datum(CartanSpec("B", 3))),
        [(F(-1, 2), F(5, 6)), (F(1, 3), F(1, 4)), (F(2), F(0))],
    ),
]
IDS = ["A2-D12", "G2-D6", "G2dual-D12", "C3-D12"]


def long_word(d):
    """A word longer than the number of positive roots, cycling through the
    simple indices."""
    return tuple(k % d.rank for k in range(len(d.positive_roots) + 1))


def words(d):
    return [(), (d.rank - 1,), long_word(d)]


def assert_lowest_terms(values):
    for v in values:
        assert type(v) is Fraction, v
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1, v


def assert_monomials(coords):
    assert_lowest_terms([t.q_exp for t in coords])
    assert_lowest_terms([t.angle for t in coords])
    assert all(0 <= t.angle < 1 for t in coords)


def parameter(d, pairs):
    return UnramifiedParameter(d, tuple(QMonomial(e, a) for e, a in pairs))


@pytest.mark.parametrize(("d", "pairs"), CASES, ids=IDS)
def test_word_action_gives_reduced_fractions_and_matches_the_oracle(d, pairs):
    assert len(long_word(d)) > len(d.positive_roots)
    p = parameter(d, pairs)
    for word in words(d):
        moved = apply_word_parameter(p, word)
        assert_monomials(moved.coords)
        exps = apply_word_vector(d, word, tuple(e for e, _ in pairs))
        angles = apply_word_vector(d, word, tuple(a for _, a in pairs))
        assert [t.q_exp for t in moved.coords] == list(exps)
        assert [t.angle for t in moved.coords] == [a % 1 for a in angles]


@pytest.mark.parametrize(("d", "pairs"), CASES, ids=IDS)
def test_dominantize_gives_reduced_fractions_and_matches_the_oracle(d, pairs):
    for word in words(d):
        vector = apply_word_vector(d, word, tuple(e for e, _ in pairs))
        for as_given in (vector, list(vector)):
            dominant, back = dominantize(d, as_given)
            assert_lowest_terms(dominant)
            assert type(back) is tuple and all(type(i) is int for i in back)
            assert all(v >= 0 for v in dominant)
            assert apply_word_vector(d, back, vector) == dominant
    # integer entries come back as Fractions too
    dominant, _ = dominantize(d, tuple(range(-1, d.rank - 1)))
    assert_lowest_terms(dominant)


# (datum, (q_exp, angle) per coordinate) of Arthur shape: half-integral
# exponents whose dominant representative doubles into 0/1/2.
ARTHUR_CASES = [
    (build_root_datum(CartanSpec("A", 2)), [(F(1, 2), F(5, 6)), (F(1, 2), F(1, 4))]),
    (build_root_datum(CartanSpec("G", 2)), [(F(1, 2), F(5, 6)), (F(0), F(1, 3))]),
    (
        dual_datum(build_root_datum(CartanSpec("B", 3))),
        [(F(1), F(5, 6)), (F(0), F(1, 4)), (F(1, 2), F(2, 3))],
    ),
]


@pytest.mark.parametrize(("d", "pairs"), ARTHUR_CASES, ids=["A2", "G2", "C3"])
def test_recover_gives_reduced_fractions_and_matches_the_oracle(d, pairs):
    p = parameter(d, pairs)
    diagram = tuple(int(2 * e) for e, _ in pairs)
    for word in words(d):
        moved = apply_word_parameter(p, word)
        units, recovered = recover_arthur_data(moved)
        assert_monomials(units.coords)
        assert recovered == diagram and all(type(v) is int for v in recovered)
        assert all(t.q_exp == 0 for t in units.coords)
        # the recovered word takes the moved exponents back to the dominant
        # ones, and the moved angles with them
        _, back = dominantize(d, [t.q_exp for t in moved.coords])
        angles = apply_word_vector(d, back, tuple(t.angle for t in moved.coords))
        assert [t.angle for t in units.coords] == [a % 1 for a in angles]


GATE_D, GATE_PAIRS = ARTHUR_CASES[0]
GATE_P = parameter(GATE_D, GATE_PAIRS)
GATE_WORD = long_word(GATE_D)
GATE_MOVED = apply_word_parameter(GATE_P, GATE_WORD)
GATE_CALLS = {
    "apply_word_parameter": lambda: apply_word_parameter(GATE_P, GATE_WORD),
    "dominantize": lambda: dominantize(GATE_D, tuple(t.q_exp for t in GATE_MOVED.coords)),
    "recover_arthur_data": lambda: recover_arthur_data(GATE_MOVED),
}


@pytest.mark.parametrize("name", sorted(GATE_CALLS))
def test_the_word_loop_sees_only_integers(monkeypatch, name):
    """Every vector the Weyl entry point hands `_reflect`, read in `roots`
    or in `parameters`, holds only ints: the walk runs on numerators and
    builds Fractions only for its output."""
    seen = []
    reflect = roots._reflect

    def recording(columns, i, vector):
        # a snapshot: the reflection works on the list in place
        seen.append(list(vector))
        return reflect(columns, i, vector)

    for module in (roots, parameters):
        monkeypatch.setattr(module, "_reflect", recording)
    GATE_CALLS[name]()
    assert seen, "the call reflected nothing"
    assert all(type(v) is int for vector in seen for v in vector), seen


# -- recorded integer forms ------------------------------------------------------

RECORDED_SPECS = [*DICHOTOMY_SPECS, CartanSpec("G", 2)]
# angles over denominators 1-12
ANGLES = st.builds(lambda m, n: Fraction(n % m, m), st.integers(1, 12), st.integers(0, 11))


def assert_recorded(p):
    """`p` holds a recorded integer form, and it is the form derived from
    its coordinates."""
    assert "integer_form" in vars(p)
    assert p.integer_form == UnramifiedParameter(p.datum, p.coords).integer_form


# angle objects as a scenario may hand them in: reduced Fractions, ints and
# Fractions outside [0, 1)
ANY_ANGLES = st.one_of(ANGLES, st.integers(-3, 3), ANGLES.map(lambda a: a + 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECORDED_SPECS), st.data())
def test_unit_parameters_record_the_derived_form(spec, data):
    d = build_root_datum(spec)
    zero = (Fraction(0),) * d.rank
    # coordinates drawn from up to rank angle objects, so some share one
    pool = data.draw(st.lists(ANY_ANGLES, min_size=1, max_size=d.rank))
    shared = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=d.rank, max_size=d.rank)))
    angles = data.draw(st.sampled_from([zero, shared]))
    p = unit_parameter(d, angles)
    assert_recorded(p)
    assert p.coords == tuple(QMonomial(angle=a) for a in angles)
    # one QMonomial per distinct (exponent, angle) value, built from the form
    D, exponents, numerators = p.integer_form
    pairs = list(zip(exponents, numerators))
    for s, pair in zip(p.coords, pairs):
        assert s == QMonomial(Fraction(pair[0], D), Fraction(pair[1], D))
        assert all((s is t) == (pair == other) for t, other in zip(p.coords, pairs))
    if angles == zero:
        assert p.integer_form == (1, (0,) * d.rank, (0,) * d.rank)


def assert_the_word_loop_records(psi, word):
    """The Langlands parameter, its image under the word and the recovered
    units all record the derived form, with the coordinates of the
    construction from Fractions (replayed by the oracle)."""
    d = psi.datum
    half = tuple(Fraction(v, 2) for v in psi.sl2.diagram)
    angles = tuple(t.angle for t in psi.tempered_part.coords)
    p = langlands_parameter(psi)
    assert_recorded(p)
    assert p.coords == tuple(QMonomial(e, a) for e, a in zip(half, angles))
    moved = apply_word_parameter(p, word)
    assert_recorded(moved)
    assert moved.integer_form[0] == p.integer_form[0]
    exps, moved_angles = apply_word_vector(d, word, half), apply_word_vector(d, word, angles)
    assert moved.coords == tuple(QMonomial(e, a % 1) for e, a in zip(exps, moved_angles))
    units, diagram = recover_arthur_data(moved)
    assert_recorded(units)
    assert diagram == psi.sl2.diagram
    _, back = dominantize(d, exps)
    unit_angles = apply_word_vector(d, back, moved_angles)
    assert units.coords == tuple(QMonomial(angle=a % 1) for a in unit_angles)
    return p, units


@settings(max_examples=300, deadline=None)
@given(arthur_parameters(RECORDED_SPECS), st.data())
def test_the_word_loop_records_the_derived_forms(drawn, data):
    # the drawn tempered part is built by hand, so it computes its form;
    # the same angles through unit_parameter record theirs
    d = drawn.datum
    angles = tuple(t.angle for t in drawn.tempered_part.coords)
    rebuilt = make_arthur_parameter(unit_parameter(d, angles), drawn.sl2)
    drawn_word = tuple(data.draw(st.lists(st.integers(0, d.rank - 1), max_size=3 * d.rank)))
    for word in (*words(d), drawn_word):
        for psi in (drawn, rebuilt):
            assert_the_word_loop_records(psi, word)


def assert_a_view_of_its_form(p):
    """A parameter, built by the package or by hand, is its datum and
    integer form alone: it holds no coordinates until they are read, and
    it equals, hashes and prints like the parameter built by hand from
    them, and refuses assignment as that one does."""
    assert "coords" not in vars(p)
    digest = hash(p)
    # copied before its coordinates are read
    copies = [copy.deepcopy(p), pickle.loads(pickle.dumps(p))]
    by_hand = UnramifiedParameter(p.datum, p.coords)
    assert p.coords is p.coords
    assert p == by_hand and by_hand == p and not p != by_hand
    assert digest == hash(p) == hash(by_hand)
    assert repr(p) == repr(by_hand) == (
        f"UnramifiedParameter(datum={p.datum!r}, coords={p.coords!r})"
    )
    for copied in copies:
        assert copied == p and copied.coords == p.coords
    for q in (p, by_hand):
        for name in ("datum", "coords", "integer_form", "other"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(q, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(q, name)


@settings(max_examples=200, deadline=None)
@given(arthur_parameters(RECORDED_SPECS), st.data())
def test_package_built_parameters_equal_their_coordinates_by_hand(drawn, data):
    # the drawn tempered part is built by hand, and keeps only its form too
    assert_a_view_of_its_form(drawn.tempered_part)
    d = drawn.datum
    angles = tuple(t.angle for t in drawn.tempered_part.coords)
    units = unit_parameter(d, angles)
    psi = make_arthur_parameter(units, drawn.sl2)
    word = tuple(data.draw(st.lists(st.integers(0, d.rank - 1), max_size=3 * d.rank)))
    p = langlands_parameter(psi)
    moved = apply_word_parameter(p, word)
    recovered, _ = recover_arthur_data(moved)
    built = [units, p, moved, recovered]
    for q in built:
        assert_a_view_of_its_form(q)
    # equal exactly when the forms are: a word that moves the form moves
    # the parameter
    for q in built:
        for r in built:
            assert (q == r) is (q.integer_form == r.integer_form)
    assert (units == drawn.tempered_part) and hash(units) == hash(drawn.tempered_part)


# (spec, partition, unit angles, D of the units, D of the Langlands
# parameter): an odd diagram value doubles an odd D; zero units are over 1
ODD_CASES = [
    (CartanSpec("A", 2), (2, 1), (Fraction(1, 3), Fraction(2, 3)), 3, 6),
    (CartanSpec("B", 2), (2, 2, 1), (Fraction(1, 3), Fraction(1, 3)), 3, 6),
    (CartanSpec("A", 3), (2, 1, 1), (Fraction(1, 5), Fraction(3, 5), Fraction(1, 5)), 5, 10),
    (CartanSpec("A", 3), (2, 1, 1), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), 4, 4),
    (CartanSpec("A", 1), (2,), (Fraction(0),), 1, 1),
    (CartanSpec("A", 2), (2, 1), (Fraction(0), Fraction(0)), 1, 2),
    (CartanSpec("C", 2), (1, 1, 1, 1), (Fraction(0), Fraction(0)), 1, 1),
]


@pytest.mark.parametrize(("spec", "parts", "angles", "unit_D", "langlands_D"), ODD_CASES)
def test_odd_diagram_values_and_zero_units(spec, parts, angles, unit_D, langlands_D):
    d = build_root_datum(spec)
    psi = make_arthur_parameter(
        unit_parameter(d, angles), sl2_from_partition(spec.family, spec.rank, parts)
    )
    assert psi.tempered_part.integer_form[0] == unit_D
    for word in words(d):
        p, units = assert_the_word_loop_records(psi, word)
        assert p.integer_form[0] == langlands_D
        # the units come back over the units' own D
        assert units.integer_form[0] == unit_D
