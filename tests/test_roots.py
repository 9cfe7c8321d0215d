"""Root data, Weyl combinatorics, and the exponent-coordinate change."""

import copy
import pickle
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    apply_word_vector,
    integer_inverse_fractions,
    reference_positive_roots,
    reflect_root,
    root_sort_key,
    simple_roots,
    solve_linear_fractions,
    weyl_orbit,
)

from arthurcalc.errors import InvariantViolation, ValidationError
from arthurcalc.lfactors import grade_nilradical
from arthurcalc.roots import (
    MAX_RANK,
    CartanSpec,
    RootDatum,
    _dominant_walk,
    _reflect,
    build_root_datum,
    cartan_matrix,
    character_exponents,
    diagram_pairing,
    dominantize,
    dual_datum,
    evaluation_exponents,
    format_root,
    integer_inverse,
    over_common_denominator,
    validate_levi,
)
from arthurcalc.sweeps import DICHOTOMY_SPECS

SMALL_SPECS = [
    CartanSpec("A", 1),
    CartanSpec("A", 2),
    CartanSpec("A", 3),
    CartanSpec("B", 2),
    CartanSpec("C", 2),
    CartanSpec("B", 3),
    CartanSpec("C", 3),
    CartanSpec("D", 4),
    CartanSpec("G", 2),
]


def frac_vectors(rank: int):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.tuples(*([entry] * rank))


# -- Cartan matrices (frozen) ------------------------------------------------


def test_cartan_matrices_frozen():
    assert cartan_matrix(CartanSpec("A", 1)) == ((2,),)
    assert cartan_matrix(CartanSpec("A", 2)) == ((2, -1), (-1, 2))
    assert cartan_matrix(CartanSpec("B", 2)) == ((2, -2), (-1, 2))
    assert cartan_matrix(CartanSpec("C", 2)) == ((2, -1), (-2, 2))
    assert cartan_matrix(CartanSpec("G", 2)) == ((2, -1), (-3, 2))
    assert cartan_matrix(CartanSpec("B", 3)) == (
        (2, -1, 0),
        (-1, 2, -2),
        (0, -1, 2),
    )
    assert cartan_matrix(CartanSpec("C", 3)) == (
        (2, -1, 0),
        (-1, 2, -1),
        (0, -2, 2),
    )
    assert cartan_matrix(CartanSpec("D", 4)) == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )


def test_bad_specs_rejected():
    with pytest.raises(ValidationError):
        CartanSpec("E", 6)
    with pytest.raises(ValidationError):
        CartanSpec("D", 2)
    with pytest.raises(ValidationError):
        CartanSpec("G", 3)
    for rank in (0, True, False):
        with pytest.raises(ValidationError, match="^rank: ") as info:
            CartanSpec("A", rank)
        assert info.value.field == "rank"


def test_rank_cap():
    # principal-large runs reach dual rank 22
    assert MAX_RANK >= 22
    for family in "ABCD":
        assert CartanSpec(family, MAX_RANK).rank == MAX_RANK
        with pytest.raises(ValidationError, match=r"^rank: rank \d+ exceeds") as info:
            CartanSpec(family, MAX_RANK + 1)
        assert info.value.field == "rank"


# -- positive root systems ----------------------------------------------------


def test_positive_root_counts():
    for n in range(1, MAX_RANK + 1):
        assert len(build_root_datum(CartanSpec("A", n)).positive_roots) == n * (n + 1) // 2
    for n in range(2, MAX_RANK + 1):
        assert len(build_root_datum(CartanSpec("B", n)).positive_roots) == n * n
        assert len(build_root_datum(CartanSpec("C", n)).positive_roots) == n * n
    for n in range(3, MAX_RANK + 1):
        assert len(build_root_datum(CartanSpec("D", n)).positive_roots) == n * (n - 1)
    assert len(build_root_datum(CartanSpec("G", 2)).positive_roots) == 6


@pytest.mark.parametrize(
    "spec",
    [CartanSpec("A", n) for n in range(1, 13)]
    + [CartanSpec(f, n) for f in "BC" for n in range(2, 13)]
    + [CartanSpec("D", n) for n in range(3, 13)]
    + [CartanSpec("G", 2)],
    ids=str,
)
def test_positive_roots_are_the_positive_part_of_the_weyl_orbit(spec):
    """Against an independent reference: every root is W-conjugate to a
    simple root, so the orbit of the simple roots under the oracle's simple
    reflections is the whole root system."""
    d = build_root_datum(spec)
    for datum in (d, dual_datum(d)):
        positive = [root for root in weyl_orbit(datum, simple_roots(datum)) if min(root) >= 0]
        assert sorted(positive, key=root_sort_key) == list(datum.positive_roots)


# B_n and C_n are each other's duals: one reference run per matrix
cached_reference = lru_cache(maxsize=None)(reference_positive_roots)


@pytest.mark.parametrize(
    "spec",
    [
        CartanSpec(family, rank)
        for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
        for rank in range(low, MAX_RANK + 1)
    ]
    + [CartanSpec("G", 2)],
    ids=str,
)
def test_enumeration_matches_the_reference_byte_for_byte(spec):
    """The enumeration that carries pairings and string depths from each
    root's producers gives the reference's roots, links and index, the
    index in the same insertion order, on the datum and on its dual."""
    d = build_root_datum(spec)
    for datum in {d, dual_datum(d)}:
        roots, links, index = cached_reference(datum.cartan)
        assert datum.positive_roots == roots
        assert datum.root_links == links
        assert list(datum.root_index.items()) == list(index.items())


def test_positive_roots_frozen_small():
    assert set(build_root_datum(CartanSpec("A", 2)).positive_roots) == {
        (1, 0), (0, 1), (1, 1),
    }
    assert set(build_root_datum(CartanSpec("B", 2)).positive_roots) == {
        (1, 0), (0, 1), (1, 1), (1, 2),
    }
    assert set(build_root_datum(CartanSpec("C", 2)).positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1),
    }
    assert set(build_root_datum(CartanSpec("G", 2)).positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
    }


def test_canonical_order_by_height_then_index():
    d = build_root_datum(CartanSpec("A", 2))
    assert d.positive_roots == ((1, 0), (0, 1), (1, 1))
    assert root_sort_key((1, 0)) < root_sort_key((0, 1)) < root_sort_key((1, 1))


def test_reflections_permute_other_positive_roots():
    for spec in SMALL_SPECS:
        d = build_root_datum(spec)
        for i in range(d.rank):
            alpha_i = simple_roots(d)[i]
            others = [r for r in d.positive_roots if r != alpha_i]
            image = {reflect_root(d, i, r) for r in others}
            assert image == set(others)
            assert reflect_root(d, i, alpha_i) == tuple(-c for c in alpha_i)


# -- duality -------------------------------------------------------------------


def test_dual_swaps_b_and_c():
    dual = dual_datum(build_root_datum(CartanSpec("B", 3)))
    assert dual.spec == CartanSpec("C", 3)
    assert dual.cartan == cartan_matrix(CartanSpec("C", 3))
    back = dual_datum(dual)
    assert back.spec == CartanSpec("B", 3)


def test_dual_is_transpose_with_involution():
    for spec in SMALL_SPECS:
        d = build_root_datum(spec)
        dual = dual_datum(d)
        n = d.rank
        assert all(
            dual.cartan[i][j] == d.cartan[j][i] for i in range(n) for j in range(n)
        )
        assert dual_datum(dual) == d


def test_dual_g2_swaps_root_labels():
    dual = dual_datum(build_root_datum(CartanSpec("G", 2)))
    assert dual.spec.family == "G"
    assert dual.cartan == ((2, -3), (-1, 2))
    assert dual_datum(dual) is build_root_datum(CartanSpec("G", 2))


def test_classical_dual_is_the_dual_specs_datum():
    # one datum, so one root enumeration, per classical dual type
    for family, dual_family, low in (("A", "A", 1), ("B", "C", 2), ("C", "B", 2), ("D", "D", 3)):
        for rank in range(low, 9):
            dual = dual_datum(build_root_datum(CartanSpec(family, rank)))
            assert dual is build_root_datum(CartanSpec(dual_family, rank))


@pytest.mark.parametrize("spec", [*SMALL_SPECS, CartanSpec("A", 22), CartanSpec("D", 24)], ids=str)
def test_a_hand_built_datum_hashes_like_the_built_one(spec):
    # the hash is taken once, from (spec, cartan), as the dataclass hash
    # would be; equal data built apart hash equal and share cache entries
    built = build_root_datum(spec)
    matrix = cartan_matrix(spec)
    for cartan in (matrix, tuple(zip(*matrix))):
        by_hand = RootDatum(CartanSpec(spec.family, spec.rank), tuple(map(tuple, cartan)))
        assert hash(by_hand) == hash((by_hand.spec, by_hand.cartan))
        if by_hand.cartan == built.cartan:
            assert by_hand == built and hash(by_hand) == hash(built)
            assert {built: "built"}[by_hand] == "built"
            assert dual_datum(by_hand) is dual_datum(built)
        else:
            assert by_hand != built


def test_a_pickled_datum_takes_its_hash_again():
    # the hash is not carried along: a string hash differs between processes
    d = build_root_datum(CartanSpec("B", 3))
    stale = RootDatum(d.spec, d.cartan)
    object.__setattr__(stale, "_hash", hash(d) + 1)
    for copied in (pickle.loads(pickle.dumps(stale)), copy.deepcopy(stale)):
        assert copied == d and hash(copied) == hash(d)


# -- pairings ------------------------------------------------------------------


def test_diagram_pairing_is_coefficient_dot():
    assert diagram_pairing((1, 1), (2, 0)) == 2
    assert diagram_pairing((1, 2), (0, 1)) == 2
    assert diagram_pairing((3, 2), (2, 2)) == 10


# -- Weyl action on vectors ------------------------------------------------------


def reflect(d, i, v):
    """s_i of the vector as a tuple, through `_reflect` on a list copy."""
    w = list(v)
    _reflect(d.reflection_columns, i, w)
    return tuple(w)


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_reflection_is_an_involution_on_vectors(spec, data):
    d = build_root_datum(spec)
    v = data.draw(frac_vectors(d.rank))
    i = data.draw(st.integers(min_value=0, max_value=d.rank - 1))
    assert reflect(d, i, reflect(d, i, v)) == tuple(Fraction(x) for x in v)


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_reflection_negates_exactly_the_simple_evaluation(spec, data):
    # (s_i v)_i = -v_i: the evaluation against alpha_i flips sign.
    d = build_root_datum(spec)
    v = data.draw(frac_vectors(d.rank))
    i = data.draw(st.integers(min_value=0, max_value=d.rank - 1))
    assert reflect(d, i, v)[i] == -Fraction(v[i])


def _weyl_orbit(d, v):
    v = tuple(Fraction(x) for x in v)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for i in range(d.rank):
                w = reflect(d, i, u)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@given(
    st.sampled_from([CartanSpec("A", 2), CartanSpec("B", 2), CartanSpec("G", 2)]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_dominantize_agrees_with_full_orbit_search(spec, data):
    d = build_root_datum(spec)
    v = data.draw(frac_vectors(d.rank))
    dominant, word = dominantize(d, v)
    assert all(x >= 0 for x in dominant)
    assert apply_word_vector(d, word, tuple(Fraction(x) for x in v)) == dominant
    orbit = _weyl_orbit(d, v)
    dominant_members = {u for u in orbit if all(x >= 0 for x in u)}
    assert dominant in dominant_members
    # regular vectors have a unique dominant representative
    if all(x != 0 for x in dominant):
        assert dominant_members == {dominant}


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_dominantize_word_length_bounded(spec, data):
    d = build_root_datum(spec)
    v = data.draw(frac_vectors(d.rank))
    _, word = dominantize(d, v)
    assert len(word) <= len(d.positive_roots)


@given(st.sampled_from([*DICHOTOMY_SPECS, CartanSpec("G", 2)]), st.data())
@settings(max_examples=80, deadline=None)
def test_the_integer_walk_is_dominantize_over_one_denominator(spec, data):
    """`_dominant_walk` on a drawn vector's numerators over D, the lcm of
    its denominators or a multiple of it, gives `dominantize`'s output times
    D as ints, with the same word."""
    d = build_root_datum(spec)
    v = data.draw(frac_vectors(d.rank))
    k = data.draw(st.integers(min_value=1, max_value=3))
    D, nums = over_common_denominator(v)
    dominant, word = dominantize(d, v)
    walked, walk_word = _dominant_walk(d, [k * n for n in nums])
    assert walk_word == word
    assert walked == [k * D * x for x in dominant]
    assert all(type(n) is int for n in walked)


# -- Levi subsets -----------------------------------------------------------------


def test_levi_and_nilradical_a2():
    """The nilradical `grade_nilradical` grades; the Levi roots are the
    other positive roots."""
    d = build_root_datum(CartanSpec("A", 2))
    for theta, nilradical in [
        ({0}, {(0, 1), (1, 1)}),
        ({0, 1}, set()),
        (set(), set(d.positive_roots)),
    ]:
        assert set(grade_nilradical(d, frozenset(theta)).all_roots) == nilradical


def test_validate_levi_rejects_out_of_range():
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError):
        validate_levi(d, frozenset({2}))
    with pytest.raises(ValidationError):
        validate_levi(d, frozenset({-1}))


@pytest.mark.parametrize("index", [True, 1.0, "1"])
def test_validate_levi_refuses_indices_that_are_not_integers(index):
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError, match="is not an integer") as err:
        validate_levi(d, {index})
    assert err.value.field == "levi"


# -- exact linear algebra ------------------------------------------------------------


def test_solve_linear_fractions_known_system():
    rows = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    assert solve_linear_fractions(rows, [Fraction(1), Fraction(1)]) == [
        Fraction(1), Fraction(1),
    ]


ALL_CARTAN_SPECS = [
    CartanSpec(family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
    for rank in range(low, MAX_RANK + 1)
] + [CartanSpec("G", 2)]


@pytest.mark.parametrize("spec", ALL_CARTAN_SPECS, ids=str)
def test_integer_inverse_matches_fraction_gauss_jordan(spec):
    for cartan in (cartan_matrix(spec), dual_datum(build_root_datum(spec)).cartan):
        assert integer_inverse(cartan) == integer_inverse_fractions(cartan)


@pytest.mark.parametrize(
    "rows",
    [((0, 1), (1, 0)), ((2, 3), (1, -4)), ((-3,),), ((1, 2, 3), (0, -1, 4), (5, 6, 0))],
    ids=["needs-a-row-swap", "negative-determinant", "rank-1-negative", "dense-3x3"],
)
def test_integer_inverse_beyond_cartan_matrices(rows):
    assert integer_inverse(rows) == integer_inverse_fractions(rows)


def test_integer_inverse_singular():
    with pytest.raises(InvariantViolation):
        integer_inverse(((1, 2), (2, 4)))


def test_solve_linear_fractions_singular():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    with pytest.raises(InvariantViolation):
        solve_linear_fractions(rows, [Fraction(1), Fraction(0)])


# -- character vs evaluation exponents ------------------------------------------------


def test_exponent_conversion_rank1_doubles():
    d = build_root_datum(CartanSpec("A", 1))
    assert evaluation_exponents(d, (Fraction(1, 2),)) == (Fraction(1),)
    assert character_exponents(d, (Fraction(1),)) == (Fraction(1, 2),)


def test_exponent_conversion_principal_b2():
    # on the dual side of Sp(4): the principal half-sum has character
    # exponents (2, 3/2) and evaluation exponents (1, 1)
    d = build_root_datum(CartanSpec("B", 2))
    assert evaluation_exponents(d, (Fraction(2), Fraction(3, 2))) == (
        Fraction(1), Fraction(1),
    )
    assert character_exponents(d, (Fraction(1), Fraction(1))) == (
        Fraction(2), Fraction(3, 2),
    )


@given(st.sampled_from(SMALL_SPECS), st.data())
@settings(max_examples=60, deadline=None)
def test_exponent_conversions_invert_each_other(spec, data):
    d = build_root_datum(spec)
    c = data.draw(frac_vectors(d.rank))
    c = tuple(Fraction(x) for x in c)
    assert character_exponents(d, evaluation_exponents(d, c)) == c


@pytest.mark.parametrize(
    ("function", "field"),
    [(dominantize, "vector"), (character_exponents, "exponents"), (evaluation_exponents, "exponents")],
)
@pytest.mark.parametrize("entry", ["x", float("nan"), None, True, 0.5, "1/2"])
def test_vector_functions_refuse_entries_that_are_not_exact_rationals(function, field, entry):
    # "x" and nan leaked a ValueError and None a TypeError; True, 0.5 and
    # "1/2" were converted
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError) as info:
        function(d, (Fraction(1, 2), entry))
    assert info.value.field == field
    assert str(info.value) == f"{field}: expected a rational, got {entry!r}"


@pytest.mark.parametrize("function", [dominantize, character_exponents, evaluation_exponents])
def test_vector_functions_refuse_vectors_of_the_wrong_shape(function):
    d = build_root_datum(CartanSpec("A", 2))
    with pytest.raises(ValidationError, match="expected a tuple of rationals, got None"):
        function(d, None)
    with pytest.raises(ValidationError, match="expected 2 rationals, got 3"):
        function(d, (1, 2, 3))


# -- formatting -------------------------------------------------------------------------


def test_format_root():
    assert format_root((1, 0)) == "a1"
    assert format_root((1, 2)) == "a1 + 2 a2"
    assert format_root((0, 0)) == "0"
