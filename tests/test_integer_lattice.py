"""The integer-lattice paths against the slow exact references they replaced.

`evaluate_root` works over a parameter's integer form; an L-factor carries
its eigenvalues as integer pairs (qn, an) over one denominator D, the
numerator negating the denominator's pairs; and `character_exponents`
applies the datum's cached inverse Cartan matrix. Each is compared with the
QMonomial product of powers, a second `l_factor` and Gaussian elimination
over Fraction, on every family at rank <= 6 and on the dual data.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import qmonomial_inverse, qmonomial_mul, qmonomial_pow, solve_linear_fractions

from arthurcalc import parameters
from arthurcalc.lfactors import (
    ORIENTATIONS,
    eigenvalues_by_level,
    grade_nilradical,
    inverse_vanishes_at,
    l_factor,
    local_coefficient_ratio,
    pole_locations,
)
from arthurcalc.parameters import QMonomial, UnramifiedParameter, evaluate_root
from arthurcalc.roots import (
    CartanSpec,
    build_root_datum,
    character_exponents,
    dual_datum,
    evaluation_exponents,
)

SPECS = (
    [CartanSpec("A", n) for n in range(1, 7)]
    + [CartanSpec(f, n) for f in "BC" for n in range(2, 7)]
    + [CartanSpec("D", n) for n in range(3, 7)]
    + [CartanSpec("G", 2)]
)

# Exponent denominators of twists and Arthur exponents (1/3, 2/3 as in AC-2,
# quarters, sixths, twelfths); angles mix arbitrary denominators.
EXPONENT_DENOMINATORS = (1, 2, 3, 4, 6, 12)
exponents = st.builds(
    Fraction, st.integers(-36, 36), st.sampled_from(EXPONENT_DENOMINATORS)
)
angles = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40))
data = st.builds(
    lambda spec, dual: dual_datum(build_root_datum(spec)) if dual else build_root_datum(spec),
    st.sampled_from(SPECS),
    st.booleans(),
)


def reference_evaluate_root(root, p):
    """Product of the coordinates raised to the root's coefficients, in
    QMonomial arithmetic."""
    out = QMonomial()
    for c, t in zip(root, p.coords):
        if c:
            out = qmonomial_mul(out, qmonomial_pow(t, c))
    return out


def draw_parameter(draw, d, exponent_strategy):
    coords = tuple(
        QMonomial(draw(exponent_strategy(i)), draw(angles)) for i in range(d.rank)
    )
    return UnramifiedParameter(d, coords)


@given(data, st.data())
@settings(max_examples=150, deadline=None)
def test_evaluate_root_matches_the_product_of_powers(d, draw):
    p = draw_parameter(draw.draw, d, lambda i: exponents)
    vector = tuple(draw.draw(st.lists(st.integers(-4, 4), min_size=d.rank, max_size=d.rank)))
    roots = d.positive_roots + tuple(tuple(-c for c in r) for r in d.positive_roots)
    built = []
    real = parameters.QMonomial

    def recording(q_exp, angle):
        built.append((q_exp, angle))
        return real(q_exp, angle)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parameters, "QMonomial", recording)
        values = [evaluate_root(root, p) for root in roots + (vector,)]
    assert values == [reference_evaluate_root(root, p) for root in roots + (vector,)]
    assert [p.unit_is_trivial_on(root) for root in roots + (vector,)] == [
        value.angle == 0 for value in values
    ]
    # one QMonomial per root, handed over already reduced, so its
    # constructor keeps both fields as they are
    assert len(built) == len(values)
    for q_exp, angle in built:
        assert type(q_exp) is Fraction and type(angle) is Fraction
        assert 0 <= angle < 1


@given(data, st.data())
@settings(max_examples=100, deadline=None)
def test_ratio_numerator_is_the_reciprocal_l_factor(d, draw):
    theta = frozenset(draw.draw(st.sets(st.integers(0, d.rank - 1), max_size=d.rank - 1)))
    positive = st.builds(
        Fraction, st.integers(1, 36), st.sampled_from(EXPONENT_DENOMINATORS)
    )
    p = draw_parameter(draw.draw, d, lambda i: st.just(Fraction(0)) if i in theta else positive)
    g = grade_nilradical(d, theta)
    ratio = local_coefficient_ratio(d, theta, p)
    assert ratio.numerator == l_factor(g, p, "r")
    assert ratio.denominator == l_factor(g, p, "r-tilde")
    assert ratio.denominator.eigenvalues == tuple(
        reference_evaluate_root(root, p) for root in g.all_roots
    )


# The points where the tests ask whether an inverse factor vanishes.
S_POINTS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2))


def assert_pairs_match_the_product_of_powers(g, p):
    """Every view of both orientations' pairs agrees with QMonomials from
    the product of powers (on the negated root for the numerator side)."""
    for orientation in ORIENTATIONS:
        L = l_factor(g, p, orientation)
        sign = 1 if orientation == "r-tilde" else -1
        reference = tuple(
            reference_evaluate_root(tuple(sign * c for c in root), p) for root in L.roots
        )
        assert "eigenvalues" not in vars(L)  # built on first use only
        assert L.eigenvalues == reference
        for s in S_POINTS:
            hits = tuple(i for i, value in enumerate(reference) if value.is_q_power(s))
            assert inverse_vanishes_at(L, s) == (bool(hits), hits)
        assert pole_locations(L) == tuple(
            sorted(value.q_exp for value in reference if value.angle == 0)
        )
        values = iter(reference)
        assert eigenvalues_by_level(g, L) == tuple(
            tuple(
                sorted(
                    (next(values) for _ in roots), key=lambda m: (m.q_exp, m.angle)
                )
            )
            for _, roots in g.levels
        )


@given(data, st.data())
@settings(max_examples=150, deadline=None)
def test_integer_pairs_match_the_product_of_powers(d, draw):
    theta = frozenset(draw.draw(st.sets(st.integers(0, d.rank - 1), max_size=d.rank)))
    # angle 0 half the time, so that eigenvalues with trivial unit part (the
    # ones that vanish and give poles) turn up
    p = UnramifiedParameter(
        d,
        tuple(
            QMonomial(
                draw.draw(exponents),
                draw.draw(st.one_of(st.just(Fraction(0)), angles)),
            )
            for _ in range(d.rank)
        ),
    )
    assert_pairs_match_the_product_of_powers(grade_nilradical(d, theta), p)


@pytest.mark.parametrize(
    "spec, exps",
    [
        # D = 2: at s = 1/3 a root with qn = 0 must not vanish, though
        # rounding s * D down to an integer would say it does
        (CartanSpec("A", 2), (Fraction(1, 2), Fraction(-1, 2))),
        # D = 4, not a multiple of 3; the height-2 roots sit at q^(1/2)
        (CartanSpec("B", 2), (Fraction(1, 4), Fraction(1, 4))),
        # D = 3, not a multiple of 2; a1 + a2 sits at q^1
        (CartanSpec("A", 3), (Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3))),
    ],
    ids=["A2-D2", "B2-D4", "A3-D3"],
)
def test_vanishing_over_a_denominator_the_point_does_not_divide(spec, exps):
    d = build_root_datum(spec)
    p = UnramifiedParameter(d, tuple(QMonomial(e) for e in exps))
    g = grade_nilradical(d, frozenset())
    assert any(l_factor(g, p, "r-tilde").D % s.denominator for s in S_POINTS)
    assert_pairs_match_the_product_of_powers(g, p)


@given(data, st.data())
@settings(max_examples=150, deadline=None)
def test_character_exponents_match_gaussian_elimination(d, draw):
    rationals = st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60))
    v = tuple(draw.draw(st.lists(rationals, min_size=d.rank, max_size=d.rank)))
    c = character_exponents(d, v)
    rows = [[Fraction(x) for x in row] for row in d.cartan]
    assert list(c) == solve_linear_fractions(rows, list(v))
    assert evaluation_exponents(d, c) == v


numerals = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-200, 200), st.integers(1, 50)),
)


@given(numerals, numerals)
@settings(max_examples=300, deadline=None)
def test_qmonomial_normalizes_every_input_as_before(q_exp, angle):
    """Every exact rational, int or Fraction, is kept exactly, the angle
    reduced mod 1; anything else is refused (tests/test_fuzz.py)."""
    m = QMonomial(q_exp, angle)
    assert type(m.q_exp) is Fraction and m.q_exp == Fraction(q_exp)
    assert type(m.angle) is Fraction and m.angle == Fraction(angle) % 1
    assert qmonomial_inverse(m) == QMonomial(-Fraction(q_exp), -Fraction(angle))
