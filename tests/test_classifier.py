"""Standard modules, irreducibility, genericity, witnesses, the dichotomy."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from oracle import reflect_root

from arthurcalc import classifier
from arthurcalc.classifier import (
    Certificate,
    Genericity,
    PacketVerdict,
    StandardModuleDatum,
    VerdictKind,
    classify_packet,
    genericity_verdict,
    irreducibility_verdict,
    standard_module_datum,
    witness_root,
)
from arthurcalc.errors import InvariantViolation, ValidationError
from arthurcalc.lfactors import local_coefficient_ratio
from arthurcalc.nilpotent import SL2Data, sl2_from_partition
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    decompose_parameter,
    langlands_parameter,
    make_arthur_parameter,
    recompose_parameter,
    trivial_parameter,
)
from arthurcalc.roots import (
    CartanSpec,
    build_root_datum,
    diagram_pairing,
    dominantize,
    dual_datum,
    evaluation_exponents,
)
from arthurcalc.scenarios import parse_scenario_text
from arthurcalc.sweeps import DICHOTOMY_SPECS, iter_dichotomy_parameters

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def unit_psi(family, rank, parts, angles=None):
    d = build_root_datum(CartanSpec(family, rank))
    if angles is None:
        angles = (Fraction(0),) * rank
    phi = UnramifiedParameter(d, tuple(QMonomial.unit(a) for a in angles))
    return make_arthur_parameter(phi, sl2_from_partition(family, rank, parts))


# -- standard module data ---------------------------------------------------------


def test_standard_module_a1_principal():
    psi = unit_psi("A", 1, (2,))
    sm = standard_module_datum(psi)
    assert sm.character_exponents == (Fraction(1, 2),)
    assert sm.exponents == (Fraction(1),)
    assert sm.levi == frozenset()
    assert decompose_parameter(sm.parameter)[0] == psi.tempered_part
    # the support itself, unmoved, lies off the Levi
    assert psi.sl2.support == ((1,),)
    assert sm.parameter.coords == (QMonomial.q(1),)


def test_standard_module_tempered_case():
    sm = standard_module_datum(unit_psi("A", 2, (1, 1, 1)))
    assert sm.character_exponents == (Fraction(0), Fraction(0))
    assert sm.levi == frozenset({0, 1})


def test_standard_module_b2_subregular_levi():
    # dual side of Sp(4): [3,1,1] has diagram (2,0), so the Levi keeps a2
    sm = standard_module_datum(unit_psi("B", 2, (3, 1, 1)))
    assert sm.levi == frozenset({1})
    assert sm.exponents == (Fraction(1), Fraction(0))
    assert sm.character_exponents == (Fraction(1), Fraction(1, 2))


def twisted_module(family, rank, character_exps, generic=True):
    """The standard module of the trivial unit part twisted by the given
    character exponents."""
    d = build_root_datum(CartanSpec(family, rank))
    twist = evaluation_exponents(d, [Fraction(c) for c in character_exps])
    return StandardModuleDatum(recompose_parameter(trivial_parameter(d), twist), generic)


def test_twist_must_vanish_exactly_on_levi():
    assert twisted_module("A", 2, (Fraction(1, 3), Fraction(1, 3))).levi == frozenset()
    assert twisted_module("A", 2, (Fraction(2, 3), Fraction(1, 3))).levi == frozenset({1})
    with pytest.raises(ValidationError, match="not dominant") as err:
        twisted_module("A", 2, (Fraction(1), Fraction(-1)))
    assert err.value.field == "twist"


# -- irreducibility and genericity --------------------------------------------------


def rank1_module(character_exponent, generic=True):
    return twisted_module("A", 1, (character_exponent,), generic)


def test_rank1_reducible_exactly_at_one_half():
    for nu in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        sm = rank1_module(nu)
        verdict = irreducibility_verdict(sm)
        assert verdict is sm.coefficient_ratio  # the ratio is the verdict
        reducible = nu == Fraction(1, 2)
        assert verdict.irreducible is not reducible, nu
        assert verdict.vanishes is reducible
        assert verdict.witness_roots == (((1,),) if reducible else ())


def test_genericity_tracks_irreducibility_under_assumption():
    assert genericity_verdict(rank1_module(Fraction(1, 4))) is Genericity.GENERIC
    assert genericity_verdict(rank1_module(Fraction(1, 2))) is Genericity.NOT_GENERIC
    assert genericity_verdict(rank1_module(Fraction(1, 2), generic=False)) is \
        Genericity.NOT_APPLICABLE


def test_tempered_standard_module_is_trivially_irreducible():
    sm = standard_module_datum(unit_psi("C", 2, (1, 1, 1, 1)))
    verdict = irreducibility_verdict(sm)
    assert verdict.irreducible
    assert verdict.denominator.roots == ()


# -- witnesses -------------------------------------------------------------------------


def test_witness_requires_nontrivial_sl2():
    psi = unit_psi("A", 2, (1, 1, 1))
    with pytest.raises(ValidationError, match="tempered parameter has no witness"):
        witness_root(psi, standard_module_datum(psi).levi)


def test_witness_tie_break_takes_first_simple_root():
    psi = unit_psi("A", 2, (3,))
    assert witness_root(psi, standard_module_datum(psi).levi) == (1, 0)


def test_witness_lies_outside_the_levi():
    psi = unit_psi("B", 2, (3, 1, 1))
    w = witness_root(psi, standard_module_datum(psi).levi)
    assert w == (1, 1)


# -- verdicts --------------------------------------------------------------------------


def test_classify_tempered():
    verdict = classify_packet(unit_psi("A", 2, (1, 1, 1)))
    assert verdict.kind is VerdictKind.TEMPERED
    assert verdict.witness is None and verdict.certificate is None
    assert verdict.levi == frozenset({0, 1})


def test_classify_a1_principal():
    verdict = classify_packet(unit_psi("A", 1, (2,)))
    assert verdict.kind is VerdictKind.NON_TEMPERED
    assert verdict.witness == (1,)
    assert verdict.certificate.eigenvalue == QMonomial.q(1)
    assert verdict.certificate.s == Fraction(1)
    assert verdict.levi == frozenset()


def test_classify_c2_pair_orbit_with_nontrivial_units():
    psi = unit_psi("C", 2, (2, 2), angles=(Fraction(1, 2), Fraction(0)))
    verdict = classify_packet(psi)
    assert verdict.kind is VerdictKind.NON_TEMPERED
    assert verdict.witness == (0, 1)
    assert verdict.levi == frozenset({0})


def test_packet_verdict_invariants():
    with pytest.raises(ValidationError, match="needs witness and certificate"):
        PacketVerdict(VerdictKind.NON_TEMPERED, None, None, frozenset())
    with pytest.raises(ValidationError, match="must be exactly q"):
        PacketVerdict(
            VerdictKind.NON_TEMPERED,
            (1,),
            Certificate(QMonomial.q(Fraction(1, 2)), Fraction(1)),
            frozenset(),
        )
    with pytest.raises(ValidationError, match="s = 1"):
        PacketVerdict(
            VerdictKind.NON_TEMPERED,
            (1,),
            Certificate(QMonomial.q(1), Fraction(2)),
            frozenset(),
        )
    with pytest.raises(ValidationError, match="no witness"):
        PacketVerdict(
            VerdictKind.TEMPERED,
            (1,),
            Certificate(QMonomial.q(1), Fraction(1)),
            frozenset(),
        )


# -- Weyl equivariance of the verdict ----------------------------------------------------


def reflected_psi(psi, i):
    """Conjugate the whole Arthur parameter by s_i; only valid when the
    diagram is fixed (entry i equals 0), otherwise the data leave the
    dominant chamber and validation must reject them."""
    d = psi.datum
    support = tuple(reflect_root(d, i, root) for root in psi.sl2.support)
    data = SL2Data(psi.sl2.diagram, support)
    return make_arthur_parameter(apply_word_parameter(psi.tempered_part, (i,)), data)


def test_verdict_is_reflection_invariant_at_zero_diagram_entries():
    cases = [
        ("B", 2, (3, 1, 1), (Fraction(1, 2), Fraction(1, 2))),  # diagram (2, 0)
        ("C", 2, (2, 2), (Fraction(1, 2), Fraction(0))),        # diagram (0, 2)
        ("C", 3, (3, 3), (Fraction(1, 2),) * 3),                # diagram (0, 2, 0)
    ]
    for family, rank, parts, angles in cases:
        psi = unit_psi(family, rank, parts, angles=angles)
        base = classify_packet(psi)
        for i, v in enumerate(psi.sl2.diagram):
            if v != 0:
                continue
            other = classify_packet(reflected_psi(psi, i))
            assert other.kind is base.kind
            assert other.certificate.eigenvalue == base.certificate.eigenvalue
            assert other.levi == base.levi


def test_reflection_at_nonzero_diagram_entry_is_rejected():
    psi = unit_psi("A", 1, (2,))
    with pytest.raises(ValidationError):
        reflected_psi(psi, 0)  # s_1 sends the support root negative


# -- the Langlands parameter is already dominant -----------------------------------------


def g2_expert_parameters():
    """Every G2 diagram with entries in 0/1/2, supported on all the positive
    roots that pair to 2 with it; diagrams with no such root are skipped."""
    d = build_root_datum(CartanSpec("G", 2))
    for diagram in product((0, 1, 2), repeat=2):
        support = tuple(r for r in d.positive_roots if diagram_pairing(r, diagram) == 2)
        if bool(support) == any(diagram):
            yield make_arthur_parameter(trivial_parameter(d), SL2Data(diagram, support))


def scenario_parameters():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        s = parse_scenario_text(path.read_text())
        dual = dual_datum(build_root_datum(s.group))
        phi = UnramifiedParameter(dual, tuple(QMonomial.unit(a) for a in s.satake_angles))
        yield make_arthur_parameter(phi, s.resolved_sl2())


def test_langlands_exponents_are_already_dominant():
    """The premise of reading the Levi straight off the Langlands parameter:
    dominantizing its exponents moves nothing and records no letter."""
    parameters = [psi for spec in DICHOTOMY_SPECS for psi in iter_dichotomy_parameters(spec)]
    parameters += [*g2_expert_parameters(), *scenario_parameters()]
    for psi in parameters:
        _, exponents = decompose_parameter(langlands_parameter(psi))
        assert dominantize(psi.datum, exponents) == (exponents, ()), psi
    assert len(parameters) == 1009 + 9 + 5


def test_witness_route_and_full_product_must_agree(monkeypatch):
    """A full product that misses the witness is a bug, not a verdict."""

    def squared(d, theta, p):
        squared_parameter = UnramifiedParameter(d, tuple(t ** 2 for t in p.coords))
        return local_coefficient_ratio(d, theta, squared_parameter)

    monkeypatch.setattr(classifier, "local_coefficient_ratio", squared)
    with pytest.raises(InvariantViolation, match="does not vanish at the witness a1"):
        classify_packet(unit_psi("A", 1, (2,)))
