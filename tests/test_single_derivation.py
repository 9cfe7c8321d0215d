"""Each fact attached to an Arthur parameter is computed once per run.

Calls are counted the way bench/tracer.py observes them: every function is
replaced, under every name an arthurcalc module binds it to, by a counting
wrapper, so a call is seen whichever module makes it.
"""

import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracle import trivial_parameter

from arthurcalc import lfactors, nilpotent, parameters, roots
from arthurcalc.classifier import (
    Genericity,
    VerdictKind,
    classify_packet,
    genericity_verdict,
    irreducibility_verdict,
    packet_verdict,
    standard_module_datum,
)
from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import sl2_from_partition
from arthurcalc.parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    langlands_parameter,
    make_arthur_parameter,
    recover_arthur_data,
)
from arthurcalc.roots import CartanSpec, build_root_datum
from arthurcalc.scenarios import parse_scenario_text, run_scenario
from arthurcalc.sweeps import DICHOTOMY_SPECS, unit_grid, unit_parameter, valid_partitions

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COUNTED = {
    "langlands_parameter": parameters.langlands_parameter,
    "dominantize": roots.dominantize,
    "apply_word_parameter": parameters.apply_word_parameter,
    "local_coefficient_ratio": lfactors.local_coefficient_ratio,
    "grade_nilradical": lfactors.grade_nilradical,
    "root_values": roots.root_values,
    "l_factor": lfactors.l_factor,
    "character_exponents": roots.character_exponents,
    "integer_inverse": roots.integer_inverse,
    "evaluate_root": parameters.evaluate_root,
}


def count_calls(monkeypatch, counted_functions=COUNTED):
    counts = dict.fromkeys(counted_functions, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arthurcalc"]
    for name, fn in counted_functions.items():

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize(
    "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_run_scenario_derives_each_fact_once(path, monkeypatch):
    scenario = parse_scenario_text(path.read_text())
    run_scenario(scenario)  # fills the per-datum caches
    counts = count_calls(monkeypatch)
    run_scenario(scenario)
    support = len(scenario.resolved_sl2().support)
    assert counts.pop("evaluate_root") == (
        # only the witness, if there is one: the centralizer check and the
        # witness search test angle numerators on the parameter's integer
        # form, and the L-factor takes integer pairs
        support > 0
    )
    assert counts == {
        "langlands_parameter": 1,
        "dominantize": 0,  # the Langlands exponents are already dominant
        "apply_word_parameter": 0,
        "local_coefficient_ratio": 1,
        "grade_nilradical": 1,
        # every positive root evaluated in one pass each: the denominator's
        # exponent and angle numerators; the grading levels are the warm
        # run's, kept per (datum, Levi)
        "root_values": 2,
        "l_factor": 1,  # the denominator; the numerator inverts its eigenvalues
        "character_exponents": 1,  # the report's twist
        "integer_inverse": 0,  # each datum keeps its inverse Cartan matrix
    }


@pytest.mark.parametrize(
    "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_second_run_grades_nothing_new(path):
    scenario = parse_scenario_text(path.read_text())
    first = run_scenario(scenario)
    misses = lfactors._graded.cache_info().misses
    assert run_scenario(scenario) == first
    assert lfactors._graded.cache_info().misses == misses


def test_grading_cache_stays_within_its_bound():
    # every Levi of A9 is twice the bound: the cache keeps the most recent
    d = build_root_datum(CartanSpec("A", 9))
    assert 2**d.rank >= 2 * lfactors.MAX_GRADINGS
    sizes = set()
    for bits in range(2**d.rank):
        theta = frozenset(i for i in range(d.rank) if bits >> i & 1)
        lfactors.grade_nilradical(d, theta)
        sizes.add(lfactors._graded.cache_info().currsize)
    assert max(sizes) == lfactors.MAX_GRADINGS
    assert lfactors._graded.cache_info().maxsize == lfactors.MAX_GRADINGS


@pytest.mark.parametrize(
    "group, parts", [("A", [4]), ("B", [4]), ("C", [5]), ("D", [7, 1])]
)
def test_cold_run_enumerates_the_dual_roots_once(group, parts, monkeypatch):
    """The scenario's dual datum and the sl2 support share one datum."""
    for cached in (roots.build_root_datum, roots.dual_datum, nilpotent._partition_sl2):
        cached.cache_clear()
    calls = []

    def counted(cartan, _fn=roots._generate_positive_roots):
        calls.append(cartan)
        return _fn(cartan)

    monkeypatch.setattr(roots, "_generate_positive_roots", counted)
    rank = sum(parts) // 2 if group != "A" else sum(parts) - 1
    text = (
        f'{{"label": "cold", "group": {{"family": "{group}", "rank": {rank}}}, '
        f'"satake_angles": {["0"] * rank}, "sl2": {{"partition": {parts}}}}}'
    ).replace("'", '"')
    report = run_scenario(parse_scenario_text(text))
    assert report.verdict_kind == "NonTempered"
    assert len(calls) == 1


def test_tempered_classification_builds_no_l_factor(monkeypatch):
    d = build_root_datum(CartanSpec("C", 3))
    phi = UnramifiedParameter(d, tuple(QMonomial(angle=Fraction(1, 4)) for _ in range(3)))
    psi = make_arthur_parameter(phi, sl2_from_partition("C", 3, (1,) * 6))
    counts = count_calls(monkeypatch)
    assert classify_packet(psi).kind is VerdictKind.TEMPERED
    assert counts["local_coefficient_ratio"] == 0
    assert counts["l_factor"] == 0
    assert counts["character_exponents"] == 0
    assert counts["apply_word_parameter"] == counts["dominantize"] == 0
    assert counts["root_values"] == 0
    assert counts["langlands_parameter"] == 1


def test_one_standard_module_builds_one_coefficient_ratio(monkeypatch):
    """The verdicts read one record: the ratio, its L-factor and the
    character exponents are each built once, the last only when asked."""
    d = build_root_datum(CartanSpec("B", 3))
    psi = make_arthur_parameter(trivial_parameter(d), sl2_from_partition("B", 3, (3, 3, 1)))
    counts = count_calls(monkeypatch)
    sm = standard_module_datum(psi)
    assert packet_verdict(psi, sm).kind is VerdictKind.NON_TEMPERED
    assert not irreducibility_verdict(sm).irreducible
    assert genericity_verdict(sm) is Genericity.NOT_GENERIC
    assert packet_verdict(psi, sm).levi == sm.levi
    assert counts["character_exponents"] == 0
    assert sm.character_exponents == sm.character_exponents
    assert (
        counts["langlands_parameter"],
        counts["local_coefficient_ratio"],
        counts["l_factor"],
        counts["character_exponents"],
    ) == (1, 1, 1, 1)


def sweep_item(d, angles, sl2, word):
    """One sweep-recover item: build the Arthur parameter, classify it,
    conjugate its Langlands parameter by the word and recover the Arthur
    data."""
    psi = make_arthur_parameter(unit_parameter(d, angles), sl2)
    verdict = classify_packet(psi)
    moved = apply_word_parameter(langlands_parameter(psi), word)
    return psi, verdict, recover_arthur_data(moved)


SWEEP_ITEMS = [
    (CartanSpec("C", 3), (2, 2, 1, 1), (Fraction(0), Fraction(1, 4), Fraction(1, 2))),
    (CartanSpec("A", 3), (2, 1, 1), (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))),
    (CartanSpec("D", 4), (1,) * 8, (Fraction(3, 4),) * 4),
    # the principal orbit of each swept type, with trivial units
    *[
        (spec, valid_partitions(spec.family, spec.rank)[0], (Fraction(0),) * spec.rank)
        for spec in DICHOTOMY_SPECS
    ],
]


@pytest.mark.parametrize("spec, parts, angles", SWEEP_ITEMS, ids=str)
def test_a_sweep_item_derives_the_integer_form_once(spec, parts, angles, monkeypatch):
    """Only the unit parameter derives its integer form from Fractions; the
    Langlands parameter, its Weyl image and the recovered units record
    theirs, and the Langlands parameter is built once for the classifier
    and the word alike."""
    d = build_root_datum(spec)
    sl2 = sl2_from_partition(spec.family, spec.rank, parts)
    word = tuple(k % d.rank for k in range(3 * d.rank))
    sweep_item(d, angles, sl2, word)  # fills the per-datum caches
    counts = count_calls(monkeypatch, {"over_common_denominator": roots.over_common_denominator})
    builds = []
    build = ArthurParameter.__dict__["langlands_parameter"]
    monkeypatch.setattr(build, "func", lambda psi, _func=build.func: builds.append(psi) or _func(psi))
    psi, verdict, (units, diagram) = sweep_item(d, angles, sl2, word)
    assert counts == {"over_common_denominator": 1}
    assert builds == [psi]
    assert verdict.kind is (VerdictKind.TEMPERED if sl2.is_trivial else VerdictKind.NON_TEMPERED)
    assert diagram == sl2.diagram
    assert all(t.q_exp == 0 for t in units.coords)


@pytest.mark.parametrize("spec, parts, angles", SWEEP_ITEMS, ids=str)
def test_a_sweep_item_builds_no_coordinates(spec, parts, angles, monkeypatch):
    """Every parameter of an accepted sweep item is its integer form: the
    only QMonomial built is the certificate's, in `evaluate_root`, and the
    coordinates are built when they are read."""
    d = build_root_datum(spec)
    sl2 = sl2_from_partition(spec.family, spec.rank, parts)
    word = tuple(k % d.rank for k in range(3 * d.rank))
    sweep_item(d, angles, sl2, word)  # fills the per-datum caches
    built = []
    check = QMonomial.__post_init__
    monkeypatch.setattr(QMonomial, "__post_init__", lambda t: built.append(t) or check(t))
    counts = count_calls(monkeypatch, {"evaluate_root": parameters.evaluate_root})
    psi, verdict, (units, diagram) = sweep_item(d, angles, sl2, word)
    certificates = [] if sl2.is_trivial else [verdict.certificate.eigenvalue]
    assert len(built) == len(certificates) and all(map(operator.is_, built, certificates))
    assert counts == {"evaluate_root": len(certificates)}
    # reading the coordinates builds them, once
    assert units.coords is units.coords
    assert len(built) == len(certificates) + len(set(map(id, units.coords)))


@pytest.mark.parametrize("spec", DICHOTOMY_SPECS, ids=str)
def test_a_rejected_sweep_point_keeps_its_message(spec):
    """A point whose units do not centralize the sl2 image is refused with
    the same text as when its parameter derives its integer form."""
    d = build_root_datum(spec)
    rejected = 0
    for parts in valid_partitions(spec.family, spec.rank):
        sl2 = sl2_from_partition(spec.family, spec.rank, parts)
        for angles in unit_grid(spec.rank):
            by_hand = UnramifiedParameter(d, tuple(QMonomial(angle=a) for a in angles))
            messages = []
            for phi in (unit_parameter(d, angles), by_hand):
                try:
                    make_arthur_parameter(phi, sl2)
                except ValidationError as error:
                    messages.append((type(error), error.field, str(error)))
            assert len(messages) in (0, 2) and len(set(messages)) <= 1
            rejected += len(messages) // 2
    assert rejected


def test_a_rejected_sweep_point_message():
    d = build_root_datum(CartanSpec("C", 2))
    sl2 = sl2_from_partition("C", 2, (2, 2))
    with pytest.raises(ValidationError) as info:
        make_arthur_parameter(unit_parameter(d, (Fraction(0), Fraction(1, 4))), sl2)
    assert info.value.field == "parameter"
    assert str(info.value) == (
        "parameter: centralizer condition fails at a2: evaluation zeta(1/4) is not 1"
    )
