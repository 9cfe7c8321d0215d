"""Each fact attached to an Arthur parameter is computed once per run.

Calls are counted the way bench/tracer.py observes them: every function is
replaced, under every name an arthurcalc module binds it to, by a counting
wrapper, so a call is seen whichever module makes it.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from arthurcalc import lfactors, parameters, roots
from arthurcalc.classifier import (
    Genericity,
    VerdictKind,
    classify_packet,
    genericity_verdict,
    irreducibility_verdict,
    packet_verdict,
    standard_module_datum,
)
from arthurcalc.nilpotent import sl2_from_partition
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    make_arthur_parameter,
    trivial_parameter,
)
from arthurcalc.roots import CartanSpec, build_root_datum
from arthurcalc.scenarios import parse_scenario_text, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COUNTED = {
    "langlands_parameter": parameters.langlands_parameter,
    "dominantize": roots.dominantize,
    "apply_word_parameter": parameters.apply_word_parameter,
    "local_coefficient_ratio": lfactors.local_coefficient_ratio,
    "grade_nilradical": lfactors.grade_nilradical,
    "levi_and_nilradical": roots.levi_and_nilradical,
    "l_factor": lfactors.l_factor,
    "character_exponents": roots.character_exponents,
    "integer_inverse": roots.integer_inverse,
    "evaluate_root": parameters.evaluate_root,
}


def count_calls(monkeypatch):
    counts = dict.fromkeys(COUNTED, 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "arthurcalc"]
    for name, fn in COUNTED.items():

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    real_inverse = QMonomial.inverse

    def counted_inverse(self):
        counts["QMonomial.inverse"] += 1
        return real_inverse(self)

    counts["QMonomial.inverse"] = 0
    monkeypatch.setattr(QMonomial, "inverse", counted_inverse)
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
        # per support root: the centralizer check and the witness search;
        # then the witness itself, if there is one. No nilradical root is
        # evaluated one by one: the L-factor takes integer pairs.
        2 * support + (support > 0)
    )
    assert counts == {
        "langlands_parameter": 1,
        "dominantize": 0,  # the Langlands exponents are already dominant
        "apply_word_parameter": 0,
        "local_coefficient_ratio": 1,
        "grade_nilradical": 1,
        "levi_and_nilradical": 1,  # the nilradical is split once
        "l_factor": 1,  # the denominator; the numerator inverts its eigenvalues
        "character_exponents": 1,  # the report's twist
        "integer_inverse": 0,  # each datum keeps its inverse Cartan matrix
        "QMonomial.inverse": 0,  # the numerator negates the integer pairs
    }


@pytest.mark.parametrize(
    "group, parts", [("A", [4]), ("B", [4]), ("C", [5]), ("D", [7, 1])]
)
def test_cold_run_enumerates_the_dual_roots_once(group, parts, monkeypatch):
    """The scenario's dual datum and the sl2 support share one datum."""
    for cached in (roots.build_root_datum, roots.dual_datum, sl2_from_partition):
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
    phi = UnramifiedParameter(d, tuple(QMonomial.unit(Fraction(1, 4)) for _ in range(3)))
    psi = make_arthur_parameter(phi, sl2_from_partition("C", 3, (1,) * 6))
    counts = count_calls(monkeypatch)
    assert classify_packet(psi).kind is VerdictKind.TEMPERED
    assert counts["local_coefficient_ratio"] == 0
    assert counts["l_factor"] == 0
    assert counts["character_exponents"] == 0
    assert counts["apply_word_parameter"] == counts["dominantize"] == 0
    assert counts["levi_and_nilradical"] == 0
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
