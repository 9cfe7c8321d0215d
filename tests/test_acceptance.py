"""Acceptance criteria, one test per criterion.

Every test prints exactly one [AC-n] PASS/FAIL line through the disabled
capture channel so the lines land in piped logs, together with the sweep
size and the elapsed time. Budgeted criteria fail when they run over.
"""

import itertools
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from oracle import (
    commutator,
    dot_levi_and_nilradical,
    encode,
    jordan_type,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    standard_triple,
    trivial_parameter,
)

from arthurcalc.classifier import (
    Genericity,
    StandardModuleDatum,
    VerdictKind,
    classify_packet,
    genericity_verdict,
    irreducibility_verdict,
    standard_module_datum,
)
from arthurcalc.lfactors import (
    grade_nilradical,
    inverse_vanishes_at,
    l_factor,
    pole_locations,
)
from arthurcalc.nilpotent import (
    _diagram_from_sorted,
    sl2_from_partition,
    weighted_diagram,
)
from arthurcalc.parameters import (
    QMonomial,
    langlands_parameter,
    make_arthur_parameter,
    recompose_parameter,
    recover_arthur_data,
)
from arthurcalc.roots import (
    CartanSpec,
    build_root_datum,
    evaluation_exponents,
)
from arthurcalc.scenarios import (
    canonical_json,
    emit_report_machine,
    parse_family_text,
    parse_scenario_text,
    ramanujan_report,
    run_scenario,
)
from arthurcalc.sweeps import (
    DICHOTOMY_SPECS,
    MU4_ANGLES,
    iter_dichotomy_parameters,
    unit_grid,
    unit_parameter,
    valid_partitions,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# Strictly positive half-integral twist entries for the holomorphy sweep.
TWIST_VALUES = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


class Criterion:
    """Times a block and prints one PASS/FAIL line outside pytest capture."""

    def __init__(self, tag, description, capsys, budget=None):
        self.tag = tag
        self.description = description
        self.capsys = capsys
        self.budget = budget
        self.note = ""

    def _emit(self, status, extra=""):
        note = f"; {self.note}" if self.note else ""
        with self.capsys.disabled():
            print(f"\n[{self.tag}] {status} {self.description}{note}{extra}", flush=True)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            self._emit("FAIL", f" [{elapsed:.2f}s]")
            return False
        if self.budget is not None and elapsed >= self.budget:
            self._emit("FAIL", f" [{elapsed:.2f}s over the {self.budget:.0f}s budget]")
            raise AssertionError(
                f"{self.tag} exceeded its {self.budget:.0f}s budget: {elapsed:.2f}s"
            )
        self._emit("PASS", f" [{elapsed:.2f}s]")
        return False


def test_trivial_representation_certificate(capsys):
    with Criterion(
        "AC-1",
        "principal-orbit packet with trivial Satake point is certified non-tempered",
        capsys,
        budget=1.0,
    ):
        d = build_root_datum(CartanSpec("A", 1))
        psi = make_arthur_parameter(
            trivial_parameter(d), sl2_from_partition("A", 1, (2,))
        )
        assert langlands_parameter(psi).coords == (QMonomial(1),)
        verdict = classify_packet(psi)
        assert verdict.kind is VerdictKind.NON_TEMPERED
        assert verdict.witness == (1,)
        assert verdict.certificate.eigenvalue == QMonomial(1)
        assert verdict.certificate.s == Fraction(1)
        sm = standard_module_datum(psi)
        assert sm.character_exponents == (Fraction(1, 2),)
        assert not irreducibility_verdict(sm).irreducible
        assert genericity_verdict(sm) is Genericity.NOT_GENERIC


def test_rank1_reducibility_point(capsys):
    with Criterion(
        "AC-2",
        "rank-1 standard module is reducible exactly at character exponent 1/2",
        capsys,
        budget=1.0,
    ):
        d = build_root_datum(CartanSpec("A", 1))
        points = (
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1),
        )
        outcomes = {
            nu: irreducibility_verdict(
                StandardModuleDatum(
                    recompose_parameter(trivial_parameter(d), evaluation_exponents(d, (nu,)))
                )
            ).irreducible
            for nu in points
        }
        assert outcomes == {nu: nu != Fraction(1, 2) for nu in points}


@lru_cache(maxsize=1)
def _dichotomy_sweep():
    """Every Arthur parameter over the survey types whose mu_4 Satake point
    passes the centralizer condition, classified once."""
    rows = []
    for spec in DICHOTOMY_SPECS:
        for psi in iter_dichotomy_parameters(spec):
            rows.append((psi, classify_packet(psi), standard_module_datum(psi)))
    return tuple(rows)


def test_dichotomy_exhaustive_sweep(capsys):
    with Criterion(
        "AC-3",
        "dichotomy sweep: trivial orbit tempered, nontrivial orbit certified",
        capsys,
        budget=60.0,
    ) as c:
        tempered = nontempered = 0
        for psi, verdict, sm in _dichotomy_sweep():
            ratio = sm.coefficient_ratio
            if psi.sl2.is_trivial:
                tempered += 1
                assert verdict.kind is VerdictKind.TEMPERED
                assert not ratio.vanishes
                continue
            nontempered += 1
            assert verdict.kind is VerdictKind.NON_TEMPERED
            assert verdict.certificate.eigenvalue == QMonomial(1)
            # full-product agreement, and the witness names a vanishing factor
            assert ratio.vanishes
            witnessed = {ratio.denominator.roots[i] for i in ratio.witnesses}
            assert verdict.witness in witnessed
            assert verdict.witness in psi.sl2.support
        assert tempered and nontempered
        c.note = (
            f"{tempered + nontempered} packets "
            f"({tempered} tempered, {nontempered} non-tempered), agreement 100%"
        )


def test_recovery_round_trip(capsys):
    with Criterion(
        "AC-4",
        "orbit and unit part recovered exactly from every swept parameter",
        capsys,
    ) as c:
        count = 0
        for psi, _, _ in _dichotomy_sweep():
            units, diagram = recover_arthur_data(langlands_parameter(psi))
            assert diagram == psi.sl2.diagram
            assert units.coords == psi.tempered_part.coords
            count += 1
        c.note = f"{count} round trips"


def test_diagrams_against_matrix_oracle(capsys):
    with Criterion(
        "AC-5",
        "matrix triples confirm every diagram for classical types of rank <= 6",
        capsys,
        budget=30.0,
    ) as c:
        specs = [("A", n) for n in range(1, 7)]
        specs += [(f, n) for f in ("B", "C") for n in range(2, 7)]
        specs += [("D", n) for n in range(3, 7)]
        checked = 0
        for family, rank in specs:
            for parts in valid_partitions(family, rank):
                t = standard_triple(family, rank, parts)
                assert commutator(t.h, t.e) == mat_scale(2, t.e)
                assert commutator(t.h, t.f) == mat_scale(-2, t.f)
                assert commutator(t.e, t.f) == t.h
                assert jordan_type(t.e) == tuple(sorted(parts, reverse=True))
                if t.form is not None:
                    zero = mat_scale(0, t.form)
                    for x in (t.e, t.h, t.f):
                        invariance = mat_sub(
                            mat_mul(mat_transpose(x), t.form),
                            mat_scale(-1, mat_mul(t.form, x)),
                        )
                        assert invariance == zero
                weights = tuple(
                    sorted((row[i] for i, row in enumerate(t.h)), reverse=True)
                )
                assert weighted_diagram(family, rank, parts) == _diagram_from_sorted(
                    family, rank, weights
                )
                checked += 1
        c.note = f"{checked} orbits"


def test_tempered_twists_holomorphy(capsys):
    with Criterion(
        "AC-6",
        "numerator factor of strictly dominant tempered twists has no pole at s >= 0"
        " and a nonzero inverse at s = 0",
        capsys,
        budget=60.0,
    ) as c:
        checked = 0
        for spec in DICHOTOMY_SPECS:
            datum = build_root_datum(spec)
            grading = grade_nilradical(datum, frozenset())
            for angles in unit_grid(spec.rank, MU4_ANGLES):
                units = unit_parameter(datum, angles)
                for twist in itertools.product(TWIST_VALUES, repeat=spec.rank):
                    p = recompose_parameter(units, twist)
                    numerator = l_factor(grading, p, "r")
                    assert all(point < 0 for point in pole_locations(numerator))
                    vanished, _ = inverse_vanishes_at(numerator, 0)
                    assert not vanished
                    checked += 1
        c.note = f"{checked} twisted parameters"


def test_support_inside_levi_nilradical(capsys):
    with Criterion(
        "AC-7",
        "orbit support lies in the nilradical off the defining Levi",
        capsys,
    ) as c:
        checked = 0
        for psi, verdict, sm in _dichotomy_sweep():
            if psi.sl2.is_trivial:
                continue
            assert verdict.kind is VerdictKind.NON_TEMPERED
            levi_part, nilradical = dot_levi_and_nilradical(psi.datum, sm.levi)
            support = set(psi.sl2.support)
            assert support <= set(nilradical)
            assert not support & set(levi_part)
            checked += 1
        c.note = f"{checked} non-tempered packets"


def test_golden_reports_and_family(capsys):
    with Criterion(
        "AC-8",
        "machine reports and the family aggregation match the golden bytes",
        capsys,
    ):
        paths = sorted((ROOT / "scenarios").glob("*.json"))
        assert paths
        for path in paths:
            blob = emit_report_machine(run_scenario(parse_scenario_text(path.read_text())))
            assert blob == (GOLDEN / f"{path.stem}.machine.json").read_text(), path.stem
        family = parse_family_text(
            (ROOT / "families" / "family-mixed.json").read_text()
        )
        aggregated = ramanujan_report(family)
        assert canonical_json(encode(aggregated)) == (
            GOLDEN / "family-mixed.machine.json"
        ).read_text()
        assert aggregated.mode == "theorem"
        assert aggregated.nontempered_places == ("v3", "v5")
