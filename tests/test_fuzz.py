"""Hostile edits of the shipped inputs and golden reports, and hostile
library-built scenarios: only ValidationError escapes.

Each file case starts from a shipped scenario, family or golden report,
replaces or deletes one to three of its JSON leaves with a value from a fixed
hostile pool, and feeds the text to the parser and, if it is accepted, to the
pipeline. Each library case calls `Scenario(...)`, `QMonomial(...)`,
`RootDatum(...)`, `UnramifiedParameter(...)`, `StandardModuleDatum(...)`,
`make_arthur_parameter(...)`, `dominantize(...)`, `character_exponents(...)`,
`evaluation_exponents(...)`, `weighted_diagram(...)` or
`sl2_from_partition(...)` with values drawn from fixed pools of Python
values. An accepted scenario must read back from its own machine report; an
accepted monomial must hold its values exactly; an accepted root datum must
hold its spec's Cartan matrix or the transpose, and a refused one must be
refused in well under a second; an accepted parameter or
record must go through the parameter layer and the classifier; an accepted
vector must come out as exact Fractions that the oracle confirms. A
wrong-length, wrong-type or misaligned argument to a library function is
refused with its own message, checked exactly.
"""

import copy
import json
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import (
    apply_word_vector,
    encode,
    global_report_from_dict,
    scenario_payload,
    trivial_parameter,
)

from arthurcalc.classifier import StandardModuleDatum, classify_packet, irreducibility_verdict
from arthurcalc.errors import ValidationError
from arthurcalc.lfactors import LocalLFactor, eigenvalues_by_level, grade_nilradical, l_factor
from arthurcalc.nilpotent import SL2Data, sl2_from_partition, validate_sl2_data, weighted_diagram
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    apply_word_parameter,
    defining_levi,
    eigenvalue_pairs,
    evaluate_root,
    make_arthur_parameter,
    recompose_parameter,
    recover_arthur_data,
    unit_parameter,
)
from arthurcalc.roots import (
    CartanSpec,
    RootDatum,
    build_root_datum,
    cartan_matrix,
    character_exponents,
    diagram_pairing,
    dominantize,
    dual_datum,
    evaluation_exponents,
    root_positions,
)
from arthurcalc.scenarios import (
    PlaceFamily,
    Scenario,
    canonical_json,
    emit_report_machine,
    parse_family_text,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    run_scenario,
    scenario_from_dict,
)
from arthurcalc.sweeps import valid_partitions

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [
    (kind, json.loads(path.read_text()))
    for kind, pattern in [
        ("scenario", "scenarios/*.json"),
        ("family", "families/*.json"),
        ("report", "tests/golden/*.machine.json"),
    ]
    for path in sorted(ROOT.glob(pattern))
]
# the golden of a family is a global report, which has no text parser
SEEDS = [
    ("global" if "place_labels" in payload else kind, payload) for kind, payload in SEEDS
]
HOSTILE = [
    None, True, False, 0, -1, -(10**70), 10**70, 1.5, -0.0,
    "", "1/0", "1e99", "9" * 65, "-" + "7" * 65, [], [[]], [None, 1], {}, {"": {}},
]
DELETE = object()

# a literal past CPython's 4300-digit int conversion limit fails inside
# json.loads, before any field is read
HUGE_LITERAL = '{"label": "x", "group": {"family": "A", "rank": ' + "1" * 5000 + "}}"


def leaf_paths(value, path=()):
    """Key/index paths to every scalar and every empty container."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        if isinstance(child, (dict, list)) and child:
            yield from leaf_paths(child, path + (key,))
        else:
            yield path + (key,)


@st.composite
def hostile_cases(draw):
    kind, payload = draw(st.sampled_from(SEEDS))
    payload = copy.deepcopy(payload)
    for _ in range(draw(st.integers(1, 3))):
        leaves = list(leaf_paths(payload))
        if not leaves:
            break
        *parents, last = draw(st.sampled_from(leaves))
        target = payload
        for key in parents:
            target = target[key]
        value = draw(st.sampled_from(HOSTILE + [DELETE]))
        if value is DELETE:
            del target[last]
        else:
            target[last] = copy.deepcopy(value)
    return kind, json.dumps(payload)


def parse_and_run(kind: str, text: str) -> None:
    if kind in ("family", "global"):
        if kind == "family":
            g = ramanujan_report(parse_family_text(text))
        else:
            g = global_report_from_dict(json.loads(text))
        assert global_report_from_dict(json.loads(canonical_json(encode(g)))) == g
        return
    if kind == "scenario":
        report = run_scenario(parse_scenario_text(text))
    else:
        report = parse_report_text(text)
    assert parse_report_text(emit_report_machine(report)) == report


@settings(max_examples=1000, deadline=None)
@given(hostile_cases())
@example(("scenario", HUGE_LITERAL))
@example(("family", HUGE_LITERAL))
@example(("report", HUGE_LITERAL))
def test_hostile_edits_raise_only_validation_errors(case):
    try:
        parse_and_run(*case)
    except ValidationError:
        pass


# Each library case starts from the keywords of a shipped scenario and
# replaces or drops one to three of them: with a value of the right kind
# (another group, partition, sl2 datum, angle list) or with a Python value no
# file parser produces.
BASES = [
    {f.name: getattr(s, f.name) for f in fields(Scenario)}
    for s in (parse_scenario_text(path.read_text()) for path in sorted(ROOT.glob("scenarios/*.json")))
]
PYTHON_VALUES = [
    None, True, False, 0, 0.5, float("nan"), "", "x", 10**70, Fraction(1, 3),
    [], [None], {}, {"a": 1}, CartanSpec("A", 1),
]
RATIONALS = [0, 1, -3, Fraction(1, 2), Fraction(-3, 4), 10**70, Fraction(1, 10**70), 0.5, "0", None]
REPLACEMENTS = {
    "label": st.just("y"),
    "group": st.sampled_from(
        [CartanSpec(f, r) for f, r in [("A", 1), ("A", 3), ("B", 3), ("C", 2), ("D", 4), ("G", 2)]]
    ),
    "satake_angles": st.lists(st.sampled_from(RATIONALS), max_size=4).flatmap(
        lambda angles: st.sampled_from([angles, tuple(angles)])
    ),
    "sl2": st.sampled_from([
        None,
        (2,), [1, 1], (4,), (2, 2), [3, 1], (3, 1, 1, 1), (2, 2, 1, 1), (0,), ("2",), (True, True),
        SL2Data((2,), ((1,),)), SL2Data([2], [(1,)]), SL2Data((0, 0), ()),
        SL2Data((2, 2), ((1, 0), (0, 1))), SL2Data([2, 2], [(1, 0), (0, 1)]),
        SL2Data((0, 2), ((0, 1),)),
        SL2Data(5, ()), SL2Data((2,), 5), SL2Data(None, None), SL2Data((True,), ((1,),)),
        SL2Data((2,), ((1.0,),)), SL2Data((2,), ([1],)), ((2,), ((1,),)),
        # a support is a set: repeated and padded roots are refused
        SL2Data((2, 2), ((1, 0), (0, 1), (1, 0))), SL2Data((2,), ((1,),) * 1000),
    ]),
    "generic_assumption": st.booleans(),
}
OPTIONAL = ("sl2", "generic_assumption")


@st.composite
def library_scenarios(draw):
    kwargs = dict(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(REPLACEMENTS)))
        value = draw(
            st.one_of(REPLACEMENTS[name], st.sampled_from(PYTHON_VALUES + [DELETE]))
        )
        if value is not DELETE:
            kwargs[name] = value
        elif name in OPTIONAL:
            kwargs.pop(name, None)
    return kwargs


EXPERT_BASE = next(kwargs for kwargs in BASES if isinstance(kwargs["sl2"], SL2Data))


@settings(max_examples=600, deadline=None)
@given(library_scenarios())
# lists where the report holds tuples must still read back equal
@example({**EXPERT_BASE, "sl2": SL2Data([2, 2], [(1, 0), (0, 1)])})
@example({**EXPERT_BASE, "satake_angles": [0, 0]})
def test_hostile_library_scenarios_raise_only_validation_errors(kwargs):
    try:
        s = Scenario(**kwargs)
        report = run_scenario(s)
    except ValidationError:
        return
    assert scenario_from_dict(json.loads(json.dumps(scenario_payload(s)))) == s
    assert parse_report_text(emit_report_machine(report)) == report


# Each monomial case draws both fields from the pools: a string, a float or
# a bool used to be converted (`QMonomial(angle=0.1)` held
# 3602879701896397/36028797018963968, `QMonomial(True)` was q), and "x",
# None or inf leaked a ValueError, TypeError or OverflowError.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PYTHON_VALUES + RATIONALS), st.sampled_from(PYTHON_VALUES + RATIONALS))
@example("x", 0)
@example(None, 0)
@example(float("inf"), 0)
@example(0, 0.1)
@example(True, 0)
def test_hostile_monomials_raise_only_validation_errors(q_exp, angle):
    try:
        m = QMonomial(q_exp, angle)
    except ValidationError:
        return
    assert (m.q_exp, m.angle) == (q_exp, angle % 1)
    assert type(m.q_exp) is type(m.angle) is Fraction


# Each parameter case draws a datum and coordinates, each either of the
# right kind or a Python value no parser produces: `UnramifiedParameter(d,
# (1, 2))` used to construct and then fail with an AttributeError.
DATA = [
    build_root_datum(CartanSpec("A", 2)),
    dual_datum(build_root_datum(CartanSpec("B", 3))),
    dual_datum(build_root_datum(CartanSpec("G", 2))),
]
MONOMIALS = [QMonomial(), QMonomial(1), QMonomial(Fraction(1, 2), Fraction(1, 2)), QMonomial(0, Fraction(1, 4))]


@st.composite
def library_parameters(draw):
    datum = draw(st.sampled_from(DATA + PYTHON_VALUES))
    coords = draw(st.lists(st.sampled_from(MONOMIALS + PYTHON_VALUES), max_size=4))
    coords = draw(st.sampled_from([coords, tuple(coords), *PYTHON_VALUES]))
    return datum, coords


@settings(max_examples=400, deadline=None)
@given(library_parameters())
@example((DATA[0], (1, 2)))
@example((DATA[0], [QMonomial(), QMonomial(1)]))
@example(("A2", (QMonomial(), QMonomial())))
def test_hostile_library_parameters_raise_only_validation_errors(case):
    try:
        p = UnramifiedParameter(*case)
    except ValidationError:
        return
    roots = p.datum.positive_roots
    assert len(eigenvalue_pairs(root_positions(p.datum, roots), p)) == len(roots)
    assert [evaluate_root(root, p) for root in roots[: p.datum.rank]] == list(p.coords)
    try:
        units, diagram = recover_arthur_data(apply_word_parameter(p, (0, p.datum.rank - 1)))
        classify_packet(make_arthur_parameter(units, SL2Data(diagram, ())))
    except ValidationError:
        pass


# Each root-datum case hands `RootDatum` a spec and a matrix from the pools.
# A matrix that is not of finite type used to build, and its
# `positive_roots` never finished: the affine A1 matrix on A2 still ran at a
# 5 s timeout. Only a spec's Cartan matrix or its transpose is accepted.
CARTAN_SPECS = [CartanSpec(f, r) for f, r in [("A", 1), ("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]]
CARTAN_MATRICES = [
    ((2, -2), (-2, 2)),  # affine A1: not of finite type
    ((2, -3), (-3, 2)),  # hyperbolic
    ((2, -1), (-4, 2)),  # affine A2 twisted: not of finite type
    ((2, -1, 0), (-1, 2, -1), (0, -3, 2)),  # not of finite type
    ((2, -1), (0, 2)),  # asymmetric zero pattern
    ((2, -1, 0), (-1, 2, -1), (0, 0, 2)),  # asymmetric zero pattern
    ((1, -1), (-1, 1)),  # wrong diagonal
    ((2, -1), (-1, 3)),  # wrong diagonal
    ((0,),),  # wrong diagonal
    ((2, 0), (0, 2)),  # of finite type, but not the spec's
    ((2, -1), (-1, 2), (0, 0)),  # wrong size
    ((2.0, -1), (-1, 2.0)),  # float entries
    ((2, -1.0), (-1, 2)),
    ((2, False), (False, 2)),  # bool entries
    ((2, -1), ("x", 2)),
    ((2, None), (-1, 2)),
    [[2, -1], [-1, 2]],  # lists, not tuples
    ((2, -1), [-1, 2]),
    ("ab", "cd"),
    *PYTHON_VALUES,
    *(matrix for spec in CARTAN_SPECS for matrix in (cartan_matrix(spec), tuple(zip(*cartan_matrix(spec))))),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CARTAN_SPECS + PYTHON_VALUES), st.sampled_from(CARTAN_MATRICES))
@example(CartanSpec("A", 2), ((2, -2), (-2, 2)))
@example(CartanSpec("G", 2), ((2, -3), (-1, 2)))
@example(CartanSpec("B", 3), cartan_matrix(CartanSpec("C", 3)))
def test_hostile_root_data_raise_only_validation_errors(spec, matrix):
    start = time.perf_counter()
    try:
        d = RootDatum(spec, matrix)
    except ValidationError as error:
        assert error.field in ("spec", "cartan")
        assert time.perf_counter() - start < 1
        return
    # checked before anything enumerates roots, so a wrong matrix fails here
    assert d.cartan in (cartan_matrix(spec), tuple(zip(*cartan_matrix(spec))))
    assert len(d.positive_roots) == len(build_root_datum(spec).positive_roots)


# Each record case hands `StandardModuleDatum` and `make_arthur_parameter` a
# parameter that is either real or a Python value: both records used to
# fail on `"x"` with an AttributeError.
RECORD_PARAMETERS = [
    UnramifiedParameter(DATA[0], (QMonomial(1), QMonomial(Fraction(1, 2), Fraction(1, 2)))),
    UnramifiedParameter(DATA[1], (QMonomial(0, Fraction(1, 4)),) * 3),
    *(trivial_parameter(d) for d in DATA),
]
SL2_DATA = [SL2Data((0, 0), ()), SL2Data((2, 2), ((1, 0), (0, 1))), SL2Data((0, 0, 0), ())]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RECORD_PARAMETERS + PYTHON_VALUES),
    st.sampled_from(SL2_DATA),
    st.sampled_from([True, False, *PYTHON_VALUES]),
)
@example("x", SL2_DATA[0], True)
@example(DATA[0], SL2_DATA[0], True)
def test_hostile_library_records_raise_only_validation_errors(parameter, sl2, generic):
    try:
        sm = StandardModuleDatum(parameter, generic)
        irreducibility_verdict(sm)
    except ValidationError:
        pass
    try:
        classify_packet(make_arthur_parameter(parameter, sl2))
    except ValidationError:
        pass


# Each vector case hands one of the exported vector functions a datum and a
# vector whose entries, or the vector itself, come from the pools: "x" and
# NaN leaked a ValueError, None a TypeError, and True, 0.5 and "1/2" were
# silently converted.
@st.composite
def library_vectors(draw):
    datum = draw(st.sampled_from(DATA))
    size = draw(st.sampled_from([datum.rank, 0, 1, 2, 3, 4]))
    entries = draw(st.lists(st.sampled_from(PYTHON_VALUES + RATIONALS), min_size=size, max_size=size))
    vector = draw(st.sampled_from([entries, tuple(entries), *PYTHON_VALUES]))
    return datum, vector


@pytest.mark.parametrize(
    "function", [dominantize, character_exponents, evaluation_exponents],
    ids=["dominantize", "character_exponents", "evaluation_exponents"],
)
@settings(max_examples=200, deadline=None)
@given(library_vectors())
@example((DATA[0], ("x", 0)))
@example((DATA[0], (float("nan"), 0)))
@example((DATA[0], (None, 0)))
@example((DATA[0], (True, 0)))
@example((DATA[0], (0.5, 0)))
@example((DATA[0], ("1/2", 0)))
@example((DATA[0], None))
def test_hostile_library_vectors_raise_only_validation_errors(function, case):
    d, vector = case
    try:
        result = function(d, vector)
    except ValidationError:
        return
    exact = tuple(Fraction(v) for v in vector)
    if function is dominantize:
        dominant, word = result
        assert all(type(v) is Fraction and v >= 0 for v in dominant)
        assert apply_word_vector(d, word, exact) == dominant
    else:
        assert all(type(v) is Fraction for v in result)
        inverse = evaluation_exponents if function is character_exponents else character_exponents
        assert inverse(d, result) == exact


# Each partition case hands a partition function a family, a rank and a
# partition as a list or a tuple, or a value from the pools: a list, or an
# unhashable family, rank or part, used to raise TypeError from the cache
# key of either function.
PARTITIONS = [
    (4,), [4], (3, 1), [1, 3], [2, 2], [1, 1, 1, 1], [2, 1, 1], [5], [0], ["2"], [True], ([4],),
]


@pytest.mark.parametrize(
    "function", [weighted_diagram, sl2_from_partition], ids=["weighted_diagram", "sl2_from_partition"]
)
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["A", "B", "C", "D", "G"] + PYTHON_VALUES),
    st.one_of(st.integers(0, 4), st.sampled_from(PYTHON_VALUES)),
    st.sampled_from(PARTITIONS + PYTHON_VALUES),
)
@example("A", 3, [4])
@example("C", 2, [2, 1, 1])
@example("A", 3, ([4],))
@example(["A"], 3, (4,))
@example("A", [3], (4,))
def test_hostile_library_partitions_raise_only_validation_errors(function, family, rank, parts):
    try:
        result = function(family, rank, parts)
    except ValidationError:
        return
    assert result == function(family, rank, tuple(sorted(parts, reverse=True)))


@pytest.mark.parametrize(
    "value", ["x", None, DATA[0], QMonomial()], ids=["str", "none", "datum", "monomial"]
)
def test_records_refuse_a_parameter_of_the_wrong_type(value):
    for build in (StandardModuleDatum, lambda p: make_arthur_parameter(p, SL2Data((0, 0), ()))):
        with pytest.raises(ValidationError) as info:
            build(value)
        assert info.value.field == "parameter"
        assert info.value.raw_message == f"expected an UnramifiedParameter, got {value!r}"


A2 = build_root_datum(CartanSpec("A", 2))
A2_UNIT = unit_parameter(A2, (0, 0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: unit_parameter("A2", (0, 0)), "datum: expected a RootDatum, got 'A2'"),
        (lambda: unit_parameter(A2, (0,)), "expected 2 coordinates, got 1"),
        (lambda: evaluate_root((1,), A2_UNIT), "root length does not match the parameter's rank"),
        (lambda: recompose_parameter(A2_UNIT, (1,)), "exponent vector length does not match rank"),
        (lambda: defining_levi((1,), A2), "exponent vector length does not match rank"),
        (lambda: diagram_pairing((1, 0), (2,)), "root and diagram lengths differ"),
        (
            lambda: validate_sl2_data(A2, SL2Data((2, 2), ((1, 0, 0),))),
            "sl2: support root (1, 0, 0) has the wrong length",
        ),
        (lambda: valid_partitions("G", 2), "family: family 'G' has no partition classification"),
        (
            lambda: LocalLFactor("r-tilde", ((1, 0),), 1, ()),
            "roots and eigenvalues are misaligned",
        ),
        (
            lambda: eigenvalues_by_level(
                grade_nilradical(A2, frozenset({0})),
                l_factor(grade_nilradical(A2, frozenset()), A2_UNIT, "r-tilde"),
            ),
            "factor and grading are misaligned",
        ),
        (lambda: PlaceFamily("f", (("v", "x"),)), "places[1].scenario: expected a scenario"),
    ],
    ids=[
        "unit_parameter-datum",
        "unit_parameter-count",
        "evaluate_root",
        "recompose_parameter",
        "defining_levi",
        "diagram_pairing",
        "validate_sl2_data",
        "valid_partitions",
        "LocalLFactor",
        "eigenvalues_by_level",
        "PlaceFamily",
    ],
)
def test_library_refusals_name_the_fault(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
