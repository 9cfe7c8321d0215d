"""The direct canonical writer against the standard library's encoder.

`canonical_json` writes the machine bytes straight from the records;
`oracle.reference_canonical_json` encodes them to plain JSON values first
and dumps those with `json.dumps(sort_keys=True, indent=2)`. The two must
agree byte for byte on every report the fuzz pools accept, on synthetic
nested values, and on the CLI's `batch`, `global` and `orbits` outputs.
The writer formats a record that recurs once per indentation, a rational
once per value and a tuple of ints once per value and indentation, and
joins an array of one leaf type or of records of one class in one go, so
the synthetic values repeat one instance at one depth and at another, and
the leaf arrays mix `bool`, `int` and `Fraction`; the fixed cases repeat
one `Fraction` object in an array and one record at two indentations. Two
count gates pin the per-call memos of the writer and of the reader on
large reports, and equal rationals held as distinct objects are formatted
once. Each record class has a writer built from its field annotations, so
reports with one field replaced by a value of another type (a list for a
tuple, an int for a rational, `None`, `(True, 1)` for a root) must still
give the reference bytes, or TypeError for a float, set or bytes. The
texts of root fields live across calls, keyed by the root's identity, so
rank-24 principal reports are written cold and warm, an expert report's
freshly decoded roots are written twice, `(1, 1)` and `(True, 1)` are
written in separate calls, every kept text is checked against its root,
and the cache is held to its bound; a run of one object in an array is
written once, so arrays mix shared objects with equal but distinct ones.
"""

import dataclasses
import functools
import gc
import itertools
import json
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import global_report_from_dict, reference_canonical_json
from test_fuzz import hostile_cases, library_scenarios
from test_parameters import arthur_parameters

from arthurcalc import cli, scenarios
from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import is_very_even, weighted_diagram
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    langlands_parameter,
    make_arthur_parameter,
)
from arthurcalc.roots import MAX_RANK, CartanSpec
from arthurcalc.scenarios import (
    MAX_NUMERAL_DIGITS,
    Scenario,
    canonical_json,
    emit_report_machine,
    parse_family_text,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    run_scenario,
)
from arthurcalc.sweeps import valid_partitions

ROOT = Path(__file__).resolve().parent.parent


def accepted_record(kind: str, text: str):
    """The report or global report a fuzz case yields, or None if refused."""
    try:
        if kind == "family":
            return ramanujan_report(parse_family_text(text))
        if kind == "global":
            return global_report_from_dict(json.loads(text))
        if kind == "scenario":
            return run_scenario(parse_scenario_text(text))
        return parse_report_text(text)
    except ValidationError:
        return None


@settings(max_examples=300, deadline=None)
@given(hostile_cases())
def test_writer_matches_the_reference_on_fuzzed_files(case):
    record = accepted_record(*case)
    if record is not None:
        assert canonical_json(record) == reference_canonical_json(record)


@settings(max_examples=200, deadline=None)
@given(library_scenarios())
def test_writer_matches_the_reference_on_library_scenarios(kwargs):
    try:
        report = run_scenario(Scenario(**kwargs))
    except ValidationError:
        return
    assert emit_report_machine(report) == reference_canonical_json(report)


@dataclass(frozen=True)
class Record:
    """Fields declared out of order: the writer must sort them."""

    zeta: object
    alpha: object
    mid: object


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Unresolved:
    """An annotation that names nothing: the field is written by its type."""

    value: "NotDefined"  # noqa: F821


@dataclass(frozen=True)
class Node:
    """A class that names itself in a field."""

    child: "Node | None"
    weights: tuple[Fraction, ...]


def repeated(item, other):
    """`item` twice at one depth, and again one and two levels deeper."""
    return (item, item, Record(item, other, [item]))


CAP = 10**MAX_NUMERAL_DIGITS - 1  # the largest numeral a report may hold
SPECIAL = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ", "\U0001f600", "\ud800"]
texts = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=8)
integers = st.one_of(st.integers(-CAP, CAP), st.sampled_from([0, CAP, -CAP]))
fractions = st.builds(Fraction, integers, st.one_of(st.integers(1, CAP), st.just(CAP)))
leaves = st.one_of(texts, integers, fractions, st.booleans(), st.none(), st.just(Empty()))
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.builds(Record, children, children, children),
        st.builds(QMonomial, fractions, fractions),
        st.builds(repeated, children, children),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_the_reference_on_nested_values(value):
    assert canonical_json(value) == reference_canonical_json(value)


HALF = Fraction(1, 2)  # one object, repeated where the cases below say so
MONOMIAL = QMonomial(HALF, Fraction(1, 3))


@pytest.mark.parametrize(
    "value",
    [
        [HALF, HALF, Fraction(1, 2), HALF],
        (HALF, [HALF, (HALF,)], {"a": HALF}),
        [MONOMIAL, MONOMIAL, QMonomial(HALF, Fraction(1, 3))],
        ([MONOMIAL, MONOMIAL], [[MONOMIAL], MONOMIAL], MONOMIAL, {"m": [MONOMIAL]}),
        ([MONOMIAL, Empty(), MONOMIAL], [Empty(), Empty()], [MONOMIAL, HALF]),
        [(1, 2), [(1, 2)], (1, 2), ((1, 2),)],
        ([1, 2, 3], (1, 2, 3), [False], (True, True), [0, 0]),
        [True, False, True],
        (True, 1, False, 0),
        [0, True],
        (1, Fraction(1, 2), -3, Fraction(5)),
        [Fraction(0), Fraction(-7, 3)],
        (None, None),
        ("a", "b"),
        (),
        [],
        [(), [], {}, (True,), (1,), (Fraction(1, 2),)],
        {"a": (), "b": [False, 1], "c": ((1, 2), (True, False))},
        [Unresolved((1, HALF)), Unresolved(None)],
        Node(Node(None, (HALF, HALF, 1)), [HALF]),
    ],
    ids=[
        "shared-fraction", "shared-fraction-nested", "shared-record",
        "record-two-indents", "records-mixed", "root-two-indents", "int-bool-arrays",
        "bools", "bool-int", "int-bool", "int-fraction", "fractions", "nones", "strs",
        "empty-tuple", "empty-list", "nested-small", "in-dict", "unresolved-annotation",
        "self-naming-class",
    ],
)
def test_writer_matches_the_reference_on_leaf_arrays(value):
    assert canonical_json(value) == reference_canonical_json(value)


@dataclass
class Mutable:
    value: object


def test_writer_keeps_nothing_between_calls():
    record = Mutable(Fraction(1, 2))
    value = [record, (record, record)]
    first = canonical_json(value)
    assert first == reference_canonical_json(value)
    record.value = (True, 1)
    second = canonical_json(value)
    assert second == reference_canonical_json(value)
    assert second != first


def principal_report(group: str, rank: int, partition: tuple[int, ...]):
    spec = CartanSpec(group, rank)
    return run_scenario(Scenario(f"{spec}-principal", spec, (0,) * rank, "partition", partition))


# dual type -> (group, rank, principal partition on the dual datum)
PRINCIPAL = {
    "A22": ("A", 22, (23,)),
    "B12": ("C", 12, (25,)),
    "C12": ("B", 12, (24,)),
    "D13": ("D", 13, (25, 1)),
}


@pytest.mark.parametrize("dual", PRINCIPAL)
def test_writer_matches_the_reference_on_principal_reports(dual):
    report = principal_report(*PRINCIPAL[dual])
    assert emit_report_machine(report) == reference_canonical_json(report)


# rank-24 principal orbits: dual type -> (group, rank, partition on the dual)
PRINCIPAL_24 = {
    "A24": ("A", 24, (25,)),
    "B24": ("C", 24, (49,)),
    "C24": ("B", 24, (48,)),
    "D24": ("D", 24, (47, 1)),
}


@pytest.mark.parametrize("dual", PRINCIPAL_24)
def test_root_texts_written_cold_and_warm_agree(dual):
    report = principal_report(*PRINCIPAL_24[dual])
    scenarios._root_texts.clear()
    cold = emit_report_machine(report)
    assert scenarios._root_texts  # the roots were kept for the next call
    warm = emit_report_machine(report)
    assert cold == warm == reference_canonical_json(report)


@functools.cache
def shipped_reports() -> list:
    return [
        run_scenario(parse_scenario_text(path.read_text()))
        for path in sorted((ROOT / "scenarios").glob("*.json"))
    ]


def with_roots(*roots, witness=None):
    """The shipped A1 report with `roots` as its sl2 support, no
    irreducibility witnesses and `witness` as its verdict witness."""
    report = shipped_reports()[0]
    return dataclasses.replace(
        report, sl2_support=roots, irreducibility_witnesses=(), verdict_witness=witness
    )


@pytest.mark.parametrize("order", list(itertools.permutations([(1, 1), (True, 1), (1, True)])))
def test_root_texts_keep_bool_apart_from_int(order):
    # (True, 1) == (1, 1) and both hash alike, so a bool tuple must never
    # get the text that the all-int tuple left in the cache
    for value in order:
        for report in (with_roots(value), with_roots(witness=value), [with_roots(value, value)]):
            assert canonical_json(report) == reference_canonical_json(report)


def root_text(root, newline: str) -> str:
    return json.dumps(list(root), indent=2).replace("\n", newline)


def test_every_kept_root_text_holds_the_root_its_key_names():
    scenarios._root_texts.clear()
    reports = [principal_report(*PRINCIPAL[dual]) for dual in PRINCIPAL] + shipped_reports()
    for value in (reports, *reports):  # batch, then check
        assert canonical_json(value) == reference_canonical_json(value)
    assert scenarios._root_texts
    for (key, newline), (root, text) in scenarios._root_texts.items():
        assert key == id(root) and type(root) is tuple
        assert text == root_text(root, newline)


def test_an_expert_report_with_fresh_roots_reads_the_same_twice():
    text = (ROOT / "scenarios" / "g2-principal-expert.json").read_text()
    report = run_scenario(parse_scenario_text(text))
    first = emit_report_machine(report)
    decoded = parse_report_text(first)  # its roots are new tuples
    assert decoded.sl2_support[0] is not report.sl2_support[0]
    assert emit_report_machine(decoded) == emit_report_machine(decoded) == first
    assert first == reference_canonical_json(report)


def test_root_texts_stay_within_their_bound():
    bound, peak = scenarios.MAX_ROOT_TEXTS, 0
    for start in range(0, 3 * bound, 100):
        value = with_roots(*[(i, -i) for i in range(start, start + 100)])  # new roots each time
        assert canonical_json(value) == reference_canonical_json(value)
        peak = max(peak, len(scenarios._root_texts))
        assert peak <= bound
    assert peak > bound - 100  # the reports filled the cache
    # a long tuple, a huge entry or a deep indentation is written but not kept
    too_long = with_roots(witness=tuple(range(MAX_RANK + 1)))
    huge = with_roots((10**2000, 1))
    deep = functools.reduce(lambda value, _: [value], range(200), with_roots((5, 6)))
    scenarios._root_texts.clear()
    for value in (too_long, huge, deep):
        assert canonical_json(value) == reference_canonical_json(value)
    assert not scenarios._root_texts


@functools.cache
def typed_records() -> list:
    """The shipped reports, the A22 principal report and the shipped
    families' global reports."""
    families = sorted((ROOT / "families").glob("*.json"))
    return shipped_reports() + [principal_report(*PRINCIPAL["A22"])] + [
        ramanujan_report(parse_family_text(path.read_text())) for path in families
    ]


REFUSED = (1.5, {1, 2}, b"x")  # json.dumps writes a float; the writer refuses all three
FOREIGN = (None, 0, 7, True, False, Fraction(1, 3), "x", (), [], (1, 1), (True, 1), QMonomial())


@st.composite
def foreign(draw, value):
    """`value` with one part replaced by a value of another type: the whole
    of it, a tuple as a list, or (recursively) one item of a tuple. Returns
    the new value and whether it holds a type the writer refuses."""
    choices = ["leaf", "refused"] + ["list", "item"] * (type(value) is tuple and bool(value))
    choice = draw(st.sampled_from(choices))
    if choice == "leaf":
        return draw(st.sampled_from(FOREIGN)), False
    if choice == "refused":
        return draw(st.sampled_from(REFUSED)), True
    if choice == "list":
        return list(value), False
    i = draw(st.integers(0, len(value) - 1))
    item, refused = draw(foreign(value[i]))
    return value[:i] + (item,) + value[i + 1:], refused


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_typed_writers_match_the_reference_on_foreign_fields(data):
    record = data.draw(st.sampled_from(typed_records()))
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(record)]))
    value, refused = data.draw(foreign(getattr(record, name)))
    changed = dataclasses.replace(record, **{name: value})
    for written in (changed, [record, changed]):  # as `check` and `global`, and as `batch`
        if refused:
            with pytest.raises(TypeError):
                canonical_json(written)
        else:
            assert canonical_json(written) == reference_canonical_json(written)


EQUAL_HALF = Fraction(1, 2)  # equal to HALF but another object
EQUAL_MONOMIAL = QMonomial(HALF, Fraction(1, 3))  # equal to MONOMIAL, another object


@pytest.mark.parametrize(
    "value",
    [
        [HALF, HALF, EQUAL_HALF, EQUAL_HALF, HALF, Fraction(1, 3), HALF],
        [EQUAL_HALF, HALF, EQUAL_HALF, HALF],
        [MONOMIAL, MONOMIAL, EQUAL_MONOMIAL, MONOMIAL, QMonomial(HALF, HALF), MONOMIAL],
        ([MONOMIAL, MONOMIAL], [EQUAL_MONOMIAL, EQUAL_MONOMIAL], [[MONOMIAL, EQUAL_MONOMIAL]]),
        [Record(HALF, [HALF, HALF], EQUAL_HALF)] * 2 + [Record(EQUAL_HALF, [HALF], HALF)],
        # equal records whose texts differ: a run is one object, not one value
        [Record(1, 0, HALF), Record(1, 0, HALF), Record(True, False, HALF), Record(1, 0, HALF)],
    ],
    ids=[
        "fraction-runs", "fraction-alternating", "record-runs", "record-runs-nested",
        "runs-in-records", "equal-records-other-texts",
    ],
)
def test_runs_of_shared_objects_match_the_reference(value):
    assert canonical_json(value) == reference_canonical_json(value)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([HALF, EQUAL_HALF, Fraction(-1, 2), Fraction(0)]), max_size=12),
    st.lists(st.sampled_from([MONOMIAL, EQUAL_MONOMIAL, QMonomial(), QMonomial(1)]), max_size=12),
)
def test_arrays_mixing_shared_and_equal_objects_match_the_reference(rationals, monomials):
    value = (rationals, monomials, Record(rationals, monomials, [monomials, rationals]))
    assert canonical_json(value) == reference_canonical_json(value)


@settings(max_examples=200, deadline=None)
@given(arthur_parameters())
def test_langlands_coordinates_equal_the_unshared_construction(psi):
    # the same parameter once with one angle object per coordinate and once
    # with one object per distinct angle, so coordinates can be shared
    d = psi.datum
    one_per_value = {}
    shared_angles = tuple(one_per_value.setdefault(t.angle, t.angle) for t in psi.tempered_part.coords)
    shared_psi = make_arthur_parameter(
        UnramifiedParameter(d, tuple(QMonomial(angle=a) for a in shared_angles)), psi.sl2
    )
    for arthur in (psi, shared_psi):
        p = langlands_parameter(arthur)
        unshared = tuple(
            QMonomial(Fraction(v, 2), t.angle)
            for t, v in zip(arthur.tempered_part.coords, arthur.sl2.diagram)
        )
        assert p.coords == unshared
        assert [(t.q_exp, t.angle) for t in p.coords] == [(t.q_exp, t.angle) for t in unshared]
        assert p.integer_form == UnramifiedParameter(d, unshared).integer_form
    # one QMonomial per distinct (diagram value, angle)
    p = langlands_parameter(shared_psi)
    firsts = {}
    for t, v, a in zip(p.coords, shared_psi.sl2.diagram, shared_angles):
        assert firsts.setdefault((v, id(a)), t) is t


def counted_formattings(monkeypatch) -> list:
    """The rationals `format_fraction` formats from now on, one per call."""
    calls = []
    format_fraction = scenarios.format_fraction
    monkeypatch.setattr(
        scenarios, "format_fraction", lambda x: calls.append(x) or format_fraction(x)
    )
    return calls


@pytest.mark.parametrize("dual", PRINCIPAL)
def test_writer_formats_each_shared_rational_once(dual, monkeypatch):
    # a principal report names hundreds of rationals (938 at A22) but few
    # distinct ones (32 at A22); the writer formats each value once
    report = principal_report(*PRINCIPAL[dual])
    monitored = weakref.ref(report.eigenvalues_by_level[0][0])
    calls = counted_formattings(monkeypatch)
    text = emit_report_machine(report)
    distinct = set(re.findall(r'"(-?[0-9]+/[0-9]+)"', text))
    assert len(calls) == len(distinct) == {"A22": 32, "B12": 34, "C12": 35, "D13": 34}[dual]
    del report
    assert monitored() is None  # the writer kept no reference


@pytest.mark.parametrize(
    "value, distinct",
    [
        ([Fraction(1, 2), Fraction(2, 4)], 1),
        (([Fraction(1, 2)], [Fraction(2, 4)]), 1),
        ((Fraction(1, 2), [Fraction(1, 2), Fraction(-1, 2)], QMonomial(Fraction(1, 2))), 3),
    ],
    ids=["one-array", "two-arrays", "leaf-array-record"],
)
def test_writer_formats_equal_rationals_held_apart_once(value, distinct, monkeypatch):
    calls = counted_formattings(monkeypatch)
    assert canonical_json(value) == reference_canonical_json(value)
    assert len(calls) == distinct


def test_reader_parses_each_distinct_rational_string_once(monkeypatch):
    # the same A22 report holds 938 rational strings but 32 distinct ones;
    # the second read parses them again, since nothing is kept between calls
    report = principal_report(*PRINCIPAL["A22"])
    text = emit_report_machine(report)
    strings = re.findall(r'"(-?[0-9]+/[0-9]+)"', text)
    assert len(strings) == 938
    parse = scenarios.parse_fraction
    for _ in range(2):
        calls = []
        monkeypatch.setattr(
            scenarios,
            "parse_fraction",
            lambda value, field: calls.append(value) or parse(value, field),
        )
        assert parse_report_text(text) == report
        assert sorted(calls) == sorted(set(strings))


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, b"x", object(), Record, [Fraction(1, 2), 0.5], {"a": {1: "b"}}],
    ids=["float", "set", "bytes", "object", "class", "nested-float", "int-key"],
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def run_cli(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_batch_machine_output_matches_the_reference(capsys):
    out = run_cli(capsys, "batch", str(ROOT / "scenarios"), "--format", "machine")
    assert out == reference_canonical_json(shipped_reports())


@pytest.mark.parametrize(
    "path", sorted((ROOT / "families").glob("*.json")), ids=lambda path: path.stem
)
def test_global_machine_output_matches_the_reference(path, capsys):
    report = ramanujan_report(parse_family_text(path.read_text()))
    out = run_cli(capsys, "global", str(path), "--format", "machine")
    assert out == reference_canonical_json(report)


def test_orbits_machine_output_matches_the_reference(capsys):
    rows = [
        {
            "partition": list(parts),
            "diagram": list(weighted_diagram("B", 6, parts)),
            "very_even": is_very_even("B", parts),
        }
        for parts in valid_partitions("B", 6)
    ]
    out = run_cli(capsys, "orbits", "B", "6", "--format", "machine")
    assert out == reference_canonical_json(rows)


def test_emission_leaves_no_cyclic_garbage():
    scenario = Scenario("a12-principal", CartanSpec("A", 12), (0,) * 12, "partition", (13,))
    report = run_scenario(scenario)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        emit_report_machine(report)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
