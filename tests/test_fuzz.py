"""Hostile edits of the shipped inputs and golden reports, and hostile
library-built scenarios: only ValidationError escapes.

Each file case starts from a shipped scenario, family or golden report,
replaces or deletes one to three of its JSON leaves with a value from a fixed
hostile pool, and feeds the text to the parser and, if it is accepted, to the
pipeline. Each library case calls `Scenario(...)` with keyword values drawn
from fixed pools of Python values. Whatever is accepted must read back from
its own machine report.
"""

import copy
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import SL2Data
from arthurcalc.roots import CartanSpec
from arthurcalc.scenarios import (
    Scenario,
    canonical_json,
    emit_report_machine,
    global_report_from_dict,
    global_report_to_dict,
    parse_family_text,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

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
        assert global_report_from_dict(json.loads(canonical_json(global_report_to_dict(g)))) == g
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
    "sl2_kind": st.sampled_from(["trivial", "partition", "expert"]),
    "partition": st.sampled_from(
        [(2,), [1, 1], (4,), (2, 2), [3, 1], (3, 1, 1, 1), (2, 2, 1, 1), (0,), ("2",), (True, True)]
    ),
    "expert_data": st.sampled_from([
        SL2Data((2,), ((1,),)), SL2Data([2], [(1,)]), SL2Data((0, 0), ()),
        SL2Data((2, 2), ((1, 0), (0, 1))), SL2Data([2, 2], [(1, 0), (0, 1)]),
        SL2Data((0, 2), ((0, 1),)),
        SL2Data(5, ()), SL2Data((2,), 5), SL2Data(None, None), SL2Data((True,), ((1,),)),
        SL2Data((2,), ((1.0,),)), SL2Data((2,), ([1],)), ((2,), ((1,),)),
    ]),
    "generic_assumption": st.booleans(),
}
OPTIONAL = ("partition", "expert_data", "generic_assumption")


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


EXPERT_BASE = next(kwargs for kwargs in BASES if kwargs["sl2_kind"] == "expert")


@settings(max_examples=600, deadline=None)
@given(library_scenarios())
# lists where the report holds tuples must still read back equal
@example({**EXPERT_BASE, "expert_data": SL2Data([2, 2], [(1, 0), (0, 1)])})
@example({**EXPERT_BASE, "satake_angles": [0, 0]})
def test_hostile_library_scenarios_raise_only_validation_errors(kwargs):
    try:
        s = Scenario(**kwargs)
        report = run_scenario(s)
    except ValidationError:
        return
    assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s)))) == s
    assert parse_report_text(emit_report_machine(report)) == report
