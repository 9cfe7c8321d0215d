"""Hostile edits of the shipped inputs and golden reports: only ValidationError
escapes.

Each case starts from a shipped scenario, family or golden report, replaces
or deletes one to three of its JSON leaves with a value from a fixed hostile
pool, and feeds the text to the parser and, if it is accepted, to the
pipeline. Whatever is accepted must read back from its own machine report.
"""

import copy
import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arthurcalc.errors import ValidationError
from arthurcalc.scenarios import (
    canonical_json,
    emit_report_machine,
    global_report_from_dict,
    global_report_to_dict,
    parse_family_text,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    run_scenario,
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
