"""Scenario files, reports, family aggregation, and the command line."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from oracle import encode, global_report_from_dict, scenario_payload, trivial_parameter

from arthurcalc import cli
from arthurcalc.errors import InvariantViolation, ValidationError
from arthurcalc.lfactors import grade_nilradical, inverse_vanishes_at, l_factor
from arthurcalc.parameters import (
    QMonomial,
    UnramifiedParameter,
    make_arthur_parameter,
    recompose_parameter,
)
from arthurcalc.nilpotent import SL2Data, validate_partition
from arthurcalc.roots import CartanSpec, build_root_datum
from arthurcalc.scenarios import (
    MEMBERSHIP_FLAG,
    PROPAGATION_FLAG,
    PlaceFamily,
    Scenario,
    emit_report_machine,
    family_from_dict,
    parse_fraction,
    parse_report_text,
    parse_scenario_text,
    ramanujan_report,
    render_report_text,
    report_from_dict,
    run_scenario,
    scenario_from_dict,
)


def a1_payload(**overrides):
    payload = {
        "label": "a1-principal",
        "group": {"family": "A", "rank": 1},
        "satake_angles": ["0"],
        "sl2": {"partition": [2]},
    }
    payload.update(overrides)
    return payload


def sample_scenarios():
    return [
        scenario_from_dict(a1_payload()),
        scenario_from_dict(
            {
                "label": "a2-subregular",
                "group": {"family": "A", "rank": 2},
                "satake_angles": ["0", "0"],
                "sl2": {"partition": [2, 1]},
            }
        ),
        scenario_from_dict(
            {
                "label": "a2-tempered",
                "group": {"family": "A", "rank": 2},
                "satake_angles": ["1/4", "1/2"],
                "sl2": "trivial",
            }
        ),
        scenario_from_dict(
            {
                "label": "b2-pair-orbit",
                "group": {"family": "B", "rank": 2},  # dual datum has type C2
                "satake_angles": ["1/2", "0"],
                "sl2": {"partition": [2, 2]},
            }
        ),
        scenario_from_dict(
            {
                "label": "g2-principal",
                "group": {"family": "G", "rank": 2},
                "satake_angles": ["0", "0"],
                "sl2": {"expert": {"diagram": [2, 2], "support": [[1, 0], [0, 1]]}},
                "generic_assumption": False,
            }
        ),
    ]


# -- parsing and field paths -------------------------------------------------------


def test_scenario_rejects_unknown_and_missing_keys():
    with pytest.raises(ValidationError, match=r"scenario: unknown keys \['bogus'\]"):
        scenario_from_dict(a1_payload(bogus=1))
    payload = a1_payload()
    del payload["sl2"]
    with pytest.raises(ValidationError, match=r"scenario: missing keys \['sl2'\]"):
        scenario_from_dict(payload)


def test_scenario_rejects_bad_angles():
    with pytest.raises(ValidationError, match=r"satake_angles\[1\]"):
        scenario_from_dict(a1_payload(satake_angles=["zero"]))
    with pytest.raises(ValidationError, match=r"satake_angles\[1\].*got True"):
        scenario_from_dict(a1_payload(satake_angles=[True]))
    with pytest.raises(ValidationError, match="expected 1 angles, got 2"):
        scenario_from_dict(a1_payload(satake_angles=["0", "0"]))


def test_scenario_rejects_malformed_sl2():
    with pytest.raises(ValidationError, match='sl2: expected exactly one of'):
        scenario_from_dict(a1_payload(sl2={"partition": [2], "expert": {}}))
    with pytest.raises(ValidationError, match=r"sl2\.partition\[2\]: expected an integer"):
        scenario_from_dict(a1_payload(sl2={"partition": [2, "x"]}))
    with pytest.raises(ValidationError, match='sl2 must be "trivial"'):
        scenario_from_dict(a1_payload(sl2="principal"))


def test_expert_scenario_refuses_a_bool_support_coefficient():
    # accepted, it would emit a report that parse_report_text refuses
    with pytest.raises(ValidationError, match="not an integer") as err:
        Scenario(
            "x", CartanSpec("A", 1), (Fraction(0),), "expert",
            expert_data=SL2Data((2,), ((True,),)),
        )
    assert err.value.field == "sl2"


@pytest.mark.parametrize("flag", ["yes", 1], ids=["string", "int"])
def test_library_scenario_refuses_a_generic_assumption_that_is_not_a_bool(flag):
    # accepted, "yes" would run to a report that parse_report_text refuses,
    # and 1 would silently count as generic
    with pytest.raises(ValidationError, match=f"expected a boolean, got {flag!r}") as err:
        Scenario("x", CartanSpec("A", 1), (Fraction(0),), "trivial", generic_assumption=flag)
    assert err.value.field == "generic_assumption"


A1 = CartanSpec("A", 1)


def a1_scenario(**overrides):
    fields = {"label": "x", "group": A1, "satake_angles": (Fraction(0),), "sl2_kind": "trivial"}
    return Scenario(**{**fields, **overrides})


def a1_expert(data):
    return a1_scenario(satake_angles=(0,), sl2_kind="expert", expert_data=data)


def a1_family(**overrides):
    return PlaceFamily(**{"label": "f", "places": (("p", a1_scenario()),), **overrides})


@pytest.mark.parametrize(
    "build, field, message",
    [
        (lambda: a1_scenario(satake_angles=("x",)), "satake_angles[1]", "got 'x'"),
        (lambda: a1_scenario(satake_angles=(None,)), "satake_angles[1]", "got None"),
        (lambda: a1_scenario(satake_angles=(0.1,)), "satake_angles[1]", "got 0.1"),
        (lambda: a1_scenario(satake_angles=(True,)), "satake_angles[1]", "got True"),
        (lambda: a1_scenario(satake_angles=5), "satake_angles", "got 5"),
        (lambda: a1_scenario(group=("A", 1)), "group", "expected a CartanSpec"),
        (lambda: a1_scenario(group=None), "group", "expected a CartanSpec"),
        (
            lambda: a1_scenario(sl2_kind="partition", partition=5),
            "sl2.partition",
            "expected a list of parts, got 5",
        ),
        (lambda: validate_partition("A", 1, 5), "partition", "expected a list of parts"),
        (lambda: a1_expert(((2,), ((1,),))), "sl2", "expected SL2Data"),
        (lambda: a1_expert(SL2Data(5, ())), "sl2", "diagram 5 is not a tuple or list"),
        (lambda: a1_expert(SL2Data((2,), 5)), "sl2", "support 5 is not a tuple or list"),
        (
            lambda: make_arthur_parameter(
                trivial_parameter(build_root_datum(A1)), ((2,), ((1,),))
            ),
            "sl2",
            "expected SL2Data",
        ),
        (lambda: a1_family(places=(a1_scenario(),)), "places[1]", "expected a (label, scenario) pair"),
        (lambda: a1_family(places=5), "places", "expected a list of places"),
        (lambda: a1_family(assumptions=[["a"]]), "assumptions", "expected a list of strings"),
    ],
    ids=[
        "string-angle", "none-angle", "float-angle", "bool-angle", "int-angles",
        "tuple-group", "none-group", "int-partition", "validate-int-partition",
        "tuple-sl2", "int-diagram", "int-support", "arthur-tuple-sl2",
        "bare-scenario-place", "int-places", "nested-assumptions",
    ],
)
def test_library_inputs_of_the_wrong_shape_name_their_field(build, field, message):
    # each of these used to escape as a TypeError or AttributeError, or (a
    # float or bool angle) to be taken silently
    with pytest.raises(ValidationError, match=re.escape(message)) as err:
        build()
    assert err.value.field == field


def test_partition_checked_against_dual_family():
    # group B2 has dual datum of type C2; [3, 1] breaks the C-parity rule there
    payload = {
        "label": "bad",
        "group": {"family": "B", "rank": 2},
        "satake_angles": ["0", "0"],
        "sl2": {"partition": [3, 1]},
    }
    with pytest.raises(
        ValidationError,
        match=r"sl2\.partition: odd part 3 has odd multiplicity \(not allowed in type C\)",
    ):
        scenario_from_dict(payload)


def test_nested_field_paths_inside_families():
    family = {
        "label": "fam",
        "places": [
            {"label": "v2", "scenario": a1_payload()},
            {"label": "v3", "scenario": a1_payload(satake_angles=["1/0"])},
        ],
    }
    with pytest.raises(
        ValidationError, match=r"places\[2\]\.scenario\.satake_angles\[1\]"
    ):
        family_from_dict(family)


def test_scenario_text_parse_reports_bad_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_scenario_text("{not json")


# -- round trips -------------------------------------------------------------------


def test_scenario_round_trip():
    for scenario in sample_scenarios():
        again = scenario_from_dict(scenario_payload(scenario))
        assert again == scenario


def test_scenario_keeps_an_angle_already_in_range():
    half = Fraction(1, 2)
    kept = Scenario("a2-tempered", CartanSpec("A", 2), (half, half), "trivial")
    assert kept.satake_angles[0] is half and kept.satake_angles[1] is half
    reduced = Scenario(
        "a2-tempered", CartanSpec("A", 2), (Fraction(3, 2), Fraction(-1, 2)), "trivial"
    )
    assert reduced.satake_angles == (half, half)
    assert emit_report_machine(run_scenario(kept)) == emit_report_machine(run_scenario(reduced))


def test_report_round_trips_exactly():
    for scenario in sample_scenarios():
        report = run_scenario(scenario)
        assert report_from_dict(encode(report)) == report
        assert parse_report_text(emit_report_machine(report)) == report


def test_machine_output_is_byte_stable():
    report = run_scenario(sample_scenarios()[0])
    blob = emit_report_machine(report)
    assert blob == emit_report_machine(report)
    assert blob == json.dumps(json.loads(blob), sort_keys=True, indent=2) + "\n"


def test_report_rejects_key_drift():
    report = run_scenario(sample_scenarios()[0])
    payload = encode(report)
    payload["extra"] = 1
    with pytest.raises(ValidationError, match="unknown keys"):
        report_from_dict(payload)
    del payload["extra"]
    del payload["verdict_kind"]
    with pytest.raises(ValidationError, match="missing keys"):
        report_from_dict(payload)


DELETE = object()

# One malformed report field each: the path into the payload (keys and list
# indices), the value put there (or DELETE), and the dotted path and message
# the decoder must name. Built on the non-tempered B2 pair-orbit report
# (dual C2, levels 1 and 2, a witness root and a certificate).
MALFORMED_REPORTS = {
    "q_exp-float": (
        ["parameter", 1, "q_exp"],
        1.5,
        r"^parameter\[2\]\.q_exp: expected a rational, got 1\.5$",
    ),
    "eigenvalue-missing-key": (
        ["eigenvalues_by_level", 0, 0, "angle"],
        DELETE,
        r"^eigenvalues_by_level\[1\]\[1\]: missing keys \['angle'\]$",
    ),
    "dual-family": (
        ["dual", "family"],
        "X",
        r"^dual: unknown family 'X'; expected one of A, B, C, D, G$",
    ),
    "witness-length": (
        ["verdict_witness"],
        [1, 0, 0],
        r"^verdict_witness: expected 2 coefficients, got 3$",
    ),
    "levi-bool": (["levi", 0], True, r"^levi\[1\]: expected an integer, got True$"),
    "point-float": (
        ["certificate_point"],
        1.5,
        r"^certificate_point: expected a rational, got 1\.5$",
    ),
    "new-field": (
        ["verdict_confidence"],
        "high",
        r"^report: unknown keys \['verdict_confidence'\]$",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_report_decoder_names_the_field(case):
    (*parents, last), value, message = MALFORMED_REPORTS[case]
    payload = encode(run_scenario(sample_scenarios()[3]))
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    with pytest.raises(ValidationError, match=message):
        report_from_dict(payload)


# Two rational fields edited at once: the decoder builds one Fraction per
# distinct string per call, and neither the value nor the refusal of the
# first field may decide how the second is read (the JSON true is not the
# int 1; a refused string is refused where it first occurs).
TWO_RATIONALS = {
    "int-then-bool": (
        (["exponents", 0], 1),
        (["certificate_point"], True),
        r"^certificate_point: expected a rational, got True$",
    ),
    "int-then-bool-in-one-array": (
        (["pole_locations", 0], 1),
        (["pole_locations", 1], True),
        r"^pole_locations\[2\]: expected a rational, got True$",
    ),
    "int-then-bool-in-monomials": (
        (["parameter", 0], {"angle": "0/1", "q_exp": 1}),
        (["parameter", 1], {"angle": "0/1", "q_exp": True}),
        r"^parameter\[2\]\.q_exp: expected a rational, got True$",
    ),
    "same-bad-string": (
        (["unit_angles", 0], "1/0"),
        (["pole_locations", 0], "1/0"),
        r"^unit_angles\[1\]: cannot parse rational '1/0'$",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_RATIONALS))
def test_report_decoder_reads_each_rational_field_on_its_own(case):
    *edits, message = TWO_RATIONALS[case]
    payload = encode(run_scenario(sample_scenarios()[3]))
    for (*parents, last), value in edits:
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
    with pytest.raises(ValidationError, match=message):
        report_from_dict(payload)


def test_global_report_rejects_empty_place_label():
    payload = encode(ramanujan_report(mixed_family(())))
    payload["place_labels"][1] = ""
    with pytest.raises(
        ValidationError, match=r"^place_labels\[2\]: expected a nonempty string, got ''$"
    ):
        global_report_from_dict(payload)


def test_family_round_trip():
    family = PlaceFamily(
        "fam",
        (("v2", sample_scenarios()[0]), ("v3", sample_scenarios()[2])),
        (MEMBERSHIP_FLAG,),
    )
    payload = {
        "label": family.label,
        "assumptions": encode(family.assumptions),
        "places": [
            {"label": label, "scenario": scenario_payload(scenario)}
            for label, scenario in family.places
        ],
    }
    assert family_from_dict(payload) == family


# -- independent re-verification of emitted certificates -----------------------------


def reverify_from_certificate(report):
    """Re-check the verdict from the serialized record using only the
    L-factor layer: rebuild the dominant twisted parameter and test the
    denominator at s = 1."""
    dual = build_root_datum(report.dual)
    units = UnramifiedParameter(
        dual, tuple(QMonomial(angle=a) for a in report.dominant_unit_angles)
    )
    twisted = recompose_parameter(units, report.dominant_exponents)
    levi = frozenset(i - 1 for i in report.levi)
    grading = grade_nilradical(dual, levi)
    denominator = l_factor(grading, twisted, "r-tilde")
    vanished, indices = inverse_vanishes_at(denominator, 1)
    assert vanished == (report.verdict_kind == "NonTempered")
    if vanished:
        hits = {denominator.eigenvalues[i] for i in indices}
        assert report.certificate_eigenvalue in hits
        assert report.certificate_point == Fraction(1)
    else:
        assert report.certificate_eigenvalue is None
    assert len(grading.all_roots) == sum(
        len(block) for block in report.eigenvalues_by_level
    )


def test_reports_reverify_from_the_lfactor_layer():
    for scenario in sample_scenarios():
        reverify_from_certificate(run_scenario(scenario))


# -- family aggregation ---------------------------------------------------------------


def mixed_family(assumptions):
    scenarios = sample_scenarios()
    return PlaceFamily(
        "mixed",
        (("v2", scenarios[2]), ("v3", scenarios[0]), ("v5", scenarios[3])),
        assumptions,
    )


def test_theorem_mode_names_the_failing_places():
    g = ramanujan_report(mixed_family((MEMBERSHIP_FLAG,)))
    assert g.mode == "theorem"
    assert g.nontempered_places == ("v3", "v5")
    assert g.place_verdicts == ("Tempered", "NonTempered", "NonTempered")
    assert g.conclusion == (
        "non-tempered at v3, v5; assuming arthur-packet-membership, local "
        "genericity fails there, so no everywhere-locally-generic cuspidal "
        "family matches these places"
    )


def test_theorem_mode_all_tempered():
    scenarios = sample_scenarios()
    places = (("v2", scenarios[2]),)
    g = ramanujan_report(PlaceFamily("ok", places, (MEMBERSHIP_FLAG,)))
    assert g.conclusion == "tempered at every listed place"
    g = ramanujan_report(
        PlaceFamily("ok", places, (MEMBERSHIP_FLAG, PROPAGATION_FLAG))
    )
    assert g.conclusion == (
        "tempered at every listed place; assuming temperedness-propagation, "
        "tempered at all places"
    )


def test_descriptive_mode_without_membership_flag():
    g = ramanujan_report(mixed_family(()))
    assert g.mode == "descriptive"
    assert g.conclusion == (
        "descriptive survey (theorem path not invoked): 1 of 3 places tempered"
        "; non-tempered at v3, v5"
    )


def test_descriptive_mode_when_some_place_lacks_genericity():
    scenarios = sample_scenarios()
    # the expert G2 place carries generic_assumption = False
    family = PlaceFamily(
        "fam", (("v2", scenarios[2]), ("v7", scenarios[4])), (MEMBERSHIP_FLAG,)
    )
    g = ramanujan_report(family)
    assert g.mode == "descriptive"


def test_family_validation():
    with pytest.raises(ValidationError, match="at least one place"):
        PlaceFamily("fam", ())
    scenario = sample_scenarios()[0]
    with pytest.raises(ValidationError, match="duplicate place label 'v2'"):
        PlaceFamily("fam", (("v2", scenario), ("v2", scenario)))
    with pytest.raises(ValidationError, match="unknown assumption 'riemann'"):
        PlaceFamily("fam", (("v2", scenario),), ("riemann",))


def test_global_report_round_trip():
    g = ramanujan_report(mixed_family((MEMBERSHIP_FLAG,)))
    assert global_report_from_dict(encode(g)) == g


# -- command line ------------------------------------------------------------------


def write_scenario(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def centralizer_failure_payload():
    # parses, but the run refuses it: the principal A2 orbit needs every
    # simple root to evaluate to 1
    return a1_payload(
        label="bad",
        group={"family": "A", "rank": 2},
        satake_angles=["1/2", "1/2"],
        sl2={"partition": [3]},
    )


def test_cli_check_text_and_machine(tmp_path, capsys):
    path = write_scenario(tmp_path / "a1.json", a1_payload())
    assert cli.main(["check", path]) == 0
    text = capsys.readouterr().out
    assert "verdict: NonTempered" in text
    assert "witness root: a1" in text

    assert cli.main(["check", path, "--format", "machine"]) == 0
    report = parse_report_text(capsys.readouterr().out)
    assert report.verdict_kind == "NonTempered"
    assert report.label == "a1-principal"


def test_cli_check_certify_adds_eigenvalue_lines(tmp_path, capsys):
    path = write_scenario(tmp_path / "a1.json", a1_payload())
    assert cli.main(["check", path, "--certify"]) == 0
    assert "level 1 eigenvalues: [q]" in capsys.readouterr().out


def test_cli_check_reports_parse_errors(tmp_path, capsys):
    path = write_scenario(tmp_path / "bad.json", a1_payload(satake_angles=["x"]))
    assert cli.main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: satake_angles[1]:")


def test_cli_check_missing_file(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nope.json")]) == 1
    assert "error: cannot read" in capsys.readouterr().err


def test_cli_batch(tmp_path, capsys):
    write_scenario(tmp_path / "a.json", a1_payload(label="first"))
    write_scenario(
        tmp_path / "b.json",
        {
            "label": "second",
            "group": {"family": "A", "rank": 2},
            "satake_angles": ["1/4", "1/2"],
            "sl2": "trivial",
        },
    )
    assert cli.main(["batch", str(tmp_path), "--format", "machine"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["label"] for r in rows] == ["first", "second"]
    assert [r["verdict_kind"] for r in rows] == ["NonTempered", "Tempered"]


def test_cli_batch_prefixes_errors_with_the_file(tmp_path, capsys):
    write_scenario(tmp_path / "a.json", a1_payload())
    (tmp_path / "broken.json").write_text("{")
    assert cli.main(["batch", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: broken.json:")
    # a file that parses but whose run is refused is named the same way
    (tmp_path / "broken.json").unlink()
    write_scenario(tmp_path / "zz-bad.json", centralizer_failure_payload())
    assert cli.main(["batch", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: zz-bad.json: parameter: centralizer condition fails at a1: "
        "evaluation zeta(1/2) is not 1\n"
    )


def test_cli_global_names_the_place_whose_run_is_refused(tmp_path, capsys):
    family = {
        "label": "fam",
        "places": [
            {"label": "v2", "scenario": a1_payload()},
            {"label": "v3", "scenario": centralizer_failure_payload()},
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert cli.main(["global", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: places[2].scenario.parameter: centralizer condition fails at a1: "
        "evaluation zeta(1/2) is not 1\n"
    )


B2_ODD_PAIR = {
    "label": "b2",
    "group": {"family": "B", "rank": 2},
    "satake_angles": ["0", "0"],
    "sl2": {"partition": [3, 1]},
}
A1_LOW_DIAGRAM = a1_payload(sl2={"expert": {"diagram": [1], "support": [[1]]}})


@pytest.mark.parametrize(
    "places, message",
    [
        (
            [a1_payload(), B2_ODD_PAIR],
            "error: places[2].scenario.sl2.partition: odd part 3 has odd multiplicity "
            "(not allowed in type C)\n",
        ),
        (
            [A1_LOW_DIAGRAM, a1_payload()],
            "error: places[1].scenario.sl2: support root a1 pairs with H to 1, expected 2\n",
        ),
    ],
    ids=["partition-parity", "expert-pairing"],
)
def test_cli_global_names_the_place_whose_reading_is_refused(tmp_path, capsys, places, message):
    """A scenario error found while reading the family carries the place
    path, as one found while running it does."""
    family = {
        "label": "fam",
        "places": [{"label": f"v{i}", "scenario": s} for i, s in enumerate(places)],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert cli.main(["global", str(path)]) == 1
    assert capsys.readouterr().err == message


def test_cli_check_refuses_a_padded_expert_support(tmp_path, capsys):
    """The G2 expert scenario with its support repeated 100,000 times used
    to exit 0 with a 6 MB report; a support is a set of roots."""
    payload = json.loads((SRC.parent / "scenarios" / "g2-principal-expert.json").read_text())
    payload["sl2"]["expert"]["support"] *= 100_000
    path = tmp_path / "padded.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["check", str(path), "--format", "machine"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sl2: support root a1 is repeated; support root a2 is repeated\n"


def test_cli_batch_rejects_empty_directory(tmp_path, capsys):
    assert cli.main(["batch", str(tmp_path)]) == 1
    assert "no scenario files" in capsys.readouterr().err


def test_cli_global(tmp_path, capsys):
    family = {
        "label": "fam",
        "assumptions": [MEMBERSHIP_FLAG],
        "places": [
            {"label": "v2", "scenario": a1_payload()},
            {
                "label": "v3",
                "scenario": {
                    "label": "t",
                    "group": {"family": "A", "rank": 1},
                    "satake_angles": ["1/2"],
                    "sl2": "trivial",
                },
            },
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    assert cli.main(["global", str(path)]) == 0
    text = capsys.readouterr().out
    assert "mode: theorem" in text
    assert "non-tempered places: v2" in text

    assert cli.main(["global", str(path), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert global_report_from_dict(payload).nontempered_places == ("v2",)


def test_cli_orbits(capsys):
    assert cli.main(["orbits", "C", "2"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "C2: 4 nilpotent orbits"
    assert "  [2, 2] -> diagram [0, 2]" in text

    assert cli.main(["orbits", "d", "4", "--format", "machine", "--certify"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 10
    by_partition = {tuple(r["partition"]): r for r in rows}
    assert by_partition[(2, 2, 2, 2)]["very_even"]
    assert by_partition[(2, 2, 2, 2)]["support"] == [[0, 0, 0, 1], [1, 2, 1, 1]]


def test_cli_orbits_rejects_exceptional_family(capsys):
    assert cli.main(["orbits", "G", "2"]) == 1
    assert "families A, B, C, D" in capsys.readouterr().err


def test_cli_invariant_violation_exits_2(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path / "a1.json", a1_payload())

    def explode(_):
        raise InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli, "run_scenario", explode)
    assert cli.main(["check", path]) == 2
    assert "internal invariant violation" in capsys.readouterr().err


# Files no parser should choke on: bytes that are not UTF-8, and nesting far
# beyond the JSON decoder's recursion limit.
# an integer literal past CPython's 4300-digit conversion limit
HUGE_LITERAL = '{"label": "x", "group": {"family": "A", "rank": ' + "1" * 5000 + "}}"
HOSTILE_FILES = {
    "latin1.json": (b'{"label": "caf\xe9"}', "latin1.json: not UTF-8 text"),
    "deep.json": (b"[" * 100000, "not valid JSON: nested too deeply"),
    "huge-literal.json": (HUGE_LITERAL.encode(), "not valid JSON: Exceeds the limit"),
}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
@pytest.mark.parametrize("verb", ["check", "batch", "global"])
def test_cli_hostile_files_are_validation_errors(tmp_path, verb, name):
    content, message = HOSTILE_FILES[name]
    path = tmp_path / name
    path.write_bytes(content)
    target = tmp_path if verb == "batch" else path
    done = subprocess.run(
        [sys.executable, "-m", "arthurcalc", verb, str(target)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.count("error:") == 1


# Inputs that are not a small regular file: a FIFO with no writer (an open
# blocks), an endless device, and a sparse file one byte over the bound. Each
# is named z.json, so `batch` meets it in its directory; a regression fails on
# the timeout rather than hanging the suite.
def fifo(path):
    os.mkfifo(path)


def zero_device(path):
    path.symlink_to("/dev/zero")


def oversized(path):
    with open(path, "wb") as f:
        f.truncate(cli.MAX_INPUT_BYTES + 1)


UNREADABLE = {
    "fifo": (fifo, "not a regular file"),
    "dev-zero": (zero_device, "not a regular file"),
    "oversized": (oversized, f"larger than {cli.MAX_INPUT_BYTES} bytes"),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
@pytest.mark.parametrize("verb", ["check", "batch", "global"])
def test_cli_refuses_what_is_not_a_bounded_regular_file(tmp_path, verb, kind):
    make, message = UNREADABLE[kind]
    path = tmp_path / "z.json"
    make(path)
    target = tmp_path if verb == "batch" else path
    done = subprocess.run(
        [sys.executable, "-m", "arthurcalc", verb, str(target)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=10,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert message in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


def test_a_file_longer_than_its_stat_size_is_read_whole():
    # a /proc file is a regular file whose stat size is 0
    status = Path("/proc/self/status")
    if not status.is_file():
        pytest.skip("no /proc file here")
    text = cli._read_text(status)
    assert text.startswith("Name:") and text.count("\n") > 1


def test_cli_reads_newlines_as_text_mode_does(tmp_path, capsys):
    # the JSON error names a character offset, which a kept "\r" would move
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{\r\n "label":\r\n}\r')
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(path.read_text())
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_a_huge_integer_literal_is_a_validation_error():
    for parse in (parse_scenario_text, parse_report_text):
        with pytest.raises(ValidationError, match="^not valid JSON: Exceeds the limit"):
            parse(HUGE_LITERAL)


def test_huge_rank_is_rejected_while_parsing():
    text = json.dumps(a1_payload(group={"family": "A", "rank": 100000}, satake_angles=[]))
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=r"^group: rank 100000 exceeds"):
        parse_scenario_text(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("verb", ["check", "orbits"])
def test_cli_rejects_a_huge_rank(tmp_path, verb):
    if verb == "check":
        payload = a1_payload(group={"family": "A", "rank": 100000}, satake_angles=[])
        argv, field = ["check", write_scenario(tmp_path / "huge.json", payload)], "group"
    else:
        argv, field = ["orbits", "A", "100000"], "rank"
    # the timeout turns a hang into a failure instead of a stuck suite
    done = subprocess.run(
        [sys.executable, "-m", "arthurcalc", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=10,
    )
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {field}: rank 100000 exceeds")


HUGE_ANGLE = "1/" + "7" * 4000  # 4000 digits, under CPython's 4300-digit int limit


def test_huge_numerals_are_rejected_while_parsing():
    scenario = json.dumps(a1_payload(satake_angles=[HUGE_ANGLE]))
    report = encode(run_scenario(scenario_from_dict(a1_payload())))
    report["parameter"][0]["q_exp"] = "7" * 4000
    for parse, text, field in [
        (parse_scenario_text, scenario, "satake_angles[1]"),
        (parse_report_text, json.dumps(report), "parameter[1].q_exp"),
    ]:
        start = time.perf_counter()
        message = rf"^{re.escape(field)}: rational has more than 64 digits"
        with pytest.raises(ValidationError, match=message):
            parse(text)
        assert time.perf_counter() - start < 1.0


def test_numeral_cap_counts_digits_in_lowest_terms():
    assert parse_fraction("-" + "9" * 64, "x") == -(10**64 - 1)
    assert parse_fraction("2" * 70 + "/" + "1" * 70, "x") == 2
    with pytest.raises(ValidationError, match="more than 64 digits"):
        parse_fraction("1/" + "1" + "0" * 64, "x")


def test_angles_with_a_huge_common_denominator_are_rejected():
    # each angle is within the cap, but a report would carry their 81-digit
    # sums (a1 + a2 on a nilradical root) and could not be read back
    p, q = 10**40 + 9, 10**40 + 7
    payload = a1_payload(
        group={"family": "A", "rank": 4},
        satake_angles=[f"1/{p}", f"1/{q}", f"-1/{p}", f"-1/{q}"],
        sl2={"partition": [2, 1, 1, 1]},
    )
    message = r"^satake_angles: the angles' common denominator has more than 64 digits"
    with pytest.raises(ValidationError, match=message):
        parse_scenario_text(json.dumps(payload))


@pytest.mark.parametrize("angle", [HUGE_ANGLE, "1e1000000000"], ids=["digits", "exponent"])
def test_cli_rejects_a_huge_numeral(tmp_path, angle):
    path = write_scenario(tmp_path / "huge.json", a1_payload(satake_angles=[angle]))
    done = subprocess.run(
        [sys.executable, "-m", "arthurcalc", "check", path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=10,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: satake_angles[1]: rational has more than 64 digits")


@pytest.mark.parametrize(
    "argv", [["check"], ["frobnicate"], ["orbits", "A", "x"], []], ids=lambda argv: "-".join(argv) or "no-verb"
)
def test_cli_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 1
    assert "usage: arthurcalc" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    assert "usage: arthurcalc" in capsys.readouterr().out


# -- rendered text stays in sync with the data ----------------------------------------


def test_render_mentions_every_headline_fact():
    report = run_scenario(sample_scenarios()[3])
    text = render_report_text(report, certify=True)
    assert f"scenario: {report.label}" in text
    assert "group: B2 (dual datum: C2)" in text
    assert "verdict: NonTempered" in text
    assert "full-product agreement: yes" in text
    for line in text.splitlines():
        assert not line.endswith(" ")
