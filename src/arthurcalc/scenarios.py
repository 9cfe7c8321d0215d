"""Scenario files, certificate reports, and the family-level aggregation.

A scenario names the group; every computation happens on the dual datum
(transposed Cartan matrix, B and C swapped), so partitions and angles in
scenario files are indexed by the dual datum's simple roots. All indices in
files and reports are 1-based; rationals are emitted as "num/den", unit
angles as fractions of a full turn in [0, 1).

The machine emission mode is canonical (sorted keys, normalized rationals)
so reports can be compared byte for byte; parsing an emitted report
reproduces the Report object exactly. Every report carries enough data to
re-verify its verdict with the L-factor layer alone. The bytes are written
and read back by the records' codec, `arthurcalc.codec`; this module keeps
the records, the pipeline, the file decoders and the text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Annotated

from .classifier import VerdictKind, genericity_verdict, packet_verdict, standard_module_datum
from .codec import (
    _NUMERAL_BOUND,
    MAX_NUMERAL_DIGITS,
    _check_keys,
    _decode,
    _expect_bool,
    _expect_dict,
    _expect_list,
    _expect_str,
    _join_field,
    _load_json,
    canonical_json,
    format_fraction,
)
from .errors import InvariantViolation, ValidationError
from .lfactors import eigenvalues_by_level, pole_locations
from .nilpotent import (
    SL2Data,
    is_very_even,
    sl2_from_partition,
    validate_partition,
    validate_sl2_data,
)
from .parameters import QMonomial, make_arthur_parameter, unit_parameter
from .roots import CartanSpec, Root, _rational, build_root_datum, dual_datum, format_root

# Assumption flags a place family may declare. The first ties a cuspidal
# family to Arthur parameters at its unramified places; the second upgrades
# "tempered at the listed places" to "tempered everywhere".
MEMBERSHIP_FLAG = "arthur-packet-membership"
PROPAGATION_FLAG = "temperedness-propagation"
ASSUMPTION_FLAGS = (MEMBERSHIP_FLAG, PROPAGATION_FLAG)

TEMPERED_NOTE = (
    "tempered parameter; the standard module is irreducible and the packet "
    "is compatible with a generic member"
)
NONTEMPERED_NOTE = (
    "non-tempered parameter; the vanishing certificate forces a reducible "
    "standard module, so this packet contains no generic member"
)


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One unramified place: the group, unit Satake angles on the dual
    datum's simple roots, the sl2 component, and the genericity flag.

    `sl2` is None for the trivial orbit, a partition of the dual datum's
    family, or expert `SL2Data` on the dual datum; `sl2_kind` names which.

    Construction is where a scenario is refused. After every check of its
    fields, it builds the scenario's Arthur parameter on the dual datum,
    so a unit part that does not centralize the sl2 image is refused here,
    on field `parameter`. The parameter is kept as `arthur_parameter`."""

    label: str
    group: CartanSpec
    satake_angles: tuple[Fraction, ...]
    sl2: tuple[int, ...] | SL2Data | None = None
    generic_assumption: bool = True
    arthur_parameter = None  # built by `__post_init__`; not a field

    def __post_init__(self):
        _expect_str(self.label, "label")
        if not isinstance(self.group, CartanSpec):
            raise ValidationError(f"expected a CartanSpec, got {self.group!r}", field="group")
        dual = dual_datum(build_root_datum(self.group))
        if not isinstance(self.satake_angles, (tuple, list)):
            raise ValidationError(
                f"expected a list of rationals, got {self.satake_angles!r}",
                field="satake_angles",
            )
        # an angle already a Fraction in [0, 1) is kept as given
        angles = tuple([
            a if type(a) is Fraction and 0 <= a.numerator < a.denominator
            else Fraction(_rational(a, f"satake_angles[{i + 1}]")) % 1
            for i, a in enumerate(self.satake_angles)
        ])
        if len(angles) != dual.rank:
            raise ValidationError(
                f"expected {dual.rank} angles, got {len(angles)}",
                field="satake_angles",
            )
        phi = unit_parameter(dual, angles)
        if phi.integer_form[0] >= _NUMERAL_BOUND:
            # every angle in the report is a sum of these angles, and a
            # report must read back under the numeral cap
            raise ValidationError(
                f"the angles' common denominator has more than {MAX_NUMERAL_DIGITS} digits",
                field="satake_angles",
            )
        object.__setattr__(self, "satake_angles", angles)
        sl2 = self.sl2
        if sl2 is None:
            data = SL2Data((0,) * dual.rank, ())
        elif isinstance(sl2, SL2Data):
            data = sl2
            if isinstance(sl2.diagram, (tuple, list)) and isinstance(sl2.support, (tuple, list)):
                # tuples read back equal, and the Arthur parameter finds this copy marked
                data = SL2Data(tuple(sl2.diagram), tuple(sl2.support))
            validate_sl2_data(dual, data)
            object.__setattr__(self, "sl2", data)
        else:
            try:
                parts = validate_partition(dual.spec.family, dual.rank, sl2)
            except ValidationError as err:
                raise ValidationError(err.raw_message, field="sl2.partition")
            object.__setattr__(self, "sl2", parts)
            data = sl2_from_partition(dual.spec.family, dual.rank, parts)
        _expect_bool(self.generic_assumption, "generic_assumption")
        object.__setattr__(self, "arthur_parameter", make_arthur_parameter(phi, data))

    @property
    def sl2_kind(self) -> str:
        if self.sl2 is None:
            return "trivial"
        return "expert" if isinstance(self.sl2, SL2Data) else "partition"

    def resolved_sl2(self) -> SL2Data:
        return self.arthur_parameter.sl2


def scenario_from_dict(payload, field: str = "") -> Scenario:
    """Decode a scenario's JSON shape (keys, rationals, lists, the `sl2`
    union, read as None, a partition tuple or `SL2Data`); `Scenario` checks
    the values. Errors are named under `field`."""
    payload = _expect_dict(payload, field or "scenario")
    _check_keys(
        payload,
        {"label", "group", "satake_angles", "sl2"},
        {"generic_assumption"},
        field or "scenario",
    )
    group = _decode(CartanSpec, payload["group"], _join_field(field, "group"))
    angles = _decode(
        tuple[Fraction, ...], payload["satake_angles"], _join_field(field, "satake_angles")
    )

    sl2_field = _join_field(field, "sl2")
    sl2_value, sl2 = payload["sl2"], None
    if isinstance(sl2_value, dict):
        _check_keys(sl2_value, set(), {"partition", "expert"}, sl2_field)
        if len(sl2_value) != 1:
            raise ValidationError(
                'expected exactly one of "partition" or "expert"', field=sl2_field
            )
        if "partition" in sl2_value:
            sl2 = _decode(
                tuple[int, ...], sl2_value["partition"], _join_field(sl2_field, "partition")
            )
        else:
            expert_field = _join_field(sl2_field, "expert")
            body = _expect_dict(sl2_value["expert"], expert_field)
            _check_keys(body, {"diagram", "support"}, set(), expert_field)
            sl2 = SL2Data(
                _decode(tuple[int, ...], body["diagram"], _join_field(expert_field, "diagram")),
                _decode(
                    tuple[Annotated[Root, "group"], ...],
                    body["support"],
                    _join_field(expert_field, "support"),
                    {"group": group},
                ),
            )
    elif sl2_value != "trivial":
        raise ValidationError(
            'sl2 must be "trivial" or an object with "partition" or "expert"',
            field=sl2_field,
        )

    generic = payload.get("generic_assumption", True)
    try:
        return Scenario(payload["label"], group, angles, sl2, generic)
    except ValidationError as err:
        raise err.under(field) if field else err


def parse_scenario_text(text: str) -> Scenario:
    return scenario_from_dict(_load_json(text))


# ---------------------------------------------------------------------------
# reports


# A root of a report's dual datum; decoding checks its length against the
# rank of the report's `dual` field.
DualRoot = Annotated[Root, "dual"]


@dataclass(frozen=True)
class Report:
    """Flat, fully serializable record of one scenario run.

    Levi members and root names are 1-based in this record, matching the
    file formats. The unit angles and exponents let the verdict be
    re-checked from the L-factor layer alone. The Langlands exponents are
    already dominant, so `weyl_word` is always empty and the `dominant_*`
    fields repeat `exponents` and `unit_angles`; they stay in the format.
    """

    label: str
    group: CartanSpec
    dual: CartanSpec
    satake_angles: tuple[Fraction, ...]
    sl2_kind: str
    sl2_partition: tuple[int, ...] | None
    sl2_diagram: tuple[int, ...]
    sl2_support: tuple[DualRoot, ...]
    orbit_certified: bool
    very_even: bool
    parameter: tuple[QMonomial, ...]
    unit_angles: tuple[Fraction, ...]
    exponents: tuple[Fraction, ...]
    tempered: bool
    weyl_word: tuple[int, ...]
    dominant_exponents: tuple[Fraction, ...]
    dominant_unit_angles: tuple[Fraction, ...]
    levi: tuple[int, ...]
    character_exponents: tuple[Fraction, ...]
    generic_assumption: bool
    irreducible: bool
    irreducibility_witnesses: tuple[DualRoot, ...]
    genericity: str
    verdict_kind: str
    verdict_witness: DualRoot | None
    certificate_eigenvalue: QMonomial | None
    certificate_point: Fraction | None
    agreement: bool
    levels: tuple[int, ...]
    eigenvalues_by_level: tuple[tuple[QMonomial, ...], ...]
    pole_locations: tuple[Fraction, ...]
    interpretation: str


def run_scenario(s: Scenario) -> Report:
    """Full pipeline on the scenario's own Arthur parameter: classify, and
    assemble the certificate report, its sl2 fields read off `s.sl2`. It
    only derives: a built scenario gives it nothing to refuse. Internal
    cross-checks raise InvariantViolation rather than shading the verdict."""
    psi = s.arthur_parameter
    dual, sl2, kind = psi.datum, psi.sl2, s.sl2_kind
    partition = s.sl2 if kind == "partition" else None
    sm = standard_module_datum(psi, s.generic_assumption)
    verdict = packet_verdict(psi, sm)
    ratio = sm.coefficient_ratio
    nontempered = verdict.kind is VerdictKind.NON_TEMPERED
    if ratio.vanishes != nontempered:
        raise InvariantViolation("denominator vanishing does not match the packet verdict")

    unit_angles = tuple([t.angle for t in sm.parameter.coords])

    return Report(
        label=s.label,
        group=s.group,
        dual=dual.spec,
        satake_angles=s.satake_angles,
        sl2_kind=kind,
        sl2_partition=partition,
        sl2_diagram=sl2.diagram,
        sl2_support=sl2.support,
        orbit_certified=kind != "expert",
        very_even=partition is not None and is_very_even(dual.spec.family, partition),
        parameter=sm.parameter.coords,
        unit_angles=unit_angles,
        exponents=sm.exponents,
        tempered=not nontempered,
        weyl_word=(),
        dominant_exponents=sm.exponents,
        dominant_unit_angles=unit_angles,
        levi=tuple(sorted(i + 1 for i in sm.levi)),
        character_exponents=sm.character_exponents,
        generic_assumption=s.generic_assumption,
        irreducible=ratio.irreducible,
        irreducibility_witnesses=ratio.witness_roots,
        genericity=genericity_verdict(sm).value,
        verdict_kind=verdict.kind.value,
        verdict_witness=verdict.witness,
        certificate_eigenvalue=(
            verdict.certificate.eigenvalue if nontempered else None
        ),
        certificate_point=verdict.certificate.s if nontempered else None,
        agreement=True,
        levels=tuple([level for level, _ in ratio.grading.levels]),
        eigenvalues_by_level=eigenvalues_by_level(ratio.grading, ratio.denominator),
        pole_locations=pole_locations(ratio.denominator),
        interpretation=NONTEMPERED_NOTE if nontempered else TEMPERED_NOTE,
    )


report_from_dict = partial(_decode, Report, name="report")


def emit_report_machine(r: Report) -> str:
    return canonical_json(r)


def parse_report_text(text: str) -> Report:
    return report_from_dict(_load_json(text))


def _bracketed(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


def render_report_text(r: Report, certify: bool = False) -> str:
    """Human-readable rendering; `certify` adds the per-level eigenvalue
    multisets of the denominator factor."""
    lines = [
        f"scenario: {r.label}",
        f"group: {r.group} (dual datum: {r.dual})",
        f"satake angles: {_bracketed(format_fraction(a) for a in r.satake_angles)}",
    ]
    sl2_bits = [f"kind {r.sl2_kind}"]
    if r.sl2_partition is not None:
        sl2_bits.append(f"partition {list(r.sl2_partition)}")
    sl2_bits.append(f"diagram {list(r.sl2_diagram)}")
    sl2_bits.append(
        "support {" + ", ".join(format_root(root) for root in r.sl2_support) + "}"
    )
    if r.very_even:
        sl2_bits.append("very even (labels two orbits; not disambiguated)")
    if not r.orbit_certified:
        sl2_bits.append("expert data (orbit not certified)")
    lines.append("sl2 component: " + "; ".join(sl2_bits))
    lines.append(
        "attached parameter: " + _bracketed(str(m) for m in r.parameter)
    )
    lines.append(
        "decomposition: unit angles "
        + _bracketed(format_fraction(a) for a in r.unit_angles)
        + ", exponents "
        + _bracketed(format_fraction(e) for e in r.exponents)
    )
    lines.append(
        f"dominantization: word {list(r.weyl_word)}, dominant exponents "
        + _bracketed(format_fraction(e) for e in r.dominant_exponents)
        + ", dominant unit angles "
        + _bracketed(format_fraction(a) for a in r.dominant_unit_angles)
    )
    lines.append(
        f"levi (1-based): {list(r.levi)}; character exponents "
        + _bracketed(format_fraction(c) for c in r.character_exponents)
    )
    lines.append(f"verdict: {r.verdict_kind}")
    if r.verdict_witness is not None:
        lines.append(f"witness root: {format_root(r.verdict_witness)}")
        lines.append(
            f"certificate: eigenvalue {r.certificate_eigenvalue}, inverse "
            f"denominator factor vanishes at s = {format_fraction(r.certificate_point)}"
        )
        lines.append(f"full-product agreement: {'yes' if r.agreement else 'NO'}")
    witnesses = ", ".join(format_root(root) for root in r.irreducibility_witnesses)
    lines.append(
        f"irreducible: {'yes' if r.irreducible else 'no'}"
        + (f" (vanishing factors at {{{witnesses}}})" if witnesses else "")
    )
    lines.append(
        f"genericity: {r.genericity} (generic assumption: "
        f"{'yes' if r.generic_assumption else 'no'})"
    )
    lines.append(
        "denominator pole locations: "
        + _bracketed(format_fraction(x) for x in r.pole_locations)
    )
    lines.append(f"grading levels: {list(r.levels)}")
    if certify:
        for level, block in zip(r.levels, r.eigenvalues_by_level):
            lines.append(
                f"  level {level} eigenvalues: " + _bracketed(str(m) for m in block)
            )
    lines.append(f"interpretation: {r.interpretation}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# place families


@dataclass(frozen=True)
class PlaceFamily:
    """Labelled scenarios standing for the unramified places of one global
    object, plus the assumption flags the aggregation may invoke."""

    label: str
    places: tuple[tuple[str, Scenario], ...]
    assumptions: tuple[str, ...] = ()

    def __post_init__(self):
        _expect_str(self.label, "label")
        if not isinstance(self.places, (tuple, list)):
            raise ValidationError(f"expected a list of places, got {self.places!r}", field="places")
        if not self.places:
            raise ValidationError("family must list at least one place", field="places")
        seen = set()
        for i, place in enumerate(self.places):
            if not isinstance(place, (tuple, list)) or len(place) != 2:
                raise ValidationError(
                    f"expected a (label, scenario) pair, got {place!r}", field=f"places[{i + 1}]"
                )
            place_label, scenario = place
            _expect_str(place_label, f"places[{i + 1}].label")
            if place_label in seen:
                raise ValidationError(
                    f"duplicate place label {place_label!r}", field=f"places[{i + 1}].label"
                )
            seen.add(place_label)
            if not isinstance(scenario, Scenario):
                raise ValidationError(
                    "expected a scenario", field=f"places[{i + 1}].scenario"
                )
        if not isinstance(self.assumptions, (tuple, list)) or not all(
            isinstance(flag, str) for flag in self.assumptions
        ):
            raise ValidationError(
                f"expected a list of strings, got {self.assumptions!r}", field="assumptions"
            )
        flags = tuple(sorted(set(self.assumptions)))
        for flag in flags:
            if flag not in ASSUMPTION_FLAGS:
                raise ValidationError(
                    f"unknown assumption {flag!r}; expected a subset of "
                    f"{list(ASSUMPTION_FLAGS)}",
                    field="assumptions",
                )
        object.__setattr__(self, "assumptions", flags)


def family_from_dict(payload) -> PlaceFamily:
    """Decode a family's JSON shape (keys, lists, the `places` objects);
    `PlaceFamily` and `Scenario` check the values."""
    payload = _expect_dict(payload, "family")
    _check_keys(payload, {"label", "places"}, {"assumptions"}, "family")
    assumptions = _decode(tuple[str, ...], payload.get("assumptions", []), "assumptions")
    places = []
    for i, entry in enumerate(_expect_list(payload["places"], "places")):
        entry_field = f"places[{i + 1}]"
        entry = _expect_dict(entry, entry_field)
        _check_keys(entry, {"label", "scenario"}, set(), entry_field)
        scenario = scenario_from_dict(entry["scenario"], f"{entry_field}.scenario")
        places.append((entry["label"], scenario))
    return PlaceFamily(payload["label"], tuple(places), assumptions)


def parse_family_text(text: str) -> PlaceFamily:
    return family_from_dict(_load_json(text))


@dataclass(frozen=True)
class GlobalReport:
    """Aggregated verdict over a family of places.

    Mode "theorem" needs every place to carry the genericity assumption and
    the family to declare the packet-membership assumption; otherwise the
    aggregation only describes the local verdicts.
    """

    label: str
    mode: str
    assumptions: tuple[str, ...]
    place_labels: tuple[str, ...]
    place_verdicts: tuple[str, ...]
    nontempered_places: tuple[str, ...]
    conclusion: str


def ramanujan_report(f: PlaceFamily) -> GlobalReport:
    reports = [run_scenario(scenario) for _, scenario in f.places]
    labels = tuple(place_label for place_label, _ in f.places)
    verdicts = tuple(r.verdict_kind for r in reports)
    nontempered = tuple(
        place_label
        for place_label, kind in zip(labels, verdicts)
        if kind == VerdictKind.NON_TEMPERED.value
    )
    all_generic = all(scenario.generic_assumption for _, scenario in f.places)
    theorem = all_generic and MEMBERSHIP_FLAG in f.assumptions

    if theorem:
        mode = "theorem"
        if nontempered:
            conclusion = (
                "non-tempered at " + ", ".join(nontempered) + "; assuming "
                f"{MEMBERSHIP_FLAG}, local genericity fails there, so no "
                "everywhere-locally-generic cuspidal family matches these places"
            )
        else:
            conclusion = "tempered at every listed place"
            if PROPAGATION_FLAG in f.assumptions:
                conclusion += (
                    f"; assuming {PROPAGATION_FLAG}, tempered at all places"
                )
    else:
        mode = "descriptive"
        tempered_count = len(labels) - len(nontempered)
        conclusion = (
            "descriptive survey (theorem path not invoked): "
            f"{tempered_count} of {len(labels)} places tempered"
        )
        if nontempered:
            conclusion += "; non-tempered at " + ", ".join(nontempered)
    return GlobalReport(
        label=f.label,
        mode=mode,
        assumptions=f.assumptions,
        place_labels=labels,
        place_verdicts=verdicts,
        nontempered_places=nontempered,
        conclusion=conclusion,
    )


def render_global_text(g: GlobalReport) -> str:
    lines = [
        f"family: {g.label}",
        f"mode: {g.mode}",
        "assumptions: " + (", ".join(g.assumptions) if g.assumptions else "(none)"),
    ]
    for place_label, kind in zip(g.place_labels, g.place_verdicts):
        lines.append(f"  {place_label}: {kind}")
    lines.append(
        "non-tempered places: "
        + (", ".join(g.nontempered_places) if g.nontempered_places else "(none)")
    )
    lines.append(f"conclusion: {g.conclusion}")
    return "\n".join(lines) + "\n"
