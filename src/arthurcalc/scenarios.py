"""Scenario files, certificate reports, and the family-level aggregation.

A scenario names the group; every computation happens on the dual datum
(transposed Cartan matrix, B and C swapped), so partitions and angles in
scenario files are indexed by the dual datum's simple roots. All indices in
files and reports are 1-based; rationals are emitted as "num/den", unit
angles as fractions of a full turn in [0, 1).

The machine emission mode is canonical (sorted keys, normalized rationals)
so reports can be compared byte for byte; parsing an emitted report
reproduces the Report object exactly. Every report carries enough data to
re-verify its verdict with the L-factor layer alone. `canonical_json`
writes those bytes from the records themselves, with one writer per
annotation, and one decoder per annotation reads them back. Each keeps a
memo for one call, so a rational is formatted or parsed once per value in
a report; the writer also keeps the texts of root fields across calls, by
the root's identity, at most `MAX_ROOT_TEXTS` of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii
from math import lcm
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from .classifier import VerdictKind, genericity_verdict, packet_verdict, standard_module_datum
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
from .roots import MAX_RANK, CartanSpec, Root, _rational, build_root_datum, dual_datum, format_root

# Assumption flags a place family may declare. The first ties a cuspidal
# family to Arthur parameters at its unramified places; the second upgrades
# "tempered at the listed places" to "tempered everywhere".
MEMBERSHIP_FLAG = "arthur-packet-membership"
PROPAGATION_FLAG = "temperedness-propagation"
ASSUMPTION_FLAGS = (MEMBERSHIP_FLAG, PROPAGATION_FLAG)

SL2_KINDS = ("trivial", "partition", "expert")

TEMPERED_NOTE = (
    "tempered parameter; the standard module is irreducible and the packet "
    "is compatible with a generic member"
)
NONTEMPERED_NOTE = (
    "non-tempered parameter; the vanishing certificate forces a reducible "
    "standard module, so this packet contains no generic member"
)


# ---------------------------------------------------------------------------
# encoding primitives


def format_fraction(x: Fraction) -> str:
    """Canonical "num/den" form of a rational, denominator always present."""
    return f"{x.numerator}/{x.denominator}"


# Largest number of digits in the numerator and in the denominator (lowest
# terms) of a rational read from a scenario, family or report, and in the
# common denominator of a scenario's angles. Exact evaluation works over the
# lcm of a parameter's denominators, so its cost grows with their digits; a
# larger numeral is refused as input, and so is an exponent ("1e99") beyond
# the cap, before it is expanded.
MAX_NUMERAL_DIGITS = 64
_NUMERAL_BOUND = 10**MAX_NUMERAL_DIGITS


def parse_fraction(value, field: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValidationError(f"expected a rational, got {value!r}", field=field)
    text = str(value)
    _, marker, exponent = text.lower().partition("e")
    try:
        huge = bool(marker) and abs(int(exponent)) > MAX_NUMERAL_DIGITS
        x = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse rational {value!r}", field=field)
    if huge or abs(x.numerator) >= _NUMERAL_BOUND or x.denominator >= _NUMERAL_BOUND:
        raise ValidationError(
            f"rational has more than {MAX_NUMERAL_DIGITS} digits in its numerator "
            "or denominator",
            field=field,
        )
    return x


def _expect_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", field=field)
    return value


def _expect_str(value, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"expected a nonempty string, got {value!r}", field=field)
    return value


def _expect_bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"expected a boolean, got {value!r}", field=field)
    return value


def _expect_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"expected a list, got {value!r}", field=field)
    return value


def _expect_dict(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"expected an object, got {value!r}", field=field)
    return value


def _check_keys(payload: dict, required: set, optional: set, field: str) -> None:
    if payload.keys() == required:
        return
    unknown = sorted(set(payload) - required - optional)
    if unknown:
        raise ValidationError(f"unknown keys {unknown}", field=field)
    missing = sorted(required - set(payload))
    if missing:
        raise ValidationError(f"missing keys {missing}", field=field)


def _join_field(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


# ---------------------------------------------------------------------------
# the codec: every report shape is derived from its dataclass fields


def _decode_rational(value, field, scope, memo):
    """A rational, built once per distinct string per decode call. Only str
    values are keys, so `true` never meets the entry for 1, and only
    successes are kept, so every refusal keeps its message and path."""
    if type(value) is not str:
        return parse_fraction(value, field)
    x = memo.get(value)
    if x is None:
        x = memo[value] = parse_fraction(value, field)
    return x


_LEAVES = {int: _expect_int, bool: _expect_bool, str: _expect_str}
_INT, _STR = {int}, {str}


def _decode(tp, value, field: str = "", scope: dict | None = None, name: str = ""):
    """Decode `value` as annotation `tp`; `field` is its dotted path, `scope`
    holds the fields of the enclosing object decoded so far, and `name`
    labels a top-level object in its own messages. One memo lives for this
    call and keeps only successes: it builds one `Fraction` per distinct
    rational string, and one object of a dataclass of rationals alone (a
    `QMonomial`) per distinct sequence of string items. An element's
    `field[i]` path is built only when the element is refused."""
    return _decoder(tp, name)(value, field, scope, {})


@lru_cache(maxsize=None)
def _decoder(tp, name: str = ""):
    """Build the decoder `(value, field, scope, memo) -> object` for one
    annotation: `X | None`, `tuple[T, ...]`, the leaf types, nested
    dataclasses, and `Annotated[Root, sibling]`, a root vector whose length
    is the rank of the spec in the sibling field."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        inner, sibling = _decoder(args[0]), args[1]

        def sized(value, field, scope, memo):
            rank = scope[sibling].rank
            if len(_expect_list(value, field)) != rank:
                raise ValidationError(
                    f"expected {rank} coefficients, got {len(value)}", field=field
                )
            return inner(value, field, scope, memo)

        return sized
    if origin is Union or origin is UnionType:
        (some,) = (arg for arg in args if arg is not NoneType)
        inner = _decoder(some)
        return lambda value, field, scope, memo: (
            None if value is None else inner(value, field, scope, memo)
        )
    if origin is tuple:
        inner, ints = _decoder(args[0]), args[0] is int

        def items(value, field, scope, memo):
            value = _expect_list(value, field)
            if ints and _INT.issuperset(map(type, value)):
                return tuple(value)  # a root, a diagram or indices: one pass
            try:
                if inner is _decode_rational and _STR.issuperset(map(type, value)):
                    # the strings already in the memo, without a call each
                    return tuple(
                        [memo[v] if v in memo else inner(v, field, scope, memo) for v in value]
                    )
                return tuple([inner(v, field, scope, memo) for v in value])
            except ValidationError:
                pass  # decode again with each element's path, to name the refused one
            return tuple([inner(v, f"{field}[{i + 1}]", scope, memo) for i, v in enumerate(value)])

        return items
    if tp is Fraction:
        return _decode_rational
    if tp in _LEAVES:
        leaf = _LEAVES[tp]
        return lambda value, field, scope, memo: leaf(value, field)
    return _object_decoder(tp, name)


def _object_decoder(cls, name: str):
    hints = get_type_hints(cls, include_extras=True)
    names = [f.name for f in fields(cls)]
    members = tuple((key, _decoder(hints[key])) for key in names)
    required = set(names)

    def decode(value, field, scope, memo):
        own = field or name
        value = _expect_dict(value, own)
        _check_keys(value, required, set(), own)
        decoded = {}
        for member, decoder in members:
            decoded[member] = decoder(value[member], _join_field(field, member), decoded, memo)
        try:
            return cls(**decoded)
        except ValidationError as err:
            raise ValidationError(err.raw_message, field=own)

    if not all(hints[key] is Fraction for key in names):
        return decode

    def shared(value, field, scope, memo):
        # an object of rationals alone: one per distinct sequence of string items
        if type(value) is not dict:
            return decode(value, field, scope, memo)
        key = cls, *value.items()
        try:
            found = memo.get(key)
        except TypeError:  # a list or an object is no key
            return decode(value, field, scope, memo)
        if found is None:
            found = decode(value, field, scope, memo)
            if _STR.issuperset(map(type, value.values())):  # so true never meets 1
                memo[key] = found
        return found

    return shared


# The JSON text of each leaf type but `Fraction` (see `_write`).
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    NoneType: lambda v: "null",
}


# Texts of root fields by (id(root), newline), each held with its root so the
# id is not reused; datum roots and cached supports are shared objects. Only
# tuples of exactly ints are kept, whose texts never change: at most
# MAX_ROOT_TEXTS, emptied when full, of MAX_RANK items and _MAX_ROOT_TEXT chars.
MAX_ROOT_TEXTS = 1024
_MAX_ROOT_TEXT = 1024
_root_texts: dict[tuple[int, str], tuple[Root, str]] = {}


def canonical_json(value) -> str:
    """Canonical JSON of `value`, written directly: sorted keys, a two-space
    indent, ASCII escapes and a final newline, as `json.dumps` writes the
    plain JSON value of `value` with `sort_keys=True` and an indent of 2.
    Dataclasses become objects keyed by their field names, rationals the
    string "num/den", tuples and lists arrays; dicts need str keys, and the
    leaves are exactly `Fraction` and the types in `_LEAF_TEXT`. Any other
    type raises TypeError, as `json.dumps` does.

    One writer per record class, built from its annotations (`_writer`), and a
    memo for this call write each rational once per value, each record once
    per indentation; only root texts outlive the call (`_root_texts`)."""
    return _write(value, "\n", {}) + "\n"


def _write(value, newline: str, memo: dict) -> str:
    """The text of `value` by its type alone, starting after `newline` (a
    line break and indentation). `memo` maps a rational's (numerator,
    denominator) to its text, and (id(record), newline) to (record, text),
    holding the record so that its id is not reused during the call."""
    cls = type(value)
    if cls is Fraction:
        key = value.as_integer_ratio()
        return memo.get(key) or memo.setdefault(key, f'"{format_fraction(value)}"')
    leaf = _LEAF_TEXT.get(cls)
    if leaf is not None:
        return leaf(value)
    inner = newline + "  "
    if cls is tuple or cls is list:
        if not value:
            return "[]"
        kinds = set(map(type, value))  # bool and int stay apart
        leaf = _LEAF_TEXT.get(kinds.pop()) if len(kinds) == 1 else None
        texts = map(leaf, value) if leaf else [_write(item, inner, memo) for item in value]
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    if cls is dict:
        if not value:
            return "{}"
        texts = [
            encode_basestring_ascii(key) + ": " + _write(value[key], inner, memo)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(texts) + newline + "}"
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    return _writer(cls)(value, newline, memo)


@lru_cache(maxsize=None)
def _writer(tp):
    """The writer `(value, newline, memo) -> text` of one annotation, built
    as `_decoder` is. A dataclass's writer builds its sorted (name, key,
    field writer) triples on its first record, so a class may name itself.
    A value not exactly of the annotated type (None too) goes to `_write`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        return _root_text if args[0] == Root else _writer(args[0])
    if origin is Union or origin is UnionType:
        return _writer(next(arg for arg in args if arg is not NoneType))
    if origin is tuple and args[1:] == (...,) and args[0] not in _LEAF_TEXT:
        item = _writer(args[0])

        def items(value, newline, memo):
            if type(value) is not tuple or not value:
                return _write(value, newline, memo)
            inner, texts, last = newline + "  ", [], value  # no tuple holds itself
            for v in value:
                if v is not last:  # a run of one object is written once
                    last, text = v, item(v, inner, memo)
                texts.append(text)
            return "[" + inner + ("," + inner).join(texts) + newline + "]"

        return items
    if not is_dataclass(tp):
        return _write
    members = None

    def record(value, newline, memo):
        nonlocal members
        if type(value) is not tp:
            return _write(value, newline, memo)
        if (seen := memo.get((id(value), newline))) is not None:
            return seen[1]
        if members is None:
            try:
                hints = get_type_hints(tp, include_extras=True)
            except NameError:  # an annotation that does not resolve: write by type
                hints = {}
            members = sorted(
                (f.name, encode_basestring_ascii(f.name) + ": ", _writer(hints.get(f.name, object)))
                for f in fields(tp)
            )
        inner = newline + "  "
        texts = [key + write(getattr(value, name), inner, memo) for name, key, write in members]
        text = "{" + inner + ("," + inner).join(texts) + newline + "}" if texts else "{}"
        memo[id(value), newline] = value, text
        return text

    return record


def _root_text(root, newline: str, memo: dict) -> str:
    """The text of a root field's value, kept in `_root_texts`."""
    if (hit := _root_texts.get((id(root), newline))) is not None:
        return hit[1]
    text = _write(root, newline, memo)
    if type(root) is tuple and len(root) <= MAX_RANK and len(text) <= _MAX_ROOT_TEXT:
        if _INT.issuperset(map(type, root)):
            if len(_root_texts) >= MAX_ROOT_TEXTS:
                _root_texts.clear()
            _root_texts[id(root), newline] = root, text
    return text


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One unramified place: the group, unit Satake angles on the dual
    datum's simple roots, the sl2 component, and the genericity flag."""

    label: str
    group: CartanSpec
    satake_angles: tuple[Fraction, ...]
    sl2_kind: str
    partition: tuple[int, ...] | None = None
    expert_data: SL2Data | None = None
    generic_assumption: bool = True

    def __post_init__(self):
        _expect_str(self.label, "label")
        if self.sl2_kind not in SL2_KINDS:
            raise ValidationError(
                f"sl2 kind must be one of {SL2_KINDS}, got {self.sl2_kind!r}",
                field="sl2",
            )
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
        if lcm(*(a.denominator for a in angles)) >= _NUMERAL_BOUND:
            # every angle in the report is a sum of these angles, and a
            # report must read back under the numeral cap
            raise ValidationError(
                f"the angles' common denominator has more than {MAX_NUMERAL_DIGITS} digits",
                field="satake_angles",
            )
        object.__setattr__(self, "satake_angles", angles)
        if (self.partition is not None) != (self.sl2_kind == "partition"):
            raise ValidationError(
                "partition must be given exactly for the partition kind", field="sl2"
            )
        if (self.expert_data is not None) != (self.sl2_kind == "expert"):
            raise ValidationError(
                "expert data must be given exactly for the expert kind", field="sl2"
            )
        if self.sl2_kind == "partition":
            try:
                normalized = validate_partition(
                    dual.spec.family, dual.rank, self.partition
                )
            except ValidationError as err:
                raise ValidationError(err.raw_message, field="sl2.partition")
            object.__setattr__(self, "partition", normalized)
        if self.sl2_kind == "expert":
            data = self.expert_data
            shaped = isinstance(data, SL2Data) and isinstance(data.diagram, (tuple, list))
            if shaped and isinstance(data.support, (tuple, list)):
                # tuples read back equal, and each run finds the checked copy marked
                data = SL2Data(tuple(data.diagram), tuple(data.support))
            validate_sl2_data(dual, data)
            object.__setattr__(self, "expert_data", data)
        _expect_bool(self.generic_assumption, "generic_assumption")

    def resolved_sl2(self) -> SL2Data:
        dual = dual_datum(build_root_datum(self.group)).spec
        if self.sl2_kind == "trivial":
            return SL2Data((0,) * dual.rank, ())
        if self.sl2_kind == "partition":
            return sl2_from_partition(dual.family, dual.rank, self.partition)
        return self.expert_data


def scenario_from_dict(payload, field: str = "") -> Scenario:
    """Decode a scenario's JSON shape (keys, rationals, lists, the `sl2`
    union); `Scenario` checks the values. Errors are named under `field`."""
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
    sl2_value = payload["sl2"]
    kind, partition, expert = "trivial", None, None
    if isinstance(sl2_value, dict):
        _check_keys(sl2_value, set(), {"partition", "expert"}, sl2_field)
        if len(sl2_value) != 1:
            raise ValidationError(
                'expected exactly one of "partition" or "expert"', field=sl2_field
            )
        if "partition" in sl2_value:
            kind = "partition"
            partition = _decode(
                tuple[int, ...], sl2_value["partition"], _join_field(sl2_field, "partition")
            )
        else:
            kind = "expert"
            expert_field = _join_field(sl2_field, "expert")
            body = _expect_dict(sl2_value["expert"], expert_field)
            _check_keys(body, {"diagram", "support"}, set(), expert_field)
            expert = SL2Data(
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
        return Scenario(payload["label"], group, angles, kind, partition, expert, generic)
    except ValidationError as err:
        raise err.under(field) if field else err


def _load_json(text: str):
    """Decode JSON; malformed text, an integer literal past the interpreter's
    digit limit and nesting too deep for the decoder are all a
    ValidationError."""
    try:
        return json.loads(text)
    except ValueError as err:  # json.JSONDecodeError is one
        raise ValidationError(f"not valid JSON: {err}")
    except RecursionError:
        raise ValidationError("not valid JSON: nested too deeply")


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
    """Full pipeline: build the Arthur parameter on the dual datum, classify,
    and assemble the certificate report. Internal cross-checks raise
    InvariantViolation rather than shading the verdict."""
    dual = dual_datum(build_root_datum(s.group))
    sl2 = s.resolved_sl2()
    phi = unit_parameter(dual, s.satake_angles)
    psi = make_arthur_parameter(phi, sl2)
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
        sl2_kind=s.sl2_kind,
        sl2_partition=s.partition,
        sl2_diagram=sl2.diagram,
        sl2_support=sl2.support,
        orbit_certified=s.sl2_kind != "expert",
        very_even=(
            s.sl2_kind == "partition" and is_very_even(dual.spec.family, s.partition)
        ),
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
    reports = []
    for i, (_, scenario) in enumerate(f.places):
        try:
            reports.append(run_scenario(scenario))
        except ValidationError as err:
            raise err.under(f"places[{i + 1}].scenario")
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
