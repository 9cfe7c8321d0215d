"""The JSON codec of the records: `canonical_json` writes their machine
bytes, and `_decode` reads them back, naming the field of every refusal.
One walk of the field annotations, `_codec`, builds each annotation's
decoder and writer together. Each keeps a memo for one call, so a rational
is formatted or parsed once per value in a report; the writer also keeps
the texts of root fields across calls, by the root's identity, at most
`MAX_ROOT_TEXTS` of them. Only `errors` and `roots` are imported from the
package, so a report is read without the classifier.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from .errors import ValidationError
from .roots import MAX_RANK, Root

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


# ---------------------------------------------------------------------------
# the codec: every record shape is derived from its dataclass fields


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

# The JSON text of each leaf type but `Fraction` (see `_write`).
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    NoneType: lambda v: "null",
}


def _decode(tp, value, field: str = "", scope: dict | None = None, name: str = ""):
    """Decode `value` as annotation `tp`; `field` is its dotted path, `scope`
    holds the fields of the enclosing object decoded so far, and `name`
    labels a top-level object in its own messages. One memo lives for this
    call and keeps only successes: it builds one `Fraction` per distinct
    rational string, and one object of a dataclass of rationals alone (a
    `QMonomial`) per distinct sequence of string items. An element's
    `field[i]` path is built only when the element is refused."""
    return _codec(tp, name)[0](value, field, scope, {})


@lru_cache(maxsize=None)
def _codec(tp, name: str = ""):
    """The decoder `(value, field, scope, memo) -> object` and the writer
    `(value, newline, memo) -> text` of one annotation: `X | None`,
    `tuple[T, ...]`, `Fraction`, the leaf types, dataclasses (`_record`),
    and `Annotated[Root, sibling]`, a root vector whose length is the rank
    of the spec in the sibling field and whose text is kept (`_root_text`).
    `name` labels a top-level record in its own messages. A writer given a
    value not exactly of its annotated type (None too) hands it to
    `_write`; any other annotation is written by type and has no decoder."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is Annotated:
        (inner, write), sibling = _codec(args[0]), args[1]

        def sized(value, field, scope, memo):
            rank = scope[sibling].rank
            if len(_expect_list(value, field)) != rank:
                raise ValidationError(
                    f"expected {rank} coefficients, got {len(value)}", field=field
                )
            return inner(value, field, scope, memo)

        return sized, _root_text if args[0] == Root else write
    if origin is Union or origin is UnionType:
        inner, write = _codec(next(arg for arg in args if arg is not NoneType))
        return (lambda value, *rest: None if value is None else inner(value, *rest)), write
    if origin is tuple and args[1:] == (...,):
        (inner, item), ints = _codec(args[0]), args[0] is int

        def decode_items(value, field, scope, memo):
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

        def write_items(value, newline, memo):
            if type(value) is not tuple or not value:
                return _write(value, newline, memo)
            inner, texts, last = newline + "  ", [], value  # no tuple holds itself
            for v in value:
                if v is not last:  # a run of one object is written once
                    last, text = v, item(v, inner, memo)
                texts.append(text)
            return "[" + inner + ("," + inner).join(texts) + newline + "]"

        return decode_items, _write if args[0] in _LEAF_TEXT else write_items
    if tp is Fraction:
        return _decode_rational, _write
    if tp in _LEAVES:
        leaf = _LEAVES[tp]
        return (lambda value, field, scope, memo: leaf(value, field)), _write
    return _record(tp, name) if is_dataclass(tp) else (None, _write)


def _record(cls, name: str):
    """The decoder and the writer of dataclass `cls`. Its members, one
    (field name, decoder, writer) per field, are built from the annotations
    on its first record, decoded or written, so a class may name itself; an
    annotation that does not resolve is written by type. Within one call, a
    record of rationals alone (a `QMonomial`) is decoded once per distinct
    sequence of string items, and a record is written once per indentation."""
    members = required = written = rational = None

    def build():
        nonlocal members, required, written, rational
        try:
            hints = get_type_hints(cls, include_extras=True)
        except NameError:  # an annotation that does not resolve: write by type
            hints = {}
        built = [(f.name, *_codec(hints.get(f.name, object))) for f in fields(cls)]
        required = {member for member, _, _ in built}
        written = sorted((m, encode_basestring_ascii(m) + ": ", write) for m, _, write in built)
        rational = all(hints.get(member) is Fraction for member in required)
        members = built  # last: a thread that sees it set sees the rest (two may build)

    def decode(value, field, scope, memo):
        if members is None:
            build()
        key = None
        if rational and type(value) is dict:
            try:
                found = memo.get(items := (cls, *value.items()))
            except TypeError:  # a list or an object is no key
                found = None
            if found is not None:
                return found
            if _STR.issuperset(map(type, value.values())):  # so true never meets 1
                key = items
        own = field or name
        value = _expect_dict(value, own)
        _check_keys(value, required, set(), own)
        decoded = {}
        for member, decoder, _ in members:
            decoded[member] = decoder(value[member], _join_field(field, member), decoded, memo)
        try:
            record = cls(**decoded)
        except ValidationError as err:
            raise ValidationError(err.raw_message, field=own)
        if key is not None:
            memo[key] = record
        return record

    def write(value, newline, memo):
        if type(value) is not cls:
            return _write(value, newline, memo)
        if (seen := memo.get((id(value), newline))) is not None:
            return seen[1]
        if members is None:
            build()
        inner = newline + "  "
        texts = [key + put(getattr(value, member), inner, memo) for member, key, put in written]
        text = "{" + inner + ("," + inner).join(texts) + newline + "}" if texts else "{}"
        memo[id(value), newline] = value, text
        return text

    return decode, write


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

    One writer per record class, built from its annotations (`_codec`), and
    a memo for this call write each rational once per value, each record
    once per indentation; only root texts outlive the call (`_root_texts`)."""
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
    return _codec(cls)[1](value, newline, memo)


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
