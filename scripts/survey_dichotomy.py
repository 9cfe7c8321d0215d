#!/usr/bin/env python3
"""Sweep the dichotomy over small dual types and tabulate the verdicts.

For every valid partition of each listed dual type, and every Satake point
with coordinates in the fourth roots of unity that passes the centralizer
condition, classify the packet and count verdicts per orbit. The trivial
orbit rows must be all-Tempered, every nontrivial orbit all-NonTempered;
the script exits 1 if any row mixes, or with a one-line error if a listed
type is not a classical type or `--types` lists none.

Usage:
    python3 scripts/survey_dichotomy.py [--types A2 C3 ...]
"""

import argparse
import sys
from collections import Counter

from arthurcalc.classifier import VerdictKind, classify_packet
from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import sl2_from_partition
from arthurcalc.roots import CartanSpec
from arthurcalc.sweeps import DICHOTOMY_SPECS, iter_dichotomy_parameters, valid_partitions


def parse_type(name: str) -> CartanSpec:
    """A classical dual type written as family letter plus rank, e.g. C3."""
    family, rank = name[:1].upper(), name[1:]
    if not (family and family in "ABCD" and rank.isdecimal()):
        raise ValidationError(f"type {name!r} is not a classical type such as A2, B2, C3 or D4")
    try:
        return CartanSpec(family, int(rank))
    except ValidationError as err:
        raise ValidationError(f"type {name!r}: {err}") from None


def survey(spec: CartanSpec) -> bool:
    print(f"-- dual type {spec} --")
    # distinct partitions are distinct orbits, whose sl2 data differ
    rows = {
        sl2_from_partition(spec.family, spec.rank, parts): (parts, Counter())
        for parts in valid_partitions(spec.family, spec.rank)
    }
    for psi in iter_dichotomy_parameters(spec):
        rows[psi.sl2][1][classify_packet(psi).kind] += 1
    clean = True
    for parts, counts in rows.values():
        tempered = counts[VerdictKind.TEMPERED]
        nontempered = counts[VerdictKind.NON_TEMPERED]
        trivial = all(m == 1 for m in parts)
        mixed = tempered and nontempered
        expected_kind = tempered if trivial else nontempered
        ok = not mixed and expected_kind > 0
        clean &= ok
        tag = "ok " if ok else "BAD"
        print(
            f"  {tag} partition {list(parts)}: "
            f"{tempered} tempered, {nontempered} non-tempered"
        )
    return clean


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--types",
        nargs="*",
        default=[f"{s.family}{s.rank}" for s in DICHOTOMY_SPECS],
        help="dual types to sweep, e.g. A2 B2 C3 D4",
    )
    args = parser.parse_args()
    if not args.types:
        print("error: --types needs at least one type name", file=sys.stderr)
        return 1
    try:
        specs = [parse_type(name) for name in args.types]
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    clean = True
    for spec in specs:
        clean &= survey(spec)
    if not clean:
        print("dichotomy violated in at least one row", file=sys.stderr)
        return 1
    print("dichotomy holds on every surveyed row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
