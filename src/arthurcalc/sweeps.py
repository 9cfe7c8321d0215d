"""Deterministic enumeration of parameter families for exhaustive sweeps.

Everything here yields in a fixed order (partitions in reverse
lexicographic order, unit grids in row-major product order) so sweep
results and reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .errors import ValidationError
from .nilpotent import PAIRED_PARITY, partition_total, sl2_from_partition
from .parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    make_arthur_parameter,
)
from .roots import CartanSpec, RationalVector, RootDatum, build_root_datum

# Fourth roots of unity, as angles in [0, 1).
MU4_ANGLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(3, 4),
)

# Strictly positive half-integral twist entries for the holomorphy sweep.
TWIST_VALUES: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(3, 2))

# Types of the parameter-side (dual) datum covered by the dichotomy sweep.
DICHOTOMY_SPECS: tuple[CartanSpec, ...] = (
    CartanSpec("A", 1),
    CartanSpec("A", 2),
    CartanSpec("A", 3),
    CartanSpec("A", 4),
    CartanSpec("C", 2),
    CartanSpec("B", 2),
    CartanSpec("C", 3),
    CartanSpec("D", 4),
)


def valid_partitions(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Partitions labelling nilpotent orbits of the given classical type, in
    reverse lexicographic order: a part of the parity the family allows only
    in even multiplicity (`PAIRED_PARITY`) is taken in pairs."""
    CartanSpec(family, rank)
    paired_parity = PAIRED_PARITY.get(family)

    def below(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
        for part in range(min(total, max_part), 0, -1):
            copies = 2 if part % 2 == paired_parity else 1
            if copies * part <= total:
                for rest in below(total - copies * part, part):
                    yield (part,) * copies + rest

    total = partition_total(family, rank)
    return tuple(below(total, total))


def unit_grid(rank: int, angles: tuple[Fraction, ...] = MU4_ANGLES) -> Iterator[tuple[Fraction, ...]]:
    """Cartesian grid of unit angles, one per simple root of the datum."""
    yield from itertools.product(angles, repeat=rank)


def unit_parameter(datum: RootDatum, angles: tuple[Fraction, ...]) -> UnramifiedParameter:
    return UnramifiedParameter(datum, tuple(QMonomial.unit(a) for a in angles))


def iter_dichotomy_parameters(
    spec: CartanSpec, angles: tuple[Fraction, ...] = MU4_ANGLES
) -> Iterator[ArthurParameter]:
    """Every (partition, unit tuple) combination over the grid whose unit
    part centralizes the sl2 component; the rest are silently skipped, since
    they are not Arthur parameters at all."""
    datum = build_root_datum(spec)
    for parts in valid_partitions(spec.family, spec.rank):
        sl2 = sl2_from_partition(spec.family, spec.rank, parts)
        for grid_point in unit_grid(spec.rank, angles):
            phi = unit_parameter(datum, grid_point)
            try:
                psi = make_arthur_parameter(phi, sl2)
            except ValidationError:
                continue
            yield psi


def strictly_dominant_twists(
    rank: int, values: tuple[Fraction, ...] = TWIST_VALUES
) -> Iterator[RationalVector]:
    """Evaluation-exponent vectors with every entry strictly positive."""
    if any(v <= 0 for v in values):
        raise ValidationError("twist entries must be strictly positive")
    yield from itertools.product(values, repeat=rank)
