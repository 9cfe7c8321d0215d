"""Deterministic enumeration of parameter families for exhaustive sweeps.

Everything here yields in a fixed order (partitions in reverse
lexicographic order, unit grids in row-major product order) so sweep
results and reports are reproducible byte for byte. The one sweep is the
dichotomy sweep, `iter_dichotomy_parameters`: every partition of a dual
type against the grid of fourth roots of unity, which
`scripts/survey_dichotomy.py` tabulates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .nilpotent import PAIRED_PARITY, partition_total, sl2_from_partition
from .parameters import (
    ArthurParameter,
    centralizer_failure,
    make_arthur_parameter,
    unit_parameter,
)
from .roots import CartanSpec, build_root_datum

# Fourth roots of unity, as angles in [0, 1).
MU4_ANGLES: tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(1, 4),
    Fraction(3, 4),
)

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


def iter_dichotomy_parameters(spec: CartanSpec) -> Iterator[ArthurParameter]:
    """Every (partition, unit tuple) combination over the mu_4 grid whose
    unit part centralizes the sl2 component, partition by partition in
    `valid_partitions` order; the rest are silently skipped, since they are
    not Arthur parameters at all, and build no error message."""
    datum = build_root_datum(spec)
    for parts in valid_partitions(spec.family, spec.rank):
        sl2 = sl2_from_partition(spec.family, spec.rank, parts)
        for grid_point in unit_grid(spec.rank):
            phi = unit_parameter(datum, grid_point)
            if centralizer_failure(phi, sl2) is None:
                yield make_arthur_parameter(phi, sl2)
