"""Graded nilradical data and exact local L-factors.

L(s) = prod_i (1 - lambda_i * q^{-s})^{-1} over the Frobenius eigenvalues
lambda_i on the nilradical root spaces. With q formal, the i-th inverse
factor vanishes at s exactly when lambda_i = q^s with trivial unit part.

Orientation convention, pinned by the rank-1 reducibility point and by
tempered holomorphy rather than chosen freely: the denominator-side factor
("r-tilde", tested at s = 1) uses the direct evaluations of the parameter on
positive nilradical roots; the numerator side ("r", tested at s = 0) uses
their reciprocals. The opposite assignment fails both pinning checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, ValidationError
from .roots import LeviSubset, Root, RootDatum, levi_and_nilradical
from .parameters import QMonomial, UnramifiedParameter, evaluate_root

ORIENTATIONS = ("r", "r-tilde")


@dataclass(frozen=True)
class GradedNilradical:
    """Nilradical roots bucketed by level = coefficient sum outside the Levi."""

    datum: RootDatum
    levi: LeviSubset
    levels: tuple[tuple[int, tuple[Root, ...]], ...]

    @property
    def all_roots(self) -> tuple[Root, ...]:
        return tuple(root for _, roots in self.levels for root in roots)

    @property
    def dimension(self) -> int:
        return len(self.all_roots)


@dataclass(frozen=True)
class LocalLFactor:
    """Eigenvalue multiset with its orientation tag; roots kept aligned for
    witness naming."""

    orientation: str
    roots: tuple[Root, ...]
    eigenvalues: tuple[QMonomial, ...]

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(f"unknown orientation {self.orientation!r}")
        if len(self.roots) != len(self.eigenvalues):
            raise ValidationError("roots and eigenvalues are misaligned")


def grade_nilradical(d: RootDatum, theta: LeviSubset) -> GradedNilradical:
    """Bucket the nilradical of the Levi by total coefficient on simple roots
    outside theta; levels start at 1 (empty when theta is everything)."""
    theta = frozenset(theta)
    _, nilradical = levi_and_nilradical(d, theta)
    buckets: dict[int, list[Root]] = {}
    for root in nilradical:
        level = sum(c for i, c in enumerate(root) if i not in theta)
        buckets.setdefault(level, []).append(root)
    # positive_roots is in root_sort_key order, so each bucket is too
    levels = tuple((level, tuple(buckets[level])) for level in sorted(buckets))
    if levels and levels[0][0] < 1:
        raise InvariantViolation("nilradical level below 1")
    return GradedNilradical(d, theta, levels)


def l_factor(g: GradedNilradical, p: UnramifiedParameter, orientation: str) -> LocalLFactor:
    if p.datum != g.datum:
        raise ValidationError("parameter and grading live on different data")
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"unknown orientation {orientation!r}")
    roots = g.all_roots
    values = []
    for root in roots:
        value = evaluate_root(root, p)
        values.append(value if orientation == "r-tilde" else value.inverse())
    return LocalLFactor(orientation, roots, tuple(values))


def inverse_vanishes_at(L: LocalLFactor, s) -> tuple[bool, tuple[int, ...]]:
    """Whether prod (1 - lambda_i q^{-s}) = 0, with every witnessing index."""
    s = Fraction(s)
    witnesses = tuple(
        i for i, value in enumerate(L.eigenvalues) if value.is_q_power(s)
    )
    return bool(witnesses), witnesses


def pole_locations(L: LocalLFactor) -> tuple[Fraction, ...]:
    """Real poles of L: the exponents of eigenvalues with trivial unit part,
    sorted with multiplicity."""
    return tuple(
        sorted(value.q_exp for value in L.eigenvalues if value.angle == 0)
    )


@dataclass(frozen=True)
class CoefficientRatio:
    """Zero/nonzero class of the normalized coefficient ratio
    L(0, numerator) / L(1, denominator) over its grading; only the class is
    exposed. It is also the irreducibility verdict: the standard module is
    irreducible iff the denominator inverse has no zero at s = 1."""

    grading: GradedNilradical
    numerator: LocalLFactor
    denominator: LocalLFactor
    witnesses: tuple[int, ...]  # denominator indices vanishing at s = 1

    @property
    def vanishes(self) -> bool:
        return bool(self.witnesses)

    @property
    def irreducible(self) -> bool:
        return not self.witnesses

    @property
    def witness_roots(self) -> tuple[Root, ...]:
        return tuple(self.denominator.roots[i] for i in self.witnesses)


def local_coefficient_ratio(d: RootDatum, theta: LeviSubset, p: UnramifiedParameter) -> CoefficientRatio:
    """Classify the coefficient ratio on a standard-module parameter.

    Requires the exponent part of p to be strictly positive on every
    nilradical root. The numerator nonvanishing at s = 0 is asserted, not
    assumed: its failure raises an invariant violation instead of being
    absorbed into the verdict.
    """
    g = grade_nilradical(d, theta)
    # the denominator's eigenvalues carry the exponent part on each root
    denominator = l_factor(g, p, "r-tilde")
    for root, value in zip(denominator.roots, denominator.eigenvalues):
        if value.q_exp <= 0:
            raise ValidationError(
                "exponent part is not strictly positive on the nilradical "
                f"(root {root} gives {value.q_exp})",
                field="parameter",
            )
    # the numerator's eigenvalues are the reciprocals of the same evaluations
    numerator = LocalLFactor(
        "r", denominator.roots, tuple(value.inverse() for value in denominator.eigenvalues)
    )
    vanished, bad = inverse_vanishes_at(numerator, 0)
    if vanished:
        raise InvariantViolation(
            f"numerator inverse vanished at s=0 on factors {bad}; "
            "the dominance precondition should forbid this"
        )
    _, witnesses = inverse_vanishes_at(denominator, 1)
    return CoefficientRatio(g, numerator, denominator, witnesses)
