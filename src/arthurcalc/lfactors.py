"""Graded nilradical data and exact local L-factors.

L(s) = prod_i (1 - lambda_i * q^{-s})^{-1} over the Frobenius eigenvalues
lambda_i on the nilradical root spaces. With q formal, the i-th inverse
factor vanishes at s exactly when lambda_i = q^s with trivial unit part.

Orientation convention, pinned by the rank-1 reducibility point and by
tempered holomorphy rather than chosen freely: the denominator-side factor
("r-tilde", tested at s = 1) uses the direct evaluations of the parameter on
positive nilradical roots; the numerator side ("r", tested at s = 0) uses
their reciprocals. The opposite assignment fails both pinning checks.

Representation: a factor keeps its eigenvalues as integer pairs over one
denominator D, the lcm of the parameter's denominators. The pair (qn, an)
with 0 <= an < D is zeta(an / D) * q^(qn / D); the reciprocal is
(-qn, -an mod D). Vanishing, poles and the per-level order are decided on
the integers: over one D, pairs sort exactly like (q_exp, angle). The
eigenvalues as QMonomials are built only for a report or on request, by
`parameters.monomials_over`; `eigenvalues_by_level` and `pole_locations`
pick their values out of that one tuple.

The grading levels and the pairs come from `roots.root_values`, which
evaluates an integer vector on every positive root with one addition per
root (each root is its parent plus a simple root), so no nilradical root is
evaluated by a dot product. The grading keeps each root's position in
`positive_roots`, where the pairs are read off, so each root is looked up
once per grading.

The grading is a fact of the (datum, Levi) pair, like the datum's
`positive_roots`: `grade_nilradical` validates the Levi on every call and
then builds each grading once, keeping at most `MAX_GRADINGS` of them (the
least recently used is dropped first), so a loop over all Levis of a datum
holds a bounded amount of memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ValidationError
from .roots import (
    LeviSubset,
    Root,
    RootDatum,
    cached_attribute,
    off_levi_indicator,
    root_positions,
    root_values,
    validate_levi,
)
from .parameters import QMonomial, UnramifiedParameter, eigenvalue_pairs, monomials_over

ORIENTATIONS = ("r", "r-tilde")

# Largest number of gradings kept. A grading holds at most the 576
# positive roots of C24, about 25 KB, so the cache stays under 7 MB.
MAX_GRADINGS = 256


@dataclass(frozen=True)
class GradedNilradical:
    """Nilradical roots bucketed by level = coefficient sum outside the Levi."""

    datum: RootDatum
    levi: LeviSubset
    levels: tuple[tuple[int, tuple[Root, ...]], ...]

    @cached_attribute
    def all_roots(self) -> tuple[Root, ...]:
        return tuple([root for _, roots in self.levels for root in roots])

    @cached_attribute
    def positions(self) -> tuple[int, ...]:
        """Position of each root of `all_roots` in the datum's
        `positive_roots`, looked up on first read, so once per grading; a
        root that is not a positive root of the datum is refused."""
        return tuple(root_positions(self.datum, self.all_roots))


@dataclass(frozen=True)
class LocalLFactor:
    """Eigenvalue multiset with its orientation tag, as integer pairs over one
    denominator D: the pair (qn, an), 0 <= an < D, is the eigenvalue
    zeta(an / D) * q^(qn / D). Roots are kept aligned for witness naming."""

    orientation: str
    roots: tuple[Root, ...]
    D: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise ValidationError(f"unknown orientation {self.orientation!r}")
        if len(self.roots) != len(self.pairs):
            raise ValidationError("roots and eigenvalues are misaligned")

    @cached_attribute
    def eigenvalues(self) -> tuple[QMonomial, ...]:
        """The pairs as QMonomials, built on first use, one per distinct
        pair."""
        return monomials_over(self.D, self.pairs)


def grade_nilradical(d: RootDatum, theta: LeviSubset) -> GradedNilradical:
    """Bucket the nilradical of the Levi by total coefficient on simple roots
    outside theta; levels start at 1 (empty when theta is everything). The
    Levi is validated first; the grading itself is built once per (datum,
    Levi) and shared, since it is immutable."""
    return _graded(d, validate_levi(d, theta))


@lru_cache(maxsize=MAX_GRADINGS)
def _graded(d: RootDatum, theta: LeviSubset) -> GradedNilradical:
    """One pass of `root_values` gives every positive root its level, and
    the Levi roots are the ones at level 0."""
    levels = root_values(d, off_levi_indicator(d, theta))
    buckets: dict[int, list[int]] = {level: [] for level in sorted(set(levels) - {0})}
    for k, level in enumerate(levels):
        if level:
            buckets[level].append(k)
    # positive_roots is in canonical root order, so each bucket is too
    roots = d.positive_roots
    return GradedNilradical(d, theta, tuple([
        (level, tuple([roots[k] for k in ks])) for level, ks in buckets.items()
    ]))


def l_factor(g: GradedNilradical, p: UnramifiedParameter, orientation: str) -> LocalLFactor:
    if p.datum != g.datum:
        raise ValidationError("parameter and grading live on different data")
    D = p.integer_form[0]
    pairs = eigenvalue_pairs(g.positions, p)
    if orientation == "r":
        pairs = _reciprocals(pairs, D)
    return LocalLFactor(orientation, g.all_roots, D, pairs)


def _reciprocals(pairs, D: int) -> tuple[tuple[int, int], ...]:
    return tuple([(-qn, -an % D) for qn, an in pairs])


def inverse_vanishes_at(L: LocalLFactor, s) -> tuple[bool, tuple[int, ...]]:
    """Whether prod (1 - lambda_i q^{-s}) = 0, with every witnessing index:
    lambda_i = q^s exactly when its unit part is trivial and qn / D = s."""
    s = Fraction(s)
    target, scale = s.numerator * L.D, s.denominator
    witnesses = tuple(
        [i for i, (qn, an) in enumerate(L.pairs) if an == 0 and qn * scale == target]
    )
    return bool(witnesses), witnesses


def pole_locations(L: LocalLFactor) -> tuple[Fraction, ...]:
    """Real poles of L: the exponents of eigenvalues with trivial unit part,
    sorted with multiplicity."""
    pairs, eigenvalues = L.pairs, L.eigenvalues
    real = sorted([i for i, (_, an) in enumerate(pairs) if an == 0], key=pairs.__getitem__)
    return tuple([eigenvalues[i].q_exp for i in real])


def eigenvalues_by_level(g: GradedNilradical, L: LocalLFactor) -> tuple[tuple[QMonomial, ...], ...]:
    """The factor's eigenvalues split by the grading's levels, each level in
    (q_exp, angle) order; over one D the pairs sort the same way. Each
    value is picked out of `L.eigenvalues` by its sorted position."""
    if L.roots != g.all_roots:
        raise ValidationError("factor and grading are misaligned")
    pairs, eigenvalues = L.pairs, L.eigenvalues
    levels, start = [], 0
    for _, roots in g.levels:
        stop = start + len(roots)
        block = sorted(range(start, stop), key=pairs.__getitem__)
        levels.append(tuple([eigenvalues[i] for i in block]))
        start = stop
    return tuple(levels)


@dataclass(frozen=True)
class CoefficientRatio:
    """Zero/nonzero class of the normalized coefficient ratio
    L(0, numerator) / L(1, denominator) over its grading; only the class is
    exposed. It is also the irreducibility verdict: the standard module is
    irreducible iff the denominator inverse has no zero at s = 1."""

    grading: GradedNilradical
    denominator: LocalLFactor
    witnesses: tuple[int, ...]  # denominator indices vanishing at s = 1

    @property
    def numerator(self) -> LocalLFactor:
        """The numerator factor, built on read: the denominator's
        eigenvalues inverted, with exponents below 0, so its inverse cannot
        vanish at s = 0."""
        denominator = self.denominator
        return LocalLFactor(
            "r", denominator.roots, denominator.D, _reciprocals(denominator.pairs, denominator.D)
        )

    @property
    def vanishes(self) -> bool:
        return bool(self.witnesses)

    @property
    def irreducible(self) -> bool:
        return not self.witnesses

    @property
    def witness_roots(self) -> tuple[Root, ...]:
        return tuple([self.denominator.roots[i] for i in self.witnesses])


def local_coefficient_ratio(d: RootDatum, theta: LeviSubset, p: UnramifiedParameter) -> CoefficientRatio:
    """Classify the coefficient ratio on a standard-module parameter.

    Requires the exponent part of p to be strictly positive on every
    nilradical root and refuses it otherwise. Only the denominator is
    built; the numerator's eigenvalues are its reciprocals, built on read.
    """
    g = grade_nilradical(d, theta)
    # the denominator's eigenvalues carry the exponent part on each root
    denominator = l_factor(g, p, "r-tilde")
    for root, (qn, _) in zip(denominator.roots, denominator.pairs):
        if qn <= 0:
            raise ValidationError(
                "exponent part is not strictly positive on the nilradical "
                f"(root {root} gives {Fraction(qn, denominator.D)})",
                field="parameter",
            )
    _, witnesses = inverse_vanishes_at(denominator, 1)
    return CoefficientRatio(g, denominator, witnesses)
