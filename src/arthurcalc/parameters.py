"""Unramified parameters as exact Frobenius eigen-data.

A parameter is stored modulo center as one QMonomial per simple root of the
dual-side datum. The residue cardinality q stays a formal symbol: a factor
1 - zeta * q^(a-s) with real s and real q > 1 vanishes iff zeta = 1 and
a = s, so every verdict below is uniform in q.

Evaluation on roots works over the parameter's integer form: every
coordinate over one denominator D. `eigenvalue_pairs` evaluates the
exponent and angle numerators on all positive roots at once with
`roots.root_values` and reads them off at given root positions; the
centralizer check and the witness search test the angle numerators of the
few support roots mod D (`unit_is_trivial_on`); `evaluate_root` builds one
QMonomial, for a certificate or an error message.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import ValidationError
from .nilpotent import SL2Data, validate_sl2_data
from .roots import (
    LeviSubset,
    RationalVector,
    Root,
    RootDatum,
    dominantize,
    format_root,
    over_common_denominator,
    root_values,
    validate_word,
)


@dataclass(frozen=True)
class QMonomial:
    """Exact value zeta * q^q_exp with zeta = exp(2*pi*i*angle).

    The angle is a rational in [0,1); Fraction keeps it in lowest terms.
    Fields that are already a Fraction, and an angle already in [0,1), are
    kept as given; anything else is converted and reduced mod 1.
    """

    q_exp: Fraction = Fraction(0)
    angle: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.q_exp) is not Fraction:
            object.__setattr__(self, "q_exp", Fraction(self.q_exp))
        angle = self.angle
        if type(angle) is not Fraction or not 0 <= angle.numerator < angle.denominator:
            object.__setattr__(self, "angle", Fraction(angle) % 1)

    @staticmethod
    def one() -> "QMonomial":
        return QMonomial()

    @staticmethod
    def q(exp=1) -> "QMonomial":
        return QMonomial(q_exp=Fraction(exp))

    @staticmethod
    def unit(angle) -> "QMonomial":
        return QMonomial(angle=Fraction(angle))

    def __mul__(self, other: "QMonomial") -> "QMonomial":
        return QMonomial(self.q_exp + other.q_exp, self.angle + other.angle)

    def __pow__(self, n: int) -> "QMonomial":
        return QMonomial(self.q_exp * n, self.angle * n)

    @property
    def is_one(self) -> bool:
        return self.q_exp == 0 and self.angle == 0

    def is_q_power(self, s) -> bool:
        """True iff the value equals q^s on the nose (unit part trivial)."""
        return self.angle == 0 and self.q_exp == s

    def unit_part(self) -> "QMonomial":
        return QMonomial(Fraction(0), self.angle)

    def __str__(self) -> str:
        pieces = []
        if self.angle != 0:
            pieces.append(f"zeta({self.angle})")
        if self.q_exp == 1:
            pieces.append("q")
        elif self.q_exp != 0:
            pieces.append(f"q^({self.q_exp})")
        return "*".join(pieces) if pieces else "1"


@dataclass(frozen=True)
class UnramifiedParameter:
    """Satake eigen-data: coordinate i is the i-th simple-root evaluation of
    the Frobenius image, taken modulo center."""

    datum: RootDatum
    coords: tuple[QMonomial, ...]

    def __post_init__(self):
        if not isinstance(self.datum, RootDatum):
            raise ValidationError(f"expected a RootDatum, got {self.datum!r}", field="datum")
        if not isinstance(self.coords, (tuple, list)):
            raise ValidationError(
                f"expected a tuple of QMonomials, got {self.coords!r}", field="coords"
            )
        for i, t in enumerate(self.coords):
            if not isinstance(t, QMonomial):
                raise ValidationError(f"expected a QMonomial, got {t!r}", field=f"coords[{i + 1}]")
        if len(self.coords) != self.datum.rank:
            raise ValidationError(
                f"expected {self.datum.rank} coordinates, got {len(self.coords)}"
            )

    @cached_property
    def integer_form(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, exponent numerators, angle numerators): every coordinate over
        D, the lcm of all their denominators, so coordinate i is
        zeta(angles[i] / D) * q^(exponents[i] / D)."""
        n = len(self.coords)
        D, nums = over_common_denominator(
            [t.q_exp for t in self.coords] + [t.angle for t in self.coords]
        )
        return D, nums[:n], nums[n:]

    def unit_is_trivial_on(self, root: Root) -> bool:
        """Whether the unit part of the eigenvalue on the root is 1: D divides
        the root's angle numerator."""
        D, _, angles = self.integer_form
        return not sum(map(mul, root, angles)) % D


def trivial_parameter(d: RootDatum) -> UnramifiedParameter:
    return UnramifiedParameter(d, tuple(QMonomial.one() for _ in range(d.rank)))


def eigenvalue_pairs(positions, p: UnramifiedParameter) -> tuple[tuple[int, int], ...]:
    """Eigenvalues of the parameter on the positive roots at `positions` in
    `positive_roots` (as `roots.root_positions` or a grading gives them), as
    integer pairs over D = p.integer_form[0]: the pair (qn, an),
    0 <= an < D, stands for zeta(an / D) * q^(qn / D). The exponent and
    angle numerators are evaluated on every positive root by `root_values`,
    one addition per root each, and read off at the positions."""
    d = p.datum
    D, exponents, angles = p.integer_form
    qns, ans = root_values(d, exponents), root_values(d, angles)
    return tuple([(qns[k], ans[k] % D) for k in positions])


def evaluate_root(root: Root, p: UnramifiedParameter) -> QMonomial:
    """Eigenvalue of the parameter on the root space: the product of the
    coordinates raised to the root's coefficients, as a QMonomial, from two
    dot products over the parameter's integer form. For one root of any
    sign; whole-datum work goes through `eigenvalue_pairs`."""
    if len(root) != p.datum.rank:
        raise ValidationError("root length does not match the parameter's rank")
    D, exponents, angles = p.integer_form
    return QMonomial(
        Fraction(sum(map(mul, root, exponents)), D),
        Fraction(sum(map(mul, root, angles)) % D, D),
    )


def is_tempered(p: UnramifiedParameter) -> bool:
    return all(t.q_exp == 0 for t in p.coords)


def decompose_parameter(p: UnramifiedParameter) -> tuple[UnramifiedParameter, RationalVector]:
    """Split into the bounded (unit) part and the exponent vector; the two
    recompose to the input exactly."""
    units = UnramifiedParameter(p.datum, tuple([t.unit_part() for t in p.coords]))
    return units, tuple([t.q_exp for t in p.coords])


def recompose_parameter(units: UnramifiedParameter, exponents: RationalVector) -> UnramifiedParameter:
    if len(exponents) != units.datum.rank:
        raise ValidationError("exponent vector length does not match rank")
    coords = tuple(
        t * QMonomial.q(e) for t, e in zip(units.coords, exponents)
    )
    return UnramifiedParameter(units.datum, coords)


def defining_levi(exponents: RationalVector, d: RootDatum) -> LeviSubset:
    """Simple indices where the (dominant) exponent vector vanishes."""
    if len(exponents) != d.rank:
        raise ValidationError("exponent vector length does not match rank")
    if any(e < 0 for e in exponents):
        raise ValidationError("exponent vector is not dominant; dominantize first")
    return frozenset(i for i, e in enumerate(exponents) if e == 0)


@dataclass(frozen=True)
class ArthurParameter:
    """Pair of a bounded parameter and commuting sl2 data.

    Validation enforces boundedness and the centralizer condition: the unit
    part must act trivially on every support root, otherwise the sl2 image
    would not centralize it.
    """

    tempered_part: UnramifiedParameter
    sl2: SL2Data

    def __post_init__(self):
        bad = [i for i, t in enumerate(self.tempered_part.coords) if t.q_exp != 0]
        if bad:
            raise ValidationError(
                f"coordinate {bad[0] + 1} has nonzero exponent; the bounded part "
                "must be tempered",
                field="parameter",
            )
        validate_sl2_data(self.tempered_part.datum, self.sl2)
        for root in self.sl2.support:
            # the exponents are zero, so a trivial unit part is the value 1
            if not self.tempered_part.unit_is_trivial_on(root):
                value = evaluate_root(root, self.tempered_part)
                raise ValidationError(
                    f"centralizer condition fails at {format_root(root)}: "
                    f"evaluation {value} is not 1",
                    field="parameter",
                )

    @property
    def datum(self) -> RootDatum:
        return self.tempered_part.datum


def make_arthur_parameter(phi: UnramifiedParameter, rho: SL2Data) -> ArthurParameter:
    return ArthurParameter(phi, rho)


# d / 2 for each diagram value d in 0/1/2
_HALF_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1))


def langlands_parameter(psi: ArthurParameter) -> UnramifiedParameter:
    """Evaluate the sl2 factor at the half-weight torus element: coordinate i
    picks up q^(d_i/2) where d_i is the diagram value. The tempered part has
    zero exponents, so coordinate i is q^(d_i/2) with the unit's angle."""
    coords = tuple([
        QMonomial(_HALF_WEIGHTS[d], t.angle)
        for t, d in zip(psi.tempered_part.coords, psi.sl2.diagram)
    ])
    return UnramifiedParameter(psi.datum, coords)


def apply_word_parameter(p: UnramifiedParameter, word: tuple[int, ...]) -> UnramifiedParameter:
    """Weyl action on torus eigen-data: s_i sends t_j to t_j * t_i^(-cartan[j][i])."""
    validate_word(p.datum, word)
    coords = list(p.coords)
    for i in word:
        ti = coords[i]
        coords = [
            t * (ti ** (-p.datum.cartan[j][i]))
            for j, t in enumerate(coords)
        ]
    return UnramifiedParameter(p.datum, tuple(coords))


def recover_arthur_data(p: UnramifiedParameter) -> tuple[UnramifiedParameter, tuple[int, ...]]:
    """Invert the Arthur evaluation: dominantize the exponents, double them
    into a diagram candidate, and return the unit part conjugated by the
    same word (the action on angles does not depend on the exponents).
    Rejects parameters that are not of Arthur shape."""
    units, exponents = decompose_parameter(p)
    for i, e in enumerate(exponents):
        if (2 * e).denominator != 1:
            raise ValidationError(
                f"exponent {e} at coordinate {i + 1} is not half-integral; "
                "not of Arthur type",
                field="parameter",
            )
    dominant, word = dominantize(p.datum, exponents)
    diagram = []
    for i, e in enumerate(dominant):
        d = 2 * e
        if d not in (0, 1, 2):
            raise ValidationError(
                f"doubled dominant exponent {d} at coordinate {i + 1} is outside "
                "0/1/2; not of Arthur type",
                field="parameter",
            )
        diagram.append(int(d))
    return apply_word_parameter(units, word), tuple(diagram)
