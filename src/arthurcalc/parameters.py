"""Unramified parameters as exact Frobenius eigen-data.

A parameter is taken modulo center, one coordinate per simple root of the
dual-side datum. The residue cardinality q stays a formal symbol: a factor
1 - zeta * q^(a-s) with real s and real q > 1 vanishes iff zeta = 1 and
a = s, so every verdict below is uniform in q.

A parameter is one frozen record of its datum and its integer form: every
coordinate over one denominator D, the exact lcm of their denominators,
with the angle numerators reduced mod D. The form is canonical, so
equality and hash go by (datum, form). A parameter built by hand computes
its form from the coordinates it is given and keeps only the form, as one
the package builds (`_recorded`: the unit parameter, the Langlands
parameter, a Weyl image and recovered units) does. Its coordinates
(`coords`) are built on first read. So no evaluation, Weyl walk or
verdict builds a QMonomial or a Fraction for a coordinate.

`monomials_over(D, pairs)` is the one way integer pairs become values:
the coordinates of every parameter and the eigenvalues of an L-factor
(`lfactors.LocalLFactor.eigenvalues`) both come from it, with one
Fraction per distinct numerator and one QMonomial per distinct pair. The
other QMonomials are the certificate's (`evaluate_root`) and those given
to the constructor (`recompose_parameter`).

`unit_parameter` is the one construction of a unit parameter: it reads
the form off the angles alone. `eigenvalue_pairs` evaluates the exponent
and angle numerators on all positive roots at once with
`roots.root_values` and reads them off at given root positions.
`ArthurParameter`'s centralizer check, `centralizer_failure`, like the
witness search (`unit_is_trivial_on`), tests the angle numerators of the
few support roots mod D and builds nothing, so the sweep skips a failing
point without a message, and a refusal names the failing value from that
numerator. `evaluate_root` builds one QMonomial, for a certificate.

The Langlands parameter is a fact of the Arthur parameter, computed once:
`ArthurParameter.langlands_parameter` is a `roots.cached_attribute`, which
the function `langlands_parameter(psi)` returns. Its form is the tempered
part's with half the diagram added. `apply_word_parameter` reflects the
numerators as lists of ints and records its image over the same D;
`recover_arthur_data` walks the exponent numerators without `dominantize`,
reflects only the angle numerators and records the units over
D / gcd(D, *angles).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import ValidationError
from .nilpotent import SL2Data, validate_sl2_data
from .roots import (
    LeviSubset,
    RationalVector,
    Root,
    RootDatum,
    _dominant_walk,
    _rational,
    _reflect,
    cached_attribute,
    format_root,
    over_common_denominator,
    root_values,
    validate_word,
)


@dataclass(frozen=True)
class QMonomial:
    """Exact value zeta * q^q_exp with zeta = exp(2*pi*i*angle).

    `QMonomial()` is 1, `QMonomial(e)` is q^e and `QMonomial(angle=a)` is
    zeta(a). Both fields are exact rationals: a Fraction, or an int (not a
    bool) that is converted; anything else is refused. The angle lies in
    [0,1): one already there is kept as given, any other is reduced mod 1.
    """

    q_exp: Fraction = Fraction(0)
    angle: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.q_exp) is not Fraction:
            object.__setattr__(self, "q_exp", Fraction(_rational(self.q_exp, "q_exp")))
        angle = self.angle
        if type(angle) is not Fraction:
            object.__setattr__(self, "angle", Fraction(_rational(angle, "angle")) % 1)
        elif not 0 <= angle.numerator < angle.denominator:
            object.__setattr__(self, "angle", angle % 1)

    def is_q_power(self, s) -> bool:
        """True iff the value equals q^s on the nose (unit part trivial)."""
        return self.angle == 0 and self.q_exp == s

    def __str__(self) -> str:
        pieces = []
        if self.angle != 0:
            pieces.append(f"zeta({self.angle})")
        if self.q_exp == 1:
            pieces.append("q")
        elif self.q_exp != 0:
            pieces.append(f"q^({self.q_exp})")
        return "*".join(pieces) if pieces else "1"


def monomials_over(D: int, pairs) -> tuple[QMonomial, ...]:
    """QMonomial(e / D, a / D) for each integer pair (e, a) of `pairs`,
    with 0 <= a < D: one Fraction per distinct numerator and one QMonomial
    per distinct pair, so equal values are one object."""
    fractions: dict[int, Fraction] = {}
    monomials: dict[tuple[int, int], QMonomial] = {}
    values = []
    for pair in pairs:
        value = monomials.get(pair)
        if value is None:
            for n in pair:
                if n not in fractions:
                    fractions[n] = Fraction(n, D)
            e, a = pair
            value = monomials[pair] = QMonomial(fractions[e], fractions[a])
        values.append(value)
    return tuple(values)


@dataclass(frozen=True, init=False, repr=False)
class UnramifiedParameter:
    """Satake eigen-data: coordinate i is the i-th simple-root evaluation of
    the Frobenius image, taken modulo center.

    A parameter is its datum and its `integer_form`, (D, exponent
    numerators, angle numerators): every coordinate over D, the lcm of all
    their denominators, so coordinate i is
    zeta(angles[i] / D) * q^(exponents[i] / D), with 0 <= angles[i] < D.
    These two fields are its one state: one built by hand keeps only the
    form of the coordinates it is given, and one the package builds
    (`_recorded`) is given its form. `coords`, one QMonomial per simple
    root, is a view of the form built on first read. The form is
    canonical, so equal forms mean equal coordinates. A frozen record: a
    copy or an unpickled parameter is recorded again from its form."""

    datum: RootDatum
    integer_form: tuple[int, tuple[int, ...], tuple[int, ...]]

    def __init__(self, datum: RootDatum, coords):
        if not isinstance(datum, RootDatum):
            raise ValidationError(f"expected a RootDatum, got {datum!r}", field="datum")
        if not isinstance(coords, (tuple, list)):
            raise ValidationError(f"expected a tuple of QMonomials, got {coords!r}", field="coords")
        for i, t in enumerate(coords):
            if not isinstance(t, QMonomial):
                raise ValidationError(f"expected a QMonomial, got {t!r}", field=f"coords[{i + 1}]")
        if len(coords) != datum.rank:
            raise ValidationError(f"expected {datum.rank} coordinates, got {len(coords)}")
        n = len(coords)
        D, nums = over_common_denominator([t.q_exp for t in coords] + [t.angle for t in coords])
        self.__dict__.update(datum=datum, integer_form=(D, nums[:n], nums[n:]))

    @cached_attribute
    def coords(self) -> tuple[QMonomial, ...]:
        """One QMonomial per simple root, built on first read from the
        integer form by `monomials_over`."""
        D, exponents, angles = self.integer_form
        return monomials_over(D, zip(exponents, angles))

    def unit_is_trivial_on(self, root: Root) -> bool:
        """Whether the unit part of the eigenvalue on the root is 1: D divides
        the root's angle numerator."""
        D, _, angles = self.integer_form
        return not sum(map(mul, root, angles)) % D

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(datum={self.datum!r}, coords={self.coords!r})"

    def __reduce__(self):
        return _recorded, (self.datum, *self.integer_form)


def _recorded(datum: RootDatum, D: int, exponents, angles) -> UnramifiedParameter:
    """The parameter with the integer form (D, exponents, angles), built
    without coordinates. The caller guarantees that the form is canonical:
    D the exact lcm of the coordinates' denominators, angles reduced mod D."""
    p = object.__new__(UnramifiedParameter)
    p.__dict__.update(datum=datum, integer_form=(D, tuple(exponents), tuple(angles)))
    return p


def unit_parameter(datum: RootDatum, angles) -> UnramifiedParameter:
    """The unit parameter with the given angles: coordinate i is
    zeta(angles[i]). Refused with a ValidationError: a datum that is not a
    RootDatum (field `datum`), a number of angles other than the rank, and
    an angle that is not an int or a Fraction (field `angle`).

    The integer form is read off the angles, with zero exponents: reducing
    an angle mod 1 keeps its denominator, so D is the lcm of theirs and the
    numerators are reduced mod D."""
    if not isinstance(datum, RootDatum):
        raise ValidationError(f"expected a RootDatum, got {datum!r}", field="datum")
    angles = tuple(angles)
    if len(angles) != datum.rank:
        raise ValidationError(f"expected {datum.rank} coordinates, got {len(angles)}")
    for a in angles:
        if type(a) is not Fraction:
            _rational(a, "angle")
    D, nums = over_common_denominator(angles)
    return _recorded(datum, D, (0,) * len(nums), [n % D for n in nums])


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


def recompose_parameter(units: UnramifiedParameter, exponents: RationalVector) -> UnramifiedParameter:
    if len(exponents) != units.datum.rank:
        raise ValidationError("exponent vector length does not match rank")
    coords = tuple([
        QMonomial(t.q_exp + _rational(e, "exponents"), t.angle)
        for t, e in zip(units.coords, exponents)
    ])
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
        if not isinstance(self.tempered_part, UnramifiedParameter):
            raise ValidationError(
                f"expected an UnramifiedParameter, got {self.tempered_part!r}", field="parameter"
            )
        D, exponents, _ = self.tempered_part.integer_form
        if any(exponents):
            bad = next(i for i, n in enumerate(exponents) if n)
            raise ValidationError(
                f"coordinate {bad + 1} has nonzero exponent; the bounded part "
                "must be tempered",
                field="parameter",
            )
        validate_sl2_data(self.tempered_part.datum, self.sl2)
        failure = centralizer_failure(self.tempered_part, self.sl2)
        if failure is not None:
            # the exponents are zero, so the evaluation is zeta(n / D) with
            # 0 < n < D: reduced by g, its denominator is never 1
            root, n = failure
            g = gcd(n, D)
            raise ValidationError(
                f"centralizer condition fails at {format_root(root)}: "
                f"evaluation zeta({n // g}/{D // g}) is not 1",
                field="parameter",
            )

    @property
    def datum(self) -> RootDatum:
        return self.tempered_part.datum

    @cached_attribute
    def langlands_parameter(self) -> UnramifiedParameter:
        """Evaluate the sl2 factor at the half-weight torus element:
        coordinate i picks up q^(d_i/2) where d_i is the diagram value. The
        tempered part has zero exponents, so coordinate i is q^(d_i/2) with
        the unit's angle. Computed once per Arthur parameter.

        The integer form is the tempered part's, with the diagram added:
        over D when every diagram value is even, over lcm(D, 2) when one is
        odd, which is the lcm of all the coordinates' denominators either
        way."""
        diagram = self.sl2.diagram
        D, _, angles = self.tempered_part.integer_form
        if 1 in diagram and D % 2:
            D, angles = 2 * D, [2 * a for a in angles]
        # d * D is even for d in 0/1/2 over this D
        return _recorded(self.datum, D, [d * D // 2 for d in diagram], angles)


def centralizer_failure(phi: UnramifiedParameter, sl2: SL2Data) -> tuple[Root, int] | None:
    """The first support root of `sl2` on which the unit part of `phi` is
    not 1, with its angle numerator n mod D (the unit part there is
    zeta(n / D)), or None if the unit part centralizes the sl2 image. For
    sl2 data valid on phi's datum; it tests angle numerators mod D, as
    `unit_is_trivial_on` does, and builds nothing, so a caller that only
    skips a failing point (`sweeps.iter_dichotomy_parameters`) pays for no
    message."""
    D, _, angles = phi.integer_form
    for root in sl2.support:
        n = sum(map(mul, root, angles)) % D
        if n:
            return root, n
    return None


def make_arthur_parameter(phi: UnramifiedParameter, rho: SL2Data) -> ArthurParameter:
    return ArthurParameter(phi, rho)


def langlands_parameter(psi: ArthurParameter) -> UnramifiedParameter:
    """The Langlands parameter of `psi`: `psi.langlands_parameter`, built on
    the first call and shared by every later one."""
    return psi.langlands_parameter


def apply_word_parameter(p: UnramifiedParameter, word: tuple[int, ...]) -> UnramifiedParameter:
    """Weyl action on torus eigen-data: s_i sends t_j to t_j * t_i^(-cartan[j][i]),
    so `roots._reflect` reflects the exponent and the angle numerators of
    the integer form alike, as lists of ints. The image is recorded over
    the unchanged D: a word acts by an integer matrix with an integer
    inverse, so the lcm of the denominators does not move."""
    d = p.datum
    validate_word(d, word)
    columns = d.reflection_columns
    D, exponents, angles = p.integer_form
    exponents, angles = list(exponents), list(angles)
    for i in word:
        _reflect(columns, i, exponents)
        _reflect(columns, i, angles)
    return _recorded(d, D, exponents, [a % D for a in angles])


def recover_arthur_data(p: UnramifiedParameter) -> tuple[UnramifiedParameter, tuple[int, ...]]:
    """Invert the Arthur evaluation: dominantize the exponents, double them
    into a diagram candidate, and return the unit part of the parameter
    conjugated by the same word. The checks read the integer form over D:
    an exponent n / D is half-integral iff D divides 2n, and the diagram
    entry of a dominant numerator n over the same D is 2 * n // D. Rejects
    parameters that are not of Arthur shape."""
    D, exponents, angles = p.integer_form
    for i, n in enumerate(exponents):
        if 2 * n % D:
            raise ValidationError(
                f"exponent {Fraction(n, D)} at coordinate {i + 1} is not half-integral; "
                "not of Arthur type",
                field="parameter",
            )
    dominant, word = _dominant_walk(p.datum, exponents)
    diagram = []
    for i, n in enumerate(dominant):
        d = 2 * n // D
        if d not in (0, 1, 2):
            raise ValidationError(
                f"doubled dominant exponent {d} at coordinate {i + 1} is outside "
                "0/1/2; not of Arthur type",
                field="parameter",
            )
        diagram.append(d)
    columns = p.datum.reflection_columns
    angles = list(angles)
    for i in word:
        _reflect(columns, i, angles)
    # the units over D / g, g = gcd(D, *angles): the exact lcm of the
    # reduced angles' denominators (1 when every angle is 0)
    angles = [a % D for a in angles]
    g = gcd(D, *angles)
    units = _recorded(p.datum, D // g, (0,) * len(angles), [a // g for a in angles])
    return units, tuple(diagram)
