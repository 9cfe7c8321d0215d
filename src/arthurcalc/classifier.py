"""The theorem engine: standard-module data, irreducibility, genericity, and
the temperedness dichotomy with machine-checkable certificates.

`AttachedData.of` derives everything once per Arthur parameter: the Langlands
parameter and its exponents, the Levi, and on first use the coefficient
ratio. The verdict, the witness search, the standard module and the scenario
report all read from that one `AttachedData`. The exponents are half the
weighted diagram, which is dominant, so they already lie in the closed
positive chamber: no Weyl word moves the Langlands parameter, and the Levi
is the zero set of the diagram.

The chain is: a nontrivial sl2 component forces a support root with diagram
pairing 2 outside the defining Levi and with trivial unit evaluation, hence a
denominator eigenvalue exactly q^1 and a vanishing inverse L-value at s = 1;
irreducibility fails, so a packet with a generic member cannot carry a
nontrivial sl2 component. Cross-checks that raise InvariantViolation (a bug,
not a verdict): the witness route vs the full product, the witness
eigenvalue vs q^1, and, in `run_scenario`, denominator vanishing vs verdict.
Word application vs dominantization is checked where a real word is walked,
in `parameters.recover_arthur_data`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import InvariantViolation, ValidationError
from .lfactors import CoefficientRatio, local_coefficient_ratio
from .parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    decompose_parameter,
    defining_levi,
    evaluate_root,
    is_tempered,
    langlands_parameter,
    recompose_parameter,
)
from .roots import (
    LeviSubset,
    RationalVector,
    Root,
    character_exponents as character_exponents_of,
    diagram_pairing,
    evaluation_exponents,
    format_root,
    off_levi_indicator,
    root_sort_key,
)


class VerdictKind(enum.Enum):
    TEMPERED = "Tempered"
    NON_TEMPERED = "NonTempered"


class Genericity(enum.Enum):
    GENERIC = "generic"
    NOT_GENERIC = "not-generic"
    NOT_APPLICABLE = "not-applicable"

    @classmethod
    def of(cls, generic: bool, irreducible: bool) -> "Genericity":
        """The Langlands quotient is generic iff the standard module is
        irreducible, under the assumption that the inducing datum is generic;
        without the assumption the criterion does not apply."""
        if not generic:
            return cls.NOT_APPLICABLE
        return cls.GENERIC if irreducible else cls.NOT_GENERIC


@dataclass(frozen=True)
class TemperedDatum:
    """Packet-level tempered inducing data: the Levi, the unit Satake data,
    and the genericity assumption flag (an input, never computed)."""

    levi: LeviSubset
    unit_parameter: UnramifiedParameter
    generic: bool

    def __post_init__(self):
        if not is_tempered(self.unit_parameter):
            raise ValidationError("tempered datum carries a nonzero exponent")


@dataclass(frozen=True)
class StandardModuleDatum:
    """Langlands-setting data: tempered datum plus a twist.

    The twist is stored in character exponents (coefficients on the simple
    coroot basis); the induced Satake evaluation exponents are the Cartan
    matrix image and must be dominant with the Levi as exact zero set, which
    makes them strictly positive on every nilradical root.
    """

    tempered: TemperedDatum
    character_exponents: RationalVector

    def __post_init__(self):
        object.__setattr__(
            self, "character_exponents", tuple(Fraction(c) for c in self.character_exponents)
        )
        exps = self.evaluation_exponents
        if any(e < 0 for e in exps):
            raise ValidationError("twist exponents are not dominant", field="twist")
        zero_set = frozenset(i for i, e in enumerate(exps) if e == 0)
        if zero_set != self.tempered.levi:
            raise ValidationError(
                "twist must vanish exactly on the Levi "
                f"(zero set {sorted(zero_set)} vs levi {sorted(self.tempered.levi)})",
                field="twist",
            )

    @cached_property
    def evaluation_exponents(self) -> RationalVector:
        return evaluation_exponents(self.datum, self.character_exponents)

    @property
    def datum(self):
        return self.tempered.unit_parameter.datum

    def twisted_parameter(self) -> UnramifiedParameter:
        return recompose_parameter(self.tempered.unit_parameter, self.evaluation_exponents)

    @cached_property
    def coefficient_ratio(self) -> CoefficientRatio:
        return local_coefficient_ratio(self.datum, self.tempered.levi, self.twisted_parameter())


@dataclass(frozen=True)
class Certificate:
    """The vanishing L-factor data: the eigenvalue and the point s where the
    inverse factor vanishes."""

    eigenvalue: QMonomial
    s: Fraction


@dataclass(frozen=True)
class PacketVerdict:
    kind: VerdictKind
    witness: Root | None
    certificate: Certificate | None
    levi: LeviSubset

    def __post_init__(self):
        if self.kind is VerdictKind.NON_TEMPERED:
            if self.witness is None or self.certificate is None:
                raise ValidationError("non-tempered verdict needs witness and certificate")
            value = self.certificate.eigenvalue
            if not (value.angle == 0 and value.q_exp == 1):
                raise ValidationError(
                    f"certificate eigenvalue {value} must be exactly q^1"
                )
            if self.certificate.s != 1:
                raise ValidationError("certificate point must be s = 1")
        else:
            if self.witness is not None or self.certificate is not None:
                raise ValidationError("tempered verdict carries no witness")


@dataclass(frozen=True)
class AttachedData:
    """The data attached to one Arthur parameter: the Langlands parameter is
    already the standard-module parameter, and the zero set of its dominant
    `exponents` is `levi`. The ratio is derived on first use; a tempered
    verdict needs none."""

    psi: ArthurParameter
    langlands: UnramifiedParameter
    exponents: RationalVector
    levi: LeviSubset

    @classmethod
    def of(cls, psi: ArthurParameter) -> "AttachedData":
        """Evaluate and read off the Levi."""
        p = langlands_parameter(psi)
        _, exponents = decompose_parameter(p)
        return cls(psi, p, exponents, defining_levi(exponents, p.datum))

    @cached_property
    def ratio(self) -> CoefficientRatio:
        return local_coefficient_ratio(self.langlands.datum, self.levi, self.langlands)

    @cached_property
    def verdict(self) -> PacketVerdict:
        """Temperedness dichotomy with the double-checked certificate."""
        if self.psi.sl2.is_trivial:
            if not is_tempered(self.langlands):
                raise InvariantViolation("trivial sl2 component left a nonzero exponent")
            return PacketVerdict(VerdictKind.TEMPERED, None, None, self.levi)
        witness = witness_root(self)
        eigenvalue = evaluate_root(witness, self.langlands)
        if not eigenvalue.is_q_power(1):
            raise InvariantViolation(
                f"witness {format_root(witness)} evaluates to {eigenvalue}, expected q^1"
            )
        if witness not in self.ratio.witness_roots:
            raise InvariantViolation(
                f"the full product does not vanish at the witness {format_root(witness)}"
            )
        certificate = Certificate(eigenvalue, Fraction(1))
        return PacketVerdict(VerdictKind.NON_TEMPERED, witness, certificate, self.levi)


def standard_module_datum(psi: ArthurParameter, generic: bool = True) -> StandardModuleDatum:
    """The exponents of the attached data become the twist."""
    a = AttachedData.of(psi)
    return StandardModuleDatum(
        TemperedDatum(a.levi, psi.tempered_part, generic),
        character_exponents_of(a.langlands.datum, a.exponents),
    )


def irreducibility_verdict(sm: StandardModuleDatum) -> CoefficientRatio:
    """The coefficient ratio carries the verdict (`irreducible`) and its
    witnesses (`witnesses`, `witness_roots`, `denominator`)."""
    return sm.coefficient_ratio


def genericity_verdict(sm: StandardModuleDatum) -> Genericity:
    return Genericity.of(sm.tempered.generic, irreducibility_verdict(sm).irreducible)


def witness_root(a: AttachedData) -> Root:
    """Minimal support root (canonical enumeration order) that certifies
    non-temperedness: diagram pairing 2, trivial unit evaluation, outside the
    Levi. Each condition is re-checked rather than assumed; no L-factor is
    read, so the full product stays an independent check."""
    if a.psi.sl2.is_trivial:
        raise ValidationError("tempered parameter has no witness")
    diagram, units = a.psi.sl2.diagram, a.psi.tempered_part
    outside = off_levi_indicator(units.datum, a.levi)
    candidates = []
    for root in a.psi.sl2.support:
        if diagram_pairing(root, diagram) != 2:
            continue
        if not evaluate_root(root, units).is_one:
            continue
        if not any(map(mul, root, outside)):
            continue
        candidates.append(root)
    if not candidates:
        raise InvariantViolation(
            "no support root qualifies as a witness; the centralizer and "
            "pairing conditions should guarantee one"
        )
    return min(candidates, key=root_sort_key)


def classify_packet(psi: ArthurParameter) -> PacketVerdict:
    """Temperedness dichotomy with the double-checked certificate."""
    return AttachedData.of(psi).verdict
