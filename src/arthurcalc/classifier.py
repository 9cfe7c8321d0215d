"""The theorem engine: the standard module of an Arthur parameter, its
irreducibility and genericity, and the temperedness dichotomy with
machine-checkable certificates.

`StandardModuleDatum(parameter, generic)` is the one record of a standard
module. The Langlands parameter is the standard-module parameter: its
q-exponents are the twist, and the Levi is their zero set. For the
Langlands parameter of an Arthur parameter the exponents are half the
weighted diagram, which is dominant, so no Weyl word moves them. The
record derives, each once and on first use, the exponents, the Levi, the
character exponents and the coefficient ratio. The packet verdict, the
irreducibility and genericity verdicts and the scenario report all read
from one record; a tempered verdict builds no ratio.

The chain is: a nontrivial sl2 component forces a support root with diagram
pairing 2 outside the defining Levi and with trivial unit evaluation, hence a
denominator eigenvalue exactly q^1 and a vanishing inverse L-value at s = 1;
irreducibility fails, so a packet with a generic member cannot carry a
nontrivial sl2 component. Cross-checks that raise InvariantViolation (a bug,
not a verdict): the witness route vs the full product, the witness
eigenvalue vs q^1, and, in `run_scenario`, denominator vanishing vs verdict.
A real Weyl word is walked once, in `parameters.recover_arthur_data`: found
on the exponents and applied to the unit part. A standard module that is not
the one of the Arthur parameter's Langlands parameter is the caller's error
(ValidationError), not a failed cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InvariantViolation, ValidationError
from .lfactors import CoefficientRatio, local_coefficient_ratio
from .parameters import (
    ArthurParameter,
    QMonomial,
    UnramifiedParameter,
    defining_levi,
    evaluate_root,
    langlands_parameter,
)
from .roots import (
    LeviSubset,
    RationalVector,
    Root,
    cached_attribute,
    character_exponents as character_exponents_of,
    diagram_pairing,
    format_root,
    off_levi_indicator,
)


class VerdictKind(enum.Enum):
    TEMPERED = "Tempered"
    NON_TEMPERED = "NonTempered"


class Genericity(enum.Enum):
    GENERIC = "generic"
    NOT_GENERIC = "not-generic"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class StandardModuleDatum:
    """The standard module of an unramified parameter: the parameter itself
    and the genericity assumption on its tempered inducing datum (an input,
    never computed).

    The parameter's q-exponents are the twist. They must be dominant, so
    the twist is strictly positive on every root of the nilradical of
    `levi`, their zero set.
    """

    parameter: UnramifiedParameter
    generic: bool = True

    def __post_init__(self):
        if not isinstance(self.parameter, UnramifiedParameter):
            raise ValidationError(
                f"expected an UnramifiedParameter, got {self.parameter!r}", field="parameter"
            )
        if not isinstance(self.generic, bool):
            raise ValidationError(f"expected a boolean, got {self.generic!r}", field="generic")
        if any(n < 0 for n in self.parameter.integer_form[1]):
            raise ValidationError("twist exponents are not dominant", field="twist")

    @property
    def datum(self):
        return self.parameter.datum

    @cached_attribute
    def exponents(self) -> RationalVector:
        """The Satake evaluation exponents of the twist."""
        return tuple([t.q_exp for t in self.parameter.coords])

    @cached_attribute
    def levi(self) -> LeviSubset:
        """The zero set of the exponents, read off their numerators."""
        return defining_levi(self.parameter.integer_form[1], self.datum)

    @cached_attribute
    def character_exponents(self) -> RationalVector:
        """The twist on the simple coroot basis: `exponents = C c`."""
        return character_exponents_of(self.datum, self.exponents)

    @cached_attribute
    def coefficient_ratio(self) -> CoefficientRatio:
        return local_coefficient_ratio(self.datum, self.levi, self.parameter)


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


def standard_module_datum(psi: ArthurParameter, generic: bool = True) -> StandardModuleDatum:
    """The standard module of the Langlands parameter attached to `psi`."""
    return StandardModuleDatum(langlands_parameter(psi), generic)


def packet_verdict(psi: ArthurParameter, sm: StandardModuleDatum) -> PacketVerdict:
    """Temperedness dichotomy with the double-checked certificate; `sm` must
    be the standard module of `psi`'s Langlands parameter."""
    if sm.parameter != psi.langlands_parameter:  # the same datum and integer form
        raise ValidationError(
            "not the standard module of the Arthur parameter's Langlands parameter",
            field="sm",
        )
    if psi.sl2.is_trivial:
        return PacketVerdict(VerdictKind.TEMPERED, None, None, sm.levi)
    witness = witness_root(psi, sm.levi)
    eigenvalue = evaluate_root(witness, sm.parameter)
    if not eigenvalue.is_q_power(1):
        raise InvariantViolation(
            f"witness {format_root(witness)} evaluates to {eigenvalue}, expected q^1"
        )
    if witness not in sm.coefficient_ratio.witness_roots:
        raise InvariantViolation(
            f"the full product does not vanish at the witness {format_root(witness)}"
        )
    certificate = Certificate(eigenvalue, Fraction(1))
    return PacketVerdict(VerdictKind.NON_TEMPERED, witness, certificate, sm.levi)


def irreducibility_verdict(sm: StandardModuleDatum) -> CoefficientRatio:
    """The coefficient ratio carries the verdict (`irreducible`) and its
    witnesses (`witnesses`, `witness_roots`, `denominator`)."""
    return sm.coefficient_ratio


def genericity_verdict(sm: StandardModuleDatum) -> Genericity:
    """The Langlands quotient is generic iff the standard module is
    irreducible, under the assumption that the inducing datum is generic;
    without the assumption the criterion does not apply."""
    if not sm.generic:
        return Genericity.NOT_APPLICABLE
    if irreducibility_verdict(sm).irreducible:
        return Genericity.GENERIC
    return Genericity.NOT_GENERIC


def witness_root(psi: ArthurParameter, levi: LeviSubset) -> Root:
    """Minimal support root (canonical enumeration order) that certifies
    non-temperedness: diagram pairing 2, trivial unit evaluation, outside the
    Levi. The support is walked in `root_index` order (height ascending,
    then coefficients descending), and the first root that passes
    is returned. Each condition is re-checked on integers rather than
    assumed; no L-factor is read, so the full product stays an independent
    check."""
    if psi.sl2.is_trivial:
        raise ValidationError("tempered parameter has no witness")
    diagram, units = psi.sl2.diagram, psi.tempered_part
    outside = off_levi_indicator(units.datum, levi)
    # validated support roots are positive roots of the datum
    for root in sorted(psi.sl2.support, key=units.datum.root_index.__getitem__):
        if (
            diagram_pairing(root, diagram) == 2
            and units.unit_is_trivial_on(root)
            and any(map(mul, root, outside))
        ):
            return root
    raise InvariantViolation(
        "no support root qualifies as a witness; the centralizer and "
        "pairing conditions should guarantee one"
    )


def classify_packet(psi: ArthurParameter) -> PacketVerdict:
    """Temperedness dichotomy with the double-checked certificate."""
    return packet_verdict(psi, standard_module_datum(psi))
