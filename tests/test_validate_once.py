"""sl2 data is validated once per (datum, object) pair.

`validate_sl2_data` marks an `SL2Data` that passed with tuple fields as
valid for that `RootDatum`, compared by identity, so the data
`sl2_from_partition` caches and a scenario's stored copy pass through
`ArthurParameter` without being checked again. The gates below wrap the
check body (its `diagram_pairing` call, made once per support root) and
count how often it runs; the rest pin that the mark never waves through
data it should not: a value-equal object with a `bool` in it, data whose
list fields changed after they passed, and data checked on another datum
of the same rank.
"""

from fractions import Fraction

import pytest

from arthurcalc import nilpotent
from arthurcalc.errors import ValidationError
from arthurcalc.nilpotent import SL2Data, sl2_from_partition, validate_sl2_data
from arthurcalc.parameters import QMonomial, UnramifiedParameter, make_arthur_parameter
from arthurcalc.roots import CartanSpec, build_root_datum
from arthurcalc.scenarios import Scenario, run_scenario


def trivial_units(family="A", rank=2):
    """The trivial tempered part on the datum cached now: other tests clear
    the `build_root_datum` cache, so none is kept at module level."""
    return UnramifiedParameter(build_root_datum(CartanSpec(family, rank)), (QMonomial(),) * rank)


@pytest.fixture
def pairings(monkeypatch):
    """Support roots the check body pairs with H, one entry per root per
    full check."""
    seen = []
    pairing = nilpotent.diagram_pairing

    def recording(root, diagram):
        seen.append(root)
        return pairing(root, diagram)

    monkeypatch.setattr(nilpotent, "diagram_pairing", recording)
    return seen


def test_cached_partition_data_is_checked_at_most_once(pairings):
    data = sl2_from_partition("A", 2, (3,))
    phi = trivial_units()
    pairings.clear()
    for _ in range(100):
        make_arthur_parameter(phi, data)
    assert len(pairings) <= len(data.support)
    # the probe sees a full check: an equal fresh object is checked in full
    pairings.clear()
    make_arthur_parameter(phi, SL2Data(data.diagram, data.support))
    assert pairings == list(data.support)


def test_value_equal_data_with_a_bool_is_still_refused():
    cached = sl2_from_partition("A", 2, (2, 1))
    make_arthur_parameter(trivial_units(), cached)
    hostile = SL2Data((True, 1), cached.support)
    assert hostile == cached and hash(hostile) == hash(cached)
    with pytest.raises(ValidationError) as err:
        make_arthur_parameter(trivial_units(), hostile)
    assert str(err.value) == "sl2: diagram entry True at position 1 is not an integer"


def mutate_diagram():
    data = SL2Data([1, 1], ((1, 1),))
    make_arthur_parameter(trivial_units(), data)
    data.diagram[0] = 3
    return data


def mutate_support():
    data = SL2Data((1, 1), [(1, 1)])
    make_arthur_parameter(trivial_units(), data)
    data.support.append((1, 0))
    return data


@pytest.mark.parametrize(
    ("accept_then_mutate", "message"),
    [
        (
            mutate_diagram,
            "sl2: diagram entry 3 at position 1 is outside 0/1/2; "
            "support root a1 + a2 pairs with H to 4, expected 2",
        ),
        (mutate_support, "sl2: support root a1 pairs with H to 1, expected 2"),
    ],
    ids=["list-diagram", "list-support"],
)
def test_list_fields_are_checked_again_after_a_pass(accept_then_mutate, message):
    data = accept_then_mutate()
    with pytest.raises(ValidationError) as err:
        make_arthur_parameter(trivial_units(), data)
    assert str(err.value) == message


def test_data_checked_on_one_datum_is_checked_on_another_of_the_same_rank():
    data = sl2_from_partition("B", 3, (3, 3, 1))
    validate_sl2_data(build_root_datum(CartanSpec("B", 3)), data)
    with pytest.raises(ValidationError) as err:
        make_arthur_parameter(trivial_units("C", 3), data)
    assert str(err.value) == "sl2: support root a2 + 2 a3 is not a positive root"


def test_a_scenario_checks_its_expert_data_once(pairings):
    angles = (Fraction(0), Fraction(0))
    lists = SL2Data([1, 1], [(1, 1)])
    expert = Scenario("e", CartanSpec("A", 2), angles, "expert", expert_data=lists)
    assert expert.expert_data == SL2Data((1, 1), ((1, 1),))
    assert pairings == [(1, 1)]
    for _ in range(3):
        run_scenario(expert)
    assert pairings == [(1, 1)]
