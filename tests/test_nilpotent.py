"""Partition classification, weighted diagrams, sl2 data, and the
independent matrix oracle of tests/oracle.py."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from oracle import (
    commutator,
    jordan_type,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_transpose,
    standard_triple,
)

from arthurcalc import nilpotent
from arthurcalc.errors import InvariantViolation, ValidationError
from arthurcalc.nilpotent import (
    SL2Data,
    _diagram_from_sorted,
    _from_epsilon,
    is_very_even,
    sl2_from_partition,
    validate_partition,
    validate_sl2_data,
    weighted_diagram,
)
from arthurcalc.roots import CartanSpec, build_root_datum, diagram_pairing
from arthurcalc.sweeps import valid_partitions

# (diagram, support) of all 742 orbits of A/B/C/D up to rank 8, recorded
# from the exact Fraction column-map layout that the chain links replaced.
RECORDED_SUPPORTS = Path(__file__).resolve().parent / "data" / "sl2_supports.json"

# Hand-derived expected values, frozen before the layout code was written.
FROZEN_DIAGRAMS = {
    ("A", 1, (2,)): (2,),
    ("A", 2, (2, 1)): (1, 1),
    ("A", 2, (3,)): (2, 2),
    ("B", 2, (3, 1, 1)): (2, 0),
    ("B", 2, (2, 2, 1)): (0, 1),
    ("C", 2, (2, 2)): (0, 2),
    ("C", 2, (2, 1, 1)): (1, 0),
    ("C", 3, (3, 3)): (0, 2, 0),
    ("D", 4, (2, 2, 2, 2)): (0, 0, 0, 2),
    ("D", 4, (3, 2, 2, 1)): (1, 0, 1, 1),
    ("B", 4, (5, 3, 1)): (2, 0, 2, 0),
    ("D", 3, (3, 1, 1, 1)): (2, 0, 0),
}

FROZEN_SUPPORTS = {
    ("A", 1, (2,)): {(1,)},
    ("A", 2, (2, 1)): {(1, 1)},
    ("A", 2, (3,)): {(1, 0), (0, 1)},
    ("B", 2, (3, 1, 1)): {(1, 1)},
    ("B", 2, (2, 2, 1)): {(1, 2)},
    ("C", 2, (2, 2)): {(0, 1), (2, 1)},
    ("C", 2, (2, 1, 1)): {(2, 1)},
    ("C", 3, (3, 3)): {(1, 1, 0), (0, 1, 1)},
    ("D", 4, (2, 2, 2, 2)): {(0, 0, 0, 1), (1, 2, 1, 1)},
    ("D", 4, (3, 2, 2, 1)): {(1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1)},
    ("B", 4, (5, 3, 1)): {(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 2), (0, 1, 1, 2)},
    ("D", 3, (3, 1, 1, 1)): {(1, 1, 0), (1, 0, 1)},
}


# -- partition validation -------------------------------------------------------


def test_partition_parity_rules():
    assert validate_partition("A", 2, (1, 2)) == (2, 1)
    assert validate_partition("B", 2, (3, 1, 1)) == (3, 1, 1)
    assert validate_partition("C", 2, (2, 2)) == (2, 2)
    assert validate_partition("D", 4, (4, 4)) == (4, 4)


def test_partition_parity_error_names_largest_offender():
    with pytest.raises(ValidationError, match="odd part 3 has odd multiplicity"):
        validate_partition("C", 2, (3, 1))
    with pytest.raises(ValidationError, match="even part 4 has odd multiplicity"):
        validate_partition("B", 3, (4, 2, 1))
    with pytest.raises(ValidationError, match="even part 6 has odd multiplicity"):
        validate_partition("D", 4, (6, 2))


def test_partition_sum_and_shape_errors():
    with pytest.raises(ValidationError, match="sums to 3, expected 2"):
        validate_partition("A", 1, (2, 1))
    with pytest.raises(ValidationError, match="empty"):
        validate_partition("A", 1, ())
    for parts in ((2, 0), (True, True)):
        with pytest.raises(ValidationError, match="^partition: part .* not a positive integer"):
            validate_partition("A", 1, parts)
    with pytest.raises(ValidationError, match="^rank: "):
        validate_partition("A", True, (2,))
    with pytest.raises(ValidationError, match="no partition classification"):
        validate_partition("G", 2, (2, 2))


def test_valid_partition_counts_small():
    assert len(valid_partitions("A", 1)) == 2
    assert len(valid_partitions("A", 2)) == 3
    assert len(valid_partitions("C", 2)) == 4
    assert len(valid_partitions("B", 2)) == 4
    assert len(valid_partitions("C", 3)) == 8
    assert len(valid_partitions("D", 4)) == 10


# -- weighted diagrams -----------------------------------------------------------


def test_frozen_diagrams():
    for (family, rank, parts), want in FROZEN_DIAGRAMS.items():
        assert weighted_diagram(family, rank, parts) == want, (family, rank, parts)


def test_diagram_entries_bounded():
    for family, max_rank in (("A", 5), ("B", 4), ("C", 4), ("D", 5)):
        min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for rank in range(min_rank, max_rank + 1):
            for parts in valid_partitions(family, rank):
                diagram = weighted_diagram(family, rank, parts)
                assert len(diagram) == rank
                assert all(v in (0, 1, 2) for v in diagram)


def test_trivial_partition_gives_zero_diagram():
    assert weighted_diagram("A", 3, (1, 1, 1, 1)) == (0, 0, 0)
    assert weighted_diagram("C", 2, (1, 1, 1, 1)) == (0, 0)


def test_very_even_flag():
    assert is_very_even("D", (4, 4))
    assert is_very_even("D", (2, 2, 2, 2))
    assert not is_very_even("D", (3, 2, 2, 1))
    assert not is_very_even("C", (2, 2))
    assert not is_very_even("B", (3, 1, 1))


# -- sl2 data from partitions ------------------------------------------------------


def test_frozen_supports():
    for (family, rank, parts), want in FROZEN_SUPPORTS.items():
        data = sl2_from_partition(family, rank, parts)
        assert set(data.support) == want, (family, rank, parts)
        assert data.diagram == FROZEN_DIAGRAMS[(family, rank, parts)]


def test_support_roots_are_positive_with_pairing_two():
    for family, max_rank in (("A", 5), ("B", 4), ("C", 4), ("D", 5)):
        min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for rank in range(min_rank, max_rank + 1):
            d = build_root_datum(CartanSpec(family, rank))
            for parts in valid_partitions(family, rank):
                data = sl2_from_partition(family, rank, parts)
                for root in data.support:
                    assert root in d.root_index
                    assert diagram_pairing(root, data.diagram) == 2


def test_supports_match_the_recorded_table():
    recorded = json.loads(RECORDED_SUPPORTS.read_text())
    cells: dict[tuple[str, int], list[tuple[int, ...]]] = {}
    for orbit in recorded:
        family, rank, parts = orbit["family"], orbit["rank"], tuple(orbit["partition"])
        cells.setdefault((family, rank), []).append(parts)
        data = sl2_from_partition(family, rank, parts)
        assert data.diagram == tuple(orbit["diagram"]), orbit
        assert data.support == tuple(tuple(root) for root in orbit["support"]), orbit
    # every orbit of every classical type up to rank 8, in sweep order
    min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}
    assert set(cells) == {(f, n) for f in "ABCD" for n in range(min_rank[f], 9)}
    for (family, rank), partitions in cells.items():
        assert valid_partitions(family, rank) == tuple(partitions)


def simple_epsilon_columns(family, rank):
    """The Bourbaki simple roots in epsilon coordinates (n + 1 of them in
    type A, n otherwise)."""
    size = rank + 1 if family == "A" else rank
    columns = []
    for k in range(rank if family == "A" else rank - 1):
        column = [0] * size
        column[k], column[k + 1] = 1, -1
        columns.append(column)
    if family != "A":
        column = [0] * size
        if family == "D":
            column[-2] = 1
        column[-1] = 2 if family == "C" else 1
        columns.append(column)
    return columns


def test_partial_sums_give_every_positive_root_back():
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(low, 11):
            columns = simple_epsilon_columns(family, rank)
            for root in build_root_datum(CartanSpec(family, rank)).positive_roots:
                eps = [sum(c * col[t] for c, col in zip(root, columns)) for t in range(len(columns[0]))]
                assert _from_epsilon(family, eps) == root, (family, rank, root)


def test_partial_sums_refuse_a_fractional_coefficient():
    # e_3 is outside the root lattice of C3 (odd tail) and of D3 (odd fork)
    for family in ("C", "D"):
        with pytest.raises(InvariantViolation, match="fractional coefficient"):
            _from_epsilon(family, [0, 0, 1])


def test_package_built_sl2_data_failing_the_rule_check_is_a_bug(monkeypatch):
    # every chain link of A2 [3] then gives a1 + a2, which pairs to 4 with (2, 2)
    monkeypatch.setattr(nilpotent, "_from_epsilon", lambda family, x: (1, 1))
    with pytest.raises(InvariantViolation, match="pairs with H to 4, expected 2"):
        sl2_from_partition.__wrapped__("A", 2, (3,))  # bypass the cache


def test_trivial_partition_gives_trivial_sl2():
    data = sl2_from_partition("B", 2, (1, 1, 1, 1, 1))
    assert data.is_trivial
    assert data.support == ()


# -- sl2 data validation -------------------------------------------------------------


def test_validate_sl2_data_collects_violations():
    d = build_root_datum(CartanSpec("A", 2))
    bad = SL2Data((2, 0), ((0, 1),))  # pairing 0, not 2
    with pytest.raises(ValidationError, match="pairs with H to 0"):
        validate_sl2_data(d, bad)
    with pytest.raises(ValidationError, match="length"):
        validate_sl2_data(d, SL2Data((2,), ((1, 0),)))
    with pytest.raises(ValidationError):
        # nonzero diagram with empty support is the degenerate case
        validate_sl2_data(d, SL2Data((2, 0), ()))
    with pytest.raises(ValidationError):
        # zero diagram must not carry support
        validate_sl2_data(d, SL2Data((0, 0), ((1, 0),)))


@pytest.mark.parametrize(
    "data, message",
    [
        (SL2Data((2,), ((True,),)), "is not an integer"),
        (SL2Data((True,), ((1,),)), "is not an integer"),
        (SL2Data((2,), ((1.0,),)), "is not an integer"),
        (SL2Data([2], [[1]]), r"support root \[1\] is not a tuple"),
    ],
    ids=["bool-coefficient", "bool-diagram-entry", "float-coefficient", "list-root"],
)
def test_validate_sl2_data_refuses_entries_that_are_not_integers(data, message):
    # True == 1 and (True,) == (1,), so a bool would pass every later check
    # and then fail to read back from the report; a list root is unhashable
    d = build_root_datum(CartanSpec("A", 1))
    with pytest.raises(ValidationError, match=message) as err:
        validate_sl2_data(d, data)
    assert err.value.field == "sl2"
    # no pairing is computed from a refused diagram
    assert "pairs with H" not in str(err.value)


def test_validate_sl2_data_accepts_expert_g2():
    d = build_root_datum(CartanSpec("G", 2))
    validate_sl2_data(d, SL2Data((2, 2), ((1, 0), (0, 1))))
    validate_sl2_data(d, SL2Data((0, 1), ((3, 2),)))


# -- matrix oracle ---------------------------------------------------------------------


def test_oracle_unsorted_h_example():
    # two blocks: sizes 2 and 1, h carries (1, -1) then (0) blockwise
    triple = standard_triple("A", 2, (2, 1))
    assert [triple.h[i][i] for i in range(3)] == [1, -1, 0]


def _assert_triple(family, rank, parts):
    triple = standard_triple(family, rank, parts)
    e, h, f = triple.e, triple.h, triple.f
    two_e = mat_scale(Fraction(2), e)
    minus_two_f = mat_scale(Fraction(-2), f)
    assert commutator(h, e) == two_e
    assert commutator(h, f) == minus_two_f
    assert commutator(e, f) == h
    assert jordan_type(e) == tuple(sorted(parts, reverse=True))
    if triple.form is not None:
        j = triple.form
        for x in (e, h, f):
            # membership in the form's Lie algebra: X^T J + J X = 0
            xt_j = mat_mul(mat_transpose(x), j)
            j_x = mat_mul(j, x)
            residue = mat_sub(xt_j, mat_scale(Fraction(-1), j_x))
            assert all(all(v == 0 for v in row) for row in residue)


def test_oracle_triples_small():
    _assert_triple("A", 2, (3,))
    _assert_triple("B", 2, (3, 1, 1))
    _assert_triple("C", 2, (2, 2))
    _assert_triple("C", 3, (3, 3))
    _assert_triple("D", 4, (3, 2, 2, 1))
    _assert_triple("D", 4, (2, 2, 2, 2))


def test_oracle_dominant_h_matches_diagram():
    for family, max_rank in (("A", 4), ("B", 3), ("C", 3), ("D", 4)):
        min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
        for rank in range(min_rank, max_rank + 1):
            for parts in valid_partitions(family, rank):
                triple = standard_triple(family, rank, parts)
                diag = tuple(
                    sorted((int(triple.h[i][i]) for i in range(len(triple.h))), reverse=True)
                )
                assert _diagram_from_sorted(family, rank, diag) == weighted_diagram(
                    family, rank, parts
                )


def test_jordan_type_basics():
    z = [[Fraction(0)] * 3 for _ in range(3)]
    assert jordan_type(z) == (1, 1, 1)
    n = [[Fraction(0)] * 3 for _ in range(3)]
    n[0][1] = Fraction(1)
    n[1][2] = Fraction(1)
    assert jordan_type(n) == (3,)
