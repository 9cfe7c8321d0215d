"""Nilpotent-orbit data for classical types: weighted Dynkin diagrams from
partitions and a canonical positive-root support for the nilpositive
element, as in Collingwood-McGovern, *Nilpotent Orbits in Semisimple Lie
Algebras* (1993).

Partition conventions (defining representation of the dual-side group):
  A_n: partitions of n+1, unconstrained.
  B_n: partitions of 2n+1, even parts with even multiplicity.
  C_n: partitions of 2n, odd parts with even multiplicity.
  D_n: partitions of 2n, even parts with even multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import InvariantViolation, ValidationError
from .roots import (
    CartanSpec,
    Root,
    RootDatum,
    build_root_datum,
    diagram_pairing,
    format_root,
    root_sort_key,
)

_PARTITION_FAMILIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class SL2Data:
    """Dominant weighted diagram plus the positive roots carrying the
    nilpositive element."""

    diagram: tuple[int, ...]
    support: tuple[Root, ...]

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.diagram)


def partition_total(family: str, rank: int) -> int:
    if family == "A":
        return rank + 1
    if family == "B":
        return 2 * rank + 1
    if family in ("C", "D"):
        return 2 * rank
    raise ValidationError(f"family {family!r} has no partition classification", field="family")


def validate_partition(family: str, rank: int, parts) -> tuple[int, ...]:
    """Return the partition sorted descending, or raise naming the offender."""
    if family not in _PARTITION_FAMILIES:
        raise ValidationError(
            f"family {family!r} has no partition classification", field="partition"
        )
    CartanSpec(family, rank)
    if not parts:
        raise ValidationError("partition is empty", field="partition")
    for m in parts:
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValidationError(f"part {m!r} is not a positive integer", field="partition")
    ordered = tuple(sorted(parts, reverse=True))
    expected = partition_total(family, rank)
    got = sum(ordered)
    if got != expected:
        raise ValidationError(
            f"partition sums to {got}, expected {expected} for {family}{rank}",
            field="partition",
        )
    if family in ("B", "D"):
        bad_parity, label = 0, "even"
    elif family == "C":
        bad_parity, label = 1, "odd"
    else:
        return ordered
    for m in sorted(set(ordered), reverse=True):
        if m % 2 == bad_parity and ordered.count(m) % 2 == 1:
            raise ValidationError(
                f"{label} part {m} has odd multiplicity (not allowed in type {family})",
                field="partition",
            )
    return ordered


def _diagram_from_sorted(family: str, rank: int, sorted_weights: tuple[int, ...]) -> tuple[int, ...]:
    """Read the diagram off a descending weight multiset (first-coordinates
    recipe for B/C/D, consecutive differences for A)."""
    if family == "A":
        values = tuple(
            sorted_weights[i] - sorted_weights[i + 1] for i in range(rank)
        )
    else:
        a = sorted_weights[:rank]
        diffs = [a[i] - a[i + 1] for i in range(rank - 1)]
        if family == "B":
            values = tuple(diffs + [a[rank - 1]])
        elif family == "C":
            values = tuple(diffs + [2 * a[rank - 1]])
        else:  # D
            values = tuple(diffs[: rank - 1] + [a[rank - 2] + a[rank - 1]])
    if any(v not in (0, 1, 2) for v in values):
        raise InvariantViolation(f"diagram {values} has an entry outside 0/1/2")
    return values


@lru_cache(maxsize=None)
def weighted_diagram(family: str, rank: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    ordered = validate_partition(family, rank, parts)
    if family == "A":
        weights = [w for m in ordered for w in range(m - 1, -m, -2)]
    else:
        # the weights are symmetric about 0, so the top `rank` of them are
        # the positive ones padded with zeros
        weights = [w for m in ordered for w in range(m - 1, 0, -2)]
        weights += [0] * (rank - len(weights))
    return _diagram_from_sorted(family, rank, tuple(sorted(weights, reverse=True)))


def is_very_even(family: str, parts: tuple[int, ...]) -> bool:
    """Type D partitions with only even parts label two orbits; flagged, not
    disambiguated."""
    return family == "D" and all(m % 2 == 0 for m in parts)


# ---------------------------------------------------------------------------
# Chain blocks of the canonical layout.
# A block is one sl2-chain ("self") or two chains of equal length ("pair").


@dataclass(frozen=True)
class _Block:
    index: int
    kind: str  # "self" | "pair"
    size: int


def _blocks_for(family: str, ordered: tuple[int, ...]) -> list[_Block]:
    """Equal parts pair two at a time, at most one leftover keeping its own
    chain; type A and the even parts of type C (sp-chains) never pair.
    Parity validation leaves no leftover of a part whose parity forces
    pairing."""
    blocks: list[_Block] = []

    def add(kind: str, size: int) -> None:
        blocks.append(_Block(len(blocks), kind, size))

    for m in sorted(set(ordered), reverse=True):
        mult = ordered.count(m)
        pairs = 0 if family == "A" or (family == "C" and m % 2 == 0) else mult // 2
        for _ in range(pairs):
            add("pair", m)
        for _ in range(mult - 2 * pairs):
            add("self", m)
    return blocks


# Vector ids: ("v", block, chain, k) for chain vectors, ("u", j)/("w", j) for
# the hyperbolically mixed replacements of two zero-weight middle vectors.
_VecId = tuple


def _sl2_layout(family: str, rank: int, ordered: tuple[int, ...]):
    """Arrange the chain basis so h is the dominant diagonal and every entry
    of e sits over a positive root. Returns (positions, weights, links, n_amb),
    one link (target, source) per nonzero entry of e, in row target and
    column source."""
    total = partition_total(family, rank)
    blocks = _blocks_for(family, ordered)

    chain_count = {"self": 1, "pair": 2}
    vectors: list[_VecId] = []
    weight: dict[_VecId, int] = {}
    links: list[tuple[_VecId, _VecId]] = []
    for b in blocks:
        for c in range(chain_count[b.kind]):
            for k in range(b.size):
                vid = ("v", b.index, c, k)
                vectors.append(vid)
                weight[vid] = b.size - 1 - 2 * k
                if k:
                    links.append((("v", b.index, c, k - 1), vid))

    if family == "A":
        order = sorted(vectors, key=lambda v: (-weight[v], v[1], v[2], v[3]))
        return order, weight, links, total

    # Middle vectors of leftover odd self blocks; mixed pairwise so every
    # basis vector acquires an opposite-weight partner.
    middles = [
        ("v", b.index, 0, (b.size - 1) // 2)
        for b in blocks
        if b.kind == "self" and b.size % 2 == 1
    ]
    keep_middle: _VecId | None = None
    if family == "B":
        if len(middles) % 2 == 0:
            raise InvariantViolation("type B expects an odd count of leftover middles")
        keep_middle = middles[-1]
        middles = middles[:-1]
    if len(middles) % 2 == 1:
        raise InvariantViolation("unpaired zero-weight middle vector")

    # Mixed middles z_a = u/2 + w, z_b = u/2 - w: a link through z_a or z_b
    # becomes a link through both u and w. No entry cancels, because each
    # column through a mixed pair has distinct targets.
    mix_count = len(middles) // 2
    mixed: dict[_VecId, tuple[_VecId, _VecId]] = {}
    for j in range(mix_count):
        mixed[middles[2 * j]] = mixed[middles[2 * j + 1]] = (("u", j), ("w", j))
        weight[("u", j)] = weight[("w", j)] = 0
    links = [
        (t, s)
        for target, source in links
        for t in mixed.get(target, (target,))
        for s in mixed.get(source, (source,))
    ]
    kept = [v for v in vectors if v not in mixed]

    def partner(v: _VecId) -> _VecId:
        if v[0] == "u":
            return ("w", v[1])
        if v[0] == "w":
            return ("u", v[1])
        _, b, c, k = v
        block = blocks[b]
        if block.kind == "self":
            return ("v", b, 0, block.size - 1 - k)
        return ("v", b, 1 - c, block.size - 1 - k)

    positive = sorted(
        (v for v in kept if weight[v] > 0),
        key=lambda v: (-weight[v], v[1], v[2], v[3]),
    )
    pair_zeros = sorted(
        (v for v in kept if weight[v] == 0 and v[2] == 0 and v != keep_middle),
        key=lambda v: v[1],
    )
    mix_zeros = [("u", j) for j in range(mix_count)]
    front = positive + pair_zeros + mix_zeros

    n_amb = total // 2
    if len(front) != n_amb:
        raise InvariantViolation("positive-side arrangement has the wrong size")
    order: list[_VecId | None] = [None] * total
    for p, v in enumerate(front):
        order[p] = v
        order[total - 1 - p] = partner(v)
    if keep_middle is not None:
        order[n_amb] = keep_middle
    if any(v is None for v in order):
        raise InvariantViolation("basis arrangement left a hole")
    return order, weight, links, n_amb


def _from_epsilon(family: str, x: list[int]) -> Root:
    """Simple-root coefficients of the vector with epsilon coordinates x, read
    off the partial sums S_k = x_1 + ... + x_k of the Bourbaki simple roots:
    type A drops the last sum, B keeps them all, C halves the last one, and
    D's fork (e_{n-1} + e_n) gives (S_{n-1} - x_n)/2 and S_n/2."""
    sums = list(accumulate(x))
    if family == "A":
        return tuple(sums[:-1])
    if family == "B":
        return tuple(sums)
    doubled = [sums[-1]] if family == "C" else [sums[-2] - x[-1], sums[-1]]
    halves = [divmod(v, 2) for v in doubled]
    if any(odd for _, odd in halves):
        raise InvariantViolation("support root has a fractional coefficient")
    return tuple(sums[: len(sums) - len(halves)] + [half for half, _ in halves])


@lru_cache(maxsize=None)
def sl2_from_partition(family: str, rank: int, parts: tuple[int, ...]) -> SL2Data:
    """Canonical (diagram, support) for the orbit labelled by the partition.

    The support is read off an explicit dominant-position nilpositive:
    equal parts are paired where the invariant form allows it, leftover
    zero-weight middles are mixed into hyperbolic pairs, the basis is sorted
    by descending h-weight (ties by stable part order), and each nonzero
    matrix entry is converted from epsilon coordinates to simple-root
    coefficients by partial sums (`_from_epsilon`). For B/C/D, e preserves
    the invariant form, so an entry and its form-mirror give the same root;
    only one of each pair is converted.
    """
    ordered = validate_partition(family, rank, parts)
    diagram = weighted_diagram(family, rank, ordered)
    datum = build_root_datum(CartanSpec(family, rank))

    order, weight, links, n_amb = _sl2_layout(family, rank, ordered)
    total = len(order)
    pos_of = {v: p for p, v in enumerate(order)}

    def eps_vector(p: int) -> list[int]:
        # n_amb epsilon coordinates: all `total` of them in type A
        out = [0] * n_amb
        if p < n_amb:
            out[p] = 1
        elif total % 2 == 1 and p == n_amb:
            pass  # the true middle has label zero
        else:
            out[total - 1 - p] = -1
        return out

    support: set[Root] = set()
    for target, source in links:
        i, j = pos_of[target], pos_of[source]
        if weight[target] != weight[source] + 2:
            raise InvariantViolation("chain entry violates the h-grading")
        if family != "A" and i + j > total - 1:
            continue  # its form-mirror (total-1-j, total-1-i) gives the same root
        root = _from_epsilon(family, [a - b for a, b in zip(eps_vector(i), eps_vector(j))])
        if any(c < 0 for c in root) or root not in datum.root_set:
            raise InvariantViolation(
                f"support entry {format_root(root)} is not a positive root"
            )
        if diagram_pairing(root, diagram) != 2:
            raise InvariantViolation(
                f"support root {format_root(root)} pairs to "
                f"{diagram_pairing(root, diagram)}, expected 2"
            )
        support.add(root)

    if all(v == 0 for v in diagram) != (not support):
        raise InvariantViolation("support/diagram triviality mismatch")
    return SL2Data(diagram, tuple(sorted(support, key=root_sort_key)))


# Exactly int: bool is an int subclass, and True == 1 would pass every
# later check.
_INT_ONLY = frozenset({int})


def validate_sl2_data(d: RootDatum, data: SL2Data) -> None:
    """Structural checks for expert-supplied data; collects every violation.

    Deliberately does not certify genuine orbit membership: expert mode is
    documented as unvalidated-orbit mode.
    """
    problems: list[str] = []
    if len(data.diagram) != d.rank:
        problems.append(
            f"diagram length {len(data.diagram)} does not match rank {d.rank}"
        )
    else:
        typed = _INT_ONLY.issuperset(map(type, data.diagram))
        for i, v in enumerate(data.diagram):
            if type(v) is not int:
                problems.append(f"diagram entry {v!r} at position {i + 1} is not an integer")
            elif v not in (0, 1, 2):
                problems.append(f"diagram entry {v} at position {i + 1} is outside 0/1/2")
        for root in data.support:
            if len(root) != d.rank:
                problems.append(f"support root {root} has the wrong length")
                continue
            if not _INT_ONLY.issuperset(map(type, root)):
                problems.append(f"support root {root} has a coefficient that is not an integer")
                continue
            if root not in d.root_set:
                problems.append(f"support root {format_root(root)} is not a positive root")
                continue
            if not typed:
                continue  # a pairing with a diagram refused above means nothing
            pairing = diagram_pairing(root, data.diagram)
            if pairing != 2:
                problems.append(
                    f"support root {format_root(root)} pairs with H to {pairing}, expected 2"
                )
        nonzero = any(v != 0 for v in data.diagram)
        if nonzero and not data.support:
            problems.append("nonzero diagram with empty support has no witness root")
        if not nonzero and data.support:
            problems.append("zero diagram must have empty support")
    if problems:
        raise ValidationError("; ".join(problems), field="sl2")
