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
from itertools import accumulate, product

from .errors import InvariantViolation, ValidationError
from .roots import (
    _INT_ONLY,
    CartanSpec,
    Root,
    RootDatum,
    build_root_datum,
    diagram_pairing,
    format_root,
)

_PARTITION_FAMILIES = ("A", "B", "C", "D")

# Parts of this parity come in pairs (even multiplicity); type A has none.
PAIRED_PARITY = {"B": 0, "C": 1, "D": 0}

# Largest number of partitions whose sl2 data are kept, the least recently
# used dropped first. It is above the 2,062 partitions of `orbits C 16`; an
# entry of rank 24 holds about 6 KB, so the cache stays under 25 MB.
MAX_PARTITIONS = 4096


@dataclass(frozen=True)
class SL2Data:
    """Dominant weighted diagram plus the positive roots carrying the
    nilpositive element."""

    diagram: tuple[int, ...]
    support: tuple[Root, ...]
    _valid_for = None  # the datum `validate_sl2_data` last passed it on; not a field

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
    if not isinstance(parts, (tuple, list)):
        raise ValidationError(f"expected a list of parts, got {parts!r}", field="partition")
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
    paired = PAIRED_PARITY.get(family)
    for m in sorted(set(ordered), reverse=True):
        if m % 2 == paired and ordered.count(m) % 2 == 1:
            raise ValidationError(
                f"{('even', 'odd')[paired]} part {m} has odd multiplicity "
                f"(not allowed in type {family})",
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
# Chains of the canonical nilpositive and the epsilon coordinates of their
# vectors. A chain vector (block, chain, k) has h-weight m - 1 - 2k.


def _chains(family: str, ordered: tuple[int, ...]):
    """Return (chains, signs) for the canonical nilpositive.

    Blocks pair equal parts two at a time, at most one leftover keeping its
    own chain; type A and the even parts of type C (sp-chains) never pair,
    and parity validation leaves no leftover of a part whose parity forces
    pairing. A block is (part m, chain count); the form partner of
    (b, c, k) is (b, count - 1 - c, m - 1 - k).

    signs[v] lists the (sign, coordinate) pairs that v stands for in the
    epsilon basis. Type A numbers every vector by (-weight, id). Types
    B/C/D number the positive-weight vectors by (-weight, id), then the
    chain-0 zero of each odd pair block in block order; the zero-weight
    middles of odd one-chain blocks pair two at a time, each pair taking the
    next coordinate p as z = u/2 +- w, i.e. [(+1, p), (-1, p)]; in type B
    the last middle is the form's own middle, [(0, 0)]; every other vector
    is minus its partner.
    """
    blocks: list[tuple[int, int]] = []
    for m in sorted(set(ordered), reverse=True):
        mult = ordered.count(m)
        pairs = 0 if family == "A" or (family == "C" and m % 2 == 0) else mult // 2
        blocks += [(m, 2)] * pairs + [(m, 1)] * (mult - 2 * pairs)
    chains = [
        [(b, c, k) for k in range(m)] for b, (m, count) in enumerate(blocks) for c in range(count)
    ]
    weight = {v: blocks[v[0]][0] - 1 - 2 * v[2] for chain in chains for v in chain}
    front = sorted(
        (v for v in weight if family == "A" or weight[v] > 0), key=lambda v: (-weight[v], v)
    )
    if family == "A":
        return chains, {v: [(1, p)] for p, v in enumerate(front)}

    zeros = [v for v in weight if weight[v] == 0 and v[1] == 0]
    front += [v for v in zeros if blocks[v[0]][1] == 2]
    signs = {v: [(1, p)] for p, v in enumerate(front)}
    middles = [v for v in zeros if blocks[v[0]][1] == 1]
    if family == "B":
        if len(middles) % 2 == 0:
            raise InvariantViolation("type B expects an odd count of leftover middles")
        signs[middles.pop()] = [(0, 0)]
    if len(middles) % 2 == 1:
        raise InvariantViolation("unpaired zero-weight middle vector")
    for j in range(0, len(middles), 2):
        p = len(front) + j // 2
        signs[middles[j]] = signs[middles[j + 1]] = [(1, p), (-1, p)]
    if len(front) + len(middles) // 2 != sum(ordered) // 2:
        raise InvariantViolation(
            f"positive and mixed coordinates number {len(front) + len(middles) // 2}, "
            f"expected {sum(ordered) // 2}"
        )
    for v in weight:
        if v not in signs:
            b, c, k = v
            m, count = blocks[b]
            mirror = signs.get((b, count - 1 - c, m - 1 - k))
            if mirror is None:
                raise InvariantViolation("a chain vector got no epsilon coordinates")
            signs[v] = [(-s, p) for s, p in mirror]
    return chains, signs


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


def sl2_from_partition(family: str, rank: int, parts: tuple[int, ...]) -> SL2Data:
    """Canonical (diagram, support) for the orbit labelled by the partition.

    The support is read off the chains of an explicit dominant-position
    nilpositive (`_chains`): each link from vector (b, c, k) to (b, c, k - 1)
    is one entry of e, and every pair of signed epsilon coordinates
    sigma(target), sigma(source) gives x = sigma(target) - sigma(source),
    converted to simple-root coefficients by partial sums (`_from_epsilon`).
    For B/C/D, e preserves the invariant form, so link k of a chain of
    length m and its form-mirror, link m - k, give the same root; links with
    2k > m are skipped. The result must pass `validate_sl2_data`.

    Kept per (family, rank, parts) by `_partition_sl2`. Arguments that are
    no cache key (a list partition, or an unhashable family, rank or part)
    are validated and tried again as the validated tuple, so a list works
    and anything else is refused by that validation.
    """
    try:
        return _partition_sl2(family, rank, parts)
    except TypeError:
        return _partition_sl2(family, rank, validate_partition(family, rank, parts))


@lru_cache(maxsize=MAX_PARTITIONS)
def _partition_sl2(family: str, rank: int, parts: tuple[int, ...]) -> SL2Data:
    ordered = validate_partition(family, rank, parts)
    diagram = weighted_diagram(family, rank, ordered)
    chains, signs = _chains(family, ordered)
    size = rank + 1 if family == "A" else rank

    support: set[Root] = set()
    for chain in chains:
        m = len(chain)
        for k in range(1, m):
            if family != "A" and 2 * k > m:
                continue  # its form-mirror, link m - k, gives the same root
            target, source = chain[k - 1], chain[k]
            for (st, pt), (ss, ps) in product(signs[target], signs[source]):
                x = [0] * size
                x[pt] += st
                x[ps] -= ss
                support.add(_from_epsilon(family, x))

    d = build_root_datum(CartanSpec(family, rank))
    # positive roots in root_index order (height ascending, then coefficients
    # descending); a root outside the index sorts last and fails the
    # validation below
    index = d.root_index
    data = SL2Data(diagram, tuple(sorted(support, key=lambda root: index.get(root, len(index)))))
    try:
        validate_sl2_data(d, data)
    except ValidationError as err:
        # the package built this data, so a failed check is a bug, not bad input
        raise InvariantViolation(f"partition {ordered} gives invalid sl2 data: {err}")
    return data


def validate_sl2_data(d: RootDatum, data: SL2Data) -> None:
    """Structural checks for expert-supplied data; collects every violation.
    The support is a set: a repeated root is refused, named once.

    Deliberately does not certify genuine orbit membership: expert mode is
    documented as unvalidated-orbit mode. Data that passes with tuple fields
    is immutable, so it is marked valid for `d` (by identity) and returns at
    once on `d` later: package-built data is checked once per datum. There
    is no by-value memo, as `SL2Data((True,), ())` equals `SL2Data((1,), ())`.
    """
    if type(data) is SL2Data and data._valid_for is d:
        return
    if not isinstance(data, SL2Data):
        raise ValidationError(f"expected SL2Data, got {data!r}", field="sl2")
    for name, value in (("diagram", data.diagram), ("support", data.support)):
        if not isinstance(value, (tuple, list)):
            raise ValidationError(f"{name} {value!r} is not a tuple or list", field="sl2")
    problems: list[str] = []
    if len(data.diagram) != d.rank:
        problems.append(
            f"diagram length {len(data.diagram)} does not match rank {d.rank}"
        )
    else:
        typed = _INT_ONLY.issuperset(map(type, data.diagram))
        seen, repeated = set(), set()
        for i, v in enumerate(data.diagram):
            if type(v) is not int:
                problems.append(f"diagram entry {v!r} at position {i + 1} is not an integer")
            elif v not in (0, 1, 2):
                problems.append(f"diagram entry {v} at position {i + 1} is outside 0/1/2")
        for root in data.support:
            if type(root) is not tuple:
                # a list is unhashable, so the root-index lookup below would fail
                problems.append(f"support root {root!r} is not a tuple")
                continue
            if len(root) != d.rank:
                problems.append(f"support root {root} has the wrong length")
                continue
            if not _INT_ONLY.issuperset(map(type, root)):
                problems.append(f"support root {root} has a coefficient that is not an integer")
                continue
            if root not in d.root_index:
                problems.append(f"support root {format_root(root)} is not a positive root")
                continue
            if root in seen:
                # a support is a set of roots: each repeated one is named once
                if root not in repeated:
                    repeated.add(root)
                    problems.append(f"support root {format_root(root)} is repeated")
                continue
            seen.add(root)
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
    if type(data) is SL2Data and type(data.diagram) is tuple and type(data.support) is tuple:
        object.__setattr__(data, "_valid_for", d)
