"""Reference arithmetic for checking arthurcalc outputs, independent of it.

Nothing here imports arthurcalc. Positive roots come from the epsilon-basis
description of each classical type (Bourbaki numbering of the dual datum, the
one scenario files and reports index by), weighted diagrams from the
partition recipe, and every rational is a pair of Python integers.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

Rational = tuple[int, int]  # (numerator, denominator > 0), lowest terms


def rational(num: int, den: int = 1) -> Rational:
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den) or 1
    return num // g, den // g


def parse_rational(text) -> Rational:
    """Read the reports' "num/den" strings (and plain integers)."""
    if isinstance(text, int):
        return text, 1
    num, _, den = str(text).partition("/")
    return rational(int(num), int(den or 1))


def format_rational(x: Rational) -> str:
    return f"{x[0]}/{x[1]}" if x[1] != 1 else str(x[0])


def dot(coeffs, values: list[Rational]) -> Rational:
    """Exact sum of c_k * v_k over one common denominator."""
    den = 1
    for _, d in values:
        den = den * d // gcd(den, d)
    return rational(sum(c * v * (den // d) for c, (v, d) in zip(coeffs, values)), den)


# ---------------------------------------------------------------------------
# root systems of the dual datum, in simple-root coordinates


def _epsilon_roots(family: str, rank: int) -> list[list[int]]:
    """Positive roots as epsilon vectors (A_n lives in n + 1 coordinates)."""
    dim = rank + 1 if family == "A" else rank
    roots = []

    def e(*pairs):
        v = [0] * dim
        for index, coefficient in pairs:
            v[index] += coefficient
        return v

    for i in range(dim):
        for j in range(i + 1, dim):
            roots.append(e((i, 1), (j, -1)))
            if family != "A":
                roots.append(e((i, 1), (j, 1)))
        if family == "B":
            roots.append(e((i, 1)))
        elif family == "C":
            roots.append(e((i, 2)))
    return roots


def _simple_coordinates(family: str, rank: int, v: list[int]) -> tuple[int, ...]:
    """Solve sum_k c_k alpha_k = v for alpha_k = e_k - e_{k+1} (k < n) and
    the last simple root e_n (B), 2 e_n (C) or e_{n-1} + e_n (D)."""
    partial = []
    total = 0
    for x in v:
        total += x
        partial.append(total)
    if family == "A":
        return tuple(partial[:rank])
    if family == "B":
        return tuple(partial)
    if family == "C":
        return tuple(partial[: rank - 1]) + (partial[rank - 1] // 2,)
    # D: c_{n-1} + c_n = S_{n-1} and c_n - c_{n-1} = v_n
    last = partial[rank - 1] // 2
    return tuple(partial[: rank - 2]) + ((partial[rank - 2] - v[rank - 1]) // 2, last)


# G2 with the long simple root first, as the dual datum of G2 is numbered.
_G2_ROOTS = ((1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    if family == "G":
        return _G2_ROOTS
    return tuple(
        sorted(_simple_coordinates(family, rank, v) for v in _epsilon_roots(family, rank))
    )


def pairing(root, diagram) -> int:
    return sum(c * d for c, d in zip(root, diagram))


# ---------------------------------------------------------------------------
# partitions and weighted diagrams

PARTITION_TOTAL = {"A": lambda n: n + 1, "B": lambda n: 2 * n + 1,
                   "C": lambda n: 2 * n, "D": lambda n: 2 * n}


def weighted_diagram(family: str, rank: int, parts) -> tuple[int, ...]:
    """alpha_k(h) for h the dominant weight vector of the partition's sl2."""
    weights = sorted((m - 1 - 2 * k for m in parts for k in range(m)), reverse=True)
    h = weights[: rank + 1] if family == "A" else weights[:rank]
    simple = []
    for k in range(rank - 1):
        simple.append(h[k] - h[k + 1])
    if family == "A":
        simple.append(h[rank - 1] - h[rank])
    elif family == "B":
        simple.append(h[rank - 1])
    elif family == "C":
        simple.append(2 * h[rank - 1])
    else:
        simple.append(h[rank - 2] + h[rank - 1])
    return tuple(simple)


def random_partition(rng, family: str, rank: int):
    """A random valid partition: free-parity parts singly, the other parity
    in equal pairs."""
    total = PARTITION_TOTAL[family](rank)
    paired_parity = {"A": None, "B": 0, "C": 1, "D": 0}[family]
    parts, left = [], total
    while left:
        m = rng.randint(1, left)
        if m % 2 == paired_parity:
            if 2 * m > left:
                continue
            parts += [m, m]
            left -= 2 * m
        else:
            parts.append(m)
            left -= m
    return tuple(sorted(parts, reverse=True))


def principal_partition(family: str, rank: int) -> tuple[int, ...]:
    """Regular orbit: one Jordan block, except D, where it is (2n - 1, 1)."""
    total = PARTITION_TOTAL[family](rank)
    return (total - 1, 1) if family == "D" else (total,)


def vanishing_angles(rng, roots, rank: int, den: int):
    """Angle numerators over `den` that sum to 0 mod den on every given
    root; random where the roots allow it, all zero otherwise."""
    for _ in range(40):
        nums = [rng.randrange(den) if rng.random() < 0.5 else 0 for _ in range(rank)]
        if all(sum(c * a for c, a in zip(root, nums)) % den == 0 for root in roots):
            return nums
    return [0] * rank


# ---------------------------------------------------------------------------
# checks


def check_witness(witness, exponents, angles, levi, family, rank) -> str | None:
    """Witness contract from the report's own fields: a positive root with
    exponent exactly 1, angle 0 mod 1, not supported on the Levi (1-based)."""
    if tuple(witness) not in set(positive_roots(family, rank)):
        return f"witness {witness} is not a positive root"
    if dot(witness, exponents) != (1, 1):
        return f"witness exponent {format_rational(dot(witness, exponents))} != 1"
    if dot(witness, angles)[1] != 1:
        return f"witness angle {format_rational(dot(witness, angles))} is not 0 mod 1"
    if all(c == 0 or k + 1 in levi for k, c in enumerate(witness)):
        return f"witness {witness} lies in the Levi {sorted(levi)}"
    return None


def root_value_multiset(family, rank, exponents, angles):
    """Values (exponent, angle mod 1) of the torus element on every root,
    positive and negative: a Weyl-group invariant of the parameter."""
    values = []
    for root in positive_roots(family, rank):
        e, a = dot(root, exponents), dot(root, angles)
        a = rational(a[0] % a[1], a[1])
        values.append((e, a))
        values.append((rational(-e[0], e[1]), rational(-a[0] % a[1], a[1])))
    return sorted(values)
