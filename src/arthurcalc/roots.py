"""Root-system combinatorics for the split types A, B, C, D and G2.

Everything is generated from an explicit integer Cartan matrix; there are no
stored root tables. Matrix convention: cartan[i][j] = <alpha_i, alpha_j^vee>,
so a root with coefficient vector c pairs with the j-th simple coroot as
sum_i c[i] * cartan[i][j]. Simple roots follow Bourbaki numbering.

One enumeration pass per datum gives the positive roots, their positions
and, for each root that is not simple, a link to its parent: the positive
root one simple root lower from which the pass reached it. Along the links
`root_values` evaluates an integer vector on all positive roots with one
addition per root. It is the one path for whole-datum evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, lcm
from operator import add, mul

from .errors import InvariantViolation, ValidationError

# A root is its integer coefficient vector over the simple roots.
Root = tuple[int, ...]
RationalVector = tuple[Fraction, ...]
LeviSubset = frozenset[int]
# An exact inverse matrix N / D as (D, N), N an integer matrix.
IntegerInverse = tuple[int, tuple[tuple[int, ...], ...]]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}
_DUAL_FAMILY = {"A": "A", "B": "C", "C": "B", "D": "D", "G": "G"}
# Exactly int: bool is an int subclass, and True == 1 would pass every
# later check.
_INT_ONLY = frozenset({int})
# A vector of exactly these types needs no per-entry check.
_RATIONAL_TYPES = frozenset({int, Fraction})

# Largest rank a CartanSpec accepts; a larger rank is refused as input.
# At rank 24, on a 2-core VM with CPython 3.11.7: enumerating the positive
# roots of one datum takes 1.5-3 ms; a principal-orbit `check`, as one
# cold process, 100-180 ms, of which the interpreter's own start is about
# 55 ms; and `orbits C 24 --format machine` about 1 s.
MAX_RANK = 24


class cached_attribute:
    """A property computed on first read and stored in the instance's
    `__dict__` under its name, where later reads find it; frozen dataclasses
    included. It takes no lock, so two threads may compute the same
    immutable value twice: CPython 3.12 dropped `functools.cached_property`'s
    lock for that reason."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class CartanSpec:
    """A Cartan family letter plus rank, e.g. ("C", 2) for Sp(4)."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _MIN_RANK:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of A, B, C, D, G",
                field="family",
            )
        if isinstance(self.rank, bool) or not isinstance(self.rank, int) or self.rank < 1:
            raise ValidationError("rank must be a positive integer", field="rank")
        if self.rank > MAX_RANK:
            raise ValidationError(
                f"rank {self.rank} exceeds the largest supported rank {MAX_RANK}",
                field="rank",
            )
        if self.family == "G" and self.rank != 2:
            raise ValidationError("family G exists only at rank 2", field="rank")
        if self.rank < _MIN_RANK[self.family]:
            raise ValidationError(
                f"family {self.family} requires rank >= {_MIN_RANK[self.family]}",
                field="rank",
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(spec: CartanSpec) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix of the given type."""
    n = spec.rank
    if spec.family == "G":
        return ((2, -1), (-3, 2))
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i: int, j: int, a: int = -1, b: int = -1) -> None:
        m[i][j] = a
        m[j][i] = b

    if spec.family == "D":
        for i in range(n - 3):
            join(i, i + 1)
        join(n - 3, n - 2)
        join(n - 3, n - 1)
    else:
        for i in range(n - 2):
            join(i, i + 1)
        if spec.family == "A":
            if n >= 2:
                join(n - 2, n - 1)
        elif spec.family == "B":
            # alpha_n is the short root: <alpha_{n-1}, alpha_n^vee> = -2
            join(n - 2, n - 1, -2, -1)
        else:  # C
            join(n - 2, n - 1, -1, -2)
    return tuple(tuple(row) for row in m)


def _transpose(matrix: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*matrix))


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]):
    """Closure under root strings, one height at a time. Returns the positive
    roots in canonical order (height ascending, then coefficients descending
    lexicographically, so alpha_1 precedes alpha_2), their links (parent
    position, i), each recorded as parent + alpha_i is first added (None for
    a simple root), and the root-to-position map.

    beta + alpha_i is a root iff q = p - <beta, alpha_i^vee> > 0, with p the
    depth of the alpha_i-string below beta. Each root carries both numbers
    for every i from its producers, the pairs (beta, i) one height lower
    with beta + alpha_i equal to it: its coroot pairings are the first
    producer's plus Cartan row i, and its alpha_i-string depth is
    p(beta, i) + 1 for each producer (beta, i) and 0 for every other i. So
    the test reads two ints, each root costs O(rank) and the pass
    O(|positive roots| * rank); the pairings and depths are kept for one
    height at a time. Within a height the coefficient sum is fixed, so
    canonical order is descending tuple order."""
    n = len(cartan)
    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    links: list[tuple[int, int] | None] = [None] * n
    # pairings with the simple coroots and string depths of the current height
    pairings = [list(row) for row in cartan]
    depths = [[0] * n for _ in range(n)]
    start = 0
    while pairings:
        # root -> (link, pairings, depths) of the next height
        grown: dict[Root, tuple[tuple[int, int], list[int], list[int]]] = {}
        level = zip(range(start, len(roots)), roots[start:], pairings, depths)
        for parent, beta, pairs, deps in level:
            for i, p, pair in zip(range(n), deps, pairs):
                if p > pair:
                    root = (*beta[:i], beta[i] + 1, *beta[i + 1 :])
                    entry = grown.get(root)
                    if entry is None:
                        up = list(map(add, pairs, cartan[i]))
                        entry = grown[root] = ((parent, i), up, [0] * n)
                    entry[2][i] = p + 1
        start = len(roots)
        order = sorted(grown, reverse=True)
        entries = [grown[root] for root in order]
        roots += order
        links += [link for link, _, _ in entries]
        pairings = [pairs for _, pairs, _ in entries]
        depths = [deps for _, _, deps in entries]
    return tuple(roots), tuple(links), {root: k for k, root in enumerate(roots)}


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix with its positive roots, their positions and their
    parent links, all from one enumeration pass on first use.

    For dual data of B/C the index labels stay aligned with the original
    group's simple roots (the transpose convention), which is again the
    Bourbaki order of the swapped family.

    The matrix must be the spec's `cartan_matrix` or its transpose, as a
    tuple of tuples of ints; any other matrix is refused, since one that is
    not of finite type has infinitely many positive roots.
    """

    spec: CartanSpec
    cartan: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.spec, CartanSpec):
            raise ValidationError(f"expected a CartanSpec, got {self.spec!r}", field="spec")
        matrix = cartan_matrix(self.spec)
        cartan = self.cartan
        # exact tuples of exact ints first, so == below is integer equality
        if not (
            type(cartan) is tuple
            and all(type(row) is tuple and _INT_ONLY.issuperset(map(type, row)) for row in cartan)
            and cartan in (matrix, _transpose(matrix))
        ):
            raise ValidationError(
                f"expected the Cartan matrix of {self.spec} or its transpose, got {cartan!r}",
                field="cartan",
            )
        # the dataclass hash of (spec, cartan), taken once: a hash walks the
        # whole matrix, and every per-datum cache key hashes the datum
        object.__setattr__(self, "_hash", hash((self.spec, cartan)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so a copy or an unpickled datum takes its
        # hash again: str hashes differ between processes
        return RootDatum, (self.spec, self.cartan)

    @property
    def rank(self) -> int:
        return self.spec.rank

    @cached_attribute
    def _enumeration(self):
        return _generate_positive_roots(self.cartan)

    @cached_attribute
    def positive_roots(self) -> tuple[Root, ...]:
        return self._enumeration[0]

    @cached_attribute
    def root_links(self) -> tuple[tuple[int, int] | None, ...]:
        """Entry k is (parent, i) with parent < k and positive_roots[k] =
        positive_roots[parent] + alpha_i, or None for a simple root."""
        return self._enumeration[1]

    @cached_attribute
    def root_index(self) -> dict[Root, int]:
        """Position of each positive root in `positive_roots`."""
        return self._enumeration[2]

    @cached_attribute
    def reflection_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Entry i lists (j, cartan[j][i]) for the nonzero entries of Cartan
        column i, (i, 2) included: the coordinates that s_i moves."""
        n = self.rank
        return tuple(
            tuple([(j, self.cartan[j][i]) for j in range(n) if self.cartan[j][i]])
            for i in range(n)
        )

    @cached_attribute
    def cartan_inverse(self) -> IntegerInverse:
        """The inverse Cartan matrix as (D, N), inverse = N / D."""
        return integer_inverse(self.cartan)


@lru_cache(maxsize=None)
def build_root_datum(spec: CartanSpec) -> RootDatum:
    return RootDatum(spec, cartan_matrix(spec))


@lru_cache(maxsize=None)
def dual_datum(d: RootDatum) -> RootDatum:
    """Transpose the Cartan matrix; B and C trade places, A/D/G are self-dual.
    For A-D that is the dual spec's own matrix, so its cached datum (and one
    root enumeration) is shared; G2's transpose swaps long and short labels."""
    transposed = _transpose(d.cartan)
    spec = CartanSpec(_DUAL_FAMILY[d.spec.family], d.spec.rank)
    shared = build_root_datum(spec)
    return shared if shared.cartan == transposed else RootDatum(spec, transposed)


def root_values(d: RootDatum, vector) -> list[int]:
    """The integer vector's value sum_i root[i] * vector[i] on every
    positive root, in `positive_roots` order: the simple roots take the
    entries themselves, every other root its parent's value plus one entry."""
    if len(vector) != d.rank:
        raise ValidationError("vector length does not match rank")
    values = list(vector)
    append = values.append
    for parent, i in islice(d.root_links, d.rank, None):
        append(values[parent] + vector[i])
    return values


def root_positions(d: RootDatum, roots) -> list[int]:
    """Positions of the roots in `positive_roots`; anything that is not a
    positive root of the datum is refused."""
    index = d.root_index
    positions = []
    for root in roots:
        try:
            positions.append(index[root])
        except (KeyError, TypeError):
            raise ValidationError(
                f"{root!r} is not a positive root of {d.spec}", field="roots"
            ) from None
    return positions


def diagram_pairing(root: Root, diagram: tuple[int, ...]) -> int:
    """Value of the root on the semisimple element H determined by the
    weighted diagram: sum of coefficient * diagram entry."""
    if len(root) != len(diagram):
        raise ValidationError("root and diagram lengths differ")
    return sum(map(mul, root, diagram))


def validate_word(d: RootDatum, word) -> None:
    """Refuse a Weyl word unless every letter is an int (bool excluded) in
    0..rank-1: one pass over the letters' types and one over their range."""
    if not isinstance(word, (tuple, list)):
        raise ValidationError(f"expected a tuple of simple indices, got {word!r}", field="word")
    if _INT_ONLY.issuperset(map(type, word)) and (not word or 0 <= min(word) and max(word) < d.rank):
        return
    bad = next(i for i in word if type(i) is not int or not 0 <= i < d.rank)
    raise ValidationError(
        f"letter {bad!r} is not a simple index in 0..{d.rank - 1}", field="word"
    )


def _reflect(columns, i: int, vector: list) -> None:
    """Simple reflection s_i, in place, of a list of simple-root
    evaluations: v_j -= cartan[j][i] * v_i over the nonzero entries of
    column i, as `RootDatum.reflection_columns` lists them."""
    vi = vector[i]
    for j, c in columns[i]:
        vector[j] -= c * vi


def _dominant_walk(d: RootDatum, nums) -> tuple[list[int], tuple[int, ...]]:
    """(dominant numerators, word) for numerators over one D > 0, which have
    the signs of the rationals. Each step strictly reduces the number of
    positive roots evaluating negatively, so length <= their number."""
    current = list(nums)
    columns = d.reflection_columns
    word: list[int] = []
    bound = len(d.positive_roots)
    while True:
        i = next((i for i, v in enumerate(current) if v < 0), None)
        if i is None:
            return current, tuple(word)
        if len(word) > bound:
            raise InvariantViolation("dominantization exceeded the positive-root bound")
        _reflect(columns, i, current)
        word.append(i)


def dominantize(d: RootDatum, vector: RationalVector) -> tuple[RationalVector, tuple[int, ...]]:
    """Walk the vector into the closed dominant chamber (all entries >= 0).

    Returns (dominant vector, word): reflecting the input by the word's
    letters in order gives the output. `_dominant_walk` walks the numerators
    over one denominator; only the output is built, as reduced Fractions.
    """
    D, nums = _over_common_denominator_checked(d, vector, "vector")
    dominant, word = _dominant_walk(d, nums)
    return tuple([Fraction(v, D) for v in dominant]), word


def validate_levi(d: RootDatum, theta: LeviSubset) -> LeviSubset:
    theta = frozenset(theta)
    for i in theta:
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValidationError(f"Levi index {i!r} is not an integer", field="levi")
        if not 0 <= i < d.rank:
            raise ValidationError(f"Levi index {i} outside 0..{d.rank - 1}", field="levi")
    return theta


def off_levi_indicator(d: RootDatum, theta: LeviSubset) -> tuple[int, ...]:
    """1 at each simple index outside theta, 0 inside: its dot product with a
    positive root is the root's coefficient sum off the Levi."""
    return tuple([0 if i in theta else 1 for i in range(d.rank)])


def format_root(root: Root) -> str:
    """Human form, e.g. "a1 + 2 a2"."""
    terms = [f"a{i}" if c == 1 else f"-a{i}" if c == -1 else f"{c} a{i}"
             for i, c in enumerate(root, 1) if c]
    return " + ".join(terms) if terms else "0"


def integer_inverse(rows) -> IntegerInverse:
    """Exact inverse of an invertible integer matrix as (D, N) with
    inverse = N / D, D the lcm of the entries' denominators.

    Fraction-free (Bareiss) Gauss-Jordan on [rows | I]: each elimination
    divides exactly by the previous pivot, so every entry stays an integer
    (a minor of the augmented matrix). It ends at [p I | p inverse] with p
    the last pivot, and (D, N) is p inverse over p in lowest common terms.
    """
    n = len(rows)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise InvariantViolation("singular linear system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[col]
        for r in range(n):
            if r != col:
                row = aug[r]
                factor = row[col]
                aug[r] = [(p * x - factor * y) // previous for x, y in zip(row, top)]
        previous = p
    adjugate = [x for row in aug for x in row[n:]]
    g = gcd(previous, *adjugate)
    if previous < 0:
        g = -g
    D = previous // g
    return D, tuple(tuple(x // g for x in adjugate[i * n : (i + 1) * n]) for i in range(n))


def over_common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """(D, numerators) with values[i] = numerators[i] / D, D the lcm of the
    denominators of the values (ints or Fractions, each read once)."""
    ratios = [v.as_integer_ratio() for v in values]
    D = lcm(*[b for _, b in ratios])
    return D, tuple([a * (D // b) for a, b in ratios])


def _rational(value, field: str):
    """The value if it is exact: a Fraction, or an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValidationError(f"expected a rational, got {value!r}", field=field)
    return value


def _over_common_denominator_checked(d: RootDatum, vector, field: str) -> tuple[int, tuple[int, ...]]:
    """`over_common_denominator` of a tuple or list of rank rationals, each
    held to `_rational`; anything else is refused on the field."""
    if not isinstance(vector, (tuple, list)):
        raise ValidationError(f"expected a tuple of rationals, got {vector!r}", field=field)
    if len(vector) != d.rank:
        raise ValidationError(f"expected {d.rank} rationals, got {len(vector)}", field=field)
    if not _RATIONAL_TYPES.issuperset(map(type, vector)):
        for v in vector:
            _rational(v, field)
    return over_common_denominator(vector)


def evaluation_exponents(d: RootDatum, character_exps: RationalVector) -> RationalVector:
    """Satake evaluation exponents of the twist with the given character
    exponents: e_i = sum_j cartan[i][j] * c_j, one integer dot product per
    Cartan row on the vector written over one denominator E."""
    E, nums = _over_common_denominator_checked(d, character_exps, "exponents")
    return tuple([Fraction(sum(map(mul, row, nums)), E) for row in d.cartan])


def character_exponents(d: RootDatum, evaluation_exps: RationalVector) -> RationalVector:
    """Inverse of evaluation_exponents: the datum's cached inverse Cartan
    matrix N / D applied to the vector written over one denominator E."""
    E, nums = _over_common_denominator_checked(d, evaluation_exps, "exponents")
    D, N = d.cartan_inverse
    return tuple([Fraction(sum(map(mul, row, nums)), D * E) for row in N])
