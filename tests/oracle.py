"""Slow, independent references that only the tests use.

From arthurcalc this module imports only input validation
(`validate_partition`, `partition_total`), root data (a `RootDatum`'s rank,
Cartan matrix and positive-root list), the `QMonomial` and
`UnramifiedParameter` constructors, the error type a singular system
raises, and the report decoder (`codec._decode`), which reads global
reports here because only the tests read them. It shares no code with the
layers it checks:

- a matrix-level sl2 triple in the defining representation, built from its
  own blockwise chain layout, with exact matrix helpers and the Jordan type
  of a nilpotent matrix;
- the earlier loop form of the human root name;
- the canonical root order, simple roots, simple reflections of a root,
  the Weyl orbit of a set of roots (the reference for the positive roots),
  the earlier height-by-height enumeration with every pairing and string
  depth recomputed (the reference for the enumeration's order, links and
  index), Weyl words replayed on a vector of simple-root evaluations, and
  Gaussian elimination over Fraction, which also gives the exact inverse of
  an integer matrix;
- one dot product per root for a vector's value on every positive root,
  the Levi/nilradical split, the grading levels and the eigenvalues on
  roots (what `roots.root_values` gets by the height recurrence);
- the product, power and inverse of QMonomials, the trivial parameter,
  and the split of a parameter into its unit part and exponents (with the
  Weyl action, the slow route for `recover_arthur_data`'s unit part);
- plain JSON values of records and scenarios, and canonical JSON by way
  of the standard library's encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import partial
from math import lcm

from arthurcalc.codec import _decode
from arthurcalc.errors import InvariantViolation
from arthurcalc.nilpotent import partition_total, validate_partition
from arthurcalc.parameters import QMonomial, UnramifiedParameter
from arthurcalc.roots import RootDatum
from arthurcalc.scenarios import GlobalReport

Matrix = tuple[tuple[int, ...], ...]


# -- matrix triples ------------------------------------------------------------


@dataclass(frozen=True)
class StandardTriple:
    """Matrix triple in the defining representation; form is the invariant
    bilinear form (None in type A)."""

    e: Matrix
    h: Matrix
    f: Matrix
    form: Matrix | None


def _blocks(family: str, ordered: tuple[int, ...]) -> list[tuple[int, int]]:
    """(part, chains) per block, largest part first: two chains for each
    pair of equal parts whose parity the invariant form forces to pair (even
    parts in B/D, odd parts in C), one chain for every other part."""
    forced = {"B": 0, "C": 1, "D": 0}.get(family)
    blocks: list[tuple[int, int]] = []
    for m in sorted(set(ordered), reverse=True):
        mult = ordered.count(m)
        if m % 2 == forced:
            blocks += [(m, 2)] * (mult // 2)
        else:
            blocks += [(m, 1)] * mult
    return blocks


def _zero(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def standard_triple(family: str, rank: int, parts: tuple[int, ...]) -> StandardTriple:
    """Blockwise integer triple: e/f are chain maps, h is the (unsorted)
    blockwise weight diagonal, and for B/C/D the emitted bilinear form is
    block-split of the correct symmetry type."""
    ordered = validate_partition(family, rank, parts)
    total = partition_total(family, rank)

    e, h, f = _zero(total), _zero(total), _zero(total)
    form = None if family == "A" else _zero(total)
    eta = 1 if family in ("B", "D") else -1

    offset = 0
    for m, chains in _blocks(family, ordered):
        starts = [offset + c * m for c in range(chains)]
        for s in starts:
            for k in range(m):
                h[s + k][s + k] = m - 1 - 2 * k
            for k in range(1, m):
                e[s + k - 1][s + k] = 1
            for k in range(m - 1):
                f[s + k + 1][s + k] = (k + 1) * (m - 1 - k)
        if form is not None:
            if chains == 1:
                s = starts[0]
                for i in range(m):
                    form[s + i][s + m - 1 - i] = (-1) ** i
            else:
                s0, s1 = starts
                for i in range(m):
                    form[s0 + i][s1 + m - 1 - i] = (-1) ** i
                    form[s1 + m - 1 - i][s0 + i] = eta * (-1) ** i
        offset += chains * m

    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return StandardTriple(freeze(e), freeze(h), freeze(f), None if form is None else freeze(form))


def mat_mul(a, b):
    n = len(a)
    cols = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(n)
    )


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _row_reduce(a) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in a]
    n, cols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        pivot = next((r for r in range(top, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = rows[top][col]
        rows[top] = [x / inv for x in rows[top]]
        for r in range(n):
            if r != top and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def matrix_rank(a) -> int:
    return len(_row_reduce(a)[1])


def jordan_type(e) -> tuple[int, ...]:
    """Partition of the nilpotent matrix: parts >= k count rank(e^{k-1}) - rank(e^k)."""
    n = len(e)
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    ranks = [n]
    power = identity
    while ranks[-1] > 0:
        power = mat_mul(power, e)
        ranks.append(matrix_rank(power))
    counts = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts: list[int] = []
    for size in range(len(counts), 0, -1):
        at_least_size = counts[size - 1]
        at_least_next = counts[size] if size < len(counts) else 0
        parts.extend([size] * (at_least_size - at_least_next))
    return tuple(sorted(parts, reverse=True))


# -- root data ------------------------------------------------------------------


def reference_format_root(root: tuple[int, ...]) -> str:
    """The earlier loop form of `roots.format_root`, e.g. "a1 + 2 a2"."""
    terms = []
    for i, c in enumerate(root):
        if c == 0:
            continue
        name = f"a{i + 1}"
        if c == 1:
            terms.append(name)
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{c} {name}")
    return " + ".join(terms) if terms else "0"


def simple_roots(d: RootDatum) -> tuple[tuple[int, ...], ...]:
    n = d.rank
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


def reflect_root(d: RootDatum, i: int, root: tuple[int, ...]) -> tuple[int, ...]:
    """Simple reflection s_i of a root: subtract <root, alpha_i^vee> alpha_i."""
    out = list(root)
    out[i] -= sum(c * d.cartan[k][i] for k, c in enumerate(root))
    return tuple(out)


def weyl_orbit(d: RootDatum, roots) -> set[tuple[int, ...]]:
    """Closure of the roots under the simple reflections."""
    orbit = set(roots)
    frontier = list(orbit)
    while frontier:
        grown = {reflect_root(d, i, root) for root in frontier for i in range(d.rank)}
        frontier = list(grown - orbit)
        orbit |= grown
    return orbit


def root_sort_key(root: tuple[int, ...]) -> tuple:
    """Canonical root order: height ascending, then coefficients descending
    lexicographically (so alpha_1 precedes alpha_2)."""
    return (sum(root), tuple([-c for c in root]))


def _pairing(cartan: Matrix, root: tuple[int, ...], j: int) -> int:
    return sum(root[i] * cartan[i][j] for i in range(len(root)))


def reference_positive_roots(cartan: Matrix):
    """The earlier enumeration, kept as the reference for
    `RootDatum.positive_roots`, `root_links` and `root_index`: closure under
    root strings, one height at a time, with every coroot pairing summed
    afresh and every string depth probed by building the lower roots.
    Returns the positive roots in canonical order, their links (parent
    position, i), each recorded as parent + alpha_i is first added (None for
    a simple root), and the root-to-position map."""
    n = len(cartan)
    roots = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    links: list[tuple[int, int] | None] = [None] * n
    index = {root: k for k, root in enumerate(roots)}
    start = 0
    while start < len(roots):
        grown: dict[tuple[int, ...], tuple[int, int]] = {}
        for parent in range(start, len(roots)):
            beta = roots[parent]
            for i in range(n):
                # q = p - <beta, alpha_i^vee> with p the depth of the string
                depth = 0
                while depth < beta[i] and (*beta[:i], beta[i] - depth - 1, *beta[i + 1 :]) in index:
                    depth += 1
                if depth - _pairing(cartan, beta, i) > 0:
                    grown.setdefault((*beta[:i], beta[i] + 1, *beta[i + 1 :]), (parent, i))
        start = len(roots)
        for root in sorted(grown, key=root_sort_key):
            index[root] = len(roots)
            roots.append(root)
            links.append(grown[root])
    return tuple(roots), tuple(links), index


def apply_word_vector(d: RootDatum, word: tuple[int, ...], vector) -> tuple:
    """Apply the simple reflections of the word, first letter first, to a
    vector of simple-root evaluations: v'_j = v_j - cartan[j][i] * v_i."""
    for i in word:
        vector = tuple(v - d.cartan[j][i] * vector[i] for j, v in enumerate(vector))
    return vector


def dot_root_values(d: RootDatum, vector) -> list[int]:
    """sum_i root[i] * vector[i] on every positive root, in list order."""
    return [sum(c * v for c, v in zip(root, vector)) for root in d.positive_roots]


def dot_levi_and_nilradical(d: RootDatum, theta) -> tuple[tuple, tuple]:
    """Positive roots supported on theta, and the rest."""
    levi = tuple(r for r in d.positive_roots if all(c == 0 or i in theta for i, c in enumerate(r)))
    return levi, tuple(r for r in d.positive_roots if r not in levi)


def dot_grading(d: RootDatum, theta) -> tuple[tuple[int, tuple], ...]:
    """Nilradical roots by level, the coefficient sum off theta, each level
    in list order."""
    levels: dict[int, list] = {}
    for root in dot_levi_and_nilradical(d, theta)[1]:
        level = sum(c for i, c in enumerate(root) if i not in theta)
        levels.setdefault(level, []).append(root)
    return tuple((level, tuple(levels[level])) for level in sorted(levels))


def dot_eigenvalues(roots, p) -> tuple[tuple[Fraction, Fraction], ...]:
    """(q_exp, angle) of the parameter on each root: two dot products with
    the coordinates' fields, the angle reduced mod 1."""
    return tuple(
        (
            sum((c * t.q_exp for c, t in zip(root, p.coords)), Fraction(0)),
            sum((c * t.angle for c, t in zip(root, p.coords)), Fraction(0)) % 1,
        )
        for root in roots
    )


def solve_linear_fractions(rows, rhs) -> list[Fraction]:
    """Solve a square system exactly by Gaussian elimination."""
    n = len(rows)
    reduced, pivots = _row_reduce([[*row, v] for row, v in zip(rows, rhs)])
    if pivots != list(range(n)):
        raise InvariantViolation("singular linear system")
    return [row[n] for row in reduced]


def integer_inverse_fractions(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact inverse of an invertible integer matrix as (D, N), inverse = N / D
    with D the lcm of the entries' denominators, by Gauss-Jordan elimination
    over Fraction on [rows | I]."""
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    reduced, pivots = _row_reduce([[*row, *unit] for row, unit in zip(rows, identity)])
    if pivots[:n] != list(range(n)):
        raise InvariantViolation("singular linear system")
    inverse = [x for row in reduced for x in row[n:]]
    D = lcm(*(x.denominator for x in inverse))
    flat = [x.numerator * (D // x.denominator) for x in inverse]
    return D, tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


# -- eigenvalues and reports -----------------------------------------------------


def qmonomial_mul(a: QMonomial, b: QMonomial) -> QMonomial:
    """The product: exponents and angles add, the angle reduced mod 1."""
    return QMonomial(a.q_exp + b.q_exp, a.angle + b.angle)


def qmonomial_pow(m: QMonomial, n: int) -> QMonomial:
    """The n-th power: exponent and angle times n, the angle reduced mod 1."""
    return QMonomial(m.q_exp * n, m.angle * n)


def qmonomial_inverse(m: QMonomial) -> QMonomial:
    """zeta^-1 * q^-e for zeta * q^e, the angle negated mod 1 by hand."""
    a = m.angle
    return QMonomial(-m.q_exp, Fraction(-a.numerator % a.denominator, a.denominator))


def trivial_parameter(d: RootDatum) -> UnramifiedParameter:
    """The parameter whose every coordinate is 1."""
    return UnramifiedParameter(d, (QMonomial(),) * d.rank)


def decompose_parameter(p: UnramifiedParameter) -> tuple[UnramifiedParameter, tuple]:
    """Split into the bounded (unit) part and the exponent vector; the two
    recompose to the input exactly."""
    units = UnramifiedParameter(p.datum, tuple(QMonomial(angle=t.angle) for t in p.coords))
    return units, tuple(t.q_exp for t in p.coords)


def encode(value):
    """Plain JSON values: Fraction -> "num/den", tuple and list -> list,
    dataclass -> object keyed by field name, dict -> dict of encoded values;
    str, int, bool and None pass through."""
    if type(value) is Fraction:
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    return value


def scenario_payload(s) -> dict:
    """A scenario's file shape: its fields encoded, with `sl2` written as
    "trivial", {"partition": [...]} or {"expert": {...}} by its kind."""
    sl2 = "trivial" if s.sl2 is None else {s.sl2_kind: s.sl2}
    return encode({
        "label": s.label,
        "group": s.group,
        "satake_angles": s.satake_angles,
        "sl2": sl2,
        "generic_assumption": s.generic_assumption,
    })


global_report_from_dict = partial(_decode, GlobalReport, name="global_report")


def reference_canonical_json(value) -> str:
    """The canonical machine bytes through the standard library's encoder."""
    return json.dumps(encode(value), sort_keys=True, indent=2) + "\n"
