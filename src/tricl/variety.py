"""Trinomial variety data model, adjustment, and gcd invariants.

A trinomial variety is the common zero locus of a chain of trinomials

    T_0^{l_0} + T_1^{l_1} + T_2^{l_2},
    theta_1 T_1^{l_1} + T_2^{l_2} + T_3^{l_3},  ...

where each T_i^{l_i} is a monomial in the block of variables T_i1..T_in_i
and m extra free variables S_1..S_m may be present.  All invariants computed
downstream depend only on the exponent data, so coefficients are carried as
exact rationals or generic placeholders and never enter any group
computation.

Both families, trinomial and Type 1, share one private base class: the
fields, the construction checks and the block gcds.
Variety values built from outside data are checked when they are
constructed: invalid data raises an `InvalidVarietyError` subclass there, so
every existing value is valid.  Values the library derives from checked
values (the adjusted order, a total coordinate space, a Type 1 adjustment
or lift) are built by `_derived`, which skips the checks:
their parts are tuples of positive `int` exponents taken from a checked
value, an `int` m and no coefficients.

Analyse once.  A value caches its block gcds L_i, whether it is adjusted,
its rationality class, its component counts c(i) and its total coordinate
space, each computed on first use and kept only as long as the value.  The
cache takes no lock: two threads may both compute a field, but it is a
function of the frozen fields alone, so both store equal values.  `adjust`
reuses the input's gcds and hands its result the gcds in adjusted order and
the adjusted flag; input already in adjusted order comes back as the same
object.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    DuplicateThetaError,
    EmptyBlockError,
    InvalidVarietyError,
    NonPositiveExponentError,
    NotAdjustedError,
    ResourceLimitError,
)
from .exactlinalg import SparseRow

Theta = Union[Fraction, str]

GENERIC_THETA = "generic"


def _coerce_theta(theta) -> Optional[tuple[Theta, ...]]:
    if theta is None:
        return None
    out: list[Theta] = []
    for item in theta:
        if item == GENERIC_THETA or isinstance(item, Fraction):
            out.append(item)
            continue
        try:
            if isinstance(item, (str, Decimal)) and "e" in str(item).lower():
                # Refused at once: Fraction("1e100000000") computes 10^100000000.
                raise ValueError("exponent notation")
            out.append(Fraction(item))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidVarietyError(
                f"coefficient {item!r} is neither 'generic' nor a rational"
            ) from exc
    return tuple(out)


class _analysis:
    """`functools.cached_property` without the lock it takes before Python
    3.12: the first read stores the result in the instance dict, where every
    later read finds it before the descriptor."""

    def __init__(self, function):
        self.function = function
        self.name = function.__name__

    def __get__(self, value, owner=None):
        if value is None:
            return self
        result = value.__dict__[self.name] = self.function(value)
        return result


def _derived(cls, blocks: tuple, m: int, **analysis):
    """A `cls` value from parts that are already checked, without the checks.

    `blocks` is a tuple of tuples of positive ints and `m` a nonnegative
    int, both taken from checked values; theta is None.  `analysis` holds
    cached fields the caller already knows, such as ``_gcds``.
    """
    value = object.__new__(cls)
    value.__dict__.update(blocks=blocks, m=m, theta=None, **analysis)
    return value


class RationalityKind(enum.Enum):
    FACTORIAL = "factorial"
    CASE_II = "case_ii"
    CASE_III = "case_iii"
    NON_RATIONAL = "non_rational"


@dataclass(frozen=True)
class RationalityClass:
    """Outcome of the rationality test on an adjusted variety."""

    kind: RationalityKind
    c: Optional[int] = None  # gcd(L0, L1) in case II

    @property
    def is_rational(self) -> bool:
        return self.kind is not RationalityKind.NON_RATIONAL

    @property
    def is_factorial(self) -> bool:
        return self.kind is RationalityKind.FACTORIAL


_FACTORIAL = RationalityClass(RationalityKind.FACTORIAL)
_CASE_III = RationalityClass(RationalityKind.CASE_III)
_NON_RATIONAL = RationalityClass(RationalityKind.NON_RATIONAL)


@dataclass(frozen=True)
class _Variety:
    """The fields, construction checks, block gcds and free rank of both families.

    A family sets three class constants: `_relation_blocks`, the fewest
    blocks that carry a relation; `_plain_blocks`, the blocks without a
    coefficient; and `_fixed_first`, whether the first coefficient is fixed
    to 1.  Exponents and m must be integers: a float raises, never truncates.
    """

    blocks: tuple[tuple[int, ...], ...]
    m: int = 0
    theta: Optional[tuple[Theta, ...]] = None

    def __post_init__(self) -> None:
        try:
            blocks = tuple([tuple(map(operator.index, b)) for b in self.blocks])
        except TypeError as exc:
            raise InvalidVarietyError(
                f"blocks must be lists of integers, got {self.blocks!r}"
            ) from exc
        try:
            m = operator.index(self.m)
        except TypeError as exc:
            raise InvalidVarietyError(f"m must be an integer, got {self.m!r}") from exc
        self.__dict__.update(blocks=blocks, m=m, theta=_coerce_theta(self.theta))
        for index, block in enumerate(blocks):
            if not block:
                raise EmptyBlockError(f"block {index} is empty")
            if min(block) < 1:
                raise NonPositiveExponentError(f"block {index} has a non-positive exponent: {block}")
        if m < 0:
            raise InvalidVarietyError("m must be nonnegative")
        theta = self.theta
        if theta is None:
            return
        expected = max(len(blocks) - self._plain_blocks, 0)
        if len(theta) != expected:
            raise InvalidVarietyError(
                f"expected {expected} coefficients for {len(blocks)} blocks, "
                f"got {len(theta)}"
            )
        if self._fixed_first and theta and theta[0] not in (GENERIC_THETA, Fraction(1)):
            raise InvalidVarietyError("the first coefficient is fixed to 1")
        exact = [t for t in theta if isinstance(t, Fraction)]
        if any(t == 0 for t in exact):
            raise InvalidVarietyError("coefficients must be nonzero")
        if len(set(exact)) != len(exact):
            raise DuplicateThetaError("coefficients must be pairwise different")

    @property
    def is_degenerate(self) -> bool:
        """True when the blocks carry no relation: an affine space."""
        return len(self.blocks) < self._relation_blocks

    def block_gcds(self) -> tuple[int, ...]:
        return self._gcds

    @_analysis
    def _gcds(self) -> tuple[int, ...]:
        return tuple([math.gcd(*block) for block in self.blocks])

    def _free_rank(self) -> int:
        """sum((c(i) - 1) n_i - c(i) + 1) over the family's c(i); 0 for an affine space."""
        if self.is_degenerate:
            return 0
        return sum((c - 1) * len(block) - c + 1 for c, block in zip(self._counts, self.blocks))


@dataclass(frozen=True)
class TrinomialVariety(_Variety):
    """Exponent blocks l_0..l_r, free-variable count m, optional coefficients.

    ``theta`` holds the r-2 relation coefficients as exact `Fraction`s or the
    string ``"generic"`` (pairwise different nonzero values chosen abstractly).
    Fewer than three blocks describe an affine space; such data is flagged
    degenerate rather than rejected.  Construction raises EmptyBlockError,
    NonPositiveExponentError, DuplicateThetaError or InvalidVarietyError on
    invalid data.

    The underscored cached fields hold the analysis of the value.  The
    rationality class and component counts are meaningful only for adjusted
    data; `rationality_class` and `block_invariants` check that first.
    """

    _relation_blocks, _plain_blocks, _fixed_first = 3, 3, False

    @property
    def r(self) -> int:
        """Index of the last block; the variety has r+1 blocks."""
        return len(self.blocks) - 1

    @property
    def n(self) -> int:
        """Total number of block variables."""
        return sum(len(block) for block in self.blocks)

    @property
    def relation_count(self) -> int:
        return max(len(self.blocks) - 2, 0)

    @_analysis
    def _adjusted(self) -> bool:
        if self.is_degenerate:
            return True
        if (1,) in self.blocks:
            return False
        gcds = self._gcds
        head = bound = math.gcd(gcds[0], gcds[1])
        for j in range(2, len(gcds)):
            # gcd(L0, Lj) falls as j rises, and no pair exceeds gcd(L0, L1).
            bound, previous = math.gcd(gcds[0], gcds[j]), bound
            if bound > previous:
                return False
            for i in range(1, j):
                if math.gcd(gcds[i], gcds[j]) > head:
                    return False
        return True

    @_analysis
    def _rationality(self) -> RationalityClass:
        if self.is_degenerate:
            return _FACTORIAL
        gcds = self._gcds
        # Every pair (i, j) with j >= 3 must be coprime: L_j against the
        # product of the earlier block gcds.
        earlier = gcds[0] * gcds[1] * gcds[2]
        for gj in gcds[3:]:
            if math.gcd(earlier, gj) != 1:
                return _NON_RATIONAL
            earlier *= gj
        g01 = math.gcd(gcds[0], gcds[1])
        g02 = math.gcd(gcds[0], gcds[2])
        g12 = math.gcd(gcds[1], gcds[2])
        if g02 == g12 == 1:
            if g01 == 1:
                return _FACTORIAL
            return RationalityClass(RationalityKind.CASE_II, g01)
        if g01 == g02 == g12 == 2:
            return _CASE_III
        return _NON_RATIONAL

    @_analysis
    def _counts(self) -> tuple[int, ...]:
        gcds = self._gcds
        l0, l1, l2 = gcds[0], gcds[1], gcds[2]
        c0, c1, c2 = math.gcd(l1, l2), math.gcd(l0, l2), math.gcd(l0, l1)
        # gcd(c1, c2) = gcd(L0, L1, L2) divides every c(i): the quotient is exact.
        return (c0, c1, c2) + (c0 * c1 * c2 // math.gcd(c1, c2),) * (len(gcds) - 3)

    @_analysis
    def _tcs(self) -> "TrinomialVariety":
        """The raw total coordinate space of a rational non-factorial value.

        Block i is c(i) copies of the column gcds of P1 over block i, which
        are l_i / d_i.  Row k >= 1 of P1 is (-l_0, l_k) with row k divided
        by d_k = gcd(L0, Lk) for k = 1, 2, and d_k = 1 for k >= 3.  So a
        column of block i >= 1 holds the one entry l_ij / d_i, and a column
        of block 0 holds -l_0j / d_1, -l_0j / d_2 and, if r >= 3, -l_0j,
        whose gcd is l_0j / d_0 with d_0 = lcm(d_1, d_2).  Here d_1 = c(2)
        and d_2 = c(1).  It holds no reference back to this value, so
        caching it makes no cycle.
        """
        _checked_n_prime(self)
        c = self._counts
        divisors = (math.lcm(c[1], c[2]), c[2], c[1]) + (1,) * (len(c) - 3)
        vectors = [tuple([e // d for e in block]) for block, d in zip(self.blocks, divisors)]
        flat = tuple([vector for vector, k in zip(vectors, c) for _ in range(k)])
        return _derived(TrinomialVariety, flat, self.m)


@dataclass(frozen=True)
class AdjustmentRecord:
    """What `adjust` did: deleted blocks and the survivor permutation.

    ``eliminated`` lists original indices of deleted single-variable exponent-1
    blocks in deletion order; ``permutation`` maps adjusted position to the
    original index of the surviving block; ``degenerate`` flags an affine-space
    remainder (fewer than three blocks).
    """

    eliminated: tuple[int, ...]
    permutation: tuple[int, ...]
    degenerate: bool


def adjust(variety: TrinomialVariety) -> tuple[TrinomialVariety, AdjustmentRecord]:
    """Bring a variety into adjusted form.

    Single-variable blocks with exponent 1 occur linearly in some relation and
    are eliminated one at a time (leftmost first, to a fixpoint), each
    deletion removing one block and one relation.  The survivors are permuted
    so that gcd(L0, L1) is maximal among all pairwise gcds of the block gcds
    L_i and gcd(L0, L2) >= gcd(L0, L3) >= ... holds; among valid orderings the
    lexicographically smallest key sequence (L_i descending, then n_i
    descending, then original index) is chosen, so the result is
    deterministic.  That ordering is built directly: the leading block is
    the lowest-key block of a maximal-gcd pair, the second is its
    lowest-key maximal-gcd partner, and the rest follow by gcd with the
    leading block descending, then by key.  If fewer than three blocks
    survive the result is flagged degenerate.

    Input that is already in this order is returned itself, with the
    identity record.  Otherwise reordering and elimination rewire the
    relations, so exact coefficients cannot be carried along; they are reset
    to generic placeholders with a warning.
    """
    blocks, gcds = variety.blocks, variety._gcds
    order = range(len(blocks))
    eliminated = []
    if (1,) in blocks:
        # Leftmost first, to a fixpoint: the first (1,) blocks, keeping two.
        eliminated = [i for i in order if blocks[i] == (1,)][: max(len(blocks) - 2, 0)]
        order = [i for i in order if i not in eliminated]
    # Block key: gcd descending, then size descending, then position.
    order = sorted(order, key=lambda i: (-gcds[i], -len(blocks[i]), i))
    degenerate = len(order) < 3
    if not degenerate:
        # The lexicographically first pair (in key order) of maximal gcd
        # leads.  Row k cannot beat `best` once L_k <= best, and the key
        # order makes L_k non-increasing.
        best, lead = 0, (0, 1)
        for k, i in enumerate(order):
            gi = gcds[i]
            if gi <= best:
                break
            for q in range(k + 1, len(order)):
                g = math.gcd(gi, gcds[order[q]])
                if g > best:
                    best, lead = g, (k, q)
        first, second = order[lead[0]], order[lead[1]]
        rest = [i for i in order if i != first and i != second]
        g_first = gcds[first]
        # The sort is stable, so ties keep their key order.
        rest.sort(key=lambda i: -math.gcd(g_first, gcds[i]))
        order = [first, second] + rest

    record = AdjustmentRecord(tuple(eliminated), tuple(order), degenerate)
    if not eliminated and order == list(range(len(blocks))):
        variety.__dict__["_adjusted"] = True
        return variety, record
    return _reordered(variety, order), record


def _reordered(variety, order: list[int]):
    """The adjusted value of either family holding the blocks of `variety`
    at positions `order`, which move or drop some.  That rewires the
    relations, so the coefficients are reset to generic ones, with a warning
    to the adjusting function's caller when an exact one is lost (a fixed
    first coefficient is no data)."""
    blocks, gcds, theta = variety.blocks, variety._gcds, variety.theta
    if theta is not None and any(isinstance(t, Fraction) for t in theta[variety._fixed_first :]):
        warnings.warn(
            "adjustment rewires the relations; exact coefficients were reset "
            "to generic placeholders",
            stacklevel=3,
        )
    return _derived(
        type(variety),
        tuple([blocks[i] for i in order]),
        variety.m,
        _gcds=tuple([gcds[i] for i in order]),
        _adjusted=True,
    )


def is_adjusted(variety) -> bool:
    """True iff the variety, of either family, is in adjusted form.

    Any ordering meeting the gcd constraints counts; the tie-break used by
    `adjust` is not required.  Degenerate data is vacuously adjusted.
    """
    return variety._adjusted


def require_adjusted(variety):
    if not variety._adjusted:
        raise NotAdjustedError(f"variety with blocks {variety.blocks} is not adjusted")
    return variety


def rationality_class(variety: TrinomialVariety) -> RationalityClass:
    """Classify an adjusted variety by the pairwise gcds of its block gcds.

    Factorial: all pairwise gcds are 1.  Case II: gcd(L0, L1) > 1 is the only
    nontrivial pairwise gcd.  Case III: the three pairwise gcds among blocks
    0, 1, 2 all equal 2 and every other pair is coprime.  Anything else has a
    class group that is not finitely generated.  Degenerate data is an affine
    space and is reported factorial.  Raises NotAdjustedError otherwise.
    """
    return require_adjusted(variety)._rationality


@dataclass(frozen=True)
class BlockInvariants:
    """gcd bookkeeping of an adjusted variety.

    ``frak_l`` lists the block gcds L_i, ``pairwise_gcd`` the full symmetric
    table gcd(L_i, L_j), ``frak_l_small`` is gcd(L0, L1, L2) (None for
    degenerate data), and ``c`` the component counts c(i) when the variety is
    rational (None otherwise): c(0) = gcd(L1, L2), c(1) = gcd(L0, L2),
    c(2) = gcd(L0, L1) and c(i) = c(0)c(1)c(2)/gcd(L0, L1, L2) for i >= 3.
    """

    frak_l: tuple[int, ...]
    pairwise_gcd: tuple[tuple[int, ...], ...]
    frak_l_small: Optional[int]
    c: Optional[tuple[int, ...]]


def block_invariants(variety: TrinomialVariety) -> BlockInvariants:
    """Exact gcd data of the blocks; c(i) only when adjusted and rational."""
    gcds = variety.block_gcds()
    table = tuple(
        tuple(math.gcd(a, b) for b in gcds) for a in gcds
    )
    small = math.gcd(gcds[0], gcds[1], gcds[2]) if len(gcds) >= 3 else None
    c = None
    if not variety.is_degenerate and variety._adjusted and variety._rationality.is_rational:
        c = variety._counts
    return BlockInvariants(gcds, table, small, c)


def dimension(variety: TrinomialVariety) -> int:
    """dim X = n + m - (number of relations); a complete intersection count."""
    return variety.n + variety.m - variety.relation_count


# The most relations, and the most variables in one block, of an input file:
# a guard against accidentally huge input.  MAX_N_PRIME was checked within it.
MAX_BLOCK = 16

# The most generators n' = sum c(i) n_i of a total coordinate space that is
# handled.  The class group has up to n' factors and its presentations n'
# columns, so this bounds the size of a presentation, not the time of its
# Smith form, which grows with the exponents' bit length.
MAX_N_PRIME = 1 << 15


def check_size(name: str, count: int, unit: str) -> None:
    """Raise ResourceLimitError if `count` exceeds MAX_N_PRIME; past 64 bits the
    message gives a power of two below it, never an integer too long to print."""
    if count > MAX_N_PRIME:
        shown = f"= {count}" if count.bit_length() <= 64 else f">= 2^{count.bit_length() - 1}"
        raise ResourceLimitError(f"{name} {shown} {unit}, over the {MAX_N_PRIME} handled")


def _checked_n_prime(variety: TrinomialVariety) -> None:
    """`check_size` on n' of an adjusted rational variety."""
    n_prime = sum(map(operator.mul, variety._counts, map(len, variety.blocks)))
    check_size("n'", n_prime, "TCS generators")


def _block_offsets(blocks: Sequence[Sequence[int]]) -> list[int]:
    """Start column of each block when the blocks are laid out side by side."""
    offsets = []
    position = 0
    for block in blocks:
        offsets.append(position)
        position += len(block)
    return offsets


def _exponent_rows(blocks: Sequence[Sequence[int]]) -> list[SparseRow]:
    """Sparse rows (-l_0, 0.., l_i, ..0) for i >= 1, blocks side by side."""
    return [
        {**{j: -e for j, e in enumerate(blocks[0])}, **{offset + j: e for j, e in enumerate(block)}}
        for offset, block in zip(_block_offsets(blocks)[1:], blocks[1:])
    ]


def _monomial(block_index: int, block: Sequence[int]) -> str:
    parts = []
    for j, e in enumerate(block, start=1):
        name = f"T{block_index}{j}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if len(parts) > 1 else parts[0]


def render_relations(variety: TrinomialVariety) -> str:
    """Human-readable defining trinomials, one per line.

    Degenerate data has no relations and renders as an affine-space note.
    Coefficients beyond the first relation are shown as their exact value or
    as theta_k placeholders.
    """
    if variety.is_degenerate:
        return ""
    monomials = [_monomial(i, block) for i, block in enumerate(variety.blocks)]
    lines = [f"{monomials[0]} + {monomials[1]} + {monomials[2]}"]
    for k in range(1, len(variety.blocks) - 2):
        theta = None
        if variety.theta is not None:
            theta = variety.theta[k - 1]
        if theta is None or theta == GENERIC_THETA:
            prefix = f"theta{k}*"
        else:
            prefix = f"({theta})*"
        lines.append(f"{prefix}{monomials[k]} + {monomials[k + 1]} + {monomials[k + 2]}")
    return "\n".join(lines)
