"""Trinomial variety data model, adjustment, and gcd invariants.

A trinomial variety is the common zero locus of a chain of trinomials

    T_0^{l_0} + T_1^{l_1} + T_2^{l_2},
    theta_1 T_1^{l_1} + T_2^{l_2} + T_3^{l_3},  ...

where each T_i^{l_i} is a monomial in the block of variables T_i1..T_in_i
and m extra free variables S_1..S_m may be present.  All invariants computed
downstream depend only on the exponent data, so coefficients are carried as
exact rationals or generic placeholders and never enter any group
computation.

Variety values are checked when they are constructed: invalid data raises
an `InvalidVarietyError` subclass there, so every existing value is valid.
Each value computes its block gcds, its adjustedness, its rationality class
and its component counts at most once, on first use.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import (
    DuplicateThetaError,
    EmptyBlockError,
    InvalidVarietyError,
    NonPositiveExponentError,
    NotAdjustedError,
)
from .exactlinalg import IntMatrix

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
            out.append(Fraction(item))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidVarietyError(
                f"coefficient {item!r} is neither 'generic' nor a rational"
            ) from exc
    return tuple(out)


def _coerce_fields(value) -> None:
    """Normalise the blocks, m and theta of a frozen variety value in place."""
    object.__setattr__(value, "blocks", tuple(tuple(int(x) for x in b) for b in value.blocks))
    object.__setattr__(value, "m", int(value.m))
    object.__setattr__(value, "theta", _coerce_theta(value.theta))


def _check_fields(value, expected_theta: int, fixed_first: bool = False) -> None:
    """Structural checks shared by every variety family.

    `expected_theta` is the number of coefficients the family carries for
    these blocks; `fixed_first` requires the first coefficient to be 1.
    Raises EmptyBlockError, NonPositiveExponentError, DuplicateThetaError or
    InvalidVarietyError.
    """
    for index, block in enumerate(value.blocks):
        if not block:
            raise EmptyBlockError(f"block {index} is empty")
        if any(e < 1 for e in block):
            raise NonPositiveExponentError(f"block {index} has a non-positive exponent: {block}")
    if value.m < 0:
        raise InvalidVarietyError("m must be nonnegative")
    if value.theta is None:
        return
    if len(value.theta) != expected_theta:
        raise InvalidVarietyError(
            f"expected {expected_theta} coefficients for {len(value.blocks)} blocks, "
            f"got {len(value.theta)}"
        )
    if fixed_first and value.theta and value.theta[0] not in (GENERIC_THETA, Fraction(1)):
        raise InvalidVarietyError("the first coefficient is fixed to 1")
    exact = [t for t in value.theta if isinstance(t, Fraction)]
    if any(t == 0 for t in exact):
        raise InvalidVarietyError("coefficients must be nonzero")
    if len(set(exact)) != len(exact):
        raise DuplicateThetaError("coefficients must be pairwise different")


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


@dataclass(frozen=True)
class TrinomialVariety:
    """Exponent blocks l_0..l_r, free-variable count m, optional coefficients.

    ``theta`` holds the r-2 relation coefficients as exact `Fraction`s or the
    string ``"generic"`` (pairwise different nonzero values chosen abstractly).
    Fewer than three blocks describe an affine space; such data is flagged
    degenerate rather than rejected.  Construction raises EmptyBlockError,
    NonPositiveExponentError, DuplicateThetaError or InvalidVarietyError on
    invalid data.

    The underscored cached properties hold the analysis of the value.  The
    rationality class and component counts are meaningful only for adjusted
    data; `rationality_class` and `component_counts` check that first.
    """

    blocks: tuple[tuple[int, ...], ...]
    m: int = 0
    theta: Optional[tuple[Theta, ...]] = None

    def __post_init__(self) -> None:
        _coerce_fields(self)
        _check_fields(self, max(len(self.blocks) - 3, 0))

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

    @property
    def is_degenerate(self) -> bool:
        """True when there are fewer than three blocks: an affine space."""
        return len(self.blocks) < 3

    def block_gcds(self) -> tuple[int, ...]:
        return self._gcds

    @cached_property
    def _gcds(self) -> tuple[int, ...]:
        return tuple(math.gcd(*block) for block in self.blocks)

    @cached_property
    def _adjusted(self) -> bool:
        if self.is_degenerate:
            return True
        if any(block == (1,) for block in self.blocks):
            return False
        gcds = self._gcds
        head = math.gcd(gcds[0], gcds[1])
        pairs = (
            math.gcd(gcds[i], gcds[j])
            for i in range(len(gcds))
            for j in range(i + 1, len(gcds))
        )
        if any(head < p for p in pairs):
            return False
        tail = [math.gcd(gcds[0], gcds[j]) for j in range(2, len(gcds))]
        return all(a >= b for a, b in zip(tail, tail[1:]))

    @cached_property
    def _rationality(self) -> RationalityClass:
        if self.is_degenerate:
            return RationalityClass(RationalityKind.FACTORIAL)
        gcds = self._gcds
        count = len(gcds)

        def pair(i: int, j: int) -> int:
            return math.gcd(gcds[i], gcds[j])

        others_coprime_outside = all(
            pair(i, j) == 1
            for i in range(count)
            for j in range(i + 1, count)
            if j >= 2
        )
        if pair(0, 1) == 1 and others_coprime_outside:
            return RationalityClass(RationalityKind.FACTORIAL)
        if pair(0, 1) > 1 and others_coprime_outside:
            return RationalityClass(RationalityKind.CASE_II, pair(0, 1))
        outside_012 = all(
            pair(i, j) == 1
            for i in range(count)
            for j in range(i + 1, count)
            if j >= 3
        )
        if pair(0, 1) == pair(0, 2) == pair(1, 2) == 2 and outside_012:
            return RationalityClass(RationalityKind.CASE_III)
        return RationalityClass(RationalityKind.NON_RATIONAL)

    @cached_property
    def _counts(self) -> tuple[int, ...]:
        gcds = self._gcds
        c0 = math.gcd(gcds[1], gcds[2])
        c1 = math.gcd(gcds[0], gcds[2])
        c2 = math.gcd(gcds[0], gcds[1])
        small = math.gcd(gcds[0], gcds[1], gcds[2])
        product = c0 * c1 * c2
        assert product % small == 0, "component count is not integral"
        high = product // small
        return (c0, c1, c2) + (high,) * (len(gcds) - 3)


def _block_key(block: tuple[int, ...], original_index: int) -> tuple[int, int, int]:
    # Deterministic tie-break: gcd descending, then size descending, then
    # original position.
    return (-math.gcd(*block), -len(block), original_index)


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

    Reordering and elimination rewire the relations, so exact coefficients
    cannot be carried along; they are reset to generic placeholders with a
    warning.
    """
    work = list(enumerate(variety.blocks))
    eliminated: list[int] = []
    while len(work) >= 3 and any(block == (1,) for _, block in work):
        position = next(i for i, (_, block) in enumerate(work) if block == (1,))
        eliminated.append(work.pop(position)[0])

    ordered = sorted(work, key=lambda item: _block_key(item[1], item[0]))
    degenerate = len(ordered) < 3
    if not degenerate:
        gcds = {index: math.gcd(*block) for index, block in ordered}

        def pair(a, b) -> int:
            return math.gcd(gcds[a[0]], gcds[b[0]])

        max_pair = max(pair(a, b) for k, a in enumerate(ordered) for b in ordered[k + 1 :])
        first = next(
            a for a in ordered if any(b is not a and pair(a, b) == max_pair for b in ordered)
        )
        second = next(b for b in ordered if b is not first and pair(first, b) == max_pair)
        rest = [item for item in ordered if item is not first and item is not second]
        # The sort is stable, so ties keep their key order.
        rest.sort(key=lambda item: -pair(first, item))
        ordered = [first, second] + rest

    record = AdjustmentRecord(tuple(eliminated), tuple(i for i, _ in ordered), degenerate)
    identity = (
        not degenerate
        and not eliminated
        and record.permutation == tuple(range(len(variety.blocks)))
    )
    adjusted = TrinomialVariety(
        tuple(b for _, b in ordered), variety.m, variety.theta if identity else None
    )
    if not identity:
        _warn_if_theta_dropped(variety)
    return adjusted, record


def _warn_if_theta_dropped(original: TrinomialVariety) -> None:
    if original.theta is not None and any(isinstance(t, Fraction) for t in original.theta):
        warnings.warn(
            "adjustment rewires the relations; exact coefficients were reset "
            "to generic placeholders",
            stacklevel=3,
        )


def is_adjusted(variety: TrinomialVariety) -> bool:
    """True iff the variety satisfies the adjusted-form conditions.

    Any ordering meeting the gcd constraints counts; the tie-break used by
    `adjust` is not required.  Degenerate data is vacuously adjusted.
    """
    return variety._adjusted


def require_adjusted(variety: TrinomialVariety) -> TrinomialVariety:
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


def component_counts(variety: TrinomialVariety) -> tuple[int, ...]:
    """The number of irreducible components c(i) of each coordinate vanishing
    set, for an adjusted rational variety."""
    return require_adjusted(variety)._counts


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


def exponent_matrix(variety: TrinomialVariety) -> IntMatrix:
    """The r x (n + m) exponent matrix with rows (-l_0, 0.., l_i, ..0).

    Row i places -l_0 on block 0 and +l_i on block i; the m free-variable
    columns are zero.  Needs at least two blocks.
    """
    if len(variety.blocks) < 2:
        raise InvalidVarietyError("exponent matrix needs at least two blocks")
    offsets = []
    position = 0
    for block in variety.blocks:
        offsets.append(position)
        position += len(block)
    width = variety.n + variety.m
    rows = []
    l0 = variety.blocks[0]
    for i in range(1, len(variety.blocks)):
        row = [0] * width
        row[: len(l0)] = [-e for e in l0]
        li = variety.blocks[i]
        row[offsets[i] : offsets[i] + len(li)] = list(li)
        rows.append(row)
    return IntMatrix.from_rows(rows, width)


def _monomial(block_index: int, block: tuple[int, ...]) -> str:
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
