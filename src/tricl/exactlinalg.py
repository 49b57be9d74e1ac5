"""Exact linear algebra over the integers.

Everything in this module works with plain Python integers, so results stay
exact.  Matrices are immutable value objects stored as sparse rows, and
every operation is a pure function, which makes the whole module safe to
use from multiple threads.

The heart of the module is `smith_invariants`, the rank and invariant
factors of an integer matrix, and `cokernel`, which presents the quotient
by its row lattice as a finitely generated abelian group.

Smith invariants are computed with bounded entry growth.  Integer
elimination that divides by its pivots can blow up: intermediate entries of
the case-III grading matrices reached hundreds of thousands of bits
(Havas, Majewski and Matthews, Exp. Math. 7, 1998).  Instead:

* Pivots that need no remainder steps go first: a row whose own columns
  have a gcd dividing the row splits off at no cost, and an entry that
  divides its whole column clears it by an exact Gaussian step.  The entries
  left are ratios of minors, so they stay below the Hadamard bound.
* On the rest, fraction-free (Bareiss) elimination gives the rank r and a
  nonzero r x r minor D, and the rows are diagonalised over Z/DZ with every
  entry reduced mod D (Domich, Kannan and Trotter, Math. Oper. Res. 12,
  1987; Cohen, A Course in Computational Algebraic Number Theory, 2.4).
  Every invariant factor divides D, and the quotient by L + D Z^n is the
  torsion plus one Z/D for each free generator; those copies are dropped.
* A direct sum of cyclic groups is turned into the invariant-factor chain
  over a coprime base of its orders (Bernstein, J. Algorithms 54, 2005),
  which `FgAbelianGroup` does to every group it is given.

The exact stage takes its pivots from a heap of columns keyed by Markowitz
(fill-in) cost and re-keyed only where a pivot changed something (Dumas,
Saunders and Villard, J. Symbolic Comput. 32, 2001).  M^T has the Smith
form of M transposed, so each stage gets whichever has fewer rows.  All
three keep their rows in `_Rows`, whose column index finds the rows a
pivot touches, so the work follows the nonzeros, not the cells.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


# Sparse rows: {column: nonzero entry}.  Columns keep their index in the
# input matrix, so a block's columns need not be contiguous.
SparseRow = dict[int, int]


@dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable matrix of unbounded integers, stored as sparse rows.

    Built from dense rows with `from_rows` or from {column: nonzero entry}
    rows with `from_sparse`; both dimensions may be zero.
    """

    rows: int
    cols: int
    _sparse: tuple[SparseRow, ...] = field(hash=False)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Build a matrix from an iterable of equal-length rows.

        `cols` is only required when `rows` is empty (the width cannot be
        inferred from no rows).  Entries must be integers: a float or a
        string raises TypeError.
        """
        data = [tuple(map(operator.index, row)) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have differing lengths")
            if cols is not None and cols != width:
                raise ValueError("cols does not match the row length")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix without rows")
        return cls.from_sparse([{j: x for j, x in enumerate(row) if x} for row in data], cols)

    @classmethod
    def from_sparse(cls, rows: Sequence[SparseRow], cols: int) -> "IntMatrix":
        """The matrix with the given {column: nonzero entry} rows, whose
        columns lie in range(cols).  The dicts are kept, not copied, so the
        caller must not change them afterwards."""
        matrix = cls.__new__(cls)
        matrix.__dict__.update(rows=len(rows), cols=cols, _sparse=tuple(rows))
        return matrix

    @property
    def entries(self) -> tuple[int, ...]:
        """All rows * cols entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._sparse[i].get(j, 0)

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._sparse[i].get(j, 0) for j in range(self.cols))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols} matrix>"
        return "\n".join("[" + " ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows))


@dataclass(frozen=True)
class FgAbelianGroup:
    """The finitely generated abelian group Z^rank x Z/f_1 x ... x Z/f_k.

    Construction takes any integer factors f_i >= 1 and stores the group in
    invariant-factor canonical form: ``invariant_factors`` becomes the
    divisibility chain d1 | d2 | ... | dk with every dk >= 2.  Two groups are
    isomorphic iff their canonical forms compare equal, so `==` decides
    isomorphism.
    """

    rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rank = operator.index(self.rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        fs = [operator.index(f) for f in self.invariant_factors]
        if any(f < 1 for f in fs):
            raise ValueError("torsion factors must be >= 1")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "invariant_factors", _chain(fs))

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_nontrivial_finite_cyclic(self) -> bool:
        return self.rank == 0 and len(self.invariant_factors) == 1

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        if self.rank > 0:
            return None
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SmithData:
    """Rank and invariant factors (1s included) of an integer matrix."""

    rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.invariant_factors) != self.rank:
            raise ValueError("number of invariant factors must equal the rank")


class _Rows:
    """Sparse rows under elimination, with a column index: `where[j]` holds
    the ids of the live rows with an entry in column j.  A removed row is
    None, and its id is not reused."""

    def __init__(self, rows: Iterable[SparseRow]) -> None:
        self.rows: list[Optional[SparseRow]] = list(rows)
        self.where: defaultdict[int, set[int]] = defaultdict(set)
        for i, row in enumerate(self.rows):
            for j in row:
                self.where[j].add(i)

    def remove(self, i: int) -> SparseRow:
        row, self.rows[i] = self.rows[i], None
        for j in row:
            self.where[j].discard(i)
        return row

    def subtract(self, t: int, q: int, pivot_row: SparseRow, modulus: int = 0) -> None:
        """Row t -= q * pivot_row, modulo `modulus` unless it is 0."""
        row, where = self.rows[t], self.where
        for j, y in pivot_row.items():
            value = row.get(j, 0) - q * y
            if modulus:
                value %= modulus
            if value:
                if j not in row:
                    where[j].add(t)
                row[j] = value
            elif j in row:
                del row[j]
                where[j].discard(t)

    def pivot_column(self, i: int, minus_one: int) -> int:
        """The entry 1 or `minus_one` of row i (or any entry, if none is)
        whose column has the fewest entries: low Markowitz fill-in."""
        row = self.rows[i]
        units = [j for j, x in row.items() if x == 1 or x == minus_one]
        return min(units or row, key=lambda j: len(self.where[j]))

    def pivot_row(self, minus_one: int) -> int:
        """The live row to pivot on next, -1 if none is left: a row holding 1
        or `minus_one` first, then the shortest, then the first."""
        units = {1, minus_one}
        rows = enumerate(self.rows)
        keys = [(units.isdisjoint(row.values()), len(row), i) for i, row in rows if row]
        return min(keys)[2] if keys else -1


def _eliminate_exact(rows: list[SparseRow]) -> tuple[list[int], list[SparseRow]]:
    """Split off rows and pivots that need no remainder steps.

    A row whose own columns (those no other row uses) have entries with a
    gcd g dividing the whole row is g e_c after column operations that
    touch no other row, so it splits off Z/g at no cost.  Between splits,
    an entry dividing its whole column is a pivot: its row clears the
    column exactly, which becomes an own column of the row.  Pivots come
    from a queue keyed by Markowitz cost (the fill-in they may cause), and
    a pivot re-keys only the columns of its row; a row pivots once, so the
    pivots end.  Returns the split-off orders and the rows left, whose
    entries are ratios of minors of `rows` (times its pivot, in a pivot
    row), so they stay small.  Consumes `rows`.
    """
    work = _Rows(rows)
    rows, where = work.rows, work.where
    used: set[int] = set()
    queue: list[tuple[int, int, int]] = []  # (cost, column, pivot row)
    queued: dict[int, tuple[int, int, int]] = {}  # the live entry of each column
    # A pivot changes the count of a column only if its row holds it, so it
    # changes the own columns of no other row.
    own: list[set[int]] = [set() for _ in rows]
    for j, holders in where.items():
        if len(holders) == 1:
            own[next(iter(holders))].add(j)
    orders = []
    pending = list(range(len(rows)))  # rows that may split off
    changed = set(where)  # columns whose queue entry is out of date
    while True:
        while pending:
            i = pending.pop()
            row = rows[i]
            if row is None or not own[i]:
                continue
            g = math.gcd(*map(row.__getitem__, own[i]))
            if g != 1 and math.gcd(*row.values()) != g:  # g does not divide the row
                continue
            orders.append(g)
            for j in work.remove(i):
                if len(where[j]) == 1:
                    (sole,) = where[j]
                    own[sole].add(j)
                    pending.append(sole)
                changed.add(j)
        for j in changed:
            holders = where[j]
            if len(holders) > 1:
                # Pivot on an unused row whose entry is the column gcd up to
                # sign, the shortest such row, then the first.  No entry is
                # below the gcd, so the least (|entry|, length, row) decides.
                g, best = 0, None
                for t in holders:
                    row = rows[t]
                    x = row[j]
                    g = math.gcd(g, x)
                    if t not in used:
                        key = (abs(x), len(row), t)
                        if best is None or key < best:
                            best = key
                if best and best[0] == g:
                    _, length, i = best
                    queued[j] = entry = ((len(holders) - 1) * (length - 1), j, i)
                    heapq.heappush(queue, entry)
                    continue
            queued.pop(j, None)
        changed.clear()
        while queue and queued.get(queue[0][1]) != queue[0]:
            heapq.heappop(queue)
        if not queue:
            break
        _, j, i = heapq.heappop(queue)
        used.add(i)
        pivot_row = rows[i]
        for t in list(where[j]):
            if t != i:
                work.subtract(t, rows[t][j] // pivot_row[j], pivot_row)
                pending.append(t)
        pending.append(i)
        own[i] = {k for k in pivot_row if len(where[k]) == 1}
        changed.update(pivot_row)
    return orders, [row for row in rows if row]


def _rank_and_minor(rows: list[SparseRow]) -> tuple[int, int]:
    """Rank of `rows` and a nonzero rank x rank minor, made positive.

    Fraction-free (Bareiss) elimination: after k pivots every entry is a
    (k+1)-minor, so the last pivot is a rank x rank minor.  Each pivot p
    scales every live row by p, clears the pivot column and divides by the
    previous pivot, which divides exactly.  `rows` is left as it was.
    """
    work = _Rows(dict(row) for row in rows)
    pivots = [1]
    while (i := work.pivot_row(-1)) >= 0:
        prev = pivots[-1]
        c = work.pivot_column(i, -1)
        pivot_row = work.remove(i)
        p = pivot_row[c]
        if p < 0:  # negating a row changes neither the lattice nor |minor|
            p = -p
            pivot_row = {j: -x for j, x in pivot_row.items()}
        for t, row in enumerate(work.rows):
            if row and c not in row:
                work.rows[t] = {j: x * p // prev for j, x in row.items()}
            elif row:
                work.rows[t] = row = {j: x * p for j, x in row.items()}
                work.subtract(t, row[c] // p, pivot_row)
                for j, x in row.items():
                    row[j] = x // prev
        pivots.append(p)
    return len(pivots) - 1, pivots[-1]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, for a, b >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _diagonal_mod(rows: list[SparseRow], modulus: int) -> list[int]:
    """gcd(pivot, modulus) for each pivot of a diagonalisation over Z/modulus.

    Entries are kept in [0, modulus), so no entry outgrows the modulus.
    Each pivot row and column are cleared by unimodular row and column
    operations: a multiple of the pivot (in Z/modulus) is subtracted, and
    an entry the pivot does not divide is first merged into the pivot by a
    Bezout combination, which lowers gcd(pivot, modulus).  Once the pivot
    column is clear, clearing a pivot-row entry the pivot divides only
    touches the pivot row, so a unit pivot costs one column sweep.
    """
    work = _Rows({j: r for j, x in row.items() if (r := x % modulus)} for row in rows)
    minus_one = modulus - 1
    diagonal = []
    while (i := work.pivot_row(minus_one)) >= 0:
        c = work.pivot_column(i, minus_one)
        pivot_row = work.remove(i)
        while True:
            p = pivot_row[c]
            g = math.gcd(p, modulus)
            inverse = pow(p // g, -1, modulus // g)
            for t in list(work.where[c]):
                row = work.rows[t]
                x = row[c]
                if x % g == 0:
                    work.subtract(t, x // g * inverse % modulus, pivot_row, modulus)
                    continue
                h, s, r = _xgcd(p, x)
                u, v = x // h, p // h
                merged, change = {}, {}
                for j in pivot_row.keys() | row.keys():
                    a, b = pivot_row.get(j, 0), row.get(j, 0)
                    if value := (s * a + r * b) % modulus:
                        merged[j] = value
                    change[j] = (v * b - u * a) % modulus - b
                work.subtract(t, -1, change)
                pivot_row = merged
                p = h
                g = math.gcd(p, modulus)
                inverse = pow(p // g, -1, modulus // g)
            # The pivot column is clear, so the pivot-row entries that the
            # pivot divides go by column operations on the pivot row alone.
            # A column merge with any other entry refills the pivot column.
            if g == 1:
                break
            offender = next((j for j, y in pivot_row.items() if y % g), None)
            if offender is None:
                break
            y = pivot_row.pop(offender)
            h, s, r = _xgcd(p, y)
            pivot_row[c] = h
            for t in list(work.where[offender]):  # column c is clear
                b = work.rows[t][offender]
                work.subtract(t, -1, {c: r * b % modulus, offender: p // h * b % modulus - b})
        diagonal.append(g)
    return diagonal


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime numbers > 1 over which each of `numbers` factors.

    A number x sharing g > 1 with a base element b replaces b by b/g, g and
    x/g; each step divides the product of the numbers in play by g, so it
    ends.  (Bernstein, J. Algorithms 54, 2005, does this in essentially
    linear time; the lists here are short.)
    """
    base: list[int] = []
    pending = [x for x in numbers if x > 1]
    while pending:
        x = pending.pop()
        for k, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[k]
                pending += [y for y in (b // g, g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Invariant-factor chain of the direct sum of Z/f over `factors`.

    Factors equal to 1 are dropped.  Sorted factors that divide each other
    are the chain.  Otherwise each factor is a product of powers b^e of a
    coprime base of the distinct factors, and the k-th largest invariant
    factor is the product over b of b to its k-th largest exponent.  When
    the distinct factors are pairwise coprime they are that base, each with
    exponent 1, so the k-th largest is the product of those occurring more
    than k times.
    """
    fs = sorted(f for f in factors if f > 1)
    if not any(map(operator.mod, fs[1:], fs)):
        return tuple(fs)
    counts: dict[int, int] = {}
    for f in fs:
        counts[f] = counts.get(f, 0) + 1
    largest = [1] * len(fs)  # largest[k]: the k-th largest invariant factor
    if math.lcm(*counts) == math.prod(counts):
        for f, m in counts.items():
            for k in range(m):
                largest[k] *= f
        return tuple(f for f in reversed(largest) if f > 1)
    for b in _coprime_base(counts):
        exponents = []
        for f, m in counts.items():
            e = 0
            while f % b == 0:
                f, e = f // b, e + 1
            if e:
                exponents += [e] * m
        for k, e in enumerate(sorted(exponents, reverse=True)):
            largest[k] *= b**e
    return tuple(f for f in reversed(largest) if f > 1)


TRIVIAL_GROUP = FgAbelianGroup(0, ())


def _transpose(rows: Iterable[SparseRow]) -> list[SparseRow]:
    """The nonzero columns of `rows`, as sparse rows indexed by row number."""
    columns: defaultdict[int, SparseRow] = defaultdict(dict)
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns[j][i] = x
    return list(columns.values())


def smith_invariants(matrix: IntMatrix) -> SmithData:
    """Rank and invariant-factor chain of an integer matrix.

    Deterministic and exact; empty matrices are allowed and have rank 0.
    `_eliminate_exact` gets M or M^T, whichever has fewer rows, and what it
    leaves, turned the same way, of width n and row lattice L, is reduced
    modulo a nonzero rank x rank minor D.  Every invariant factor d_i
    divides D, and Z^n / (L + D Z^n) = Z/d_1 x ... x Z/d_rank x
    (Z/D)^(n - rank): the diagonal mod D gives Z/gcd(pivot, D) per pivot
    and Z/D per missing one, whose chain ends in the n - rank copies of Z/D
    that stand for the free part.  (Z/2 x Z/3 may stand for Z/6.)
    """
    rows = [dict(row) for row in matrix._sparse if row]
    torsion, rest = _eliminate_exact(_transpose(rows) if matrix.rows > matrix.cols else rows)
    rank = len(torsion)
    if rest:
        width = len(set().union(*rest))
        if len(rest) > width:
            rest, width = _transpose(rest), len(rest)
        rest_rank, minor = _rank_and_minor(rest)
        rank += rest_rank
        if minor > 1:
            # Each gcd(pivot, D) divides D, so the copies of Z/D end the chain.
            diagonal = _diagonal_mod(rest, minor)
            chain = _chain(diagonal) + (minor,) * (width - len(diagonal))
            torsion += chain[: len(chain) - (width - rest_rank)]
    chain = _chain(torsion)
    return SmithData(rank, (1,) * (rank - len(chain)) + chain)


def cokernel(matrix: IntMatrix) -> FgAbelianGroup:
    """The quotient Z^cols / rowlattice(M) in canonical form.

    The free rank is ``cols - rank(M)``; the torsion is given by the Smith
    invariant factors larger than 1.  A matrix with no rows yields Z^cols.
    """
    data = smith_invariants(matrix)
    return FgAbelianGroup(matrix.cols - data.rank, data.invariant_factors)
