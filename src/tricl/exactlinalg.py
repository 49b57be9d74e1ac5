"""Exact linear algebra over the integers.

Everything in this module works with plain Python integers, so results stay
exact.  Matrices are immutable value objects and every operation is a pure
function, which makes the whole module safe to use from multiple threads.

The heart of the module is `smith_invariants`, the rank and invariant
factors of an integer matrix, together with the constructions built on top
of it: cokernels presented as finitely generated abelian groups, Hermite
lattice bases, element orders in a cokernel and the saturated-sublattice
test.

Smith invariants are computed with bounded entry growth.  Integer
elimination that divides by its pivots can blow up: intermediate entries of
the case-III grading matrices reached hundreds of thousands of bits
(Havas, Majewski and Matthews, Exp. Math. 7, 1998).  Instead:

* The matrix is split into its connected blocks (rows linked by shared
  columns); the invariants of a direct sum are those of its blocks.
* Per block, pivots that need no remainder steps go first: a row whose own
  columns have a gcd dividing the row splits off at no cost, and +-1
  entries are eliminated by Gaussian steps.  The entries left are ratios
  of minors, so they stay below the Hadamard bound.
* On the rest, fraction-free (Bareiss) elimination gives the rank r and a
  nonzero r x r minor D, and the rows are diagonalised over Z/DZ with every
  entry reduced mod D (Domich, Kannan and Trotter, Math. Oper. Res. 12,
  1987; Cohen, A Course in Computational Algebraic Number Theory, 2.4).
  Every invariant factor divides D, and the quotient by L + D Z^n is the
  torsion plus one Z/D for each free generator; those copies are dropped.
* A direct sum of cyclic groups is turned into the invariant-factor chain
  by gcd/lcm exchanges, which is all `canonical_group` does.

Pivots are picked by Markowitz (fill-in) cost, so the sparse grading and
exponent matrices stay sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of unbounded integers, stored row-major.

    `entries` has exactly ``rows * cols`` elements; both dimensions may be
    zero.  Instances are immutable; all arithmetic returns new matrices.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Build a matrix from an iterable of equal-length rows.

        `cols` is only required when `rows` is empty (the width cannot be
        inferred from no rows).
        """
        data = [tuple(int(x) for x in row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("rows have differing lengths")
            if cols is not None and cols != width:
                raise ValueError("cols does not match the row length")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix without rows")
        flat = tuple(x for row in data for x in row)
        return cls(len(data), cols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        """Mutable row-of-lists copy, for in-place elimination."""
        return [list(self.row(i)) for i in range(self.rows)]

    def with_row(self, row: Sequence[int]) -> "IntMatrix":
        row = tuple(int(x) for x in row)
        if len(row) != self.cols:
            raise ValueError("row length does not match column count")
        return IntMatrix(self.rows + 1, self.cols, self.entries + row)

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"<empty {self.rows}x{self.cols} matrix>"
        return "\n".join("[" + " ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows))


def block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    """Block-diagonal assembly of the given matrices."""
    cols = sum(b.cols for b in blocks)
    entries: list[int] = []
    j0 = 0
    for b in blocks:
        left, right = (0,) * j0, (0,) * (cols - j0 - b.cols)
        for i in range(b.rows):
            entries += left + b.row(i) + right
        j0 += b.cols
    return IntMatrix(sum(b.rows for b in blocks), cols, tuple(entries))


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group in invariant-factor canonical form.

    ``rank`` is the free-part exponent and ``invariant_factors`` is the
    divisibility chain d1 | d2 | ... | dk with every dk >= 2.  Two groups are
    isomorphic iff their canonical forms compare equal, so `==` decides
    isomorphism.
    """

    rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        fs = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must all be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors do not form a chain: {a} does not divide {b}")

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

    def torsion_part(self) -> "FgAbelianGroup":
        return FgAbelianGroup(0, self.invariant_factors)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbelianGroup(0, ())


@dataclass(frozen=True)
class SmithData:
    """Rank and invariant factors (1s included) of an integer matrix."""

    rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.invariant_factors) != self.rank:
            raise ValueError("number of invariant factors must equal the rank")


# Sparse rows: {column: nonzero entry}.  Columns keep their index in the
# input matrix, so a block's columns need not be contiguous.
SparseRow = dict[int, int]


def _connected_blocks(rows: list[SparseRow]) -> list[list[SparseRow]]:
    """`rows` grouped into connected blocks.

    Two rows are in one block when a chain of shared columns links them, so
    after permuting rows and columns the matrix is the direct sum of its
    blocks (and of zero columns, which carry no torsion).
    """
    parent: dict[int, int] = {}

    def find(j: int) -> int:
        root = parent.setdefault(j, j)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    for row in rows:
        columns = iter(row)
        root = find(next(columns))
        for j in columns:
            other = find(j)
            if other != root:
                parent[other] = root
    blocks: dict[int, list[SparseRow]] = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return list(blocks.values())


def _column_counts(rows: list[SparseRow]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for row in rows:
        for j in row:
            counts[j] = counts.get(j, 0) + 1
    return counts


def _pivot(rows: list[SparseRow], counts: dict[int, int], minus_one: int) -> tuple[int, int]:
    """(row index, column) of the next pivot among `rows`.

    The shortest row holding a 1 or `minus_one`, or else the shortest row;
    in it, that entry (or any entry) whose column has the fewest entries.
    This keeps the Markowitz fill-in cost low.
    """
    best, size = -1, 0
    for i, row in enumerate(rows):
        if best < 0 or len(row) < size:
            values = row.values()
            if 1 in values or minus_one in values:
                best, size = i, len(row)
                if size == 1:
                    break
    if best >= 0:
        candidates = [j for j, x in rows[best].items() if x == 1 or x == minus_one]
    else:
        sizes = list(map(len, rows))
        best = sizes.index(min(sizes))
        candidates = list(rows[best])
    return best, min(candidates, key=counts.__getitem__)


def _put(row: SparseRow, j: int, value: int, counts: dict[int, int]) -> None:
    """Set row[j] = value, dropping zeros and keeping the column counts."""
    if value:
        if j not in row:
            counts[j] = counts.get(j, 0) + 1
        row[j] = value
    elif j in row:
        del row[j]
        counts[j] -= 1


def _subtract(row: SparseRow, q: int, pivot_row: SparseRow, counts: dict[int, int], modulus: int = 0) -> None:
    """row -= q * pivot_row, modulo `modulus` unless it is 0; keeps the counts."""
    for j, y in pivot_row.items():
        value = row.get(j, 0) - q * y
        if modulus:
            value %= modulus
        if value:
            if j not in row:
                counts[j] = counts.get(j, 0) + 1
            row[j] = value
        elif j in row:
            del row[j]
            counts[j] -= 1


def _eliminate_exact(rows: list[SparseRow]) -> tuple[list[int], list[SparseRow]]:
    """Split off rows and pivots that need no remainder steps.

    A row whose own columns (those no other row uses) have entries with a
    gcd g dividing the whole row is g e_c after column operations that
    touch no other row, so it splits off Z/g at no cost.  Between sweeps
    for such rows, one entry +-1 is eliminated by a Gaussian step, the one
    of least Markowitz cost (the fill-in it may cause).  Returns the
    split-off orders and the rows left, a Schur complement whose entries
    are ratios of minors of `rows`, so they stay below the Hadamard bound.
    Consumes `rows`.
    """
    work = rows
    counts = _column_counts(work)
    orders = []
    while work:
        kept = []
        for row in work:
            if 1 in map(counts.__getitem__, row):
                g = math.gcd(*(x for j, x in row.items() if counts[j] == 1))
                if all(y % g == 0 for y in row.values()):
                    orders.append(g)
                    for j in row:
                        counts[j] -= 1
                    continue
            kept.append(row)
        work = kept
        best = None
        best_cost = 0
        for i, row in enumerate(work):
            values = row.values()
            if 1 not in values and -1 not in values:
                continue
            extra = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = extra * (counts[j] - 1)
                    if best is None or cost < best_cost:
                        best, best_cost = (i, j), cost
                        if not cost:
                            break
            if best is not None and not best_cost:
                break
        if best is None:
            break
        i, c = best
        pivot_row = work.pop(i)
        for j in pivot_row:
            counts[j] -= 1
        sign = pivot_row[c]
        for row in work:
            a = row.get(c)
            if a is not None:
                _subtract(row, a * sign, pivot_row, counts)
        orders.append(1)
        if not all(work):
            work = [row for row in work if row]
    return orders, work


def _rank_and_minor(rows: list[SparseRow]) -> tuple[int, int]:
    """Rank of `rows` and a nonzero rank x rank minor, made positive.

    Fraction-free (Bareiss) elimination: after k pivots every entry is a
    (k+1)-minor, so the last pivot is a rank x rank minor.  Rows the pivot
    column misses are scaled lazily: a row stored at step g holds its
    step-k value times pivots[g] / pivots[k].  `rows` is left as it was.
    """
    work = list(rows)
    tags = [0] * len(work)
    counts = _column_counts(work)
    pivots = [1]
    while work:
        k = len(pivots) - 1
        i, c = _pivot(work, counts, -1)
        prev = pivots[k]
        pivot_row = work.pop(i)
        stored = pivots[tags.pop(i)]
        if stored != prev:
            pivot_row = {j: x * prev // stored for j, x in pivot_row.items()}
        p = pivot_row[c]
        if p < 0:  # negating a row changes neither the lattice nor |minor|
            p = -p
            pivot_row = {j: -x for j, x in pivot_row.items()}
        for j in pivot_row:
            counts[j] -= 1
        for t, row in enumerate(work):
            if c not in row:
                continue
            stored = pivots[tags[t]]
            if stored != prev:
                row = {j: x * prev // stored for j, x in row.items()}
            new = {j: x * p for j, x in row.items()}
            _subtract(new, row[c], pivot_row, counts)
            work[t] = {j: x // prev for j, x in new.items()}
            tags[t] = k + 1
        pivots.append(p)
        if not all(work):
            kept = [t for t, row in enumerate(work) if row]
            work = [work[t] for t in kept]
            tags = [tags[t] for t in kept]
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
    work = [{j: r for j, x in row.items() if (r := x % modulus)} for row in rows]
    work = [row for row in work if row]
    counts = _column_counts(work)
    minus_one = modulus - 1
    diagonal = []
    while work:
        i, c = _pivot(work, counts, minus_one)
        pivot_row = work.pop(i)
        for j in pivot_row:
            counts[j] -= 1
        while True:
            p = pivot_row[c]
            g = math.gcd(p, modulus)
            inverse = pow(p // g, -1, modulus // g)
            for row in work:
                x = row.get(c)
                if x is None:
                    continue
                if x % g == 0:
                    _subtract(row, x // g * inverse % modulus, pivot_row, counts, modulus)
                    continue
                h, s, t = _xgcd(p, x)
                u, v = x // h, p // h
                merged = {}
                for j in pivot_row.keys() | row.keys():
                    a, b = pivot_row.get(j, 0), row.get(j, 0)
                    value = (s * a + t * b) % modulus
                    if value:
                        merged[j] = value
                    _put(row, j, (v * b - u * a) % modulus, counts)
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
            h, s, t = _xgcd(p, y)
            u, v = y // h, p // h
            pivot_row[c] = h
            for row in work:
                a, b = row.get(c, 0), row.get(offender, 0)
                if a or b:
                    _put(row, c, (s * a + t * b) % modulus, counts)
                    _put(row, offender, (v * b - u * a) % modulus, counts)
        diagonal.append(g)
        if not all(work):
            work = [row for row in work if row]
    return diagonal


def _chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Invariant-factor chain of the direct sum of Z/f over `factors`.

    Z/a x Z/b = Z/gcd(a, b) x Z/lcm(a, b); applying this to every pair
    (i, j), i < j, leaves each factor dividing all later ones.  Factors
    equal to 1 are dropped.
    """
    fs = sorted(f for f in factors if f > 1)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            g = math.gcd(a, b)
            if g != a:
                fs[i], fs[j] = g, a // g * b
    return tuple(f for f in fs if f > 1)


def _torsion(rows: list[SparseRow]) -> tuple[int, list[int]]:
    """Rank of the lattice spanned by `rows`, and cyclic orders whose sum
    is its torsion.

    Per connected block: a single row or column spans g Z for the gcd g of
    its entries.  Otherwise `_eliminate_exact` splits off what it can, and
    the rest, of width n, is reduced modulo a nonzero rank x rank minor D.
    Every invariant factor d_i divides D, and Z^n / (L + D Z^n) = Z/d_1 x
    ... x Z/d_rank x (Z/D)^(n - rank) for its row lattice L.  The diagonal
    modulo D presents that group as a sum of Z/gcd(pivot, D) and one Z/D
    per missing pivot; its chain ends in the n - rank copies of Z/D that
    stand for the free part.  (The pivots alone need not be the d_i: Z/2 x
    Z/3 may stand for Z/6.)  Consumes `rows`.
    """
    rank = 0
    torsion: list[int] = []
    for block in _connected_blocks(rows):
        width = len(set().union(*block))
        if len(block) > 1 and width > 1:
            orders, block = _eliminate_exact(block)
            rank += len(orders)
            torsion += orders
            width = len(set().union(*block))
        if len(block) > 1 and width > 1:
            block_rank, minor = _rank_and_minor(block)
            rank += block_rank
            if minor > 1:
                # Each gcd(pivot, D) divides D, so the copies of Z/D end the
                # chain.
                diagonal = _diagonal_mod(block, minor)
                chain = _chain(diagonal) + (minor,) * (width - len(diagonal))
                torsion += chain[: len(chain) - (width - block_rank)]
        elif block:
            rank += 1
            torsion.append(math.gcd(*(x for row in block for x in row.values())))
    return rank, torsion


def smith_invariants(matrix: IntMatrix) -> SmithData:
    """Rank and invariant-factor chain of an integer matrix.

    Deterministic and exact; empty matrices are allowed and have rank 0.
    """
    columns = range(matrix.cols)
    rows = []
    for i in range(matrix.rows):
        row = matrix.row(i)
        if any(row):
            rows.append(dict(zip(compress(columns, row), compress(row, row))))
    rank, torsion = _torsion(rows)
    chain = _chain(torsion)
    return SmithData(rank, (1,) * (rank - len(chain)) + chain)


def cokernel(matrix: IntMatrix) -> FgAbelianGroup:
    """The quotient Z^cols / rowlattice(M) in canonical form.

    The free rank is ``cols - rank(M)``; the torsion is given by the Smith
    invariant factors larger than 1.  A matrix with no rows yields Z^cols.
    """
    data = smith_invariants(matrix)
    factors = tuple(f for f in data.invariant_factors if f > 1)
    return FgAbelianGroup(matrix.cols - data.rank, factors)


def matrix_A(k: int, exponents: Sequence[int]) -> IntMatrix:
    """The (k + n) x (k n) relation block for n = len(exponents).

    The first k rows place one copy of the exponent vector on each column
    block; the last n rows are k horizontal copies of the n x n identity.
    Its rank is n - 1 + k and its top determinantal divisor divides
    gcd(exponents)^(k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    l = tuple(int(x) for x in exponents)
    if not l or any(x < 1 for x in l):
        raise ValueError("exponent vector must be nonempty with positive entries")
    n = len(l)
    entries: list[int] = []
    for t in range(k):
        entries += (0,) * (t * n) + l + (0,) * ((k - 1 - t) * n)
    for j in range(n):
        entries += ((0,) * j + (1,) + (0,) * (n - 1 - j)) * k
    return IntMatrix(k + n, k * n, tuple(entries))


def matrix_B(k: int, exponents: Sequence[int], frak_l: int) -> IntMatrix:
    """Variant of `matrix_A` with the identity rows replaced by one row.

    The first k rows are those of `matrix_A`; the single last row holds k
    horizontal copies of exponents/frak_l, so the result has k + 1 rows.
    `frak_l` must divide every exponent.
    """
    a = matrix_A(k, exponents)
    l = a.entries[: a.rows - k]  # row 0 starts with the exponent vector
    if frak_l < 1 or any(x % frak_l for x in l):
        raise ValueError(f"{frak_l} does not divide all of {l}")
    top = IntMatrix(k, a.cols, a.entries[: k * a.cols])
    return top.with_row([x // frak_l for x in l] * k)


def hermite_basis(matrix: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice of `matrix` (row-style Hermite form).

    The returned rows are in echelon form with positive pivots and entries
    above each pivot reduced into [0, pivot); zero rows are dropped, so equal
    lattices yield equal bases.
    """
    work = matrix.to_rows()
    rows, cols = matrix.rows, matrix.cols
    r = 0
    for j in range(cols):
        if r == rows:
            break
        # Combine rows r.. until column j holds at most one nonzero entry.
        while True:
            nonzero = [i for i in range(r, rows) if work[i][j]]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda i: abs(work[i][j]))
            p = nonzero[0]
            for i in nonzero[1:]:
                q = work[i][j] // work[p][j]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[p])]
        pivots = [i for i in range(r, rows) if work[i][j]]
        if not pivots:
            continue
        work[r], work[pivots[0]] = work[pivots[0]], work[r]
        if work[r][j] < 0:
            work[r] = [-x for x in work[r]]
        for i in range(r):
            q = work[i][j] // work[r][j]
            if q:
                work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        r += 1
    return IntMatrix.from_rows(work[:r], cols)


def coordinates_in_lattice(basis: IntMatrix, vector: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Integer coordinates of `vector` in a Hermite `basis`, or None.

    `basis` must come from `hermite_basis` (echelon rows).  Returns x with
    x @ basis == vector when the vector lies in the lattice.
    """
    residual = [int(x) for x in vector]
    if len(residual) != basis.cols:
        raise ValueError("vector length does not match the lattice dimension")
    coords = [0] * basis.rows
    for i in range(basis.rows):
        row = basis.row(i)
        j = next(idx for idx, x in enumerate(row) if x)
        if residual[j]:
            if residual[j] % row[j]:
                return None
            q = residual[j] // row[j]
            coords[i] = q
            for idx in range(basis.cols):
                residual[idx] -= q * row[idx]
    if any(residual):
        return None
    return tuple(coords)


def is_saturated_sublattice(sub: IntMatrix, sup: IntMatrix) -> bool:
    """True iff rowlattice(sub) lies in rowlattice(sup) with torsion-free quotient.

    A lattice basis of the sublattice is expressed integrally in a basis of
    the superlattice; saturation means all Smith invariant factors of that
    expression matrix equal 1.  Containment failure returns False rather than
    raising.  The zero lattice is saturated in anything.
    """
    if sub.cols != sup.cols:
        raise ValueError("lattices live in different ambient spaces")
    sup_basis = hermite_basis(sup)
    sub_basis = hermite_basis(sub)
    expression = []
    for i in range(sub_basis.rows):
        coords = coordinates_in_lattice(sup_basis, sub_basis.row(i))
        if coords is None:
            return False
        expression.append(coords)
    if not expression:
        return True
    data = smith_invariants(IntMatrix.from_rows(expression, sup_basis.rows))
    return all(f == 1 for f in data.invariant_factors)


def canonical_group(factors: Sequence[int], rank: int = 0) -> FgAbelianGroup:
    """Canonical form of the direct sum of Z/f_i (f_i >= 1) and Z^rank.

    Factors equal to 1 are dropped; the rest are rewritten into an
    invariant-factor chain by gcd/lcm exchanges.
    """
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    fs = [int(f) for f in factors]
    if any(f < 1 for f in fs):
        raise ValueError("torsion factors must be >= 1")
    return FgAbelianGroup(rank, _chain(fs))


def element_order_in_cokernel(matrix: IntMatrix, vector: Sequence[int]) -> Optional[int]:
    """Order of the class of `vector` in Z^cols / rowlattice(matrix).

    Returns None for infinite order.  Computed by comparing the torsion
    orders of the cokernel before and after adjoining the vector as an extra
    relation: quotienting by a cyclic subgroup of order q divides the torsion
    order by exactly q.
    """
    base = smith_invariants(matrix)
    extended = smith_invariants(matrix.with_row(vector))
    if extended.rank > base.rank:
        return None
    torsion_before = math.prod(base.invariant_factors)
    torsion_after = math.prod(extended.invariant_factors)
    return torsion_before // torsion_after
