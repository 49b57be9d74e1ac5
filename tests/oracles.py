"""Slow reference implementations that faster library code is tested against,
the element orders in the class group that the tests check, the lattice
computation behind the du Val saturation lemma, and the exponent matrix
whose cokernel the compulsory torsion lemma stands for.

There is one of each lattice routine (`hermite_basis`, `matrix_B`,
`quotient_torsion_order`), written against the public `IntMatrix` API
only, so they share no row store with the Smith engine they help check.

Nothing under ``src/`` imports this module.
"""

import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from tricl.classgroup import grading_matrix
from tricl.coxring import total_coordinate_space
from tricl.errors import InvalidVarietyError
from tricl.exactlinalg import FgAbelianGroup, IntMatrix, smith_invariants
from tricl.variety import (
    RationalityClass,
    RationalityKind,
    adjust,
    block_invariants,
    rationality_class,
)


def _block_key(block, original_index):
    return (-math.gcd(*block), -len(block), original_index)


def adjust_by_pair_search(blocks):
    """(eliminated, permutation) of the adjusted form, by exhaustive search.

    Linear single-variable blocks are eliminated leftmost first while at
    least three blocks remain.  With fewer than three survivors they are
    sorted by block key.  Otherwise every ordered pair of leading blocks
    whose gcd is the maximal pairwise gcd is tried, the other blocks are
    sorted by their gcd with the leading block (descending), then by block
    key, and the candidate with the lexicographically smallest key sequence
    wins.  This costs O(k^3 log k) for k blocks.
    """
    work = list(enumerate(tuple(block) for block in blocks))
    eliminated = []
    while len(work) >= 3 and any(block == (1,) for _, block in work):
        position = next(i for i, (_, block) in enumerate(work) if block == (1,))
        eliminated.append(work.pop(position)[0])

    if len(work) < 3:
        ordered = sorted(work, key=lambda item: _block_key(item[1], item[0]))
        return tuple(eliminated), tuple(i for i, _ in ordered)

    gcds = {index: math.gcd(*block) for index, block in work}
    max_pair = max(
        math.gcd(gcds[a], gcds[b])
        for k, (a, _) in enumerate(work)
        for b, _ in work[k + 1 :]
    )
    best = None
    best_keys = None
    for first, first_block in work:
        for second, second_block in work:
            if second == first or math.gcd(gcds[first], gcds[second]) != max_pair:
                continue
            rest = [item for item in work if item[0] not in (first, second)]
            rest.sort(
                key=lambda item: (-math.gcd(gcds[first], gcds[item[0]]),)
                + _block_key(item[1], item[0])
            )
            candidate = [(first, first_block), (second, second_block)] + rest
            keys = tuple(_block_key(block, index) for index, block in candidate)
            if best_keys is None or keys < best_keys:
                best, best_keys = candidate, keys
    return tuple(eliminated), tuple(i for i, _ in best)


def adjusted_reference(blocks) -> bool:
    """The adjusted-form conditions, checked pair by pair.

    Degenerate data (fewer than three blocks) is vacuously adjusted; a
    single-variable block with exponent 1 forbids it; otherwise gcd(L0, L1)
    bounds every pairwise gcd and gcd(L0, L2) >= gcd(L0, L3) >= ... holds.
    """
    if len(blocks) < 3:
        return True
    if any(tuple(block) == (1,) for block in blocks):
        return False
    gcds = [math.gcd(*block) for block in blocks]
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


def rationality_reference(blocks) -> RationalityClass:
    """The rationality class from the pairwise gcds, one pair at a time."""
    if len(blocks) < 3:
        return RationalityClass(RationalityKind.FACTORIAL)
    gcds = [math.gcd(*block) for block in blocks]
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


def hyperplatonic_reference(gcds) -> bool:
    """1/L0 + ... + 1/Lr > r - 1 for the block gcds L0, ..., Lr, summed in
    exact rational arithmetic."""
    return sum(Fraction(1, g) for g in gcds) > len(gcds) - 2


def counts_reference(blocks) -> tuple[int, ...]:
    """c(0), c(1), c(2) from the pairwise gcds, c(i) = c(0)c(1)c(2)/gcd(L0, L1, L2) after."""
    gcds = [math.gcd(*block) for block in blocks]
    c0 = math.gcd(gcds[1], gcds[2])
    c1 = math.gcd(gcds[0], gcds[2])
    c2 = math.gcd(gcds[0], gcds[1])
    small = math.gcd(gcds[0], gcds[1], gcds[2])
    product = c0 * c1 * c2
    assert product % small == 0, "component count is not integral"
    return (c0, c1, c2) + (product // small,) * (len(gcds) - 3)


def smith_eliminate(work: list[list[int]], rows: int, cols: int,
                    u: Optional[list[list[int]]] = None,
                    v: Optional[list[list[int]]] = None) -> list[int]:
    """Diagonalize `work` in place by unimodular row/column operations.

    Integer min-pivot elimination without any bound on entry growth: fine
    for the small matrices of the tests, far too slow on some case-III
    grading matrices.

    Returns the list of positive diagonal entries (a divisibility chain).
    When given, `u` and `v` accumulate the row respectively column operations,
    so that u_final @ M @ v_final equals the diagonal result.

    Pivot choice: the minimal-absolute-value nonzero entry of the trailing
    submatrix, located by a row-major scan, so runs are reproducible.
    """

    def swap_rows(a: int, b: int) -> None:
        work[a], work[b] = work[b], work[a]
        if u is not None:
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int) -> None:
        for row in work:
            row[a], row[b] = row[b], row[a]
        if v is not None:
            for row in v:
                row[a], row[b] = row[b], row[a]

    def row_sub(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
        wi, wk = work[i], work[k]
        for j in range(cols):
            wi[j] -= q * wk[j]
        if u is not None:
            ui, uk = u[i], u[k]
            for j in range(len(ui)):
                ui[j] -= q * uk[j]

    def col_sub(j: int, k: int, q: int) -> None:
        # col_j -= q * col_k
        for row in work:
            row[j] -= q * row[k]
        if v is not None:
            for row in v:
                row[j] -= q * row[k]

    diag: list[int] = []
    t = 0
    while t < rows and t < cols:
        # Locate the minimal-absolute-value nonzero pivot, row-major scan.
        best = None
        best_abs = 0
        for i in range(t, rows):
            wi = work[i]
            for j in range(t, cols):
                x = wi[j]
                if x != 0 and (best is None or abs(x) < best_abs):
                    best = (i, j)
                    best_abs = abs(x)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            pivot = work[t][t]
            disturbed = False
            for i in range(t + 1, rows):
                a = work[i][t]
                if a:
                    q = a // pivot
                    if q:
                        row_sub(i, t, q)
                    if work[i][t]:
                        # Remainder is a strictly smaller pivot candidate.
                        swap_rows(t, i)
                        disturbed = True
                        break
            if disturbed:
                continue
            for j in range(t + 1, cols):
                a = work[t][j]
                if a:
                    q = a // pivot
                    if q:
                        col_sub(j, t, q)
                    if work[t][j]:
                        swap_cols(t, j)
                        disturbed = True
                        break
            if disturbed:
                continue
            break

        # Row and column are clear; force the pivot to divide the rest.
        pivot = work[t][t]
        offender = None
        for i in range(t + 1, rows):
            wi = work[i]
            for j in range(t + 1, cols):
                if wi[j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_sub(t, offender, -1)  # add the offending row to the pivot row
            continue  # rerun elimination at the same index t

        if pivot < 0:
            for j in range(cols):
                work[t][j] = -work[t][j]
            if u is not None:
                u[t] = [-x for x in u[t]]
        diag.append(work[t][t])
        t += 1
    return diag


def smith_oracle(matrix):
    """(rank, invariant factors) by the integer min-pivot elimination."""
    diag = smith_eliminate(_to_rows(matrix), matrix.rows, matrix.cols)
    return len(diag), tuple(diag)


def smith_with_transforms(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms: returns (U, D, V) with U @ M @ V = D.

    U and V are unimodular; D is diagonal with the invariant factors on the
    diagonal (padded by zeros up to the shape of M).
    """
    work = _to_rows(matrix)
    u = [[1 if i == j else 0 for j in range(matrix.rows)] for i in range(matrix.rows)]
    v = [[1 if i == j else 0 for j in range(matrix.cols)] for i in range(matrix.cols)]
    smith_eliminate(work, matrix.rows, matrix.cols, u, v)
    return (
        IntMatrix.from_rows(u, matrix.rows),
        IntMatrix.from_rows(work, matrix.cols),
        IntMatrix.from_rows(v, matrix.cols),
    )


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination; consumes `rows`."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def determinantal_divisor(matrix: IntMatrix, k: int) -> int:
    """gcd of the absolute values of all k x k minors; 0 iff all minors vanish.

    Brute force over all row/column selections, so the cost grows like
    binomial(rows, k) * binomial(cols, k); fine for the small matrices this
    library produces, hopeless beyond that.  Stops early once the gcd hits 1.
    """
    if not (1 <= k <= min(matrix.rows, matrix.cols)):
        raise ValueError(f"k={k} out of range for a {matrix.rows}x{matrix.cols} matrix")
    g = 0
    grid = _to_rows(matrix)
    for rsel in itertools.combinations(range(matrix.rows), k):
        for csel in itertools.combinations(range(matrix.cols), k):
            minor = [[grid[i][j] for j in csel] for i in rsel]
            g = math.gcd(g, _det_bareiss(minor))
            if g == 1:
                return 1
    return g


def eliminate_exact_reference(rows: list[dict]) -> tuple[list[int], list[dict]]:
    """The exact-pivot stage of `smith_invariants`, written plainly.

    The pivot rule of `tricl.exactlinalg._eliminate_exact`, step for step:
    a row whose own columns (those no other row uses) have a gcd g dividing
    the whole row splits off Z/g; between splits, the heap of (Markowitz
    cost, column, row) gives the next pivot, an entry of a row not yet
    pivoted on that equals its column gcd up to sign, in the shortest such
    row, then the first.  It keeps its own column index and row updates, so
    a fault in the engine's row store shows as a different result.  Returns
    the split-off orders and the rows left; consumes `rows`.
    """
    rows = list(rows)
    where: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)

    def remove(i):
        row, rows[i] = rows[i], None
        for j in row:
            where[j].discard(i)
        return row

    def subtract(t, q, pivot_row):
        row = rows[t]
        for j, y in pivot_row.items():
            value = row.get(j, 0) - q * y
            if value:
                if j not in row:
                    where.setdefault(j, set()).add(t)
                row[j] = value
            elif j in row:
                del row[j]
                where[j].discard(t)

    used: set[int] = set()
    queue: list[tuple[int, int, int]] = []
    queued: dict[int, tuple[int, int, int]] = {}
    own: list[set[int]] = [set() for _ in rows]
    for j, holders in where.items():
        if len(holders) == 1:
            own[next(iter(holders))].add(j)
    orders = []
    pending = list(range(len(rows)))
    changed = set(where)
    while True:
        while pending:
            i = pending.pop()
            row = rows[i]
            if row is None or not own[i]:
                continue
            g = math.gcd(*(row[j] for j in own[i]))
            if any(y % g for y in row.values()):
                continue
            orders.append(g)
            for j in remove(i):
                if len(where[j]) == 1:
                    (sole,) = where[j]
                    own[sole].add(j)
                    pending.append(sole)
                changed.add(j)
        for j in changed:
            queued.pop(j, None)
            holders = where[j]
            if len(holders) > 1:
                g = math.gcd(*(rows[t][j] for t in holders))
                fits = [t for t in holders if t not in used and abs(rows[t][j]) == g]
                if fits:
                    i = min(fits, key=lambda t: (len(rows[t]), t))
                    queued[j] = ((len(holders) - 1) * (len(rows[i]) - 1), j, i)
                    heapq.heappush(queue, queued[j])
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
                subtract(t, rows[t][j] // pivot_row[j], pivot_row)
                pending.append(t)
        pending.append(i)
        own[i] = {k for k in pivot_row if len(where[k]) == 1}
        changed.update(pivot_row)
    return orders, [row for row in rows if row]


def _to_rows(matrix: IntMatrix) -> list[list[int]]:
    """Mutable row-of-lists copy, for in-place elimination."""
    return [list(matrix.row(i)) for i in range(matrix.rows)]


def block_diagonal(blocks) -> IntMatrix:
    """Block-diagonal assembly of the given matrices."""
    cols = sum(b.cols for b in blocks)
    rows: list[tuple[int, ...]] = []
    j0 = 0
    for b in blocks:
        left, right = (0,) * j0, (0,) * (cols - j0 - b.cols)
        rows += [left + b.row(i) + right for i in range(b.rows)]
        j0 += b.cols
    return IntMatrix.from_rows(rows, cols)


def chain_pairwise(factors) -> tuple[int, ...]:
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


def hermite_basis(matrix: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice of `matrix` (row-style Hermite form).

    The returned rows are in echelon form with positive pivots and entries
    above each pivot reduced into [0, pivot); zero rows are dropped, so equal
    lattices yield equal bases.  Dense column-by-column remainder steps.
    """
    work = _to_rows(matrix)
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


def identity(n: int) -> IntMatrix:
    """The n x n identity matrix."""
    return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)


def transpose(matrix: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(
        [[matrix[i, j] for i in range(matrix.rows)] for j in range(matrix.cols)], matrix.rows
    )


def stack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    """Vertical concatenation; both matrices must have the same width."""
    if top.cols != bottom.cols:
        raise ValueError("column counts differ")
    rows = [top.row(i) for i in range(top.rows)] + [bottom.row(i) for i in range(bottom.rows)]
    return IntMatrix.from_rows(rows, top.cols)


def matmul(left: IntMatrix, right: IntMatrix) -> IntMatrix:
    """The matrix product left @ right."""
    if left.cols != right.rows:
        raise ValueError("inner dimensions differ")
    out = []
    for i in range(left.rows):
        ri = left.row(i)
        out.append([sum(ri[k] * right[k, j] for k in range(left.cols)) for j in range(right.cols)])
    return IntMatrix.from_rows(out, right.cols)


def coordinates_in_lattice(basis: IntMatrix, vector) -> Optional[tuple[int, ...]]:
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


def p1_rows_reference(variety) -> IntMatrix:
    """The scaled exponent matrix, built row by row from the block offsets.

    Row 1 couples blocks 0 and 1 scaled by 1/gcd(L0, L1), row 2 couples
    blocks 0 and 2 scaled by 1/gcd(L0, L2), the remaining rows couple block 0
    with block i unscaled.
    """
    gcds = variety.block_gcds()
    offsets = []
    position = 0
    for block in variety.blocks:
        offsets.append(position)
        position += len(block)
    width = variety.n + variety.m
    l0 = variety.blocks[0]
    rows = []
    for i in range(1, len(variety.blocks)):
        scale = math.gcd(gcds[0], gcds[i]) if i <= 2 else 1
        row = [0] * width
        row[: len(l0)] = [-e // scale for e in l0]
        li = variety.blocks[i]
        row[offsets[i] : offsets[i] + len(li)] = [e // scale for e in li]
        rows.append(row)
    return IntMatrix.from_rows(rows, width)


def exponent_matrix(variety) -> IntMatrix:
    """The r x (n + m) exponent matrix with rows (-l_0, 0.., l_i, ..0).

    Row i places -l_0 on block 0 and +l_i on block i; the m free-variable
    columns are zero.  Needs at least two blocks.  The compulsory torsion
    lemma reads the torsion of its cokernel off the block gcds.
    """
    blocks = variety.blocks
    if len(blocks) < 2:
        raise InvalidVarietyError("exponent matrix needs at least two blocks")
    rows = []
    offset = len(blocks[0])
    for block in blocks[1:]:
        row = {j: -e for j, e in enumerate(blocks[0])}
        row.update((offset + j, e) for j, e in enumerate(block))
        offset += len(block)
        rows.append(row)
    return IntMatrix.from_sparse(rows, variety.n + variety.m)


def torsion_part(group: FgAbelianGroup) -> FgAbelianGroup:
    """The finite part Z/f_1 x ... x Z/f_k of a group."""
    return FgAbelianGroup(0, group.invariant_factors)


def tcs_copies(variety) -> list[tuple[tuple[int, ...], ...]]:
    """The raw TCS blocks grouped per source block i: its c(i) copies, one
    copy of each block when the variety is factorial or degenerate."""
    blocks = total_coordinate_space(variety).blocks
    counts = block_invariants(variety).c or (1,) * len(blocks)
    ends = itertools.accumulate(counts)
    return [blocks[end - k : end] for k, end in zip(counts, ends)]


def grading_rows_reference(variety) -> IntMatrix:
    """The grading matrix, with an explicit (i, t, j) -> column map.

    Columns are indexed by (i, t, j): source block i, copy t, variable j,
    copies varying faster than blocks.
    """
    groups = tcs_copies(variety)
    if rationality_class(variety).kind is RationalityKind.CASE_II:
        return block_diagonal([matrix_A(len(copies), copies[0]) for copies in groups])

    n_prime = total_coordinate_space(variety).n
    offsets = []
    position = 0
    for copies in groups:
        offsets.append(position)
        position += len(copies) * len(copies[0])

    def column(i: int, t: int, j: int) -> int:
        block_length = len(groups[i][0])
        return offsets[i] + (t - 1) * block_length + (j - 1)

    rows = []
    for i, copies in enumerate(groups):
        for j in range(1, len(copies[0]) + 1):
            row = [0] * n_prime
            for t in range(1, len(copies) + 1):
                row[column(i, t, j)] = 1
            rows.append(row)
    base = groups[0][0]
    for i, copies in enumerate(groups):
        for t in range(1, len(copies) + 1):
            if (i, t) == (0, 1):
                continue
            row = [0] * n_prime
            vector = copies[t - 1]
            for j in range(1, len(vector) + 1):
                row[column(i, t, j)] += vector[j - 1]
            for j in range(1, len(base) + 1):
                row[column(0, 1, j)] -= base[j - 1]
            rows.append(row)
    return IntMatrix.from_rows(rows, n_prime)



def element_order_in_cokernel(matrix: IntMatrix, vector: Sequence[int]) -> Optional[int]:
    """Order of the class of `vector` in Z^cols / rowlattice(matrix).

    Returns None for infinite order.  Computed by comparing the torsion
    orders of the cokernel before and after adjoining the vector as an extra
    relation: quotienting by a cyclic subgroup of order q divides the torsion
    order by exactly q.
    """
    base = smith_invariants(matrix)
    rows = [matrix.row(i) for i in range(matrix.rows)] + [vector]
    extended = smith_invariants(IntMatrix.from_rows(rows, matrix.cols))  # checks the length
    if extended.rank > base.rank:
        return None
    torsion_before = math.prod(base.invariant_factors)
    torsion_after = math.prod(extended.invariant_factors)
    return torsion_before // torsion_after


def leading_class_order(variety, exponents) -> Optional[int]:
    """Order in the class group of the class of sum_j exponents[j] D_{0j,1}.

    Block 0, copy 1 occupies the first columns of the grading matrix, so
    the class is that of `exponents` padded with zeros.
    """
    matrix = grading_matrix(variety)
    vector = list(exponents) + [0] * (matrix.cols - len(exponents))
    return element_order_in_cokernel(matrix, vector)


def relation_degree_order(variety) -> Optional[int]:
    """Order of the class of the leading relation monomial sum_j l_{0j,1} D_{0j,1}."""
    return leading_class_order(variety, total_coordinate_space(variety).blocks[0])


def cyclic_subgroup_order(variety, y: int) -> Optional[int]:
    """Order of the class of sum_j (l_0j / y) D_{0j,1}, for y dividing L0."""
    return leading_class_order(variety, [e // y for e in variety.blocks[0]])


def matrix_A(k: int, exponents: Sequence[int]) -> IntMatrix:
    """The (k + n) x (k n) relation block for n = len(exponents).

    The first k rows place one copy of the exponent vector on each column
    block; the last n rows are k horizontal copies of the n x n identity.
    Its rank is n - 1 + k and its top determinantal divisor divides
    gcd(exponents)^(k-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    l = tuple(map(operator.index, exponents))
    if not l or any(x < 1 for x in l):
        raise ValueError("exponent vector must be nonempty with positive entries")
    n = len(l)
    rows = [[0] * (t * n) + list(l) + [0] * ((k - 1 - t) * n) for t in range(k)]
    rows += [[int(i == j) for i in range(n)] * k for j in range(n)]
    return IntMatrix.from_rows(rows, k * n)


def matrix_B(k: int, exponents: Sequence[int], frak_l: int) -> IntMatrix:
    """Variant of `matrix_A` with the identity rows replaced by one row.

    The first k rows are those of `matrix_A`; the single last row holds k
    horizontal copies of exponents/frak_l, so the result has k + 1 rows.
    `frak_l` must divide every exponent.
    """
    a = matrix_A(k, exponents)
    l = a.row(0)[: a.cols // k]  # the checked exponent vector
    if frak_l < 1 or any(x % frak_l for x in l):
        raise ValueError(f"{frak_l} does not divide all of {l}")
    rows = [a.row(t) for t in range(k)] + [[x // frak_l for x in l] * k]
    return IntMatrix.from_rows(rows, a.cols)


def quotient_torsion_order(sub: IntMatrix, sup: IntMatrix) -> Optional[int]:
    """Order of the torsion of rowlattice(sup) / rowlattice(sub), or None
    when rowlattice(sub) is not inside rowlattice(sup).

    The coordinates of the rows of `sub` (no basis needed) in the Hermite
    basis of `sup` present the quotient, so the order is the product of
    their Smith invariant factors.
    """
    if sub.cols != sup.cols:
        raise ValueError("lattices live in different ambient spaces")
    basis = hermite_basis(sup)
    coordinates = [coordinates_in_lattice(basis, sub.row(i)) for i in range(sub.rows)]
    if None in coordinates:
        return None
    data = smith_invariants(IntMatrix.from_rows(coordinates, basis.rows))
    return math.prod(data.invariant_factors)


def is_saturated_sublattice(sub: IntMatrix, sup: IntMatrix) -> bool:
    """True iff rowlattice(sub) lies in rowlattice(sup) with torsion-free
    quotient.  The zero lattice is saturated in anything."""
    return quotient_torsion_order(sub, sup) == 1


def duval_saturation_by_lattice(variety) -> bool:
    """`DuvalDiagram.saturation_ok` by lattice algebra: for every TCS block
    with c(i) = k copies of l, `matrix_B(k, l, gcd(l))` is saturated in
    `matrix_A(k, l)`."""
    return all(
        is_saturated_sublattice(matrix_B(k, l, math.gcd(*l)), matrix_A(k, l))
        for k, l in ((len(copies), copies[0]) for copies in tcs_copies(adjust(variety)[0]))
    )
