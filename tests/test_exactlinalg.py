"""Tests for the exact integer linear algebra layer.

Expected values tagged by hand derivation below were computed from the
gcd-of-minors definition (product of the first k invariant factors equals the
k-th determinantal divisor) or by explicit generator/relation elimination,
independently of the Smith elimination they check.
"""

import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import make_golden
from oracles import (
    block_diagonal,
    chain_pairwise,
    coordinates_in_lattice,
    determinantal_divisor,
    duval_saturation_by_lattice,
    element_order_in_cokernel,
    eliminate_exact_reference,
    exponent_matrix,
    hermite_basis,
    identity,
    is_saturated_sublattice,
    matmul,
    matrix_A,
    matrix_B,
    quotient_torsion_order,
    smith_oracle,
    smith_with_transforms,
    stack,
    transpose,
)
from test_cli import CAP_LADDER, C_LADDER
from tricl import classgroup, exactlinalg
from tricl.classgroup import GroupMethod, class_group_formula, class_group_report, grading_matrix
from tricl.coxring import is_hyperplatonic, total_coordinate_space
from tricl.exactlinalg import (
    FgAbelianGroup,
    IntMatrix,
    SmithData,
    cokernel,
    smith_invariants,
)
from tricl.variety import RationalityKind, TrinomialVariety, adjust, rationality_class


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols)


small_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda r: st.integers(min_value=0 if r else 1, max_value=6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, c))
    )
)


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(TypeError):
            IntMatrix(2, 2, (1, 2, 3, 4))  # built only by from_rows or from_sparse
        with pytest.raises(ValueError):
            M([[1, 2], [3]])
        with pytest.raises(ValueError):
            M([])  # needs cols
        with pytest.raises(ValueError, match="cols does not match the row length"):
            M([[1, 2], [3, 4]], cols=3)

    def test_entries_must_be_integers(self):
        with pytest.raises(TypeError):
            M([[2.5, "3"]])
        with pytest.raises(TypeError):
            M([[1, 2.0]])
        assert M([[True, 2]]) == M([[1, 2]])

    def test_empty_matrices(self):
        assert M([], cols=4).rows == 0
        assert M([], cols=0).entries == ()
        assert str(M([], cols=4)) == "<empty 0x4 matrix>"
        assert str(M([[], []])) == "<empty 2x0 matrix>"

    def test_accessors(self):
        a = M([[1, 2, 3], [4, 5, 6]])
        assert a[1, 2] == 6
        assert a.row(0) == (1, 2, 3)
        assert transpose(a) == M([[1, 4], [2, 5], [3, 6]])
        assert stack(a, M([[7, 8, 9]])) == M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_matmul(self):
        a = M([[1, 2], [3, 4]])
        assert matmul(a, identity(2)) == a
        assert matmul(a, M([[0, 1], [1, 0]])) == M([[2, 1], [4, 3]])

    def test_block_diagonal(self):
        b = block_diagonal([M([[1, 2]]), M([[3], [4]])])
        assert b == M([[1, 2, 0], [0, 0, 3], [0, 0, 4]])


class TestSparseStorage:
    def test_sparse_and_dense_construction_agree(self):
        dense = M([[0, 2, 0], [0, 0, 0], [5, 0, -1]])
        sparse = IntMatrix.from_sparse([{1: 2}, {}, {0: 5, 2: -1}], 3)
        assert sparse == dense and hash(sparse) == hash(dense)
        assert sparse.entries == dense.entries == (0, 2, 0, 0, 0, 0, 5, 0, -1)
        assert sparse.row(2) == (5, 0, -1) and sparse[0, 1] == 2 and sparse[1, 2] == 0
        assert str(sparse) == str(dense) and repr(sparse) == repr(dense)
        with pytest.raises(IndexError):
            sparse[3, 0]

    def test_immutable(self):
        a = M([[1, 2]])
        with pytest.raises(AttributeError):
            a.rows = 3

    def test_the_engine_leaves_the_rows_as_they_were(self):
        rows = [{0: 2, 1: 4, 2: 1}, {0: 6, 1: 8}, {1: 3, 2: 3}, {0: 1, 2: 1}]
        before = [dict(row) for row in rows]
        a = IntMatrix.from_sparse(rows, 3)
        assert smith_invariants(a) == smith_invariants(M([list(a.row(i)) for i in range(4)]))
        assert rows == before


class TestSmith:
    def test_identity(self):
        data = smith_invariants(identity(2))
        assert data.rank == 2
        assert data.invariant_factors == (1, 1)

    def test_gcd_of_minors_example(self):
        # d1 = gcd(2,4,6,8) = 2, d1*d2 = |det| = |2*8 - 4*6| = 8, so d2 = 4.
        data = smith_invariants(M([[2, 4], [6, 8]]))
        assert data.rank == 2
        assert data.invariant_factors == (2, 4)

    def test_zero_matrix(self):
        data = smith_invariants(M([[0] * 3] * 3))
        assert data.rank == 0
        assert data.invariant_factors == ()

    def test_empty_matrix(self):
        assert smith_invariants(M([], cols=3)).rank == 0

    def test_smith_data_has_one_factor_per_rank(self):
        with pytest.raises(ValueError, match="must equal the rank"):
            SmithData(2, (1,))

    def test_divisibility_chain_is_enforced_by_construction(self):
        data = smith_invariants(M([[2, 0], [0, 3]]))
        assert data.invariant_factors == (1, 6)

    def test_transforms(self):
        a = M([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        u, d, v = smith_with_transforms(a)
        assert matmul(matmul(u, a), v) == d
        # off-diagonal of d vanishes
        assert all(d[i, j] == 0 for i in range(3) for j in range(3) if i != j)
        # u, v unimodular
        assert smith_invariants(u).invariant_factors == (1, 1, 1)
        assert smith_invariants(v).invariant_factors == (1, 1, 1)

    @given(small_matrices)
    @settings(max_examples=150, deadline=None)
    def test_factor_product_equals_determinantal_divisor(self, a):
        data = smith_invariants(a)
        product = 1
        for k, factor in enumerate(data.invariant_factors, start=1):
            product *= factor
            assert product == determinantal_divisor(a, k)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_transforms_reproduce_diagonal(self, a):
        u, d, v = smith_with_transforms(a)
        assert matmul(matmul(u, a), v) == d
        diag = tuple(d[i, i] for i in range(min(a.rows, a.cols)) if d[i, i])
        assert diag == smith_invariants(a).invariant_factors


def _random_matrix(rng):
    """A seeded random matrix of one of the shapes the engine special-cases."""
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    bound = rng.choice([1, 2, 5, 30, 10**12])
    density = rng.choice([0.2, 0.5, 0.9])
    grid = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    shape = rng.choice(["dense", "rank_deficient", "zero_row", "zero_column", "block_diagonal"])
    if shape == "rank_deficient" and rows >= 3:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        grid[-1] = [a * x + b * y for x, y in zip(grid[0], grid[1])]
    elif shape == "zero_row" and rows:
        grid[rng.randrange(rows)] = [0] * cols
    elif shape == "zero_column" and cols:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = 0
    elif shape == "block_diagonal" and rows >= 2 and cols >= 2:
        split_row, split_col = rng.randint(1, rows - 1), rng.randint(1, cols - 1)
        for i, row in enumerate(grid):
            for j in range(cols):
                if (i < split_row) != (j < split_col):
                    row[j] = 0
    return M(grid, cols)


class TestSmithEngine:
    """The mod-determinant engine against the integer min-pivot oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants_and_cokernel_match_the_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            a = _random_matrix(rng)
            rank, factors = smith_oracle(a)
            data = smith_invariants(a)
            assert (data.rank, data.invariant_factors) == (rank, factors), a
            assert cokernel(a) == FgAbelianGroup(
                a.cols - rank, tuple(f for f in factors if f > 1)
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_group_matches_the_oracle(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            choices = [1, 2, 3, 4, 6, 8, 9, 12, 27, 10**9 + 7]
            factors = [rng.choice(choices) for _ in range(rng.randint(0, 9))]
            rank = rng.randint(0, 2)
            n = len(factors)
            diagonal = M([[factors[i] if i == j else 0 for j in range(n)] for i in range(n)], n)
            _, chain = smith_oracle(diagonal)
            group = FgAbelianGroup(rank, factors)
            assert (group.rank, group.invariant_factors) == (rank, tuple(f for f in chain if f > 1))

    def test_minor_of_a_nonsingular_square_matrix_is_its_determinant(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 6)
            a = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            det = determinantal_divisor(a, n)
            if det:
                rows = [{j: x for j, x in enumerate(a.row(i)) if x} for i in range(n)]
                assert exactlinalg._rank_and_minor(rows) == (n, det), a

    def test_block_diagonal_is_the_direct_sum(self):
        # Z/4 from the first block and Z/6 x Z from the second.
        a = block_diagonal([M([[4]]), M([[2, 0, 0], [0, 3, 0]])])
        assert smith_invariants(a).invariant_factors == (1, 2, 12)
        assert cokernel(a) == FgAbelianGroup(1, (2, 12))

    def test_pivots_mod_the_minor_may_split_a_free_factor(self):
        # Rank 1 with minor 6: modulo 6 the pivots are 2 and 3, and
        # Z/2 x Z/3 = Z/6 is the copy of Z/6 that stands for the free part.
        a = M([[6, 4], [3, 2]])
        assert smith_invariants(a).invariant_factors == (1,)
        assert cokernel(a) == FgAbelianGroup(1, ())

    def test_large_entries(self):
        p, q = 2**61 - 1, 2**89 - 1
        a = M([[p, 0], [0, q], [p, q]])
        assert smith_invariants(a).invariant_factors == (1, p * q)

    def test_case_iii_grading_matrix(self):
        # The 9-block case-III grading matrix (38 x 30), on which the
        # integer elimination's intermediates reached ~845,000 bits.
        blocks = [[2], [4], [10], [3], [7], [11], [13], [17], [19]]
        variety = adjust(TrinomialVariety(blocks))[0]
        a = grading_matrix(variety)
        assert (a.rows, a.cols) == (38, 30)
        # Z/(2*4*10/4) x (Z/p)^3 for p = 3, 7, ..., 19, as a chain.
        q = 3 * 7 * 11 * 13 * 17 * 19
        expected = FgAbelianGroup(0, (q, q, 20 * q))
        assert class_group_formula(variety) == expected
        assert cokernel(a) == expected

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_sympy_invariant_factors(self, seed):
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        rng = random.Random(seed)
        # The two seeds share out the golden grading matrices, which hold the
        # 27 ladder points, and one more case II.
        grading = [*_golden_grading_matrices().values()]
        grading.append(grading_matrix(adjust(TrinomialVariety([[4], [4], [3], [5]]))[0]))
        for a in grading[seed::2] + [_random_matrix(rng) for _ in range(60)]:
            if not a.rows or not a.cols:
                continue
            grid = Matrix(a.rows, a.cols, list(a.entries))
            expected = tuple(abs(int(f)) for f in normalforms.invariant_factors(grid, domain=ZZ) if f)
            assert smith_invariants(a).invariant_factors == expected, a


@functools.cache
def _golden_grading_matrices() -> dict[str, IntMatrix]:
    """The grading matrix of every golden input that has one, by name.  The
    `case_*` names are the 27 points of the benchmark's Smith ladder."""
    out = {}
    for name, spec in make_golden.inputs():
        adjusted = adjust(TrinomialVariety(spec["blocks"], spec.get("m", 0)))[0]
        kind = rationality_class(adjusted).kind
        if not adjusted.is_degenerate and kind in (RationalityKind.CASE_II, RationalityKind.CASE_III):
            out[name] = grading_matrix(adjusted)
    return out


def _assert_orientation_free(a: IntMatrix) -> None:
    data = smith_invariants(a)
    assert smith_invariants(transpose(a)) == data, a
    assert cokernel(a).rank == a.cols - data.rank
    assert cokernel(transpose(a)).rank == a.rows - data.rank


def _shape(rows) -> tuple[int, int]:
    """(rows, columns used) of sparse rows."""
    return len(rows), len(set().union(*rows))


class TestOrientation:
    """SNF(M^T) = SNF(M)^T, so the engine eliminates whichever of M and M^T
    has fewer rows; the cokernel keeps the free rank of M."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", ["tall", "wide", "square"])
    def test_seeded_matrices_with_zero_rows_and_columns(self, seed, shape):
        rng = random.Random(f"{shape}:{seed}")
        for _ in range(150):
            small, large = sorted((rng.randint(1, 9), rng.randint(1, 9)))
            rows, cols = {"tall": (large + 1, small), "wide": (small, large + 1)}.get(
                shape, (small, small)
            )
            bound = rng.choice([1, 3, 30, 10**12])
            density = rng.choice([0.2, 0.5, 0.9])
            grid = [
                [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
                grid[i] = [0] * cols
            for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
                for row in grid:
                    row[j] = 0
            a = M(grid, cols)
            _assert_orientation_free(a)
            data = smith_invariants(a)
            assert (data.rank, data.invariant_factors) == smith_oracle(a), a

    def test_empty_and_zero_matrices(self):
        for rows, cols in [(0, 0), (0, 3), (3, 0), (4, 2)]:
            a = M([[0] * cols for _ in range(rows)], cols)
            _assert_orientation_free(a)
            assert cokernel(a) == FgAbelianGroup(cols, ())

    def test_grading_matrices_of_the_golden_corpus(self):
        matrices = _golden_grading_matrices()
        assert len(matrices) > 27  # the ladder and more
        for a in matrices.values():
            _assert_orientation_free(a)

    @pytest.mark.parametrize(
        "blocks, shape, exact, bareiss",
        [
            # The exact stage gets M^T, and its 20 x 28 remainder stays so.
            ([[2], [4], [10], [3], [7], [11], [13], [17], [19]], (38, 30), (30, 38), [(20, 28)]),
            # The exact stage gets M and clears it.
            ([[8, 16], [8], [3, 3], [5, 5]], (25, 35), (25, 35), []),
            # Taller than wide only by its one-variable blocks: M^T leaves a
            # 4 x 3 remainder, which Bareiss gets as 3 x 4.
            ([[8, 5], [6, 3], [3]], (10, 9), (9, 10), [(3, 4)]),
        ],
        ids=["case_iii-9", "case_ii_wide-c8", "mixed-10x9"],
    )
    def test_each_stage_gets_the_orientation_with_fewer_rows(
        self, monkeypatch, blocks, shape, exact, bareiss
    ):
        a = grading_matrix(adjust(TrinomialVariety(blocks))[0])
        assert (a.rows, a.cols) == shape
        remainders = _recorded_arguments(monkeypatch, exactlinalg, "_rank_and_minor")
        (rows,) = _recorded_exact_inputs(monkeypatch, lambda: smith_invariants(a))
        assert _shape(rows) == exact
        assert list(map(_shape, remainders)) == bareiss


class TestCokernel:
    def test_identity_is_trivial(self):
        assert cokernel(identity(2)).is_trivial

    def test_single_relation(self):
        assert cokernel(M([[2]])) == FgAbelianGroup(0, (2,))

    def test_zero_rows_give_free_group(self):
        assert cokernel(M([], cols=3)) == FgAbelianGroup(3, ())

    def test_grading_matrix_of_a3_quotient(self):
        # Relations among six generators a1,a2,b1,b2,c1,c2:
        # a1+a2 = b1+b2 = c1+c2 = 0, 2a2 = b1 = b2 = c1 = c2 = 2a1; eliminating
        # by hand leaves a single generator a1 with 4*a1 = 0.
        rows = [
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [-2, 2, 0, 0, 0, 0],
            [-2, 0, 1, 0, 0, 0],
            [-2, 0, 0, 1, 0, 0],
            [-2, 0, 0, 0, 1, 0],
            [-2, 0, 0, 0, 0, 1],
        ]
        assert cokernel(M(rows)) == FgAbelianGroup(0, (4,))

    @given(small_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_invariance_under_row_operations(self, a, rng):
        """Metamorphic: row permutation, negation and row adds fix the cokernel."""
        base = cokernel(a)
        rows = [list(a.row(i)) for i in range(a.rows)]
        if rows:
            for _ in range(6):
                op = rng.randrange(3)
                i = rng.randrange(len(rows))
                k = rng.randrange(len(rows))
                if op == 0:
                    rows[i], rows[k] = rows[k], rows[i]
                elif op == 1:
                    rows[i] = [-x for x in rows[i]]
                elif i != k:
                    rows[i] = [x + y for x, y in zip(rows[i], rows[k])]
        assert cokernel(M(rows, a.cols)) == base


class TestDeterminantalDivisor:
    def test_identity(self):
        assert determinantal_divisor(identity(3), 2) == 1

    def test_single_minor(self):
        assert determinantal_divisor(M([[2, 4], [6, 8]]), 2) == 8

    def test_relation_block(self):
        # All 3x3 minors of the k=2, (2,2) relation block are even and one
        # equals +-2, so the gcd is exactly 2.
        assert determinantal_divisor(matrix_A(2, (2, 2)), 3) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            determinantal_divisor(identity(2), 3)
        with pytest.raises(ValueError):
            determinantal_divisor(identity(2), 0)

    def test_zero_when_rank_deficient(self):
        assert determinantal_divisor(M([[1, 2], [2, 4]]), 2) == 0


class TestRelationBlocks:
    def test_matrix_A_smallest(self):
        assert matrix_A(1, (3,)) == M([[3], [1]])

    def test_matrix_A_displayed_shape(self):
        assert matrix_A(2, (2, 2)) == M(
            [[2, 2, 0, 0], [0, 0, 2, 2], [1, 0, 1, 0], [0, 1, 0, 1]]
        )

    def test_matrix_A_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matrix_A(0, (2,))
        with pytest.raises(ValueError):
            matrix_A(1, ())
        with pytest.raises(ValueError):
            matrix_A(1, (0,))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [(1,), (4,), (2, 2), (2, 4), (3, 5), (2, 4, 6), (1, 2, 3)])
    def test_matrix_A_rank_and_divisor(self, k, l):
        n = len(l)
        a = matrix_A(k, l)
        data = smith_invariants(a)
        assert data.rank == n - 1 + k
        top = determinantal_divisor(a, data.rank)
        assert math.gcd(*l) ** (k - 1) % top == 0

    def test_matrix_B_smallest(self):
        assert matrix_B(1, (4,), 4) == M([[4], [1]])

    def test_matrix_B_displayed_shape(self):
        assert matrix_B(2, (2, 2), 2) == M([[2, 2, 0, 0], [0, 0, 2, 2], [1, 1, 1, 1]])

    def test_matrix_B_divisibility_enforced(self):
        with pytest.raises(ValueError, match="does not divide"):
            matrix_B(2, (2, 3), 2)
        # Bad k, exponents or frak_l are refused too.
        for args in [(0, (2,), 1), (1, (), 1), (1, (0,), 1), (2, (2, 4), 0), (1, (4,), -2)]:
            with pytest.raises(ValueError):
                matrix_B(*args)

    def test_matrix_B_rows_inside_matrix_A_lattice(self):
        assert quotient_torsion_order(matrix_B(2, (2, 2), 2), matrix_A(2, (2, 2))) is not None


class TestLattices:
    def test_hermite_basis_is_canonical(self):
        a = M([[2, 2, 0, 0], [0, 0, 2, 2], [1, 0, 1, 0], [0, 1, 0, 1]])
        b = M([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 2], [2, 2, 0, 0]])
        assert hermite_basis(a) == hermite_basis(b)
        assert hermite_basis(a) == M([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 2]])

    def test_coordinates(self):
        basis = hermite_basis(M([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 2]]))
        assert coordinates_in_lattice(basis, (1, 1, 1, 1)) == (1, 1, 0)
        assert coordinates_in_lattice(basis, (1, 0, 0, 0)) is None

    def test_saturated_reflexive(self):
        i2 = identity(2)
        assert is_saturated_sublattice(i2, i2)

    def test_index_two_sublattice_not_saturated(self):
        assert not is_saturated_sublattice(M([[2, 0]]), identity(2))

    def test_non_sublattice_returns_false(self):
        assert not is_saturated_sublattice(identity(2), M([[2, 0], [0, 2]]))
        assert not is_saturated_sublattice(M([[1, 1]]), M([[2, 0], [0, 1]]))
        assert not is_saturated_sublattice(M([[0, 1]]), M([[1, 0]]))  # outside the span

    def test_zero_lattice_is_saturated(self):
        assert is_saturated_sublattice(M([], cols=2), identity(2))
        assert is_saturated_sublattice(M([[0, 0], [0, 0]]), identity(2))

    def test_relation_block_lattice_is_saturated(self):
        assert is_saturated_sublattice(matrix_B(2, (2, 2), 2), matrix_A(2, (2, 2)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [(2,), (4,), (2, 2), (2, 4), (3, 3), (6, 4, 2)])
    def test_relation_block_saturation_family(self, k, l):
        g = math.gcd(*l)
        assert is_saturated_sublattice(matrix_B(k, l, g), matrix_A(k, l))

    @given(small_matrices, st.integers(min_value=2, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_scaled_lattice_never_saturated_unless_zero(self, a, q):
        scaled = M([[q * x for x in a.row(i)] for i in range(a.rows)], a.cols)
        if smith_invariants(a).rank == 0:
            assert is_saturated_sublattice(scaled, a)
        else:
            assert not is_saturated_sublattice(scaled, a)

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_full_lattice_saturated_in_itself(self, a):
        assert is_saturated_sublattice(a, a)

    def test_quotient_torsion_order(self):
        # Z^2 / <(2, 0), (0, 3)> is Z/6; Z^2 / <(2, 2)> is Z x Z/2.
        assert quotient_torsion_order(M([[2, 0], [0, 3]]), identity(2)) == 6
        assert quotient_torsion_order(M([[2, 2]]), identity(2)) == 2
        assert quotient_torsion_order(M([[1, 1]]), M([[2, 0], [0, 1]])) is None
        with pytest.raises(ValueError):
            quotient_torsion_order(M([[1, 0, 0]]), identity(2))


def _recorded_chain_inputs(monkeypatch, run) -> list[list[int]]:
    """Every factor list that `_chain` receives while `run()` runs, the
    TCS block gcds of the compulsory torsion lemma included."""
    seen = []
    original = exactlinalg._chain

    def recording(factors):
        factors = list(factors)
        seen.append(factors)
        return original(factors)

    monkeypatch.setattr(exactlinalg, "_chain", recording)
    monkeypatch.setattr(classgroup, "_chain", recording)
    run()
    monkeypatch.undo()
    return seen


class TestChainAgainstPairwise:
    """The coprime-base chain against the all-pairs gcd/lcm exchange."""

    def test_edge_cases(self):
        for factors in ([], [1], [1, 1, 1], [7], [2, 2, 2], [6, 10, 15], [4, 6, 1, 9]):
            assert exactlinalg._chain(factors) == chain_pairwise(factors)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_factor_lists(self, seed):
        rng = random.Random(seed)
        primes = [2, 3, 5, 7, 11, 13, 10**12 + 39, 999_999_000_001]
        for _ in range(700):
            pool = [
                math.prod(rng.choice(primes) ** rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 6))
            ]
            pool += [rng.randint(10**12, 10**12 + 10**6), 1]
            factors = [rng.choice(pool) for _ in range(rng.randint(0, 14))]
            expected = chain_pairwise(factors)
            assert exactlinalg._chain(factors) == expected, factors
            assert FgAbelianGroup(1, factors).invariant_factors == expected

    def test_chain_inputs_of_the_enumeration(self, monkeypatch, enumeration_corpus):
        inputs = _recorded_chain_inputs(
            monkeypatch, lambda: [class_group_formula(v) for v, _ in enumeration_corpus]
        )
        assert len(inputs) > 1000
        for factors in inputs:
            assert exactlinalg._chain(factors) == chain_pairwise(factors), factors

    def test_chain_inputs_of_the_ladders(self, monkeypatch):
        ladders = [
            adjust(TrinomialVariety(spec["blocks"]))[0]
            for name, spec in make_golden.inputs()
            if name.startswith("case_")
        ]
        inputs = _recorded_chain_inputs(
            monkeypatch, lambda: [class_group_report(v, GroupMethod.BOTH) for v in ladders]
        )
        assert len(inputs) > len(ladders)
        for factors in inputs:
            assert exactlinalg._chain(factors) == chain_pairwise(factors), factors


def _recorded_exact_inputs(monkeypatch, run) -> list[list[dict]]:
    """A copy of every row list that `_eliminate_exact` receives while
    `run()` runs."""
    seen = []
    original = exactlinalg._eliminate_exact

    def recording(rows):
        seen.append([dict(row) for row in rows])
        return original(rows)

    monkeypatch.setattr(exactlinalg, "_eliminate_exact", recording)
    run()
    monkeypatch.undo()
    return seen


def _recorded_arguments(monkeypatch, module, name) -> list:
    """Patch `module.name` to record its one argument on every call; the
    returned list fills as the patched function runs."""
    seen = []
    original = getattr(module, name)

    def recording(argument):
        seen.append(argument)
        return original(argument)

    monkeypatch.setattr(module, name, recording)
    return seen


def _exponent_matrix_cokernels(varieties) -> list[FgAbelianGroup]:
    """The Smith-form route to the compulsory torsion that its lemma replaces."""
    return [cokernel(exponent_matrix(total_coordinate_space(v).tcs)) for v in varieties]


def _assert_same_exact_stage(rows):
    expected = eliminate_exact_reference([dict(row) for row in rows])
    assert exactlinalg._eliminate_exact([dict(row) for row in rows]) == expected, rows


def _random_sparse_rows(rng) -> list[dict]:
    """Seeded sparse rows: zero rows, repeated columns and rows, and entries
    of either sign up to 10^12 beside small ones."""
    cols = rng.sample(range(3 * 12), rng.randint(1, 12))  # not contiguous
    pool = rng.choice([(1,), (1, 2), (1, 2, 3, 6), (2, 3, 4), (1, 10**12, 10**12 + 1)])
    density = rng.choice([0.15, 0.3, 0.6])
    rows = [
        {j: rng.choice(pool) * rng.choice((1, -1)) for j in cols if rng.random() < density}
        for _ in range(rng.randint(0, 12))
    ]
    for _ in range(rng.randint(0, 2)):  # column b repeats column a
        a, b = rng.choice(cols), rng.choice(cols)
        for row in rows:
            row.pop(b, None)
            if a in row:
                row[b] = row[a]
    if rows and rng.random() < 0.3:  # a row repeated, up to a factor
        q = rng.choice((1, -1, 2))
        rows.append({j: q * x for j, x in rng.choice(rows).items()})
    rng.shuffle(rows)
    return rows


class TestExactStageAgainstReference:
    """`_eliminate_exact` against the plain statement of its pivot rule:
    the same split-off orders and the same rows left, in the same order."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_sparse_rows(self, seed):
        rng = random.Random(seed)
        for _ in range(1000):
            _assert_same_exact_stage(_random_sparse_rows(rng))

    def test_inputs_of_the_golden_corpus(self, monkeypatch):
        # The lattice saturation check of the golden du Val squares, and the
        # exponent matrices whose torsion the compulsory torsion lemma gives,
        # feed the engine rows that no golden run does.
        varieties = [
            TrinomialVariety(spec["blocks"], spec.get("m", 0)) for _, spec in make_golden.inputs()
        ]
        hyperplatonic = [v for v in varieties if is_hyperplatonic(v)]
        torsion = _recorded_arguments(monkeypatch, classgroup, "compulsory_torsion")
        inputs = _recorded_exact_inputs(
            monkeypatch,
            lambda: (
                make_golden.records(),
                list(map(duval_saturation_by_lattice, hyperplatonic)),
                _exponent_matrix_cokernels(torsion),
            ),
        )
        assert len(inputs) > 100
        for rows in inputs:
            _assert_same_exact_stage(rows)

    def test_inputs_of_the_ladders(self, monkeypatch):
        ladders = CAP_LADDER + [b for b in C_LADDER if b[0][0] <= 1 << 12]
        varieties = [adjust(TrinomialVariety(blocks))[0] for blocks in ladders]
        inputs = _recorded_exact_inputs(
            monkeypatch, lambda: [class_group_report(v, GroupMethod.BOTH) for v in varieties]
        )
        assert len(inputs) == len(ladders)  # one Smith form per report
        inputs += _recorded_exact_inputs(monkeypatch, lambda: _exponent_matrix_cokernels(varieties))
        assert len(inputs) == 2 * len(ladders)
        for rows in inputs:
            _assert_same_exact_stage(rows)


class TestCanonicalGroup:
    """`FgAbelianGroup` puts any factors >= 1 into invariant-factor form."""

    def test_crt(self):
        assert FgAbelianGroup(0, [2, 3]).invariant_factors == (6,)

    def test_repeated_factor(self):
        assert FgAbelianGroup(1, [2, 2]).invariant_factors == (2, 2)

    def test_remark_example(self):
        group = FgAbelianGroup(2, [2])
        assert (group.rank, group.invariant_factors) == (2, (2,))

    def test_drops_ones(self):
        assert FgAbelianGroup(0, [1, 1, 1]).invariant_factors == ()
        assert FgAbelianGroup(0, [1, 4, 1, 6]).invariant_factors == (2, 12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="torsion factors must be >= 1"):
            FgAbelianGroup(0, [0])
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            FgAbelianGroup(-1, [2])

    @given(
        st.lists(st.integers(min_value=1, max_value=30), max_size=6),
        st.lists(st.integers(min_value=1, max_value=30), max_size=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_associativity(self, xs, ys, rank):
        combined = FgAbelianGroup(rank, xs + ys)
        g1 = FgAbelianGroup(0, xs)
        g2 = FgAbelianGroup(0, ys)
        recombined = FgAbelianGroup(rank, g1.invariant_factors + g2.invariant_factors)
        assert combined == recombined
        # canonical output satisfies the chain invariant by construction
        fs = combined.invariant_factors
        assert all(b % a == 0 for a, b in zip(fs, fs[1:]))


class TestFgAbelianGroup:
    def test_validation(self):
        assert FgAbelianGroup(0, (1,)).is_trivial
        assert FgAbelianGroup(0, (4, 6)) == FgAbelianGroup(0, (2, 12))
        with pytest.raises(ValueError):
            FgAbelianGroup(-1, ())

    def test_integers_only(self):
        # A float or a string is refused, not truncated or parsed.
        for rank, factors in ((0, (2.5,)), (1.5, ()), (0, ("6",))):
            with pytest.raises(TypeError):
                FgAbelianGroup(rank, factors)

    def test_rendering(self):
        assert str(FgAbelianGroup(0, ())) == "0"
        assert str(FgAbelianGroup(1, ())) == "Z"
        assert str(FgAbelianGroup(2, (2,))) == "Z^2 x Z/2"
        assert str(FgAbelianGroup(0, (3, 6))) == "Z/3 x Z/6"

    def test_order(self):
        assert FgAbelianGroup(0, (3, 6)).order() == 18
        assert FgAbelianGroup(1, ()).order() is None


class TestElementOrder:
    def test_orders_in_z4(self):
        # Z^1 / <(4)> = Z/4
        relations = M([[4]])
        assert element_order_in_cokernel(relations, (1,)) == 4
        assert element_order_in_cokernel(relations, (2,)) == 2
        assert element_order_in_cokernel(relations, (4,)) == 1

    def test_infinite_order(self):
        assert element_order_in_cokernel(M([], cols=1), (1,)) is None

    def test_mixed_group(self):
        # Z^2 / <(2, 0)> = Z/2 x Z
        relations = M([[2, 0]])
        assert element_order_in_cokernel(relations, (1, 0)) == 2
        assert element_order_in_cokernel(relations, (0, 1)) is None

    @given(small_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_lattice_rows_have_order_one(self, a, rng):
        if a.rows == 0:
            return
        i = rng.randrange(a.rows)
        k = rng.randrange(a.rows)
        combined = [x + 2 * y for x, y in zip(a.row(i), a.row(k))]
        assert element_order_in_cokernel(a, combined) == 1
