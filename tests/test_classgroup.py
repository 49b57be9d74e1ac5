"""Tests for the class group formulas, the SNF presentation and predicates."""

import ast
import gc
import inspect
import weakref

import pytest

from oracles import block_diagonal, cyclic_subgroup_order, matrix_A, relation_degree_order
from test_variety import criterion_9_multisets, seeded_inputs_up_to_the_block_cap
from tricl import classgroup, coxring, variety as variety_module
from tricl.classgroup import (
    NOT_FINITELY_GENERATED,
    ClassGroupPredicates,
    GroupMethod,
    IsolatedSingularityCase,
    NotFinitelyGenerated,
    class_group_formula,
    class_group_report,
    class_group_snf,
    compulsory_torsion,
    grading_matrix,
    isolated_singularity_report,
    n_tilde,
    predicates,
)
from tricl.errors import (
    FactorialInputError,
    FreeVariablesPresentError,
    NotAdjustedError,
    NotRationalError,
    OracleMismatchError,
    ResourceLimitError,
)
from tricl.exactlinalg import FgAbelianGroup, IntMatrix, cokernel
from tricl.variety import (
    MAX_BLOCK,
    MAX_N_PRIME,
    RationalityClass,
    RationalityKind,
    TrinomialVariety,
    adjust,
    dimension,
    rationality_class,
)

V = TrinomialVariety
G = FgAbelianGroup

QUADRIC = V([[2], [2], [2]])


class TestClassGroupFormula:
    @pytest.mark.parametrize(
        "blocks,expected",
        [
            ([[4], [2], [3, 2]], G(1, ())),  # Z
            ([[4], [2], [3, 3]], G(1, (3,))),  # Z x Z/3
            ([[2, 4], [2], [2, 6]], G(2, (2,))),  # Z/2 x Z^2
            ([[2], [2], [2]], G(0, (2,))),  # Z/2
            ([[4], [2], [2]], G(0, (4,))),  # Z/4
            ([[2], [3], [5]], G(0, ())),  # factorial
            ([[2], [2], [2], [3]], G(0, (3, 3, 6))),  # Z/2 x (Z/3)^3
        ],
    )
    def test_golden_groups(self, blocks, expected):
        assert class_group_formula(V(blocks)) == expected

    def test_non_rational_marker(self):
        assert class_group_formula(V([[6], [3], [4]])) is NOT_FINITELY_GENERATED

    def test_marker_is_one_printable_value(self):
        # Its `str` is what a formula scan writes into its output.
        assert NotFinitelyGenerated() is NOT_FINITELY_GENERATED
        assert str(NOT_FINITELY_GENERATED) == "not finitely generated"
        assert repr(NOT_FINITELY_GENERATED) == "NotFinitelyGenerated"

    def test_degenerate_is_trivial(self):
        assert class_group_formula(V([[3], [3]])).is_trivial

    def test_requires_adjusted(self):
        with pytest.raises(NotAdjustedError):
            class_group_formula(V([[4], [3], [2]]))

    def test_m_does_not_change_the_group(self):
        assert class_group_formula(V([[2], [2], [2]], m=2)) == G(0, (2,))


class TestRankFormula:
    @pytest.mark.parametrize(
        "blocks,expected",
        [
            ([[4], [2], [3, 3]], 1),
            ([[2], [2], [2]], 0),
            ([[2, 4], [2], [2, 6]], 2),
            ([[2], [3], [5]], 0),  # factorial: TCS is the variety itself
        ],
    )
    def test_rank(self, blocks, expected):
        assert n_tilde(V(blocks)) == expected

    def test_non_rational_raises(self):
        with pytest.raises(NotRationalError):
            n_tilde(V([[6], [3], [4]]))

    def test_n_tilde_degenerate(self):
        assert n_tilde(V([[3], [3]])) == 0


class TestRankIdentity:
    """dim(TCS) - dim(X) = n_tilde by the construction of the total coordinate
    space, so `class_group_report` does not compute the left side."""

    @staticmethod
    def holds(blocks, m) -> bool:
        """Whether the adjusted data is rational; asserts the identity if so."""
        adjusted, _ = adjust(V(blocks, m))
        if not rationality_class(adjusted).is_rational:
            return False
        tcs = coxring.total_coordinate_space(adjusted)
        assert dimension(tcs) - dimension(adjusted) == n_tilde(adjusted), (blocks, m)
        return True

    @pytest.mark.parametrize("m", [0, 2])
    def test_criterion_9_enumeration(self, m):
        assert sum(self.holds(combo, m) for combo in criterion_9_multisets()) > 40_000

    def test_seeded_inputs_up_to_the_block_cap(self):
        inputs = seeded_inputs_up_to_the_block_cap()
        checked = [len(blocks) for k, blocks in enumerate(inputs) if self.holds(blocks, k % 3)]
        assert max(checked) == MAX_BLOCK + 1


class TestCompulsoryTorsion:
    def test_quadric_trivial(self):
        assert compulsory_torsion(QUADRIC).is_trivial

    def test_a3(self):
        assert compulsory_torsion(V([[4], [2], [2]])) == G(0, (2,))

    def test_case_ii(self):
        assert compulsory_torsion(V([[4], [2], [3, 3]])) == G(0, (3,))

    def test_case_iii_with_tail(self):
        assert compulsory_torsion(V([[2], [2], [2], [3]])) == G(0, (3, 3, 3))

    def test_factorial_rejected(self):
        with pytest.raises(FactorialInputError):
            compulsory_torsion(V([[2], [3], [5]]))

    def test_disagreement_with_the_lemma_raises(self, monkeypatch):
        monkeypatch.setattr(classgroup, "_chain", lambda factors: (7, 7))
        with pytest.raises(OracleMismatchError, match="closed form Z/3, lemma Z/7 on the TCS"):
            compulsory_torsion(V([[4], [2], [3, 3]]))

    def test_degenerate_rejected(self):
        with pytest.raises(FactorialInputError, match="degenerate data is an affine space"):
            compulsory_torsion(V([[4], [2]]))

    def test_divides_full_group(self):
        for blocks in ([[4], [2], [2]], [[4], [2], [3, 3]], [[2], [2], [2], [3]]):
            v = V(blocks)
            full = class_group_formula(v)
            ctors = compulsory_torsion(v)
            for factor in ctors.invariant_factors:
                assert any(big % factor == 0 for big in full.invariant_factors)


class TestGradingMatrix:
    def test_quadric_rows(self):
        expected = IntMatrix.from_rows(
            [
                [1, 1, 0, 0, 0, 0],
                [0, 0, 1, 1, 0, 0],
                [0, 0, 0, 0, 1, 1],
                [-1, 1, 0, 0, 0, 0],
                [-1, 0, 1, 0, 0, 0],
                [-1, 0, 0, 1, 0, 0],
                [-1, 0, 0, 0, 1, 0],
                [-1, 0, 0, 0, 0, 1],
            ]
        )
        assert grading_matrix(QUADRIC) == expected

    def test_case_ii_is_block_diagonal(self):
        # TCS data: c = (1, 1, 2), block exponents (2), (1), (3, 3)
        expected = block_diagonal(
            [matrix_A(1, (2,)), matrix_A(1, (1,)), matrix_A(2, (3, 3))]
        )
        assert grading_matrix(V([[4], [2], [3, 3]])) == expected

    def test_a3_cokernel(self):
        assert cokernel(grading_matrix(V([[4], [2], [2]]))) == G(0, (4,))

    def test_factorial_rejected(self):
        with pytest.raises(FactorialInputError):
            grading_matrix(V([[2], [3], [5]]))

    def test_degenerate_rejected(self):
        with pytest.raises(FactorialInputError, match="degenerate data is an affine space"):
            grading_matrix(V([[4], [2]], m=1))

    def test_non_rational_rejected(self):
        with pytest.raises(NotRationalError):
            grading_matrix(V([[6], [3], [4]]))


class TestClassGroupSnf:
    @pytest.mark.parametrize(
        "blocks,expected",
        [
            ([[2], [2], [2]], G(0, (2,))),
            ([[4], [2], [2]], G(0, (4,))),
            ([[4], [2], [3, 3]], G(1, (3,))),
            ([[2, 4], [2], [2, 6]], G(2, (2,))),
            ([[2], [2], [2], [3]], G(0, (3, 3, 6))),
        ],
    )
    def test_matches_formula(self, blocks, expected):
        v = V(blocks)
        assert class_group_snf(v) == expected
        assert class_group_formula(v) == expected


class TestOrderChecks:
    """The relation degree has order 1 in case II and 2 in case III; for y
    dividing L0 the class of sum_j (l_0j / y) D_0j has order y."""

    def test_relation_degree_case_ii(self):
        assert relation_degree_order(V([[4], [2], [3, 3]])) == 1

    def test_relation_degree_case_iii(self):
        assert relation_degree_order(QUADRIC) == 2
        assert relation_degree_order(V([[2, 4], [2], [2, 6]])) == 2

    def test_cyclic_subgroup_orders_on_quadric(self):
        assert cyclic_subgroup_order(QUADRIC, 2) == 2
        assert cyclic_subgroup_order(QUADRIC, 1) == 1

    def test_cyclic_subgroup_order_a3(self):
        assert cyclic_subgroup_order(V([[4], [2], [2]]), 4) == 4
        assert cyclic_subgroup_order(V([[4], [2], [2]]), 2) == 2


class TestPredicates:
    def test_free_abelian_by_small_tail(self):
        result = predicates(V([[6], [4], [1, 1]]))
        assert result.free_abelian
        assert not result.finite  # the group is Z

    def test_cyclic_example(self):
        result = predicates(V([[4], [6], [5]]))
        assert result.cyclic == G(0, (5,))
        assert result.finite and not result.free_abelian

    def test_quadric_is_half_factorial(self):
        result = predicates(QUADRIC)
        assert result.half_factorial
        assert result.cyclic == G(0, (2,))

    def test_factorial(self):
        result = predicates(V([[2], [3], [5]]))
        assert result.free_abelian and result.finite
        assert result.cyclic is None and not result.half_factorial

    def test_non_rational_returns_negatives(self):
        result = predicates(V([[6], [3], [4]]))
        assert result == type(result)(False, False, None, False)

    def test_finite_with_wide_leading_block(self):
        # c(0) = c(1) = 1, so block sizes n0, n1 do not create free rank.
        result = predicates(V([[2, 2], [2], [3]]))
        assert result.finite
        assert result.cyclic == G(0, (3,))

    def test_cyclic_with_three_torsion_blocks(self):
        # coprime torsion orders combine into one cyclic factor when c = 2
        result = predicates(V([[2], [2], [3], [5]]))
        assert result.cyclic == G(0, (15,))

    def test_disagreement_with_the_computed_group_raises(self, monkeypatch):
        # The formula route is made to give Z/3 for the quadric, whose
        # criteria read a cyclic group of order two.
        monkeypatch.setattr(classgroup, "class_group_formula", lambda variety: G(0, (3,)))
        with pytest.raises(OracleMismatchError, match="disagree with the computed group Z/3 "):
            predicates(QUADRIC)

    def test_a_criterion_firing_on_non_rational_input_raises(self, monkeypatch):
        # The quadric is taken for non-rational; its half-factorial criterion
        # reads the blocks alone and still fires.
        non_rational = RationalityClass(RationalityKind.NON_RATIONAL)
        monkeypatch.setattr(classgroup, "rationality_class", lambda variety: non_rational)
        with pytest.raises(OracleMismatchError, match="fired on a non-rational variety"):
            predicates(QUADRIC)

    def test_both_ways_against_the_snf_route(self, enumeration_corpus):
        """Each predicate holds iff the group of `class_group_snf`, which
        `predicates` never calls, has its shape; factorial varieties, which
        have no grading matrix, get the trivial group.  A fixed stride of
        5 over the non-factorial rational varieties bounds the run time."""
        kinds = [(v, rationality_class(v)) for v, _ in enumeration_corpus]
        factorial = [v for v, kind in kinds if kind.is_factorial]
        others = [v for v, kind in kinds if kind.is_rational and not kind.is_factorial][::5]
        cases = [(v, G(0, ())) for v in factorial] + [(v, class_group_snf(v)) for v in others]
        for variety, group in cases:
            expected = ClassGroupPredicates(
                group.is_free,
                group.is_finite,
                group if group.is_nontrivial_finite_cyclic else None,
                group.order() == 2,
            )
            assert predicates(variety) == expected, variety.blocks
        assert len(factorial) > 1000 and len(others) > 1000


class TestIsolatedSingularity:
    def test_surface_case(self):
        report = isolated_singularity_report(QUADRIC)
        assert report.isolated
        assert report.case is IsolatedSingularityCase.DIM2_TORSION

    def test_dim3_free(self):
        v = V([[4], [3], [1, 1]])
        report = isolated_singularity_report(v)
        assert report.isolated
        assert report.case is IsolatedSingularityCase.DIM3_FREE
        assert class_group_formula(v).is_free

    def test_not_isolated(self):
        report = isolated_singularity_report(V([[2, 4], [2], [2, 6]]))
        assert not report.isolated
        assert report.case is IsolatedSingularityCase.NOT_ISOLATED

    def test_dim45_factorial(self):
        v = V([[5], [1, 1], [1, 1]])
        report = isolated_singularity_report(v)
        assert report.isolated
        assert report.case is IsolatedSingularityCase.DIM45_FACTORIAL
        assert class_group_formula(v).is_trivial

    def test_requires_m_zero(self):
        with pytest.raises(FreeVariablesPresentError):
            isolated_singularity_report(V([[2], [2], [2]], m=1))


class TestClassGroupReport:
    def test_both_methods_agree(self):
        report = class_group_report(V([[2, 4], [2], [2, 6]]), GroupMethod.BOTH)
        assert report.group == G(2, (2,))
        assert report.n_tilde == 2
        # all three leading gcds are 2, so the forced torsion Z/(L_i/2) vanishes
        assert report.ctors.is_trivial

    def test_factorial_report(self):
        report = class_group_report(V([[2], [3], [5]]))
        assert report.group.is_trivial
        assert report.n_tilde == 0
        assert report.ctors.is_trivial

    def test_non_rational_report(self):
        report = class_group_report(V([[6], [3], [4]]))
        assert report.group is NOT_FINITELY_GENERATED
        assert report.n_tilde is None

    def test_single_method(self):
        report = class_group_report(QUADRIC, GroupMethod.FORMULA)
        assert report.group == G(0, (2,))
        report = class_group_report(QUADRIC, GroupMethod.SNF)
        assert report.group == G(0, (2,))


class TestTotalCoordinateSpaceBuiltOnce:
    """Every route of one report shares the value's one total coordinate space."""

    @pytest.mark.parametrize(
        "blocks", [[[2], [2], [3]], [[2, 4], [2], [2, 6]], [[6, 12], [6], [5, 5], [7]]]
    )
    def test_report_builds_it_once(self, monkeypatch, blocks):
        built = []
        derive = TrinomialVariety._tcs.function

        def counting(variety):
            built.append(variety)
            return derive(variety)

        monkeypatch.setattr(TrinomialVariety._tcs, "function", counting)
        variety = V(blocks)
        class_group_report(variety, GroupMethod.BOTH)
        assert built == [variety]
        grading_matrix(variety)
        class_group_report(variety, GroupMethod.BOTH)
        assert built == [variety]

    def test_cache_makes_no_reference_cycle(self):
        variety = V([[2, 4], [2], [2, 6]])
        assert coxring.total_coordinate_space(variety) is variety._tcs
        alive = weakref.ref(variety)
        gc.disable()
        try:
            del variety
            assert alive() is None
        finally:
            gc.enable()


class TestResourceLimit:
    """Beyond MAX_N_PRIME TCS generators every route refuses up front."""

    def test_refused_before_any_matrix_is_built(self, monkeypatch):
        monkeypatch.setattr(coxring, "p1_matrix", lambda v: pytest.fail("built P1"))
        c = MAX_N_PRIME  # n' = c + 2
        routes = (
            class_group_formula,
            coxring.total_coordinate_space,
            grading_matrix,
            compulsory_torsion,
            predicates,
            lambda v: class_group_report(v, GroupMethod.SNF),
        )
        for route in routes:
            with pytest.raises(ResourceLimitError, match=f"n' = {c + 2} "):
                route(V([[c], [c], [3]]))
        hyperplatonic = V([[c // 2], [c // 2], [1, 1]])  # n' = c + 2 again
        for route in (coxring.iterate_cox_rings, coxring.duval_diagram):
            with pytest.raises(ResourceLimitError):
                route(hyperplatonic)

    def test_the_bound_itself_is_handled(self):
        c = MAX_N_PRIME - 2
        variety = V([[c], [c], [5]])
        assert coxring.total_coordinate_space(variety).n == MAX_N_PRIME
        assert class_group_formula(variety) == G(0, (5,) * (c - 1))


class TestModuleBoundary:
    """Both routes of the class group live in `classgroup`, which needs
    nothing of `coxring`; `variety` keeps none of the formula route."""

    def test_classgroup_imports_nothing_from_coxring(self):
        names = []
        for node in ast.walk(ast.parse(inspect.getsource(classgroup))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [getattr(node, "module", None) or ""] + [a.name for a in node.names]
        assert "variety" in names  # the scan sees the relative imports
        assert not [name for name in names if "coxring" in name]

    def test_the_formula_route_is_defined_in_classgroup(self):
        assert class_group_formula.__module__ == "tricl.classgroup"
        moved = ("NotFinitelyGenerated", "NOT_FINITELY_GENERATED", "ClassGroup")
        for name in moved + ("_torsion_tail", "class_group_formula"):
            assert hasattr(classgroup, name) and not hasattr(variety_module, name), name
