"""Tests for the variety data model, adjustment and gcd invariants."""

import contextlib
import dataclasses
import itertools
import math
import random
import sys
import threading
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import make_golden
import tricl.coxring
import tricl.type1
import tricl.variety
from oracles import (
    adjust_by_pair_search,
    adjusted_reference,
    counts_reference,
    exponent_matrix,
    rationality_reference,
)
from tricl.coxring import duval_diagram, is_hyperplatonic, iterate_cox_rings, total_coordinate_space
from tricl.errors import (
    DuplicateThetaError,
    EmptyBlockError,
    InvalidVarietyError,
    IterationNotAdmittedError,
    NonPositiveExponentError,
    NotAdjustedError,
)
from tricl.exactlinalg import IntMatrix
from tricl.type1 import Type1Variety, adjust_type1, lift_to_type2
from tricl.variety import (
    MAX_BLOCK,
    RationalityKind,
    TrinomialVariety,
    adjust,
    block_invariants,
    dimension,
    is_adjusted,
    rationality_class,
    render_relations,
)

V = TrinomialVariety


random_varieties = st.builds(
    V,
    st.lists(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
        min_size=0,
        max_size=5,
    ),
    st.integers(min_value=0, max_value=2),
)


class TestValidate:
    """Construction checks the data; invalid data never becomes a value."""

    def test_quadric_is_valid(self):
        V([[2], [2], [2]])

    def test_zero_exponent(self):
        with pytest.raises(NonPositiveExponentError):
            V([[2], [0]])

    def test_remark_hypersurface_is_valid(self):
        V([[4], [2], [3, 2]])

    def test_empty_block(self):
        with pytest.raises(EmptyBlockError):
            V([[2], [], [2]])

    def test_negative_m(self):
        with pytest.raises(InvalidVarietyError):
            V([[2], [2], [2]], m=-1)

    def test_theta_length_and_duplicates(self):
        V([[2], [2], [2], [3]], theta=[Fraction(2, 3)])
        with pytest.raises(InvalidVarietyError):
            V([[2], [2], [2]], theta=["1/2"])
        with pytest.raises(DuplicateThetaError):
            V([[2], [2], [2], [3], [5]], theta=["1/2", "1/2"])
        with pytest.raises(InvalidVarietyError, match="must be nonzero") as zero:
            V([[2], [2], [2], [3]], theta=[0])
        # Exactly this type: the CLI reports it as the error_type.
        assert type(zero.value) is InvalidVarietyError

    def test_generic_theta_tags(self):
        V([[2], [2], [2], [3], [5]], theta=["generic", "generic"])

    @pytest.mark.parametrize("text", ["abc", "1/0", "1e100000000", "3E-2", Decimal("1e100000000")])
    def test_theta_that_is_not_a_rational(self, text):
        # Exponent notation is refused at once: Fraction would compute 10^exp.
        start = time.perf_counter()
        with pytest.raises(InvalidVarietyError, match="neither 'generic' nor a rational") as error:
            V([[2], [3], [5], [7]], theta=[text])
        assert time.perf_counter() - start < 1
        assert type(error.value) is InvalidVarietyError

    @pytest.mark.parametrize("family", [TrinomialVariety, Type1Variety])
    @pytest.mark.parametrize(
        "blocks, m",
        [
            ([[2.5], [3], [5]], 0),
            ([["a"], [3], [5]], 0),
            ([[2], ["3"], [5]], 0),
            ([2, 3, 5], 0),
            ([[2], [3], [5]], 1.7),
            ([[2], [3], [5]], "x"),
            ([[2], [3], [5]], None),
        ],
    )
    def test_exponents_and_m_that_are_not_integers(self, family, blocks, m):
        with pytest.raises(InvalidVarietyError, match="must be"):
            family(blocks, m=m)


class TestSharedBase:
    """Both families are one frozen base class, set apart by three constants."""

    def test_analysis_read_through_the_class_is_its_descriptor(self):
        assert V._gcds is Type1Variety._gcds is tricl.variety._Variety.__dict__["_gcds"]
        assert V._rationality.name == "_rationality"

    def test_the_constants_set_the_families_apart(self):
        # Two blocks carry a Type 1 relation but are an affine space as
        # trinomial data; r - 1 coefficients with theta_1 = 1 against r - 2.
        assert not Type1Variety([[2], [2]]).is_degenerate and V([[2], [2]]).is_degenerate
        Type1Variety([[2], [3], [5]], theta=["1", "1/2"])
        V([[2], [3], [5], [7]], theta=["1/2"])
        with pytest.raises(InvalidVarietyError, match="fixed to 1"):
            Type1Variety([[2], [3], [5]], theta=["1/2", "1"])
        assert V([[2], [2]]) != Type1Variety([[2], [2]])

    def test_values_of_both_families_are_frozen(self):
        for value in (V([[2], [2], [2]]), Type1Variety([[2], [2]])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.m = 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                value.extra = 1


class TestInvariants:
    def test_remark_blocks(self):
        inv = block_invariants(V([[2, 4], [2], [2, 6]]))
        assert inv.frak_l == (2, 2, 2)
        assert inv.frak_l_small == 2
        assert inv.c == (2, 2, 2)

    def test_single_block(self):
        inv = block_invariants(V([[5]]))
        assert inv.frak_l == (5,)
        assert inv.frak_l_small is None
        assert inv.c is None

    def test_component_counts(self):
        inv = block_invariants(V([[4], [2], [3, 3]]))
        assert inv.frak_l == (4, 2, 3)
        assert inv.c == (1, 1, 2)

    def test_pairwise_table(self):
        inv = block_invariants(V([[4], [2], [3, 3]]))
        assert inv.pairwise_gcd == ((4, 2, 1), (2, 2, 1), (1, 1, 3))

    def test_no_c_for_non_rational(self):
        v = V([[6], [3], [4]])
        assert is_adjusted(v)
        assert block_invariants(v).c is None

    def test_case_iii_with_tail(self):
        inv = block_invariants(V([[2], [2], [2], [3]]))
        assert inv.c == (2, 2, 2, 4)


class TestAdjust:
    def test_reorders_by_pair_gcd(self):
        adjusted, record = adjust(V([[3], [4], [2]]))
        assert adjusted.blocks == ((4,), (2,), (3,))
        assert record.permutation == (1, 2, 0)
        assert not record.degenerate

    def test_already_adjusted_is_unchanged(self):
        v = V([[4], [2], [3, 2]])
        adjusted, record = adjust(v)
        assert adjusted.blocks == v.blocks
        assert record.permutation == (0, 1, 2)
        assert record.eliminated == ()

    def test_linear_elimination_to_degenerate(self):
        adjusted, record = adjust(V([[2], [1], [2]]))
        assert record.eliminated == (1,)
        assert record.degenerate
        assert adjusted.blocks == ((2,), (2,))
        assert adjusted.is_degenerate

    def test_eliminates_leftmost_first(self):
        adjusted, record = adjust(V([[1], [1], [1]]))
        assert record.eliminated == (0,)
        assert adjusted.blocks == ((1,), (1,))

    def test_keeps_wide_blocks_with_unit_exponents(self):
        adjusted, _ = adjust(V([[2], [1, 1], [2]]))
        assert (1, 1) in adjusted.blocks

    def test_tie_break_prefers_larger_gcd_first(self):
        adjusted, _ = adjust(V([[2], [2], [4]]))
        # all pair gcds equal 2; lexicographic key order puts the 4 first
        assert adjusted.blocks == ((4,), (2,), (2,))

    def test_adjusted_input_comes_back_as_itself(self):
        for combo in criterion_9_multisets():
            adjusted, _ = adjust(V(combo))
            again, record = adjust(adjusted)
            assert again is adjusted, combo
            assert record.eliminated == ()
            assert record.permutation == tuple(range(len(adjusted.blocks)))

    def test_exact_theta_kept_on_adjusted_input(self):
        v = V([[4], [2], [5], [3]], theta=[Fraction(1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjusted, _ = adjust(v)
        assert adjusted is v and adjusted.theta == (Fraction(1, 2),)

    def test_exact_theta_reset_warns(self):
        v = V([[3], [4], [2], [5]], theta=[Fraction(1, 2)])
        with pytest.warns(UserWarning):
            adjusted, _ = adjust(v)
        assert adjusted.theta is None

    @given(random_varieties)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, v):
        first, _ = adjust(v)
        second, record = adjust(first)
        assert second.blocks == first.blocks
        assert record.eliminated == ()

    @given(random_varieties)
    @settings(max_examples=200, deadline=None)
    def test_result_is_adjusted_and_preserves_surviving_blocks(self, v):
        adjusted, record = adjust(v)
        assert is_adjusted(adjusted)
        survivors = [
            block
            for index, block in enumerate(v.blocks)
            if index not in record.eliminated
        ]
        assert sorted(survivors) == sorted(adjusted.blocks)
        assert tuple(v.blocks[i] for i in record.permutation) == adjusted.blocks


# Acceptance criterion 9: 3 or 4 blocks, n_i <= 2, exponents <= 5.
BLOCK_CHOICES = [(a,) for a in range(1, 6)] + [(a, b) for a in range(1, 6) for b in range(1, 6)]
# Exponents whose gcds tie often, so that many blocks share the maximal pair gcd.
TIE_EXPONENTS = (1, 2, 2, 3, 4, 4, 6, 8, 9, 10, 12, 15)


def _seeded_blocks(rng, count):
    return [
        (1,) if rng.random() < 0.1
        else tuple(rng.choice(TIE_EXPONENTS) for _ in range(rng.randint(1, 3)))
        for _ in range(count)
    ]


def criterion_9_multisets():
    for count in (3, 4):
        yield from itertools.combinations_with_replacement(BLOCK_CHOICES, count)


def seeded_inputs_up_to_the_block_cap():
    rng = random.Random(20261018)
    # The CLI admits len(blocks) - 1 <= MAX_BLOCK, so up to 17 blocks.
    for count in range(3, MAX_BLOCK + 2):
        for _ in range(100):
            yield _seeded_blocks(rng, count)


class TestAdjustAgainstPairSearch:
    """`adjust` builds the order that the exhaustive pair search selects."""

    @staticmethod
    def assert_matches(blocks):
        _, record = adjust(V(blocks))
        assert (record.eliminated, record.permutation) == adjust_by_pair_search(blocks), blocks

    def test_criterion_9_enumeration(self):
        for combo in criterion_9_multisets():
            self.assert_matches(combo)

    def test_seeded_inputs_up_to_the_block_cap(self):
        for blocks in seeded_inputs_up_to_the_block_cap():
            self.assert_matches(blocks)


def analysis(value):
    """Every cached analysis field of a variety value."""
    if isinstance(value, Type1Variety):
        counts = value._counts if len(value.blocks) >= 2 else None
        return value._gcds, value._adjusted, counts
    counts = value._counts if len(value.blocks) >= 3 else None
    return value._gcds, value._adjusted, value._rationality, counts


def assert_same_as_checked(value, checked=None):
    """`value` equals the checked construction of its data in every respect:
    ==, hash, repr, field types and every analysis field."""
    if checked is None:
        checked = type(value)(value.blocks, value.m, value.theta)
    assert value == checked and hash(value) == hash(checked), value
    assert repr(value) == repr(checked)
    assert type(value.blocks) is tuple and type(value.m) is int and value.theta is None
    assert all(type(b) is tuple and all(type(e) is int for e in b) for b in value.blocks)
    assert analysis(value) == analysis(checked), value


class TestAnalysisAgainstReference:
    """The analysis a value carries equals the pair-by-pair references.

    It is checked on the raw input, on the value `adjust` returns (which
    inherits the gcds and the adjusted flag, and skips the construction
    checks) and on a value freshly built and checked from the adjusted data
    (which derives everything itself); those two are the same value.
    """

    @staticmethod
    def assert_matches(blocks):
        raw = V(blocks)
        assert raw._adjusted == adjusted_reference(raw.blocks), blocks
        assert raw._rationality == rationality_reference(raw.blocks), blocks
        adjusted, _ = adjust(raw)
        fresh = V(adjusted.blocks, adjusted.m, adjusted.theta)
        expected = (
            tuple(math.gcd(*block) for block in adjusted.blocks),
            True,
            rationality_reference(adjusted.blocks),
            counts_reference(adjusted.blocks) if len(adjusted.blocks) >= 3 else None,
        )
        assert adjusted_reference(adjusted.blocks), blocks
        assert analysis(adjusted) == expected, blocks
        assert analysis(fresh) == expected, blocks
        assert_same_as_checked(adjusted, fresh)

    def test_criterion_9_enumeration(self):
        for combo in criterion_9_multisets():
            self.assert_matches(combo)

    def test_seeded_inputs_up_to_the_block_cap(self):
        for blocks in seeded_inputs_up_to_the_block_cap():
            self.assert_matches(blocks)

    def test_adjust_hands_over_gcds_and_flag(self):
        adjusted, _ = adjust(V([[3], [4], [2]]))
        assert adjusted.__dict__["_gcds"] == (4, 2, 3)
        assert adjusted.__dict__["_adjusted"] is True

    def test_adjust_type1_hands_over_gcds_and_flag(self):
        adjusted = adjust_type1(Type1Variety([[3], [1], [4, 2], [2]]))
        assert adjusted.blocks == ((3,), (4, 2), (2,))
        assert adjusted.__dict__["_gcds"] == (3, 2, 2)
        assert adjusted.__dict__["_adjusted"] is True


def _recorded_derived(monkeypatch, run) -> list:
    """Every value `_derived` builds while `run()` runs, at each module that
    calls it."""
    seen = []
    original = tricl.variety._derived

    def recording(*args, **analysis):
        seen.append(original(*args, **analysis))
        return seen[-1]

    for module in (tricl.variety, tricl.type1):
        monkeypatch.setattr(module, "_derived", recording)
    run()
    monkeypatch.undo()
    return seen


# Type 1 data: every multiset of up to three criterion-9 blocks, plus input
# out of order and with no blocks.
TYPE1_BLOCK_LISTS = [
    list(combo)
    for count in (1, 2, 3)
    for combo in itertools.combinations_with_replacement(BLOCK_CHOICES, count)
] + [[(2,), (1,), (4, 2)], [(3,), (1,), (1,)], []]


class TestDerivedValues:
    """Values built from checked parts without the construction checks equal
    the checked construction of the same data (`adjust` is covered above)."""

    def test_total_coordinate_spaces_and_duval_diagrams_of_the_golden_corpus(self, monkeypatch):
        def run():
            for _, spec in make_golden.inputs():
                variety = V(spec["blocks"], spec.get("m", 0))
                adjusted = adjust(variety)[0]
                if rationality_class(adjusted).is_rational:
                    total_coordinate_space(adjusted)
                    with contextlib.suppress(IterationNotAdmittedError):
                        iterate_cox_rings(variety)
                if is_hyperplatonic(adjusted) is not None:
                    duval_diagram(variety)

        values = _recorded_derived(monkeypatch, run)
        assert len(values) > 100
        for value in values:
            assert_same_as_checked(value)

    def test_type1_adjust_and_lift(self, monkeypatch):
        reordered = []

        def run():
            for blocks in TYPE1_BLOCK_LISTS:
                for m in (0, 2):
                    variety = Type1Variety(blocks, m)
                    adjusted = adjust_type1(variety)
                    reordered.append(adjusted is not variety)
                    lift_to_type2(adjusted)

        values = _recorded_derived(monkeypatch, run)
        # Every lift is derived; input in adjusted order comes back as itself.
        assert len(values) == 2 * len(TYPE1_BLOCK_LISTS) + sum(reordered)
        assert 0 < sum(reordered) < len(reordered)
        for value in values:
            assert_same_as_checked(value)

    def test_first_analysis_from_eight_threads(self):
        """Eight threads take the first analysis of the same fresh values at
        once; each sees the values a single thread computes."""
        blocks_list = list(seeded_inputs_up_to_the_block_cap())[::5]

        def fresh_values():
            values = [V(blocks) for blocks in blocks_list]
            values += [tricl.variety._derived(V, v.blocks, 0) for v in values]
            return values + [Type1Variety(blocks) for blocks in blocks_list]

        expected = [analysis(v) for v in fresh_values()]
        values = fresh_values()
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def take(k):
            barrier.wait()
            seen[k] = [analysis(v) for v in values]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=take, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result == expected for result in seen)


class TestIsAdjusted:
    def test_degenerate_is_vacuously_adjusted(self):
        assert is_adjusted(V([[2], [1]]))
        assert is_adjusted(V([], m=2))

    def test_linear_block_blocks_adjustment(self):
        assert not is_adjusted(V([[2], [1], [2]]))

    def test_gcd_ordering_required(self):
        assert not is_adjusted(V([[4], [3], [2]]))  # gcd(4,2)=2 > gcd(4,3)=1
        assert is_adjusted(V([[4], [2], [3]]))

    def test_descending_tail_required(self):
        # gcd(L0, L2) = 1 < gcd(L0, L3) = 3 violates the descending chain
        assert not is_adjusted(V([[6], [6], [5], [3]]))
        assert is_adjusted(V([[6], [6], [3], [5]]))

    def test_any_valid_ordering_counts(self):
        # not the tie-break order, but satisfies the constraints
        assert is_adjusted(V([[2], [2], [4]]))


class TestRationality:
    def test_factorial(self):
        rc = rationality_class(V([[2], [3], [5]]))
        assert rc.kind is RationalityKind.FACTORIAL
        assert rc.is_rational and rc.is_factorial

    def test_case_ii(self):
        rc = rationality_class(V([[4], [2], [3]]))
        assert rc.kind is RationalityKind.CASE_II
        assert rc.c == 2

    def test_case_iii(self):
        rc = rationality_class(V([[2], [2], [2]]))
        assert rc.kind is RationalityKind.CASE_III

    def test_non_rational(self):
        rc = rationality_class(V([[6], [3], [4]]))
        assert rc.kind is RationalityKind.NON_RATIONAL
        assert not rc.is_rational

    def test_requires_adjusted(self):
        with pytest.raises(NotAdjustedError):
            rationality_class(V([[4], [3], [2]]))

    def test_degenerate_counts_as_factorial(self):
        assert rationality_class(V([[3], [3]])).is_factorial

    def test_case_ii_tail_must_be_coprime(self):
        rc = rationality_class(V([[3], [3], [4], [2]]))
        assert rc.kind is RationalityKind.NON_RATIONAL


class TestDimension:
    @pytest.mark.parametrize(
        "blocks,m,expected",
        [
            ([[2], [2], [2]], 0, 2),
            ([[4], [2], [3, 2]], 0, 3),
            ([[2, 4], [2], [2, 6]], 0, 4),
            ([[2], [2]], 0, 2),  # degenerate: no relations
            ([[2]], 3, 4),
            ([], 2, 2),
        ],
    )
    def test_dimension(self, blocks, m, expected):
        assert dimension(V(blocks, m)) == expected


class TestExponentMatrix:
    def test_quadric(self):
        assert exponent_matrix(V([[2], [2], [2]])) == IntMatrix.from_rows(
            [[-2, 2, 0], [-2, 0, 2]]
        )

    def test_free_variables_add_zero_columns(self):
        assert exponent_matrix(V([[2], [3]], m=2)) == IntMatrix.from_rows(
            [[-2, 3, 0, 0]]
        )

    def test_wide_blocks(self):
        assert exponent_matrix(V([[2, 4], [2], [2, 6]])) == IntMatrix.from_rows(
            [[-2, -4, 2, 0, 0], [-2, -4, 0, 2, 6]]
        )

    def test_needs_two_blocks(self):
        for blocks in ([], [[2, 3]]):
            with pytest.raises(InvalidVarietyError, match="needs at least two blocks"):
                exponent_matrix(V(blocks, m=1))


class TestRenderRelations:
    def test_quadric(self):
        assert render_relations(V([[2], [2], [2]])) == "T01^2 + T11^2 + T21^2"

    def test_degenerate_renders_empty(self):
        assert render_relations(V([[1, 1]])) == ""

    def test_two_relations_with_theta(self):
        text = render_relations(V([[2], [3], [2], [5]]))
        lines = text.splitlines()
        assert lines[0] == "T01^2 + T11^3 + T21^2"
        assert lines[1] == "theta1*T11^3 + T21^2 + T31^5"

    def test_exact_theta_is_printed(self):
        text = render_relations(V([[2], [3], [2], [5]], theta=[Fraction(1, 2)]))
        assert "(1/2)*T11^3" in text

    def test_multi_variable_monomials(self):
        assert (
            render_relations(V([[4], [2], [3, 2]]))
            == "T01^4 + T11^2 + T21^3*T22^2"
        )


class TestAdjustmentTies:
    def test_all_valid_tie_orderings_agree_downstream(self):
        """Any ordering satisfying the constraints yields the same invariants."""
        from tricl.classgroup import class_group_formula

        blocks = [(2,), (2,), (2,), (3,)]
        seen = set()
        for perm in itertools.permutations(blocks):
            v = V(perm)
            if is_adjusted(v):
                group = class_group_formula(v)
                seen.add((group.rank, group.invariant_factors))
        assert len(seen) == 1
