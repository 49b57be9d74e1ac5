"""Tests for the Type 1 family and its lift to trinomial data."""

import warnings
from fractions import Fraction

import pytest

from tricl.classgroup import NOT_FINITELY_GENERATED, class_group_formula
from tricl.errors import (
    DuplicateThetaError,
    InvalidVarietyError,
    NonPositiveExponentError,
    NotAdjustedError,
)
from tricl.exactlinalg import FgAbelianGroup
from tricl.type1 import (
    Type1Variety,
    adjust_type1,
    class_group_type1,
    lift_to_type2,
    type1_n_tilde,
)
from tricl.variety import adjust, is_adjusted

T = Type1Variety
G = FgAbelianGroup


class TestAdjustType1:
    def test_reorder(self):
        assert adjust_type1(T([[2], [4]])).blocks == ((4,), (2,))

    def test_linear_elimination(self):
        adjusted = adjust_type1(T([[2], [1]]))
        assert adjusted.blocks == ((2,),)
        assert adjusted.is_degenerate

    def test_wide_unit_block_is_kept(self):
        adjusted = adjust_type1(T([[2], [1, 1]]))
        assert adjusted.blocks == ((2,), (1, 1))
        assert is_adjusted(adjusted)

    def test_validation(self):
        with pytest.raises(NonPositiveExponentError):
            T([[2], [0]])

    def test_exact_theta_kept_on_adjusted_input(self):
        # The one coefficient contract of `adjust`: unchanged order keeps theta.
        v = T([[5], [3], [2]], theta=["1", "1/2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjusted = adjust_type1(v)
        assert adjusted is v and adjusted.theta == (Fraction(1), Fraction(1, 2))
        assert is_adjusted(adjusted)

    def test_exact_theta_reset_warns(self):
        with pytest.warns(UserWarning, match="exact coefficients were reset"):
            adjusted = adjust_type1(T([[3], [5], [2]], theta=["1", "1/2"]))
        assert adjusted.blocks == ((5,), (3,), (2,)) and adjusted.theta is None

    def test_fixed_first_coefficient_alone_resets_silently(self):
        # theta_1 = 1 holds in every Type 1 variety, so its reset loses nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjusted = adjust_type1(T([[3], [5], [2]], theta=["1", "generic"]))
        assert adjusted.theta is None

    def test_theta_rules(self):
        # r - 1 coefficients, the first fixed to 1
        T([[2], [2], [3]], theta=["1", "1/2"])
        T([[2], [2]], theta=["generic"])
        with pytest.raises(InvalidVarietyError, match="expected 1 coefficients"):
            T([[2], [2]], theta=[])
        with pytest.raises(InvalidVarietyError, match="fixed to 1"):
            T([[2], [2], [3]], theta=["2", "2"])
        with pytest.raises(DuplicateThetaError):
            T([[2], [2], [3], [5]], theta=["1", "1/2", "1/2"])

    def test_is_adjusted(self):
        assert not is_adjusted(T([[2], [4]]))
        assert is_adjusted(T([[4], [2]]))
        assert not is_adjusted(T([[2], [1], [2]]))


class TestClassGroupType1:
    def test_plane_curve_is_trivial(self):
        assert class_group_type1(T([[2], [2]])).is_trivial

    def test_free_rank_one(self):
        assert class_group_type1(T([[2], [1, 1]])) == G(1, ())

    def test_not_finitely_generated(self):
        assert class_group_type1(T([[3], [3]])) is NOT_FINITELY_GENERATED

    def test_all_unit_gcds(self):
        assert class_group_type1(T([[1, 1], [1, 2]])).is_trivial

    def test_degenerate(self):
        assert class_group_type1(T([[3]])).is_trivial
        assert class_group_type1(T([], m=2)).is_trivial
        assert type1_n_tilde(T([[3, 6]])) == type1_n_tilde(T([], m=2)) == 0

    def test_requires_adjusted(self):
        with pytest.raises(NotAdjustedError):
            class_group_type1(T([[2], [4]]))

    def test_case_ii_b_with_rank(self):
        # L1 = L2 = 2, wide tail block of gcd 1
        v = T([[2], [2], [1, 1]])
        assert type1_n_tilde(v) == 3
        assert class_group_type1(v) == G(3, ())


class TestLift:
    def test_plane_curve_lifts_to_quadric(self):
        lift = lift_to_type2(T([[2], [2]]))
        assert lift.blocks == ((2,), (2,), (2,))
        assert class_group_formula(adjust(lift)[0]) == G(0, (2,))

    def test_lcm_leading_block(self):
        assert lift_to_type2(T([[4], [1, 1]])).blocks == ((4,), (4,), (1, 1))
        assert lift_to_type2(T([[2], [1, 1]])).blocks == ((2,), (2,), (1, 1))

    def test_lift_preserves_m(self):
        assert lift_to_type2(T([[2], [2]], m=3)).m == 3

    def test_rationality_transfer(self):
        for blocks in ([[2], [2]], [[2], [1, 1]], [[3], [3]], [[5], [1, 1], [1, 2]]):
            v = adjust_type1(T(blocks))
            own = class_group_type1(v)
            lifted = class_group_formula(adjust(lift_to_type2(v))[0])
            assert (own is NOT_FINITELY_GENERATED) == (lifted is NOT_FINITELY_GENERATED)

    def test_case_ii_a_groups_agree(self):
        # L1 > 1 and all later gcds 1: the lift has the same class group.
        for blocks in ([[2], [1, 1]], [[4], [1, 1]], [[3], [2, 1], [1, 1]]):
            v = adjust_type1(T(blocks))
            own = class_group_type1(v)
            lifted = class_group_formula(adjust(lift_to_type2(v))[0])
            assert own == lifted

    def test_case_ii_b_lift_gains_order_two(self):
        # L1 = L2 = 2: the lift carries one extra Z/2 factor.
        for blocks in ([[2], [2], [1, 1]], [[2], [2, 2], [1, 1]], [[2], [2]]):
            v = adjust_type1(T(blocks))
            own = class_group_type1(v)
            lifted = class_group_formula(adjust(lift_to_type2(v))[0])
            assert lifted == G(own.rank, own.invariant_factors + (2,))

    def test_trivial_case_lift_is_factorial(self):
        v = adjust_type1(T([[1, 1], [1, 2]]))
        lift = adjust(lift_to_type2(v))[0]
        assert class_group_formula(lift).is_trivial
