"""Cross-module properties on the randomized corpora."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    duval_saturation_by_lattice,
    exponent_matrix,
    p1_rows_reference,
    relation_degree_order,
    torsion_part,
)
from test_variety import criterion_9_multisets
from tricl.classgroup import (
    NOT_FINITELY_GENERATED,
    class_group_formula,
    class_group_snf,
    compulsory_torsion,
)
from tricl.coxring import (
    duval_diagram,
    is_hyperplatonic,
    iterate_cox_rings,
    total_coordinate_space,
)
from tricl.exactlinalg import FgAbelianGroup, cokernel
from tricl.type1 import (
    Type1Variety,
    adjust_type1,
    class_group_type1,
    lift_to_type2,
)
from tricl.variety import (
    MAX_BLOCK,
    RationalityKind,
    TrinomialVariety,
    adjust,
    block_invariants,
    dimension,
    is_adjusted,
    rationality_class,
)


class TestAdjustmentGauge:
    def test_tied_orderings_agree_on_the_group(self, rational_corpus):
        """Every valid adjusted ordering of the same blocks gives the same group."""
        rng = random.Random(5)
        sample = rng.sample(rational_corpus, 40)
        for variety in sample:
            groups = set()
            for perm in itertools.permutations(variety.blocks):
                candidate = TrinomialVariety(perm, variety.m)
                if is_adjusted(candidate):
                    group = class_group_formula(candidate)
                    groups.add((group.rank, group.invariant_factors))
            assert len(groups) == 1

    def test_component_counts_are_integral(self, rational_corpus):
        for variety in rational_corpus:
            inv = block_invariants(variety)
            assert inv.c is not None  # integrality asserted inside


class TestTrivialityCriterion:
    def test_trivial_group_iff_factorial(self, rational_corpus, enumeration_corpus):
        # the random corpus is non-factorial throughout
        for variety in rational_corpus:
            assert not class_group_formula(variety).is_trivial
        # the enumeration corpus contains both kinds
        for variety, group in enumeration_corpus:
            if group is NOT_FINITELY_GENERATED:
                continue
            factorial = rationality_class(variety).is_factorial
            assert factorial == group.is_trivial


class TestIterationProperties:
    def test_hyperplatonic_chains_terminate_and_label(self, hyperplatonic_corpus):
        for variety in hyperplatonic_corpus:
            chain = iterate_cox_rings(variety)
            assert chain.steps[-1].class_group.is_trivial
            assert rationality_class(chain.steps[-1].variety).is_factorial
            assert all(pattern is not None for pattern in chain.patterns)

    def test_chain_steps_are_tcs_of_predecessor(self, hyperplatonic_corpus):
        for variety in hyperplatonic_corpus[:40]:
            chain = iterate_cox_rings(variety)
            for earlier, later in zip(chain.steps, chain.steps[1:]):
                expected = adjust(total_coordinate_space(earlier.variety).tcs)[0]
                assert later.variety.blocks == expected.blocks

    def test_tcs_copies_identical_and_counts(self, rational_corpus):
        for variety in rational_corpus[:120]:
            cox = total_coordinate_space(variety)
            for copies in cox.tcs_blocks:
                assert len(set(copies)) == 1
            assert cox.n_prime == sum(
                c * len(block) for c, block in zip(cox.c, variety.blocks)
            )
            assert cox.r_prime == sum(cox.c) - 1

    def test_duval_verified_on_non_smooth(self, hyperplatonic_corpus):
        for variety in hyperplatonic_corpus:
            triple = is_hyperplatonic(variety)
            diagram = duval_diagram(variety)
            if triple.ade_label != "Smooth":
                assert diagram.verified
                assert diagram.xprime_triple.as_tuple() != () and diagram.saturation_ok
            assert diagram.saturation_ok == duval_saturation_by_lattice(variety)


class TestPipelineRobustness:
    def test_arbitrary_valid_input_never_crashes_the_report_path(self):
        """Exercise everything the report subcommand runs on raw random data."""
        from tricl.classgroup import (
            GroupMethod,
            class_group_report,
            isolated_singularity_report,
            predicates,
        )
        from tricl.errors import IterationNotAdmittedError

        rng = random.Random(31337)
        kinds = set()
        for _ in range(800):
            blocks = [
                tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 5))
            ]
            adjusted, _ = adjust(TrinomialVariety(blocks, rng.randint(0, 2)))
            kind = rationality_class(adjusted)
            kinds.add(kind.kind)
            class_group_report(adjusted, GroupMethod.BOTH)
            predicates(adjusted)
            if adjusted.m == 0:
                isolated_singularity_report(adjusted)
            triple = is_hyperplatonic(adjusted)
            if triple is not None:
                duval_diagram(adjusted)
            if kind.is_rational:
                try:
                    iterate_cox_rings(adjusted)
                except IterationNotAdmittedError:
                    pass
        assert kinds == set(RationalityKind)  # fuzz reached every case


def _random_type1(rng):
    blocks = [
        tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(2, 4))
    ]
    return adjust_type1(Type1Variety(blocks, rng.randint(0, 2)))


class TestType1Transfer:
    def test_lift_consistency_on_random_corpus(self):
        rng = random.Random(11)
        seen_fg = seen_nfg = 0
        for _ in range(300):
            variety = _random_type1(rng)
            own = class_group_type1(variety)
            lifted = class_group_formula(adjust(lift_to_type2(variety))[0])
            if own is NOT_FINITELY_GENERATED:
                seen_nfg += 1
                assert lifted is NOT_FINITELY_GENERATED
                continue
            seen_fg += 1
            assert lifted is not NOT_FINITELY_GENERATED
            gcds = variety.block_gcds()
            if variety.is_degenerate or all(g == 1 for g in gcds):
                assert lifted.is_trivial
            elif gcds[0] > 1 and all(g == 1 for g in gcds[1:]):
                assert lifted == own
            else:  # leading gcds (2, 2): the lift gains one order-two class
                assert lifted == FgAbelianGroup(
                    own.rank, own.invariant_factors + (2,)
                )
        assert seen_fg > 50 and seen_nfg > 50


# Odd primes for the block gcds that must be pairwise coprime: enough for the
# 14 tail blocks of 17 after a case-II c <= 64 has taken its odd factors.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _block(draw, gcd, max_size):
    """1 to `max_size` exponents with gcd exactly `gcd`; a gcd-1 block gets
    at least two, so that `adjust` never eliminates it."""
    size = draw(st.integers(2 if gcd == 1 else 1, max_size))
    return [gcd] + [gcd * draw(st.integers(1, 4)) for _ in range(size - 1)]


@st.composite
def adjusted_rational(draw, max_size=4):
    """Adjusted rational data with 3-17 blocks of 1 to `max_size` variables,
    case II (c <= 64) or case III.

    Case II: L0 and L1 share exactly c, and every other pair of block gcds
    is coprime.  Case III: L0, L1, L2 are 2 times pairwise coprime odd
    numbers, and the tail gcds are coprime to everything.
    """
    cap = MAX_BLOCK + 1  # the most blocks an input file may give
    count = draw(st.one_of(st.just(cap), st.integers(3, cap)))
    if draw(st.booleans()):
        primes = list(draw(st.permutations(ODD_PRIMES)))
        leading = [2 * draw(st.sampled_from((1, primes.pop()))) for _ in range(3)]
    else:
        c = draw(st.integers(2, 64))
        primes = list(draw(st.permutations([p for p in ODD_PRIMES if c % p])))
        leading = [c * draw(st.sampled_from((1, primes.pop()))) for _ in range(2)]
        leading.append(draw(st.sampled_from((1, primes.pop()))))
    tail = [draw(st.sampled_from((1, primes.pop()))) for _ in range(count - 3)]
    blocks = [_block(draw, g, max_size) for g in leading + tail]
    variety, _ = adjust(TrinomialVariety(blocks, draw(st.integers(0, 2))))
    assert len(variety.blocks) == count and rationality_class(variety).is_rational
    return variety


WIDE_INPUT = settings(derandomize=True, max_examples=60, deadline=None, database=None)


class TestWideRationalInput:
    """Properties on wide adjusted rational input, up to the block cap."""

    @WIDE_INPUT
    @given(adjusted_rational())
    def test_formula_equals_snf(self, variety):
        assert class_group_formula(variety) == class_group_snf(variety)

    @WIDE_INPUT
    @given(adjusted_rational())
    def test_rank_is_the_dimension_difference(self, variety):
        tcs = total_coordinate_space(variety).tcs
        assert class_group_formula(variety).rank == dimension(tcs) - dimension(variety)

    @WIDE_INPUT
    @given(adjusted_rational())
    def test_relation_degree_order(self, variety):
        expected = 1 if rationality_class(variety).kind is RationalityKind.CASE_II else 2
        assert relation_degree_order(variety) == expected

    @WIDE_INPUT
    @given(adjusted_rational())
    def test_compulsory_torsion_is_the_exponent_matrix_torsion(self, variety):
        _assert_compulsory_torsion_lemma(variety)


def _assert_compulsory_torsion_lemma(variety):
    """`compulsory_torsion` raises OracleMismatchError unless its closed form
    equals the lemma on the TCS block gcds; both must be the torsion of the
    cokernel of the TCS exponent matrix, which the lemma stands for."""
    tcs = total_coordinate_space(variety).tcs
    expected = torsion_part(cokernel(exponent_matrix(tcs)))
    assert compulsory_torsion(variety) == expected, (variety.blocks, variety.m)


class TestCompulsoryTorsionLemma:
    """The lemma against the Smith form it replaced, beyond the wide input."""

    @pytest.mark.parametrize("m", [0, 2])
    def test_criterion_9_enumeration(self, m):
        checked = 0
        for combo in criterion_9_multisets():
            variety, _ = adjust(TrinomialVariety(combo, m))
            kind = rationality_class(variety)
            if kind.is_rational and not kind.is_factorial and not variety.is_degenerate:
                _assert_compulsory_torsion_lemma(variety)
                checked += 1
        assert checked > 10_000

    @WIDE_INPUT
    @given(adjusted_rational(max_size=MAX_BLOCK))
    def test_wide_blocks_up_to_the_block_cap(self, variety):
        _assert_compulsory_torsion_lemma(variety)


def _assert_tcs_lemma(variety):
    """The TCS blocks are c(i) copies of the column gcds of P1 over block i,
    with P1 built row by row by the oracle."""
    p1 = p1_rows_reference(variety)
    gcds = [math.gcd(*column) for column in zip(*map(p1.row, range(p1.rows)))]
    cox = total_coordinate_space(variety)
    vectors, start = [], 0
    for block in variety.blocks:
        vectors.append(tuple(gcds[start : start + len(block)]))
        start += len(block)
    expected = tuple(vector for vector, k in zip(vectors, cox.c) for _ in range(k))
    assert cox.c == block_invariants(variety).c
    assert cox.tcs.blocks == expected and cox.tcs.m == variety.m, (variety.blocks, variety.m)


class TestTotalCoordinateSpaceLemma:
    """The TCS blocks read off the block gcds against the P1 column scan they replaced."""

    @pytest.mark.parametrize("m", [0, 2])
    def test_criterion_9_enumeration(self, m):
        checked = 0
        for combo in criterion_9_multisets():
            variety, _ = adjust(TrinomialVariety(combo, m))
            kind = rationality_class(variety)
            if kind.is_rational and not kind.is_factorial:
                _assert_tcs_lemma(variety)
                checked += 1
        assert checked > 10_000

    @WIDE_INPUT
    @given(adjusted_rational(max_size=MAX_BLOCK))
    def test_wide_blocks_up_to_the_block_cap(self, variety):
        _assert_tcs_lemma(variety)
