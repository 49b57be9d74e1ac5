"""Tests for total coordinate spaces, iteration chains and du Val data."""

import math
import random
import time

import pytest

import make_golden
from oracles import (
    duval_saturation_by_lattice,
    hyperplatonic_reference,
    matrix_A,
    matrix_B,
    quotient_torsion_order,
)
from test_variety import criterion_9_multisets
from tricl import coxring
from tricl.classgroup import class_group_formula
from tricl.coxring import (
    PlatonicTriple,
    basic_platonic_triple,
    classify_chain_pattern,
    duval_diagram,
    duval_surface,
    is_hyperplatonic,
    iterate_cox_rings,
    p1_matrix,
    total_coordinate_space,
)
from tricl.errors import (
    InvalidVarietyError,
    IterationNotAdmittedError,
    NonPositiveExponentError,
    NotHyperplatonicError,
    NotRationalError,
    OracleMismatchError,
)
from tricl.exactlinalg import FgAbelianGroup, IntMatrix
from tricl.variety import MAX_BLOCK, TrinomialVariety, adjust, block_invariants

V = TrinomialVariety
G = FgAbelianGroup


class TestP1Matrix:
    @staticmethod
    def p1(blocks, m=0):
        return p1_matrix(V(blocks, m))

    def test_d4(self):
        assert self.p1([[3], [3], [2]]) == IntMatrix.from_rows([[-1, 1, 0], [-3, 0, 2]])

    def test_quadric(self):
        assert self.p1([[2], [2], [2]]) == IntMatrix.from_rows([[-1, 1, 0], [-1, 0, 1]])

    def test_case_ii_with_wide_block(self):
        assert self.p1([[4], [2], [3, 3]]) == IntMatrix.from_rows(
            [[-2, 1, 0, 0], [-4, 0, 3, 3]]
        )

    def test_free_variables_add_zero_columns(self):
        assert self.p1([[2], [2], [2]], m=1) == IntMatrix.from_rows(
            [[-1, 1, 0, 0], [-1, 0, 1, 0]]
        )

    def test_non_rational_rejected(self):
        with pytest.raises(NotRationalError):
            self.p1([[6], [3], [4]])


class TestTotalCoordinateSpace:
    def test_quadric_tcs_is_six_lines(self):
        v = V([[2], [2], [2]])
        tcs = total_coordinate_space(v)
        assert block_invariants(v).c == (2, 2, 2)
        assert tcs.blocks == ((1,),) * 6
        assert adjust(tcs)[0].is_degenerate

    def test_d4_tcs(self):
        v = V([[3], [3], [2]])
        tcs = total_coordinate_space(v)
        assert block_invariants(v).c == (1, 1, 3)
        assert tcs.blocks == ((1,), (1,), (2,), (2,), (2,))
        assert basic_platonic_triple(adjust(tcs)[0]).as_tuple() == (2, 2, 2)

    def test_case_ii_block_data(self):
        v = V([[4], [2], [3, 3]])
        tcs = total_coordinate_space(v)
        assert block_invariants(v).c == (1, 1, 2)
        assert tcs.blocks == ((2,), (1,), (3, 3), (3, 3))
        assert tcs.n == 6 and tcs.r == 3

    def test_factorial_identity_construction(self):
        v = V([[2], [3], [5]])
        assert total_coordinate_space(v) is v
        assert block_invariants(v).c == (1, 1, 1)

    def test_every_call_returns_the_same_value(self):
        for v in (V([[2, 4], [2], [2, 6]]), V([[2], [3], [5]]), V([[3], [3]])):
            assert total_coordinate_space(v) is total_coordinate_space(v)
            assert isinstance(total_coordinate_space(v), TrinomialVariety)

    def test_m_is_preserved(self):
        assert total_coordinate_space(V([[2], [2], [2]], m=2)).m == 2

    def test_counts_match_shapes(self):
        v = V([[2, 4], [2], [2, 6]])
        tcs, c = total_coordinate_space(v), block_invariants(v).c
        assert tcs.n == sum(k * len(block) for k, block in zip(c, v.blocks))
        assert tcs.r == sum(c) - 1


class TestHyperplatonic:
    def test_e6_triple(self):
        triple = is_hyperplatonic(V([[4], [3], [2]]))
        assert triple.as_tuple() == (4, 3, 2)
        assert triple.ade_label == "E6"

    def test_boundary_not_hyperplatonic(self):
        assert is_hyperplatonic(V([[3], [3], [3]])) is None

    def test_quadric_is_a1(self):
        triple = is_hyperplatonic(V([[2], [2], [2]]))
        assert triple.as_tuple() == (2, 2, 2)
        assert triple.ade_label == "A1"

    def test_padding_below_three_blocks(self):
        assert is_hyperplatonic(V([[3], [3]])).as_tuple() == (3, 3, 1)
        assert is_hyperplatonic(V([])).as_tuple() == (1, 1, 1)

    def test_smooth_label(self):
        assert is_hyperplatonic(V([[6], [4], [1, 1]])).ade_label == "Smooth"

    def test_extra_unit_blocks_keep_hyperplatonic(self):
        triple = is_hyperplatonic(V([[3], [3], [2], [1, 1]]))
        assert triple.as_tuple() == (3, 3, 2)
        assert triple.ade_label == "D4"

    @staticmethod
    def _assert_matches_fractions(variety):
        expected = hyperplatonic_reference(variety.block_gcds())
        assert (is_hyperplatonic(variety) is not None) == expected, variety.blocks

    def test_integer_test_matches_fractions_on_criterion_9(self):
        count = 0
        for blocks in criterion_9_multisets():
            self._assert_matches_fractions(V(blocks))
            count += 1
        assert count == 45_880

    def test_integer_test_matches_fractions_on_golden_chain_steps(self):
        lengths = []
        for _, spec in make_golden.inputs():
            variety = V(spec["blocks"], spec.get("m", 0))
            try:
                chain = iterate_cox_rings(variety)
            except (IterationNotAdmittedError, NotRationalError):
                continue
            for step in chain.steps:
                self._assert_matches_fractions(step.variety)
            lengths.append(len(chain.steps))
        assert len(lengths) > 10 and max(lengths) == 4

    def test_integer_test_matches_fractions_on_one_and_two_blocks(self):
        self._assert_matches_fractions(V([]))
        for a in range(1, 13):
            self._assert_matches_fractions(V([[a]]))
            for b in range(1, 13):
                self._assert_matches_fractions(V([[a], [b]]))
                self._assert_matches_fractions(V([[a, 2 * a], [b, b]]))

    def test_basic_platonic_triple_raises(self):
        with pytest.raises(NotHyperplatonicError):
            basic_platonic_triple(V([[7], [3], [2]]))

    def test_classify_rejects_non_platonic(self):
        with pytest.raises(ValueError):
            PlatonicTriple.classify((6, 4, 2))

    def test_classify_rejects_a_triple_out_of_order(self):
        for triple in ((2, 3, 4), (2, 2, 3), (2, 2, 0)):
            with pytest.raises(ValueError, match="is not decreasing positive"):
                PlatonicTriple.classify(triple)

    def test_classify_takes_integers_only(self):
        with pytest.raises(TypeError):
            PlatonicTriple.classify((4.7, 3, "2"))
        with pytest.raises(TypeError):
            PlatonicTriple.classify((4, 3, 2.0))


class TestIterationChains:
    def test_e6_chain(self):
        chain = iterate_cox_rings(V([[4], [3], [2]]))
        assert chain.triples == ((4, 3, 2), (3, 3, 2), (2, 2, 2), (1, 1, 1))
        groups = [step.class_group for step in chain.steps]
        assert groups == [G(0, (3,)), G(0, (2, 2)), G(0, (2,)), G(0, ())]
        assert chain.patterns == ("(i)", "(i)", "(i)")

    def test_e8_is_factorial(self):
        chain = iterate_cox_rings(V([[5], [3], [2]]))
        assert len(chain.steps) == 1
        assert chain.steps[0].class_group.is_trivial

    def test_smooth_step_pattern_iv(self):
        chain = iterate_cox_rings(V([[6], [4], [1, 1]]))
        assert chain.triples[1] == (3, 2, 1)
        assert chain.patterns[0] == "(iv)"

    def test_a3_chain_pattern_ii(self):
        chain = iterate_cox_rings(V([[4], [2], [2]]))
        assert chain.triples == ((4, 2, 2), (2, 2, 1))
        assert chain.patterns == ("(ii)",)

    def test_a2_chain_pattern_iii(self):
        chain = iterate_cox_rings(V([[3], [2], [2]]))
        assert chain.triples == ((3, 2, 2), (3, 3, 1))
        assert chain.patterns == ("(iii)",)

    def test_x_x_1_variety_steps_to_affine(self):
        chain = iterate_cox_rings(V([[3], [3], [1, 1]]))
        assert chain.triples == ((3, 3, 1), (1, 1, 1))
        assert chain.patterns == ("(ii)",)
        assert chain.steps[0].class_group == G(2, ())

    def test_not_admitted(self):
        with pytest.raises(IterationNotAdmittedError):
            iterate_cox_rings(V([[6], [4], [2, 2]]))

    def test_non_rational_rejected(self):
        with pytest.raises(NotRationalError):
            iterate_cox_rings(V([[6], [3], [4]]))

    def test_a_chain_past_its_length_guard_raises(self, monkeypatch):
        # The E6 chain has four steps; a guard of two stops it after two.
        monkeypatch.setattr(coxring, "_MAX_CHAIN_LENGTH", 2)
        with pytest.raises(OracleMismatchError, match="did not reach a factorial variety"):
            iterate_cox_rings(V([[4], [3], [2]]))

    def test_every_enumerated_chain_extends_its_duval_surface_chain(self):
        """The paper's du Val square along the whole chain: on every
        hyperplatonic multiset of the criterion-9 enumeration, with basic
        triple t, the chain of X starts with the chain of Y(t), and every
        further triple has c = 1 (its surface is an affine plane)."""
        start = time.perf_counter()
        surface_chains = {}
        checked = tails = 0
        for blocks in criterion_9_multisets():
            variety = V(blocks)
            triple = is_hyperplatonic(variety)
            if triple is None:
                continue
            if triple not in surface_chains:
                surface_chains[triple] = iterate_cox_rings(duval_surface(triple)).triples
            expected = surface_chains[triple]
            triples = iterate_cox_rings(variety).triples
            assert triples[: len(expected)] == expected, blocks
            assert all(c == 1 for _, _, c in triples[len(expected) :]), blocks
            checked += 1
            tails += len(triples) > len(expected)
        # Measured at 3.9 s on a 2-vCPU host with Python 3.11.
        assert (checked, tails) == (43_149, 7_404)
        assert time.perf_counter() - start < 60

    def test_seeded_chains_up_to_the_block_cap_extend_their_duval_surface_chains(self):
        """The same claim beyond the enumeration: 20,000 seeded inputs of
        3-17 blocks with up to 16 variables each and m <= 2.  Most exponents
        are 1, so about half are hyperplatonic."""
        start = time.perf_counter()
        rng = random.Random(20261020)
        surface_chains = {}
        checked = tails = 0
        for _ in range(20_000):
            blocks = []
            for _ in range(rng.randint(3, MAX_BLOCK + 1)):
                size = rng.randint(1, rng.choice((2, MAX_BLOCK)))
                blocks.append([rng.choice((1, 1, 2, 3, 4, 5, 6)) for _ in range(size)])
            variety = V(blocks, rng.randint(0, 2))
            triple = is_hyperplatonic(variety)
            if triple is None:
                continue
            if triple not in surface_chains:
                surface_chains[triple] = iterate_cox_rings(duval_surface(triple)).triples
            expected = surface_chains[triple]
            triples = iterate_cox_rings(variety).triples
            assert triples[: len(expected)] == expected, (blocks, variety.m)
            assert all(c == 1 for _, _, c in triples[len(expected) :]), (blocks, variety.m)
            checked += 1
            tails += len(triples) > len(expected)
        # Measured at 1.8 s on a 2-vCPU host with Python 3.11.
        assert (checked, tails, len(surface_chains)) == (11_198, 3_015, 29)
        assert time.perf_counter() - start < 60

    def test_chain_steps_are_adjusted_tcs_of_predecessor(self):
        chain = iterate_cox_rings(V([[4], [3], [2]]))
        for earlier, later in zip(chain.steps, chain.steps[1:]):
            expected = adjust(total_coordinate_space(earlier.variety))[0]
            assert later.variety.blocks == expected.blocks


class TestChainPatternClassifier:
    def good(self, prev, nxt):
        return classify_chain_pattern(
            PlatonicTriple.classify(prev), PlatonicTriple.classify(nxt)
        )

    def test_named_pairs(self):
        assert self.good((1, 1, 1), (2, 2, 2)) == "(i)"
        assert self.good((2, 2, 2), (3, 3, 2)) == "(i)"
        assert self.good((3, 3, 2), (4, 3, 2)) == "(i)"
        assert self.good((1, 1, 1), (5, 5, 1)) == "(ii)"
        assert self.good((2, 2, 1), (4, 2, 2)) == "(ii)"
        assert self.good((3, 3, 1), (3, 2, 2)) == "(iii)"
        assert self.good((3, 2, 1), (6, 4, 1)) == "(iv)"

    def test_unrelated_pair_has_no_label(self):
        assert self.good((5, 3, 2), (4, 3, 2)) is None

    def test_a_step_without_a_triple_has_no_label(self):
        triple = PlatonicTriple.classify((2, 2, 2))
        assert classify_chain_pattern(None, triple) is None
        assert classify_chain_pattern(triple, None) is None


class TestDuvalSurfaces:
    def test_d4_surface(self):
        assert duval_surface(PlatonicTriple.classify((3, 3, 2))).blocks == (
            (3,),
            (3,),
            (2,),
        )

    def test_quadric_surface_group(self):
        y = duval_surface(PlatonicTriple.classify((2, 2, 2)))
        assert class_group_formula(adjust(y)[0]) == G(0, (2,))

    def test_smooth_triple_degenerates(self):
        y = duval_surface(PlatonicTriple.classify((4, 3, 1)))
        assert adjust(y)[0].is_degenerate

    def test_triple_built_without_classify_is_checked(self):
        with pytest.raises(NonPositiveExponentError):
            duval_surface(PlatonicTriple(0, 2, 2, "A"))
        with pytest.raises(InvalidVarietyError, match="must be"):
            duval_surface(PlatonicTriple(2.0, 2, 2, "A"))


class TestDuvalDiagram:
    def test_e6_diagram(self):
        diagram = duval_diagram(V([[4], [3], [2]]))
        assert diagram.x_triple.ade_label == "E6"
        assert diagram.xprime_triple.as_tuple() == (3, 3, 2)
        assert diagram.y.blocks == ((4,), (3,), (2,))
        assert diagram.yprime.blocks == ((3,), (3,), (2,))
        assert diagram.verified
        assert diagram.saturation_ok
        assert duval_saturation_by_lattice(V([[4], [3], [2]]))

    def test_a1_family_diagram(self):
        diagram = duval_diagram(V([[2], [2], [2, 2]]))
        assert diagram.x_triple.as_tuple() == (2, 2, 2)
        assert diagram.xprime_triple.as_tuple() == (1, 1, 1)
        assert diagram.verified

    def test_d4_with_extra_unit_block(self):
        diagram = duval_diagram(V([[3], [3], [2], [1, 1]]))
        assert diagram.x_triple.as_tuple() == (3, 3, 2)
        assert diagram.verified

    def test_smooth_case_verifies_as_affine_plane(self):
        diagram = duval_diagram(V([[6], [4], [1, 1]]))
        assert diagram.x_triple.ade_label == "Smooth"
        assert diagram.xprime_triple.as_tuple() == (3, 2, 1)
        assert diagram.verified

    def test_quotient_data(self):
        # adjustment orders the two-variable block before the single variable
        diagram = duval_diagram(V([[2, 4], [2], [2, 6]]))
        assert diagram.p_tilde == IntMatrix.from_rows(
            [[1, 2, 0, 0, 0], [0, 0, 1, 3, 0], [0, 0, 0, 0, 1]]
        )
        assert diagram.veronese_generators == ("T01*T02^2", "T11*T12^3", "T21")

    def test_not_hyperplatonic_rejected(self):
        with pytest.raises(NotHyperplatonicError):
            duval_diagram(V([[7], [3], [2]]))

    def test_a_tcs_neither_factorial_nor_hyperplatonic_raises(self, monkeypatch):
        # The TCS is replaced by [[7], [5], [3]]: 1/7 + 1/5 + 1/3 < 1.
        monkeypatch.setattr(coxring, "total_coordinate_space", lambda variety: V([[7], [5], [3]]))
        with pytest.raises(OracleMismatchError, match="must be factorial or hyperplatonic"):
            duval_diagram(V([[4], [3], [2]]))

    def test_factorial_hyperplatonic_is_its_own_diagram(self):
        diagram = duval_diagram(V([[5], [3], [2,]]))
        assert diagram.x_triple.as_tuple() == diagram.xprime_triple.as_tuple()
        assert diagram.verified


def test_saturation_lemma_matches_the_lattice_computation():
    """`DuvalDiagram.saturation_ok` is the constant given by the lemma that
    A/B has torsion Z/(gcd(l) / frak_l); the lattice-quotient oracle checks
    that closed form, for every divisor frak_l of gcd(l)."""
    rng = random.Random(20261019)
    saturated = unsaturated = 0
    for _ in range(400):
        k, n = rng.randint(1, 8), rng.randint(1, 5)
        g = rng.choice((1, 2, 3, 4, 6, 12))
        l = tuple(g * rng.randint(1, 6) for _ in range(n))
        gcd = math.gcd(*l)
        for frak_l in (d for d in range(1, gcd + 1) if gcd % d == 0):
            torsion = quotient_torsion_order(matrix_B(k, l, frak_l), matrix_A(k, l))
            assert torsion == gcd // frak_l, (k, l, frak_l)
            is_saturated = torsion == 1
            assert is_saturated == (frak_l == gcd), (k, l, frak_l)
            saturated += is_saturated
            unsaturated += not is_saturated
    assert saturated == 400 and unsaturated > 400
