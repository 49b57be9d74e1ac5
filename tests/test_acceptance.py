"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact (canonical forms of groups, integer
equality); the only tolerances are the stated wall-clock bounds.
"""

import itertools
import math
import random
import time

from oracles import cyclic_subgroup_order, determinantal_divisor, matrix_A, relation_degree_order
from tricl.classgroup import (
    NOT_FINITELY_GENERATED,
    GroupMethod,
    IsolatedSingularityCase,
    class_group_formula,
    class_group_report,
    class_group_snf,
    compulsory_torsion,
    isolated_singularity_report,
)
from tricl.coxring import (
    PlatonicTriple,
    duval_diagram,
    duval_surface,
    is_hyperplatonic,
    iterate_cox_rings,
)
from tricl.exactlinalg import FgAbelianGroup, smith_invariants
from tricl.type1 import (
    Type1Variety,
    adjust_type1,
    class_group_type1,
    lift_to_type2,
)
from tricl.variety import (
    RationalityKind,
    TrinomialVariety,
    adjust,
    rationality_class,
)

V = TrinomialVariety
G = FgAbelianGroup


def report(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}")


def group_of(blocks):
    return class_group_formula(adjust(V(blocks))[0])


def test_criterion_01_paper_golden_examples():
    cases = [
        ([[4], [2], [3, 2]], G(1, ())),
        ([[4], [2], [3, 3]], G(1, (3,))),
        ([[2, 4], [2], [2, 6]], G(2, (2,))),
        ([[2], [2], [2]], G(0, (2,))),
    ]
    for blocks, expected in cases:
        start = time.perf_counter()
        v = adjust(V(blocks))[0]
        assert class_group_formula(v) == expected
        assert class_group_snf(v) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{blocks} took {elapsed:.3f}s"
    report(1, "4 published class groups match by formula and by Smith form, < 1 s each")


def _table_group(row, blocks):
    """Hyperplatonic-table group for blocks listed in decreasing-gcd order."""
    sizes = [len(b) for b in blocks]
    r = len(blocks) - 1
    tail = sum(sizes[3:])
    if row == "i":  # (4,3,2)
        return G(sizes[1] + tail - (r - 1), (3,))
    if row == "ii":  # (3,3,2)
        return G(2 * (sizes[2] + tail - (r - 1)), (2, 2))
    if row == "iii":  # (x,y,1)
        x = math.gcd(*blocks[0])
        y = math.gcd(*blocks[1])
        return G((math.gcd(x, y) - 1) * (sizes[2] + tail - (r - 1)), ())
    if row == "iv":  # (x,2,2), x odd
        x = math.gcd(*blocks[0])
        rank = sizes[0] + tail - (r - 1)
        return G(rank, (x,)) if x > 1 else G(rank, ())
    if row == "v":  # (x,2,2), 2 | x
        x = math.gcd(*blocks[0])
        return G(sizes[0] + sizes[1] + sizes[2] + 3 * (tail - (r - 1)), (x,))
    raise ValueError(row)


def test_criterion_02_hyperplatonic_table():
    # instances given with blocks in decreasing-gcd (basic triple) order
    cases = [
        ("i", [[4], [3], [2, 2]]),
        ("i", [[4], [3, 3], [2]]),
        ("ii", [[3], [3], [2, 2]]),
        ("ii", [[3], [3], [2]]),
        ("iii", [[6], [4], [1, 1]]),
        ("iii", [[6], [4], [1, 1], [1, 1]]),
        ("iv", [[3], [2], [2]]),
        ("iv", [[3, 3], [2], [2]]),
        ("v", [[4], [2], [2]]),
        ("v", [[4, 4], [2], [2]]),
        ("v", [[6], [2], [2]]),
    ]
    for row, blocks in cases:
        expected = _table_group(row, [tuple(b) for b in blocks])
        computed = group_of(blocks)
        assert computed == expected, f"row ({row}) {blocks}: {computed} != {expected}"
        triple = is_hyperplatonic(V(blocks))
        assert triple is not None
    report(2, f"{len(cases)} instances of table rows (i)-(v) match the closed forms")


def test_criterion_03_oracle_equivalence(rational_corpus):
    assert len(rational_corpus) >= 500
    case_counts = {RationalityKind.CASE_II: 0, RationalityKind.CASE_III: 0}
    for v in rational_corpus:
        # corpus bounds promised by the criterion
        assert len(v.blocks) <= 5 and v.m <= 2
        assert all(len(b) <= 3 and max(b) <= 8 for b in v.blocks)

        kind = rationality_class(v)
        case_counts[kind.kind] += 1
        formula = class_group_formula(v)
        snf = class_group_snf(v)
        assert formula == snf, f"{v.blocks}: {formula} != {snf}"

        report_data = class_group_report(v, GroupMethod.BOTH)
        assert report_data.n_tilde == formula.rank

        order = relation_degree_order(v)
        assert order == (1 if kind.kind is RationalityKind.CASE_II else 2)

        ctors = compulsory_torsion(v)
        for factor in ctors.invariant_factors:
            assert any(big % factor == 0 for big in formula.invariant_factors)
    assert all(count >= 100 for count in case_counts.values())
    report(
        3,
        f"{len(rational_corpus)} instances ({case_counts[RationalityKind.CASE_II]} case II, "
        f"{case_counts[RationalityKind.CASE_III]} case III): formula = SNF, ranks and "
        "torsion constraints hold, zero mismatches",
    )


def test_criterion_04_relation_block_rank_and_divisor():
    checked = 0
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for l in itertools.product(range(1, 7), repeat=n):
                a = matrix_A(k, l)
                data = smith_invariants(a)
                assert data.rank == n - 1 + k, (k, l)
                top = determinantal_divisor(a, data.rank)
                assert math.gcd(*l) ** (k - 1) % top == 0, (k, l, top)
                checked += 1
    report(4, f"{checked} relation blocks: rank n-1+k and top divisor | gcd^(k-1)")


def test_criterion_05_iteration_chains():
    chain = iterate_cox_rings(V([[4], [3], [2]]))
    assert chain.triples == ((4, 3, 2), (3, 3, 2), (2, 2, 2), (1, 1, 1))
    assert [s.class_group for s in chain.steps] == [
        G(0, (3,)),
        G(0, (2, 2)),
        G(0, (2,)),
        G(0, ()),
    ]

    chain = iterate_cox_rings(V([[5], [3], [2]]))
    assert len(chain.steps) == 1 and chain.steps[0].class_group.is_trivial

    chain = iterate_cox_rings(V([[6], [4], [1, 1]]))
    assert chain.triples[1] == (3, 2, 1)
    assert chain.patterns[0] == "(iv)"
    report(5, "E6 chain, factorial E8, and the torus step to (3,2,1) all exact")


def _platonic_triples_up_to(bound):
    triples = [(5, 3, 2), (4, 3, 2), (3, 3, 2)]
    triples += [(x, 2, 2) for x in range(2, bound + 1)]
    triples += [(x, y, 1) for x in range(1, bound + 1) for y in range(1, x + 1)]
    return triples


def test_criterion_06_duval_cross_check(hyperplatonic_corpus):
    known = {(5, 3, 2): G(0, ()), (4, 3, 2): G(0, (3,)), (3, 3, 2): G(0, (2, 2))}
    surfaces = 0
    for triple in _platonic_triples_up_to(6):
        y = duval_surface(PlatonicTriple.classify(triple))
        group = class_group_formula(adjust(y)[0])
        if triple in known:
            expected = known[triple]
        elif triple[1:] == (2, 2):
            expected = G(0, (triple[0],))
        else:  # (x, y, 1) surfaces are affine planes
            expected = G(0, ())
        assert group == expected, f"Y{triple}: {group} != {expected}"
        surfaces += 1

    verified = 0
    for v in hyperplatonic_corpus:
        assert duval_diagram(v).verified, v.blocks
        verified += 1
    report(
        6,
        f"{surfaces} surfaces match the A/D/E groups; diagram verified on "
        f"{verified} random hyperplatonic instances",
    )


def test_criterion_07_order_checks(rational_corpus):
    checked_orders = 0
    for v in rational_corpus:
        kind = rationality_class(v)
        if kind.kind is RationalityKind.CASE_III:
            assert relation_degree_order(v) == 2
            frak_l0 = v.block_gcds()[0]
            for y in range(1, frak_l0 + 1):
                if frak_l0 % y == 0:
                    assert cyclic_subgroup_order(v, y) == y
                    checked_orders += 1
        else:
            assert relation_degree_order(v) == 1
    assert checked_orders > 100
    report(7, f"{checked_orders} cyclic subgroup orders exact; relation degrees 1/2 per case")


def _random_type1(rng):
    blocks = [
        tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(2, 4))
    ]
    return adjust_type1(Type1Variety(blocks, rng.randint(0, 2)))


def test_criterion_08_type1():
    assert class_group_type1(adjust_type1(Type1Variety([[2], [2]]))).is_trivial
    assert class_group_type1(adjust_type1(Type1Variety([[2], [1, 1]]))) == G(1, ())
    assert (
        class_group_type1(adjust_type1(Type1Variety([[3], [3]])))
        is NOT_FINITELY_GENERATED
    )

    rng = random.Random(202)
    finitely_generated = 0
    for _ in range(250):
        v = _random_type1(rng)
        own = class_group_type1(v)
        lifted = class_group_formula(adjust(lift_to_type2(v))[0])
        if own is NOT_FINITELY_GENERATED:
            assert lifted is NOT_FINITELY_GENERATED
            continue
        finitely_generated += 1
        gcds = v.block_gcds()
        if v.is_degenerate or all(g == 1 for g in gcds):
            assert lifted.is_trivial and own.is_trivial
        elif gcds[0] > 1 and all(g == 1 for g in gcds[1:]):
            assert lifted == own
        else:
            assert lifted == G(own.rank, own.invariant_factors + (2,))
    assert finitely_generated >= 50
    report(8, f"Type 1 worked examples and {finitely_generated} lift consistency checks exact")


BLOCK_CHOICES = [(a,) for a in range(1, 6)] + [
    (a, b) for a in range(1, 6) for b in range(1, 6)
]


def test_criterion_09_half_factorial_uniqueness():
    start = time.perf_counter()
    order_two = set()
    scanned = 0
    for count in (3, 4):
        for combo in itertools.combinations_with_replacement(BLOCK_CHOICES, count):
            adjusted, _ = adjust(V(combo))
            scanned += 1
            group = class_group_formula(adjusted)
            if group is not NOT_FINITELY_GENERATED and group.order() == 2:
                order_two.add(adjusted.blocks)
    elapsed = time.perf_counter() - start
    assert order_two == {((2,), (2,), (2,))}
    assert elapsed < 30.0, f"scan took {elapsed:.1f}s"
    report(
        9,
        f"{scanned} block multisets scanned in {elapsed:.1f}s; "
        "only the quadric has class group of order 2",
    )


def test_criterion_10_isolated_singularities(enumeration_corpus):
    # the three worked instances
    assert isolated_singularity_report(
        adjust(V([[2], [2], [2]]))[0]
    ).case is IsolatedSingularityCase.DIM2_TORSION
    assert isolated_singularity_report(
        adjust(V([[4], [3], [1, 1]]))[0]
    ).case is IsolatedSingularityCase.DIM3_FREE
    assert not isolated_singularity_report(adjust(V([[2, 4], [2], [2, 6]]))[0]).isolated

    dim3 = dim45 = 0
    for variety, group in enumeration_corpus:
        if variety.is_degenerate:
            continue
        result = isolated_singularity_report(variety)
        if not result.isolated:
            continue
        if result.case is IsolatedSingularityCase.DIM3_FREE:
            assert group is not NOT_FINITELY_GENERATED and group.is_free
            dim3 += 1
        elif result.case is IsolatedSingularityCase.DIM45_FACTORIAL:
            assert rationality_class(variety).is_factorial
            assert group is not NOT_FINITELY_GENERATED and group.is_trivial
            dim45 += 1
    assert dim3 > 0 and dim45 > 0
    report(
        10,
        f"worked instances tagged correctly; {dim3} isolated 3-folds free abelian, "
        f"{dim45} higher-dimensional isolated instances factorial",
    )
