"""The block-data builders against their row-by-row references.

The P1 matrix of the total coordinate space and `grading_matrix` must
equal, entry for entry, the explicit constructions kept in `oracles.py`, on
every case-II and case-III multiset of the criterion-9 enumeration and on
every ladder point.  The sparse `matrix_B` of the du Val saturation oracle
must equal its dense construction there too.
"""

import math

import pytest

import make_golden
from oracles import grading_rows_reference, matrix_B, matrix_B_reference, p1_rows_reference
from tricl.classgroup import grading_matrix
from tricl.coxring import total_coordinate_space
from tricl.variety import RationalityKind, TrinomialVariety, adjust, rationality_class

NON_FACTORIAL = (RationalityKind.CASE_II, RationalityKind.CASE_III)


@pytest.fixture(scope="module")
def non_factorial(enumeration_corpus):
    """Case-II and case-III varieties of the enumeration and the ladders."""
    ladders = [
        adjust(TrinomialVariety(spec["blocks"]))[0]
        for name, spec in make_golden.inputs()
        if name.startswith("case_")
    ]
    corpus = [variety for variety, _ in enumeration_corpus] + ladders
    out = [v for v in corpus if rationality_class(v).kind in NON_FACTORIAL]
    kinds = {rationality_class(v).kind for v in ladders}
    assert kinds == set(NON_FACTORIAL) and len(out) > len(ladders)
    return out


def test_p1_matrix_matches_reference(non_factorial):
    for variety in non_factorial:
        assert total_coordinate_space(variety).p1 == p1_rows_reference(variety), variety.blocks


def test_grading_matrix_matches_reference(non_factorial):
    for variety in non_factorial:
        expected = grading_rows_reference(
            rationality_class(variety), total_coordinate_space(variety)
        )
        assert grading_matrix(variety) == expected, variety.blocks


def test_matrix_B_matches_reference(non_factorial):
    checked = 0
    for variety in non_factorial:
        cox = total_coordinate_space(variety)
        for k, copies in zip(cox.c, cox.tcs_blocks):
            vector = copies[0]
            g = math.gcd(*vector)
            for frak_l in (d for d in range(1, g + 1) if g % d == 0):
                assert matrix_B(k, vector, frak_l) == matrix_B_reference(k, vector, frak_l)
                checked += 1
    assert checked > len(non_factorial)


@pytest.mark.parametrize(
    "args",
    [(0, (2,), 1), (1, (), 1), (1, (0,), 1), (2, (2, 3), 2), (2, (2, 4), 0), (1, (4,), -2)],
)
def test_matrix_B_refuses_what_the_reference_refuses(args):
    with pytest.raises(ValueError) as reference:
        matrix_B_reference(*args)
    with pytest.raises(ValueError) as actual:
        matrix_B(*args)
    assert str(actual.value) == str(reference.value)
