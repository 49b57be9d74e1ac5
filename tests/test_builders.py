"""The block-data builders against their row-by-row references.

The P1 matrix of the total coordinate space and `grading_matrix` must
equal, entry for entry, the explicit constructions kept in `oracles.py`, on
every case-II and case-III multiset of the criterion-9 enumeration and on
every ladder point.
"""

import pytest

import make_golden
from oracles import grading_rows_reference, p1_rows_reference
from tricl.classgroup import grading_matrix
from tricl.coxring import p1_matrix
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
        assert p1_matrix(variety) == p1_rows_reference(variety), variety.blocks


def test_grading_matrix_matches_reference(non_factorial):
    for variety in non_factorial:
        assert grading_matrix(variety) == grading_rows_reference(variety), variety.blocks
