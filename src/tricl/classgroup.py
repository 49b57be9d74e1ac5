"""Divisor class groups of trinomial varieties, two independent ways.

The closed formulas split by the rationality case of the adjusted variety:

* factorial: the trivial group;
* case II (only gcd(L0, L1) = c > 1): (Z/L2)^(c-1) x ... x (Z/Lr)^(c-1) x Z^nt;
* case III (the three leading pairwise gcds all 2): Z/(L0 L1 L2 / 4) x
  (Z/L3)^3 x ... x (Z/Lr)^3 x Z^nt;
* otherwise the group is not finitely generated,

with nt = sum_i (c(i) - 1)(n_i - 1).  The independent route presents the
group as the cokernel of an explicit grading matrix over the total
coordinate space generators and reads it off a Smith normal form.  Both
routes are exposed and their agreement is the library's central invariant.

The formula route computes no Smith form, nor does `compulsory_torsion`: it
checks its closed form against a lemma on the TCS block gcds.  Factorial
and degenerate input needs neither route; its group is trivial by the
rationality class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .coxring import total_coordinate_space
from .errors import (
    FactorialInputError,
    FreeVariablesPresentError,
    NotRationalError,
    OracleMismatchError,
)
from .exactlinalg import (
    TRIVIAL_GROUP,
    FgAbelianGroup,
    IntMatrix,
    SparseRow,
    _chain,
    cokernel,
)
from .variety import (
    NOT_FINITELY_GENERATED,
    ClassGroup,
    NotFinitelyGenerated,
    RationalityClass,
    RationalityKind,
    TrinomialVariety,
    _block_offsets,
    _exponent_rows,
    _torsion_tail,
    class_group_formula,
    dimension,
    rationality_class,
    require_adjusted,
)


def n_tilde(variety: TrinomialVariety) -> int:
    """Free rank sum((c(i) - 1) n_i - c(i) + 1) of an adjusted rational variety."""
    if not rationality_class(variety).is_rational:
        raise NotRationalError("the rank formula needs a rational variety")
    return variety._free_rank()


def _require_rational_nonfactorial(variety: TrinomialVariety) -> RationalityClass:
    kind = rationality_class(variety)
    if variety.is_degenerate:
        raise FactorialInputError("degenerate data is an affine space, hence factorial")
    if not kind.is_rational:
        raise NotRationalError("the class group is not finitely generated")
    if kind.is_factorial:
        raise FactorialInputError("the variety is factorial")
    return kind


def compulsory_torsion(variety: TrinomialVariety) -> FgAbelianGroup:
    """The forced finite subgroup of the class group, computed twice.

    Closed form: (Z/L2)^(c-1) x ... x (Z/Lr)^(c-1) in case II, and
    Z/(L0/2) x Z/(L1/2) x Z/(L2/2) x (Z/L3)^3 x ... in case III.  Lemma (see
    the README): the torsion of the cokernel of the exponent matrix of the
    (raw) total coordinate space, whose blocks have gcds g_0 .. g_r, is the
    invariant-factor chain of Z/g_0 x ... x Z/g_r without its largest
    factor, since the k x k minors are, up to unimodular column operations,
    +- the products of k distinct g_j.  Disagreement raises
    OracleMismatchError.
    """
    kind = _require_rational_nonfactorial(variety)
    gcds = variety.block_gcds()
    factors = [g // 2 for g in gcds[:3]] if kind.kind is RationalityKind.CASE_III else []
    closed = FgAbelianGroup(0, factors + _torsion_tail(kind, gcds))
    tcs_gcds = total_coordinate_space(variety).tcs.block_gcds()
    lemma = FgAbelianGroup(0, _chain(tcs_gcds)[:-1])
    if closed != lemma:
        raise OracleMismatchError(
            f"compulsory torsion mismatch: closed form {closed}, "
            f"lemma {lemma} on the TCS block gcds {tcs_gcds}"
        )
    return closed


def grading_matrix(variety: TrinomialVariety) -> IntMatrix:
    """Relation rows presenting the class group on the TCS generators.

    Columns are indexed by (i, t, j): source block i, copy t, variable j,
    with j varying fastest and copies faster than blocks, which is the
    column order of the flattened TCS blocks.  In case II the matrix is
    block diagonal with one relation block A(c(i), l_{i,1}) per source
    block.  In case III the rows are, for every (i, j), the sum of e_{ij,t}
    over t, and for every (i, t) != (0, 1) the difference of the monomial
    rows sum_j l_{ij,t} e_{ij,t} - sum_j l_{0j,1} e_{0j,1}.  The m free
    variables have degree zero and contribute no columns.
    """
    kind = _require_rational_nonfactorial(variety)
    cox = total_coordinate_space(variety)
    # Flattened, the TCS blocks are the (i, t) pairs in column order.
    offsets = _block_offsets(cox.tcs.blocks)
    rows = []
    start = 0
    for copies in cox.tcs_blocks:
        if kind.kind is RationalityKind.CASE_II:
            rows += _relation_rows(len(copies), copies[0], offsets[start])
        else:
            columns = offsets[start : start + len(copies)]
            rows += [{column + j: 1 for column in columns} for j in range(len(copies[0]))]
        start += len(copies)
    if kind.kind is RationalityKind.CASE_III:
        # The monomial rows of (i, t) less that of (0, 1): the exponent rows.
        rows += _exponent_rows(cox.tcs.blocks)
    return IntMatrix.from_sparse(rows, cox.n_prime)


def _relation_rows(k: int, exponents: Sequence[int], offset: int) -> list[SparseRow]:
    """The relation block A(k, l) for l = `exponents`, its columns shifted
    by `offset`: k rows holding l on the k column blocks of width n = len(l),
    then n rows holding k horizontal copies of the n x n identity."""
    n = len(exponents)
    rows = [{offset + t * n + j: x for j, x in enumerate(exponents)} for t in range(k)]
    rows += [{offset + t * n + j: 1 for t in range(k)} for j in range(n)]
    return rows


def class_group_snf(variety: TrinomialVariety) -> FgAbelianGroup:
    """Divisor class group as the cokernel of the grading matrix."""
    return cokernel(grading_matrix(variety))


@dataclass(frozen=True)
class ClassGroupPredicates:
    """Shape predicates of the class group of an adjusted variety.

    ``cyclic`` holds the group itself when it is non-trivial finite cyclic.
    For non-rational input the group-dependent comparisons are skipped and
    all predicates are negative.
    """

    free_abelian: bool
    finite: bool
    cyclic: Optional[FgAbelianGroup]
    half_factorial: bool


def predicates(variety: TrinomialVariety) -> ClassGroupPredicates:
    """Evaluate the predicate corollaries twice and cross-check.

    Each predicate is decided from the block data alone and from the
    canonical form of the computed group; a disagreement raises
    OracleMismatchError.  Note the finite and cyclic criteria are per-block:
    the group is finite iff every block has c(i) = 1 or n_i = 1 (blocks whose
    vanishing set stays prime contribute no free part regardless of their
    size), and the torsion is cyclic in case II iff c = 2.
    """
    kind = rationality_class(variety)
    gcds = variety.block_gcds()
    descending = sorted(gcds, reverse=True)

    crit_free = kind.is_factorial or all(g == 1 for g in descending[2:])
    if kind.is_factorial:
        crit_finite = True
        crit_cyclic: Optional[FgAbelianGroup] = None
    elif not kind.is_rational:
        crit_finite = False
        crit_cyclic = None
    else:
        counts = variety._counts
        zero_rank = all(
            c == 1 or len(block) == 1 for c, block in zip(counts, variety.blocks)
        )
        crit_finite = zero_rank
        crit_cyclic = None
        if zero_rank:
            if kind.kind is RationalityKind.CASE_II and kind.c == 2:
                product = math.prod(gcds[2:])
                if product > 1:
                    crit_cyclic = FgAbelianGroup(0, (product,))
            elif kind.kind is RationalityKind.CASE_III and all(g == 1 for g in gcds[3:]):
                crit_cyclic = FgAbelianGroup(0, (gcds[0] * gcds[1] * gcds[2] // 4,))
    crit_half = variety.blocks == ((2,), (2,), (2,))

    if kind.is_rational:
        group = class_group_formula(variety)
        assert isinstance(group, FgAbelianGroup)
        computed_cyclic = group if group.is_nontrivial_finite_cyclic else None
        consistent = (
            crit_free == group.is_free
            and crit_finite == group.is_finite
            and crit_cyclic == computed_cyclic
            and crit_half == (group.order() == 2)
        )
        if not consistent:
            raise OracleMismatchError(
                f"predicate criteria disagree with the computed group {group} "
                f"for blocks {variety.blocks}"
            )
    elif crit_free or crit_finite or crit_cyclic or crit_half:
        raise OracleMismatchError(
            f"predicate criteria fired on a non-rational variety {variety.blocks}"
        )

    return ClassGroupPredicates(crit_free, crit_finite, crit_cyclic, crit_half)


class IsolatedSingularityCase(enum.Enum):
    DIM2_TORSION = "dim2_torsion"
    DIM3_FREE = "dim3_free"
    DIM45_FACTORIAL = "dim45_factorial"
    NOT_ISOLATED = "not_isolated"


@dataclass(frozen=True)
class IsolatedSingularityReport:
    isolated: bool
    case: IsolatedSingularityCase


def isolated_singularity_report(variety: TrinomialVariety) -> IsolatedSingularityReport:
    """Decide whether the singular locus is a point, and classify by dimension.

    The singularity is isolated iff all blocks are single variables (a
    surface) or there is a single relation whose sorted block sizes are
    (n0, n1, 2) with n0 <= n1 <= 2 and every size-2 block has both exponents
    equal to 1.  Requires m = 0; free variables fatten the singular locus.
    """
    require_adjusted(variety)
    if variety.m > 0:
        raise FreeVariablesPresentError("isolated singularities require m = 0")
    if variety.is_degenerate:
        # Affine spaces are smooth; by convention not an isolated singularity.
        return IsolatedSingularityReport(False, IsolatedSingularityCase.NOT_ISOLATED)

    sizes = tuple(len(block) for block in variety.blocks)
    if all(size == 1 for size in sizes):
        return IsolatedSingularityReport(True, IsolatedSingularityCase.DIM2_TORSION)

    hypersurface = (
        len(variety.blocks) == 3
        and max(sizes) == 2
        and all(
            all(e == 1 for e in block)
            for block in variety.blocks
            if len(block) == 2
        )
    )
    if hypersurface:
        dim = dimension(variety)
        case = (
            IsolatedSingularityCase.DIM3_FREE
            if dim == 3
            else IsolatedSingularityCase.DIM45_FACTORIAL
        )
        return IsolatedSingularityReport(True, case)
    return IsolatedSingularityReport(False, IsolatedSingularityCase.NOT_ISOLATED)


class GroupMethod(enum.Enum):
    FORMULA = "formula"
    SNF = "snf"
    BOTH = "both"


@dataclass(frozen=True)
class ClassGroupReport:
    """Bundle of the class group data for one adjusted variety.

    ``n_tilde`` is the rank, which equals dim(TCS) - dim(X) by the
    construction of the total coordinate space: source block i gives c(i)
    TCS blocks of n_i variables, m stays, and k blocks carry k - 2
    relations, so dim(TCS) - dim(X) = sum((c(i) - 1) n_i - c(i) + 1).  For
    non-rational input only ``group`` (the marker) and ``method`` are
    populated.  ``snf`` is the group the Smith-normal-form route computed,
    None when that route did not run: method FORMULA, or factorial,
    degenerate or non-rational input, whose group follows from the
    rationality class alone.
    """

    group: ClassGroup
    method: GroupMethod
    n_tilde: Optional[int]
    ctors: Optional[FgAbelianGroup]
    snf: Optional[FgAbelianGroup] = None


def class_group_report(
    variety: TrinomialVariety, method: GroupMethod = GroupMethod.BOTH
) -> ClassGroupReport:
    """Compute the class group by the requested method(s) plus side invariants.

    With method BOTH the formula and Smith-normal-form routes are both run
    and must agree (OracleMismatchError otherwise).  The rank of the group
    must be n_tilde, which only the Smith-form route can miss.
    """
    kind = rationality_class(variety)
    if not kind.is_rational:
        return ClassGroupReport(NOT_FINITELY_GENERATED, method, None, None)
    if kind.is_factorial:
        # Its own total coordinate space with every c(i) = 1: both ranks are 0.
        return ClassGroupReport(TRIVIAL_GROUP, method, 0, TRIVIAL_GROUP)

    formula = class_group_formula(variety) if method is not GroupMethod.SNF else None
    snf = class_group_snf(variety) if method is not GroupMethod.FORMULA else None
    if method is GroupMethod.BOTH and formula != snf:
        raise OracleMismatchError(
            f"class group mismatch for blocks {variety.blocks}: "
            f"formula {formula}, smith cokernel {snf}\n{grading_matrix(variety)}"
        )
    group = formula if formula is not None else snf
    assert isinstance(group, FgAbelianGroup)
    rank = n_tilde(variety)
    if group.rank != rank:
        raise OracleMismatchError(
            f"group rank {group.rank} disagrees with the rank formula {rank}"
        )
    return ClassGroupReport(group, method, rank, compulsory_torsion(variety), snf)
