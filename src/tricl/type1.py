"""Varieties cut out by chains T_i^{l_i} - T_{i+1}^{l_{i+1}} - theta_i.

These arise side by side with trinomial varieties as total coordinate spaces
of rational varieties with a complexity-one torus action, but carry
non-constant invariant functions.  Their class group is decided by the block
gcds alone; the finitely generated cases lift to a trinomial variety with one
extra leading block, which is how the computation reduces to the trinomial
formulas.  `Type1Variety` shares its fields, construction checks and
cached block gcds with `TrinomialVariety` through their private base class
in `variety`, and caches its adjusted flag and c(i) as a trinomial value
does, so `is_adjusted` and `require_adjusted` take either family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classgroup import NOT_FINITELY_GENERATED, ClassGroup
from .exactlinalg import TRIVIAL_GROUP, FgAbelianGroup
from .variety import TrinomialVariety, _analysis, _derived, _reordered, _Variety, require_adjusted


@dataclass(frozen=True)
class Type1Variety(_Variety):
    """Exponent blocks l_1..l_r, free variables, coefficients with theta_1 = 1.

    Fewer than two blocks leave no relation and describe an affine space
    (flagged degenerate, trivial class group).  Construction checks the data
    as `TrinomialVariety` does, with r - 1 coefficients of which the first
    is 1 (or generic).
    """

    _relation_blocks, _plain_blocks, _fixed_first = 2, 1, True

    @_analysis
    def _adjusted(self) -> bool:
        gcds = self._gcds
        descending = all(a >= b for a, b in zip(gcds, gcds[1:]))
        return self.is_degenerate or (1,) not in self.blocks and descending

    @_analysis
    def _counts(self) -> tuple[int, ...]:
        # c(1) = L2, c(2) = L1, c(i) = L1 L2 for i >= 3 (1-based block indices).
        l1, l2 = self._gcds[:2]
        return (l2, l1) + (l1 * l2,) * (len(self.blocks) - 2)


def adjust_type1(variety: Type1Variety) -> Type1Variety:
    """Sort blocks by gcd descending and strip linear single-variable blocks.

    Ties break by block size descending, then original position.  Each
    deleted block removes one relation; with fewer than two blocks left the
    data is degenerate.  Input that is already in this order is returned
    itself; otherwise exact coefficients are reset to generic placeholders
    with a warning, as `adjust` does.
    """
    blocks, gcds = variety.blocks, variety._gcds
    order = list(range(len(blocks)))
    while len(order) >= 2 and any(blocks[i] == (1,) for i in order):
        order.remove(next(i for i in order if blocks[i] == (1,)))
    order.sort(key=lambda i: (-gcds[i], -len(blocks[i]), i))
    if order == list(range(len(blocks))):
        variety.__dict__["_adjusted"] = True
        return variety
    return _reordered(variety, order)


def type1_n_tilde(variety: Type1Variety) -> int:
    return require_adjusted(variety)._free_rank()


def class_group_type1(variety: Type1Variety) -> ClassGroup:
    """Divisor class group of an adjusted Type 1 variety.

    Trivial iff all block gcds are 1 (or the data degenerates to an affine
    space); a single quadratic relation in two single variables is the
    boundary case with free rank 0.  Free of the expected rank when L1 > 1
    with all later gcds 1, or L1 = L2 = 2 with all later gcds 1.  Everything
    else is not finitely generated.
    """
    if require_adjusted(variety).is_degenerate:
        return TRIVIAL_GROUP
    gcds = variety._gcds
    if all(g == 1 for g in gcds):
        return TRIVIAL_GROUP
    if gcds[0] > 1 and all(g == 1 for g in gcds[1:]):
        return FgAbelianGroup(type1_n_tilde(variety), ())
    if gcds[0] == gcds[1] == 2 and all(g == 1 for g in gcds[2:]):
        # rank 0 here happens exactly for V(T1^2 + T2^2 + 1)
        return FgAbelianGroup(type1_n_tilde(variety), ())
    return NOT_FINITELY_GENERATED


def lift_to_type2(variety: Type1Variety) -> TrinomialVariety:
    """Trinomial variety with a new leading block [lcm of the block gcds].

    The original variety times a torus factor embeds into the lift as the
    complement of the leading coordinate hyperplane, so rationality and the
    finitely generated cases transfer.  Coefficients are generic.
    """
    require_adjusted(variety)
    gcds = variety._gcds
    ell = math.lcm(*gcds) if gcds else 1
    return _derived(TrinomialVariety, ((ell,),) + variety.blocks, variety.m, _gcds=(ell,) + gcds)
