"""Total coordinate spaces, platonic triples, iteration chains, surfaces.

The total coordinate space of an adjusted rational trinomial variety is again
a trinomial variety; its blocks are the column gcds of the scaled exponent
matrix P1, which a lemma reads off the block gcds, so P1 itself is built
only by `p1_matrix`.  Iterating the construction terminates in a
factorial variety exactly for the hyperplatonic inputs, and the induced
sequences of basic platonic triples match the quotient chains of the du Val
surfaces Y(a, b, c) = V(T1^a + T2^b + T3^c).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .classgroup import class_group_formula
from .errors import (
    IterationNotAdmittedError,
    NotHyperplatonicError,
    NotRationalError,
    OracleMismatchError,
)
from .exactlinalg import FgAbelianGroup, IntMatrix
from .variety import (
    TrinomialVariety,
    _block_offsets,
    _exponent_rows,
    _monomial,
    adjust,
    rationality_class,
)


def total_coordinate_space(variety: TrinomialVariety) -> TrinomialVariety:
    """The (raw, not yet adjusted) total coordinate space of an adjusted
    rational variety, itself a trinomial variety.

    A factorial variety (a degenerate affine space included) is its own
    total coordinate space.  Otherwise source block i contributes c(i)
    copies of the vector of column gcds of the scaled exponent matrix P1,
    read off a lemma (see ``TrinomialVariety._tcs``) without building P1;
    the free-variable count m is preserved.  The value caches it, so every
    call returns the same object.  Beyond MAX_N_PRIME generators it raises
    ResourceLimitError up front.
    """
    kind = rationality_class(variety)
    if not kind.is_rational:
        raise NotRationalError("the total coordinate space needs a rational variety")
    return variety if kind.is_factorial else variety._tcs


def p1_matrix(variety: TrinomialVariety) -> IntMatrix:
    """The r x (n + m) exponent matrix of an adjusted rational variety with
    row 1 divided by gcd(L0, L1) and row 2 by gcd(L0, L2), which divide
    their rows exactly.  An affine space keeps its rows unscaled."""
    if not rationality_class(variety).is_rational:
        raise NotRationalError("P1 needs a rational variety")
    rows = _exponent_rows(variety.blocks)
    if not variety.is_degenerate:
        c = variety._counts
        rows[:2] = [{j: e // d for j, e in row.items()} for row, d in zip(rows, (c[2], c[1]))]
    return IntMatrix.from_sparse(rows, variety.n + variety.m)


_ADE_BY_TRIPLE = {(5, 3, 2): "E8", (4, 3, 2): "E6", (3, 3, 2): "D4"}


@dataclass(frozen=True)
class PlatonicTriple:
    """A platonic triple a >= b >= c with its ADE-style label.

    The label is "E8", "E6", "D4", "A{x-1}" for (x, 2, 2), or "Smooth" for
    (x, y, 1) triples, whose surface is an affine plane after eliminating the
    linear variable.
    """

    a: int
    b: int
    c: int
    ade_label: str

    @classmethod
    def classify(cls, triple: Sequence[int]) -> "PlatonicTriple":
        """The triple with its label; a float or a string raises TypeError."""
        a, b, c = map(operator.index, triple)
        if not (a >= b >= c >= 1):
            raise ValueError(f"triple {triple} is not decreasing positive")
        if c == 1:
            label = "Smooth"
        elif (a, b, c) in _ADE_BY_TRIPLE:
            label = _ADE_BY_TRIPLE[(a, b, c)]
        elif b == c == 2:
            label = f"A{a - 1}"
        else:
            raise ValueError(f"triple {triple} is not platonic")
        return cls(a, b, c, label)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"({self.a},{self.b},{self.c})[{self.ade_label}]"


def is_hyperplatonic(variety: TrinomialVariety) -> Optional[PlatonicTriple]:
    """The basic platonic triple when 1/L0 + ... + 1/Lr > r - 1, else None.

    Evaluated in integers: times L = lcm(L0, ..., Lr), the inequality reads
    L/L0 + ... + L/Lr > (r - 1) L.  Both the inequality and the triple (the
    three largest block gcds, padded with 1s below three blocks) are
    invariant under adjustment, so any variety is accepted.
    """
    gcds = variety.block_gcds()
    threshold = len(gcds) - 2  # r - 1
    lcm = math.lcm(*gcds)
    if sum(lcm // g for g in gcds) <= threshold * lcm:
        return None
    top = sorted(gcds, reverse=True)[:3]
    top += [1] * (3 - len(top))
    return PlatonicTriple.classify(top)


def basic_platonic_triple(variety: TrinomialVariety) -> PlatonicTriple:
    triple = is_hyperplatonic(variety)
    if triple is None:
        raise NotHyperplatonicError(
            f"variety with block gcds {variety.block_gcds()} is not hyperplatonic"
        )
    return triple


def classify_chain_pattern(
    tcs_triple: Optional[PlatonicTriple], triple: Optional[PlatonicTriple]
) -> Optional[str]:
    """Label of the quotient step whose total coordinate space has the first
    triple and whose base has the second.

    The four admissible sequences overlap on shared steps (the pair
    (1,1,1) -> (x,x,1) opens both torus-factor chains and is an x = y
    instance of pattern (iv)), so labels are assigned with the fixed
    precedence (i) > (ii) > (iii) > (iv).
    """
    if tcs_triple is None or triple is None:
        return None
    prev = tcs_triple.as_tuple()
    nxt = triple.as_tuple()
    if (prev, nxt) in (
        ((1, 1, 1), (2, 2, 2)),
        ((2, 2, 2), (3, 3, 2)),
        ((3, 3, 2), (4, 3, 2)),
    ):
        return "(i)"
    a, b, c = prev
    x, y, z = nxt
    if prev == (1, 1, 1) and x == y >= 2 and z == 1:
        return "(ii)"
    if a == b and c == 1 and (x, y, z) == (2 * a, 2, 2):
        return "(ii)"
    if a == b and a % 2 == 1 and c == 1 and (x, y, z) == (a, 2, 2):
        return "(iii)"
    if c == 1 and z == 1:
        g = math.gcd(x, y)
        if g > 1 and (a, b) == (x // g, y // g):
            return "(iv)"
    return None


@dataclass(frozen=True)
class IterationStep:
    variety: TrinomialVariety
    class_group: FgAbelianGroup
    triple: Optional[PlatonicTriple]


@dataclass(frozen=True)
class IterationChain:
    """Chain of quotient presentations ending in a factorial variety.

    ``steps[k + 1].variety`` is the adjusted total coordinate space of
    ``steps[k].variety``; ``patterns[k]`` labels that step.
    """

    steps: tuple[IterationStep, ...]
    patterns: tuple[Optional[str], ...]

    @property
    def triples(self) -> tuple[Optional[tuple[int, int, int]], ...]:
        return tuple(s.triple.as_tuple() if s.triple else None for s in self.steps)


_MAX_CHAIN_LENGTH = 64


def iterate_cox_rings(variety: TrinomialVariety) -> IterationChain:
    """Apply total_coordinate_space + adjust until a factorial variety appears.

    Admissible exactly when every intermediate total coordinate space is
    factorial or hyperplatonic; otherwise IterationNotAdmittedError.  The
    input is adjusted internally.  Each step records the adjusted variety,
    its class group and, when hyperplatonic, its basic platonic triple.
    """
    current = adjust(variety)[0]
    if not current._rationality.is_rational:
        raise NotRationalError("iteration needs a rational variety")

    steps: list[IterationStep] = []
    while True:
        kind = current._rationality
        triple = is_hyperplatonic(current)
        if not kind.is_factorial and triple is None:
            raise IterationNotAdmittedError(
                "an intermediate total coordinate space is neither factorial "
                f"nor hyperplatonic (block gcds {current.block_gcds()})"
            )
        group = class_group_formula(current)
        steps.append(IterationStep(current, group, triple))
        if kind.is_factorial:
            break
        if len(steps) >= _MAX_CHAIN_LENGTH:
            raise OracleMismatchError("iteration did not reach a factorial variety")
        current = adjust(total_coordinate_space(current))[0]

    patterns = tuple(
        classify_chain_pattern(steps[k + 1].triple, steps[k].triple)
        for k in range(len(steps) - 1)
    )
    return IterationChain(tuple(steps), patterns)


def duval_surface(triple: PlatonicTriple) -> TrinomialVariety:
    """The surface V(T1^a + T2^b + T3^c) as a trinomial variety.

    Checked at construction: a caller can build a `PlatonicTriple` without
    `PlatonicTriple.classify`, so its fields are outside data.
    """
    return TrinomialVariety(((triple.a,), (triple.b,), (triple.c,)), 0)


@dataclass(frozen=True)
class DuvalDiagram:
    """The commuting square relating a hyperplatonic variety to surfaces.

    ``y`` and ``yprime`` are the surfaces attached to the basic platonic
    triples of the variety and of its total coordinate space; ``verified``
    states that the total coordinate space of y again has the triple of
    yprime (for Smooth-labelled triples both sides degenerate to affine
    planes and are compared as such).  ``p_tilde`` and
    ``veronese_generators`` carry the degree-zero quotient data
    T_i^{l_i / L_i}.

    ``saturation_ok`` states that, for each TCS block with c(i) = k copies
    of the exponent vector l (n entries) and for frak_l = gcd(l), the
    lattice B of the k monomial rows and the row of k copies of l / frak_l
    is saturated in the lattice A of the relation block A(k, l): its k
    monomial rows and n identity-sum rows s_j.  It is the constant a lemma
    gives, not lattice algebra.  The k + n rows of A satisfy exactly one
    relation, generated by the primitive vector (1^k, -l), and B is spanned
    by the monomial rows and sum_j (l_j / frak_l) s_j.  So A/B is
    Z^n / <l / frak_l>, whose torsion is Z/(gcd(l) / frak_l): B is
    saturated in A exactly when frak_l = gcd(l), true for every input.
    """

    x_triple: PlatonicTriple
    xprime_triple: PlatonicTriple
    y: TrinomialVariety
    yprime: TrinomialVariety
    verified: bool
    p_tilde: IntMatrix
    veronese_generators: tuple[str, ...]
    saturation_ok: bool


def duval_diagram(variety: TrinomialVariety) -> DuvalDiagram:
    """Build and verify the surface correspondence for a hyperplatonic variety."""
    x_triple = basic_platonic_triple(variety)  # the triple is invariant under adjust
    adjusted = adjust(variety)[0]
    xprime = adjust(total_coordinate_space(adjusted))[0]
    xprime_triple = is_hyperplatonic(xprime)
    if xprime_triple is None:
        raise OracleMismatchError(
            "the total coordinate space of a hyperplatonic variety must be "
            "factorial or hyperplatonic"
        )

    y = duval_surface(x_triple)
    yprime = duval_surface(xprime_triple)
    y_tcs = adjust(total_coordinate_space(adjust(y)[0]))[0]
    y_tcs_triple = is_hyperplatonic(y_tcs)
    verified = y_tcs_triple is not None and (
        y_tcs_triple.as_tuple() == xprime_triple.as_tuple()
        or (y_tcs.is_degenerate and xprime_triple.c == 1)
    )

    scaled = [[e // g for e in block] for block, g in zip(adjusted.blocks, adjusted.block_gcds())]
    offsets = _block_offsets(adjusted.blocks)
    p_tilde = IntMatrix.from_sparse(
        [{o + j: x for j, x in enumerate(s)} for o, s in zip(offsets, scaled)], adjusted.n
    )

    return DuvalDiagram(
        x_triple,
        xprime_triple,
        y,
        yprime,
        verified,
        p_tilde,
        tuple(_monomial(i, s) for i, s in enumerate(scaled)),
        True,  # the saturation lemma with frak_l = gcd(l); see DuvalDiagram
    )
