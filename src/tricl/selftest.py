"""Golden example corpus and its runner.

Every case pins a published value: the worked hypersurface examples, the
hyperplatonic table, the quotient chains of the du Val surfaces, and the
Type 1 family.  Each case makes the library calls of its CLI command, so
their cross-checks run too: `class_group_report` by both routes checks
formula = SNF, the rank n_tilde and the compulsory-torsion lemma, and the
Type 1 cases also take the report of their trinomial lift.  `run_selftest`
evaluates all of them and reports one result per case; it is wired to the
`tricl selftest` subcommand and doubles as a quick smoke test of an
installation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classgroup import NOT_FINITELY_GENERATED, GroupMethod, class_group_report, predicates
from .coxring import duval_diagram, iterate_cox_rings
from .exactlinalg import FgAbelianGroup
from .type1 import Type1Variety, adjust_type1, class_group_type1, lift_to_type2
from .variety import TrinomialVariety, adjust


@dataclass(frozen=True)
class SelfTestResult:
    name: str
    ok: bool
    detail: str


def _adjusted(blocks):
    return adjust(TrinomialVariety(blocks))[0]


def _group(blocks):
    group = class_group_report(_adjusted(blocks), GroupMethod.BOTH).group
    return group, f"Cl = {group}"


def _iterate(blocks):
    triples = iterate_cox_rings(_adjusted(blocks)).triples
    return triples, " -> ".join(str(t) for t in reversed(triples))


def _duval(blocks):
    diagram = duval_diagram(_adjusted(blocks))
    return diagram.verified, f"{diagram.x_triple} -> {diagram.xprime_triple}"


def _half_factorial(blocks):
    return predicates(_adjusted(blocks)).half_factorial, "quadric has class group of order 2"


def _type1(blocks):
    adjusted = adjust_type1(Type1Variety(blocks))
    group = class_group_type1(adjusted)
    # The lift's report runs for its cross-checks, as in `type1-classgroup`.
    class_group_report(adjust(lift_to_type2(adjusted))[0], GroupMethod.FORMULA)
    return group, str(group) if group is NOT_FINITELY_GENERATED else f"Cl = {group}"


# (name, compute, blocks, expected): compute(blocks) gives (value, detail).
GOLDEN_CASES = (
    ("hypersurface-z", _group, [[4], [2], [3, 2]], FgAbelianGroup(1, ())),
    ("hypersurface-z-x-z3", _group, [[4], [2], [3, 3]], FgAbelianGroup(1, (3,))),
    ("hypersurface-z2-x-z-squared", _group, [[2, 4], [2], [2, 6]], FgAbelianGroup(2, (2,))),
    ("quadric-z2", _group, [[2], [2], [2]], FgAbelianGroup(0, (2,))),
    ("table-row-i", _group, [[4], [3], [2, 2]], FgAbelianGroup(0, (3,))),
    ("table-row-ii", _group, [[3], [3], [2, 2]], FgAbelianGroup(2, (2, 2))),
    ("table-row-iii", _group, [[6], [4], [1, 1]], FgAbelianGroup(1, ())),
    ("table-row-iv", _group, [[3], [2], [2]], FgAbelianGroup(0, (3,))),
    ("table-row-v", _group, [[4], [2], [2]], FgAbelianGroup(0, (4,))),
    ("chain-e6", _iterate, [[4], [3], [2]], ((4, 3, 2), (3, 3, 2), (2, 2, 2), (1, 1, 1))),
    ("chain-e8", _iterate, [[5], [3], [2]], ((5, 3, 2),)),
    ("chain-torus-step", _iterate, [[6], [4], [1, 1]], ((6, 4, 1), (3, 2, 1))),
    ("duval-e6", _duval, [[4], [3], [2]], True),
    ("duval-a-family", _duval, [[2], [2], [2, 2]], True),
    ("type1-plane-curve", _type1, [[2], [2]], FgAbelianGroup(0, ())),
    ("type1-rank-one", _type1, [[2], [1, 1]], FgAbelianGroup(1, ())),
    ("type1-not-fg", _type1, [[3], [3]], NOT_FINITELY_GENERATED),
    ("half-factorial-quadric", _half_factorial, [[2], [2], [2]], True),
)


def run_selftest() -> list[SelfTestResult]:
    """Evaluate every golden case; failures are collected, not raised."""
    results = []
    for name, compute, blocks, expected in GOLDEN_CASES:
        try:
            value, detail = compute(blocks)
            if value != expected:
                raise AssertionError(f"got {value}, expected {expected}")
            results.append(SelfTestResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report any failure per case
            results.append(SelfTestResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
