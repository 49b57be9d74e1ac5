"""The public surface of the package, pinned so that changes to it are
deliberate, and the README's quick start, run as written."""

import contextlib
import io
import re
from pathlib import Path

import tricl

README = Path(__file__).resolve().parents[1] / "README.md"

# `__all__` lists every public name bound in the package, its submodules too.
PUBLIC_NAMES = [
    "AdjustmentRecord",
    "BlockInvariants",
    "ClassGroupPredicates",
    "ClassGroupReport",
    "DuplicateThetaError",
    "DuvalDiagram",
    "EmptyBlockError",
    "FactorialInputError",
    "FgAbelianGroup",
    "FreeVariablesPresentError",
    "GroupMethod",
    "IntMatrix",
    "InvalidVarietyError",
    "IsolatedSingularityCase",
    "IsolatedSingularityReport",
    "IterationChain",
    "IterationNotAdmittedError",
    "IterationStep",
    "MAX_N_PRIME",
    "NOT_FINITELY_GENERATED",
    "NonPositiveExponentError",
    "NotAdjustedError",
    "NotFinitelyGenerated",
    "NotHyperplatonicError",
    "NotRationalError",
    "OracleMismatchError",
    "PlatonicTriple",
    "RationalityClass",
    "RationalityKind",
    "ResourceLimitError",
    "SmithData",
    "TRIVIAL_GROUP",
    "TriclError",
    "TrinomialVariety",
    "Type1Variety",
    "adjust",
    "adjust_type1",
    "basic_platonic_triple",
    "block_invariants",
    "class_group_formula",
    "class_group_report",
    "class_group_snf",
    "class_group_type1",
    "classgroup",
    "cokernel",
    "compulsory_torsion",
    "coxring",
    "dimension",
    "duval_diagram",
    "duval_surface",
    "errors",
    "exactlinalg",
    "grading_matrix",
    "is_adjusted",
    "is_hyperplatonic",
    "isolated_singularity_report",
    "iterate_cox_rings",
    "lift_to_type2",
    "n_tilde",
    "p1_matrix",
    "predicates",
    "rationality_class",
    "render_relations",
    "smith_invariants",
    "total_coordinate_space",
    "type1",
    "type1_n_tilde",
    "variety",
]


def test_public_names_are_pinned():
    assert sorted(tricl.__all__) == PUBLIC_NAMES


def test_readme_quick_start_prints_its_comments():
    """Each `print` line of the README's `python` block prints exactly the
    text of its trailing `# ...` comment."""
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = []
    for line in code.splitlines():
        if line.startswith("print("):
            _, _, comment = line.partition("  # ")
            assert comment, line
            expected.append(comment)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected
