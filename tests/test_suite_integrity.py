"""Full-suite integrity sweep: all 156 problems, both languages.

Checks the three contracts every experiment relies on (reference passes its
golden testbench; syntax mutations break the compile; functional mutations
compile but fail the testbench). Takes ~1 minute; set
``REPRO_SKIP_FULL_VALIDATION=1`` to skip during quick development loops.

A second, always-on check covers the QA generator the same way: within a
bounded seed range it must emit every grammar op kind and every spec shape,
so a regression that silently stops generating (say) ``sra`` or memory
shapes fails the suite instead of quietly shrinking fuzz coverage.
"""

import os

import pytest

from repro.designs.mutations import MutationError, apply_mutation
from repro.eda.toolchain import Language
from repro.evalsuite.suite import build_suite
from repro.evalsuite.validate import validate_suite
from repro.qa.grammar import ALL_OP_KINDS
from repro.qa.spec import SPEC_SHAPES, generate_spec, spec_op_kinds, spec_shape

full_validation = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_FULL_VALIDATION") == "1",
    reason="full suite validation disabled via REPRO_SKIP_FULL_VALIDATION",
)

# seed 0 saturates all op kinds and shapes by index 21; the margin keeps the
# check stable under future generator-weight tuning without hiding a real
# coverage collapse.
SATURATION_SEED = 0
SATURATION_PROGRAMS = 64


@full_validation
def test_entire_suite_validates_in_both_languages():
    suite = build_suite()
    failures = validate_suite(suite.problems)
    details = "\n\n".join(
        f"{r.pid} [{r.language.value}]:\n" + "\n".join(r.issues)
        for r in failures
    )
    assert not failures, details


def test_every_syntax_mutation_applies_after_every_functional_one():
    """A model with both defects gets both, whichever pair it draws.

    The synthetic LLM applies the functional defect first and silently drops
    a syntax defect whose anchor the functional edit destroyed; pass@k plans
    draw any pair, so every pair must compose.
    """
    broken = []
    for problem in build_suite().problems:
        for language in Language:
            reference = problem.reference[language]
            for functional in problem.functional_mutations[language]:
                mutated = apply_mutation(reference, functional)
                for syntax in problem.syntax_mutations[language]:
                    try:
                        apply_mutation(mutated, syntax)
                    except MutationError:
                        broken.append(
                            f"{problem.pid} [{language.value}]: "
                            f"{functional.description!r} then "
                            f"{syntax.description!r}"
                        )
    assert not broken, "\n".join(broken)


def test_generator_saturates_ops_and_shapes():
    """A bounded campaign exercises the whole grammar and every shape."""
    seen_ops: set[str] = set()
    seen_shapes: set[str] = set()
    for index in range(SATURATION_PROGRAMS):
        spec = generate_spec(SATURATION_SEED, index)
        seen_ops |= spec_op_kinds(spec)
        seen_shapes.add(spec_shape(spec))
    missing_ops = set(ALL_OP_KINDS) - seen_ops
    missing_shapes = set(SPEC_SHAPES) - seen_shapes
    assert not missing_ops, (
        f"{SATURATION_PROGRAMS} programs at seed {SATURATION_SEED} never "
        f"emitted op kind(s): {sorted(missing_ops)}"
    )
    assert not missing_shapes, (
        f"{SATURATION_PROGRAMS} programs at seed {SATURATION_SEED} never "
        f"emitted spec shape(s): {sorted(missing_shapes)}"
    )
    # and nothing escapes the closed vocabulary in the other direction
    assert seen_ops <= set(ALL_OP_KINDS)
    assert seen_shapes <= set(SPEC_SHAPES)
