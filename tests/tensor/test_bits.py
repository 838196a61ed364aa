"""``tests/bits.py`` in-process: the digests themselves are host-specific
(BLAS low bits) and are compared across checkouts by hand, but within one run
every execution mode of a case must print the same one."""

import collections

import pytest

from .. import bits

pytestmark = pytest.mark.usefixtures("optimized_engine")


def test_every_execution_mode_of_a_case_prints_one_digest():
    """Per conv case (every form x ``dw`` form x stride x N) and per variant
    of the ops with planned buffers and of the max-pool (x N): the step run
    eagerly, on the capturing step, and replayed with the planner on and
    off; and QUICK ResNet-32 and VGG-11 PruneTrain, eager and compiled.  The
    arena layouts are pinned by value in ``test_plan_builder.py``."""
    cases = collections.defaultdict(dict)
    for name, value in bits.lines(("conv", "ops", "prunetrain")):
        case, leg = name.rsplit("/", 1)
        cases[case][leg] = value
    assert len(cases) == (len(bits.CASES) + len(bits.OP_CASES)) \
        * len(bits.BATCHES) + 2
    for case, legs in cases.items():
        kernel = legs.pop("kernel", None)
        assert (kernel is not None) == case.startswith("conv/"), case
        want = {"eager", "compiled"} if case.startswith("prunetrain") \
            else {"eager", "captured", "planned", "unplanned"}
        assert set(legs) == want, case
        assert len(set(legs.values())) == 1, (case, legs)


def test_serve_replies_do_not_depend_on_the_batch():
    """Each served model replies to 16 requests sent one at a time with the
    bytes it replies to them as one group."""
    lines = dict(bits.lines(("serve",)))
    assert len(lines) == 2 * len(bits.SERVED)
    for name in bits.SERVED:
        assert lines[f"serve/{name}/b1"] == lines[f"serve/{name}/b16"], name
