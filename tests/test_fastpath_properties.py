"""Property suite: the compiled fast path is invisible to random programs.

Hypothesis generates whole control-flow graphs (the same structured
generator as :mod:`tests.test_fuzz_programs`) and checks the threaded-code
interpreter is observationally identical to the baseline ``step_op`` loop
on every registered ISA: same outputs, same step counts, same final
architectural checkpoint — including partial runs cut off at a random
``max_steps``, which forces the mid-block landing paths.

Seeds are pinned the same way as the fuzz suite: override with
``REPRO_FUZZ_SEED=<seed>`` to explore, keep the default for CI.
"""

import pytest

from hypothesis import given, note, seed, settings, strategies as st

from repro.core.api import build, run_functional
from tests.test_fuzz_programs import FUZZ_SEED, block


def _assert_compiled_invisible(source, max_steps=500_000):
    result = build(source)
    for label, binary in result.all().items():
        base = run_functional(binary, max_steps=max_steps, compiled=False)
        fast = run_functional(binary, max_steps=max_steps, compiled=True)
        assert fast.output == base.output, label
        assert fast.run_result.steps == base.run_result.steps, label


@seed(FUZZ_SEED)
@settings(max_examples=15, deadline=None)
@given(block(), st.integers(min_value=1, max_value=5))
def test_compiled_matches_baseline_on_random_cfgs(body, lim):
    note(f"REPRO_FUZZ_SEED={FUZZ_SEED}")
    source = f"""
    int buf[8];
    int helper(int x) {{ return x * 3 - 1; }}
    int main() {{
        int acc = 1;
        int tmp = 0;
        int lim = {lim};
        for (int i = 0; i < lim + 2; i++) {{
            {body}
        }}
        __out(acc);
        __out(buf[2]); __out(buf[5]);
        __out(helper(acc & 127));
        return 0;
    }}
    """
    _assert_compiled_invisible(source)


@pytest.fixture(scope="module")
def partial_run_binaries():
    source = """
    int buf[8];
    int main() {
        int acc = 1;
        int tmp = 0;
        for (int i = 0; i < 24; i++) {
            if ((acc ^ i) & 1) { acc += buf[i & 7] + 3; }
            else { buf[i & 7] = acc - i; tmp += 2; }
            while (tmp > 0) { acc += tmp & 5; tmp -= 2; }
        }
        __out(acc);
        return 0;
    }
    """
    return build(source).all()


@seed(FUZZ_SEED)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4000))
def test_partial_runs_stop_on_the_same_instruction(partial_run_binaries,
                                                   max_steps):
    # Random cut points land mid-block; the compiled driver must finish
    # the block through step_op and leave bit-identical state there.
    for label, binary in partial_run_binaries.items():
        base = binary.interpreter(compiled=False)
        fast = binary.interpreter(compiled=True)
        rb = base.run(max_steps=max_steps)
        rf = fast.run(max_steps=max_steps)
        assert rf.steps == rb.steps, label
        assert rf.status == rb.status, label
        assert fast.checkpoint() == base.checkpoint(), (label, max_steps)
