import sys

import pytest

# Constructed integers routinely pass CPython's 4300-digit conversion guard.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts survive output capture.
ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_line("")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


_KERNEL_LOCALS = ("b", "c", "k", "pk", "Z", "cres")


@pytest.fixture
def kernel_steps(monkeypatch):
    """Every kernel step of every chain the test runs, as (p, J, before,
    after): the chain's (b, c, k, pk, Z, cres) at the yield of the state
    the step leaves and at the yield of the state it makes.

    The kernel is inline in engine._chain, so no function call marks a
    step; the spy wraps each chain and reads the generator's locals. A
    chain in its kernel loop (Z bound) steps its current state exactly
    when it is resumed with a falsy send, so no step is missed. Steps of
    a residue block (budgets of _BLOCK_BUDGET or more), taken while the
    chain's base local holds the block's first state, are not exact steps
    and are not recorded."""
    import padiccf.engine as engine

    steps, real = [], engine._chain

    def spy(alpha, flavor, budget=0):
        gen = real(alpha, flavor, budget)
        J = len(engine._digit_powers(alpha.p)) - 1
        out = next(gen)
        while True:
            sent = yield out
            loc = gen.gi_frame.f_locals
            if sent or "Z" not in loc or loc["base"] is not None:
                out = gen.send(sent)
                continue
            before = tuple(loc[name] for name in _KERNEL_LOCALS)
            out = gen.send(sent)
            loc = gen.gi_frame.f_locals
            if loc["base"] is None:
                after = tuple(loc[name] for name in _KERNEL_LOCALS)
                steps.append((alpha.p, J, before, after))

    monkeypatch.setattr(engine, "_chain", spy)
    return steps
