import dataclasses
import gc
import hashlib
import importlib
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import padiccf
from padiccf import (
    QuadIrr,
    convergents,
    eval_finite,
    expand,
    expand_rational,
    normalize,
    periodic_limit,
    valuation_audit,
)
from padiccf.core import INF, LaurentInt, split_p
from padiccf.corpus import (
    random_digits,
    random_periodic,
    random_quad,
    random_rational,
    random_trace_zero,
)
from padiccf.engine import (
    BROWKIN,
    DEFAULT_MAX_STEPS,
    FINITE,
    OPEN,
    PERIODIC,
    RUBAN,
    Expansion,
    _is_square,
    _window_residue,
    first_reexpansion,
    parse_quotient_list,
    quad_distance_valuation,
)

from oracles import (
    convergents_brute,
    eval_cf_brute,
    hensel_brute,
    in_digit_window,
    newton_sqrt_mod,
    rational_expand_brute,
    step_brute,
    surd_expand_brute,
    surd_valuation_brute,
    vp_brute,
)

engine_module = importlib.import_module("padiccf.engine")
analysis_module = importlib.import_module("padiccf.analysis")
corpus_module = importlib.import_module("padiccf.corpus")
construct_module = importlib.import_module("padiccf.construct")

# The classical period-12 value over p=5 and its complete digit list.
PERIOD12_STATE = QuadIrr(5, 19, -13, 6, 1, 2)
PERIOD12 = [
    "4/5", "-11/5", "-3/5", "-4/25", "274/125", "-4/25",
    "-3/5", "-11/5", "4/5", "1/5", "24/25", "1/5",
]

# First 14 digits of (8+sqrt(89))/5 over p=5, which never closes up.
SQRT89_STATE = QuadIrr(5, 89, 8, 1, 1, 3)
SQRT89_PREFIX = [
    "-9/5", "-2/5", "-59/25", "2/5", "-9/5", "23/25", "3/5",
    "1/5", "51/25", "8/5", "2/5", "-7/5", "-12/5", "6/5",
]


# Construction seeds: the paper's l = 353 and a period-16 seed whose middle
# digit has k ~ omega (7,661 at h = 0, 28,685 at h = 2).
SEED_353 = (LaurentInt(3, 1, 1), LaurentInt(3, 110, 4))
SEED_P16 = parse_quotient_list("-2/5, 9/5, 4/5, 6/5, 11/5, 11/5, 7/5, 12/5", 5)


def _step(alpha: QuadIrr, flavor: str = BROWKIN):
    """(digit, next state) of alpha by engine._dividing_step, the step that
    divides by c and lifts delta on any valid state: the by-hand reference
    for the chain."""
    p, Delta, branch = alpha.p, alpha.Delta, alpha.branch
    (r, e), (b, c, k) = engine_module._dividing_step(p, Delta, branch, alpha.b, alpha.c, alpha.k, flavor)
    return LaurentInt(p, r, e), QuadIrr(p, Delta, b, c, k, branch)


def _pair(alpha: QuadIrr):
    """(u, v) with alpha = u + v*sqrt(Delta), for feeding the oracle."""
    den = Fraction(alpha.p) ** alpha.k * alpha.c
    return Fraction(alpha.b) / den, 1 / den


# -- pinned expansions ---------------------------------------------------------


def test_period12_example():
    exp = expand(PERIOD12_STATE)
    assert exp.status == PERIODIC
    assert exp.preperiod == ()
    assert [str(q) for q in exp.period] == PERIOD12
    assert exp.text() == "[(" + ", ".join(PERIOD12) + ")*]"


def test_max_steps_never_compares_state_max_steps():
    # state max_steps is stepped to but not compared, so the period-12 value,
    # whose state 12 repeats state 0, needs 13 steps to close; the m + N + 1
    # budget of first_reexpansion rests on this
    short, closed = expand(PERIOD12_STATE, max_steps=12), expand(PERIOD12_STATE, max_steps=13)
    assert short.status == OPEN and [str(q) for q in short.preperiod] == PERIOD12
    assert closed.status == PERIODIC and closed.is_purely_periodic
    assert [str(q) for q in closed.period] == PERIOD12


def test_sqrt37_purely_periodic():
    alpha = normalize(3, 37, 1, 6, 0, 1)
    assert alpha == QuadIrr(3, 37, 1, 2, 1, 1)
    exp = expand(alpha)
    assert exp.is_purely_periodic
    assert exp.text() == "[(1/3)*]"


def test_sqrt89_stays_open():
    exp = expand(SQRT89_STATE, max_steps=14)
    assert exp.status == OPEN
    assert [str(q) for q in exp.preperiod] == SQRT89_PREFIX
    longer = expand(SQRT89_STATE, max_steps=500)
    assert longer.status == OPEN
    assert [str(q) for q in longer.preperiod[:14]] == SQRT89_PREFIX


def test_ruban_of_minus_one_cycles():
    exp = expand_rational(Fraction(-1), 5, RUBAN)
    assert exp.status == PERIODIC
    assert exp.text() == "[4, (24/5)*]"


def test_browkin_rational_terminates():
    exp = expand_rational(Fraction(10, 3), 3)
    assert exp.status == FINITE
    assert exp.text() == "[1/3, 1/3]"
    assert eval_finite(exp.preperiod) == Fraction(10, 3)


# -- cross-check against the rational-pair oracle -------------------------------


@pytest.mark.parametrize(
    "alpha",
    [
        PERIOD12_STATE,
        SQRT89_STATE,
        QuadIrr(3, 37, 1, 2, 1, 1),
        QuadIrr(5, -434, 0, -434, 1, 1),
        QuadIrr(7, 386, 0, -386, -1, 6),
        QuadIrr(5, 126, 0, 2, 0, 1),
    ],
)
@pytest.mark.parametrize("flavor", [BROWKIN, RUBAN])
def test_expansion_matches_oracle(alpha, flavor):
    n = 25
    u, v = _pair(alpha)
    want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, alpha.p, flavor, n)
    exp = expand(alpha, flavor, max_steps=n + 5)
    got = [exp.quotient_at(i).value for i in range(n)]
    assert got == want


def test_random_states_match_oracle():
    rng = random.Random(1105)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        alpha = random_quad(rng, p)
        flavor = rng.choice([BROWKIN, RUBAN])
        u, v = _pair(alpha)
        want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, p, flavor, 12)
        exp = expand(alpha, flavor, max_steps=20)
        got = [exp.quotient_at(i).value for i in range(12)]
        assert got == want, (alpha, flavor)


def test_rational_expansions_match_oracle():
    rng = random.Random(1106)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        x = random_rational(rng)
        digs, terminated = rational_expand_brute(x, p, BROWKIN, 400)
        assert terminated
        exp = expand_rational(x, p)
        assert exp.status == FINITE
        assert [q.value for q in exp.preperiod] == digs
    # both flavors on the corpus of edge cases, large primes and values
    statuses, steps = set(), 0
    for x, p in _rational_corpus(2323):
        for flavor in (BROWKIN, RUBAN):
            exp = expand_rational(x, p, flavor)
            n = len(exp.preperiod) + 2 * len(exp.period)
            digs, terminated = rational_expand_brute(x, p, flavor, n)
            assert terminated == (exp.status == FINITE), (x, p, flavor)
            assert [exp.quotient_at(i).value for i in range(n)] == digs, (x, p, flavor)
            statuses.add((flavor, exp.status))
            steps += n
    assert statuses == {(BROWKIN, FINITE), (RUBAN, FINITE), (RUBAN, PERIODIC)}
    assert steps > 20_000


def test_valuation_matches_oracle():
    rng = random.Random(1107)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        alpha = random_quad(rng, p)
        u, v = _pair(alpha)
        assert alpha.valuation == surd_valuation_brute(u, v, alpha.Delta, alpha.branch, p)


# -- single-step contract --------------------------------------------------------


def test_step_emits_digit_and_reciprocal_remainder():
    rng = random.Random(1108)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        alpha = random_quad(rng, p)
        for flavor in (BROWKIN, RUBAN):
            a, nxt = _step(alpha, flavor)
            assert in_digit_window(a, flavor == BROWKIN)
            # alpha - a = 1/next, so the distance valuation is -v(next)
            assert quad_distance_valuation(alpha, a.value) == -nxt.valuation
            assert nxt.valuation < 0


def _step_under_python_O(setup, call=(
        "_dividing_step(5, alpha.Delta, alpha.branch, alpha.b, alpha.c, alpha.k, 'browkin')")):
    """Run call under python -O after the lines in setup.

    The dividing step and the kernel in _chain skip QuadIrr's checks on
    the state they build, and expand_rational skips LaurentInt's on its
    digits; their own invariants must fire under -O, which strips assert
    statements. corrupt_first(name, change) wraps engine.name so that its
    first call returns change(result), and a chain that calls it then
    steps a corrupted state.
    """
    code = (
        "import sys\n"
        "import padiccf.engine as engine\n"
        "from padiccf import QuadIrr\n"
        "from padiccf.engine import _dividing_step\n"
        "def corrupt_first(name, change):\n"
        "    real, calls = getattr(engine, name), []\n"
        "    def wrapped(*args):\n"
        "        calls.append(args)\n"
        "        out = real(*args)\n"
        "        return change(out) if len(calls) == 1 else out\n"
        "    setattr(engine, name, wrapped)\n"
        + setup +
        "try:\n"
        f"    {call}\n"
        "    print(sys.flags.optimize, 'accepted')\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, exc)\n"
    )
    src = str(Path(padiccf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


def test_step_rejects_a_corrupted_state_under_python_O():
    setup = (
        "alpha = QuadIrr(5, 19, -13, 6, 1, 2)\n"
        "object.__setattr__(alpha, 'c', 7)\n"
    )
    proc = _step_under_python_O(setup)
    assert proc.stdout.strip() == "1 InvariantError c | Delta - b'**2 must propagate", proc.stderr


# (8 + sqrt(89))/5 has k = 1, so its state 1, from the dividing step, is
# the kernel's first; with the powers cut to (1, 5), J = 1 and every
# kernel state takes _wide_step's dividing route
KERNEL_CALL = "engine.expand(QuadIrr(5, 89, 8, 1, 1, 3), max_steps=5)"
ONE_DIGIT_J = "engine._digit_powers = lambda p: (1, p)\n"


def test_step_rejects_an_inexact_p_power_division_under_python_O():
    # the dividing route divides b - b' = 2 b - r c by p**k, exact because
    # the window digit has r c = 2 b mod p**(k+1); a window digit off by
    # one, from the kernel's first state on, leaves a remainder
    setup = ONE_DIGIT_J + (
        "window = engine._window_residue\n"
        "def off_by_one(out):\n"
        "    engine._window_residue = lambda *args: window(*args) + 1\n"
        "    return out\n"
        "corrupt_first('_dividing_step', off_by_one)\n"
    )
    proc = _step_under_python_O(setup, KERNEL_CALL)
    assert proc.stdout.strip() == "1 InvariantError p**k must divide b - b'", proc.stderr


# a state stepped from one with k >= 1 has b = delta mod p**(k+1); moving
# b by a multiple of c keeps c | Delta - b**2 but puts b off delta mod p
B_OFF_DELTA = (
    "def off_delta(out):\n"
    "    r, (b, c, k) = out[0], out[1][:3]\n"
    "    b = next(b for b in range(b, b + 5 * c, c) if b % 5 == 0)\n"
    "    return (r, (b, c, k)) + out[2:]\n"
)


def test_step_rejects_a_corrupted_steady_state_under_python_O():
    # the dividing route reads the digit numerator off 2b/c, which the
    # corruption of the kernel's first state makes divisible by p
    setup = ONE_DIGIT_J + B_OFF_DELTA + "corrupt_first('_dividing_step', off_delta)\n"
    proc = _step_under_python_O(setup, KERNEL_CALL)
    assert proc.stdout.strip() == "1 InvariantError digit numerator must be a p-unit", proc.stderr


def _after_a_wide_step(change):
    """A chain whose state 1 has k >= J = 12 at p = 5, so _wide_step makes
    state 2, which has k < J and the two_delta read off state 1: change
    corrupts state 2 as _wide_step hands it over, and the chain's residue
    route gets it. Returns (setup, call) for _step_under_python_O."""
    alpha = _near_digit(5, 89, 3, 1, 13)
    steps = list(expand(alpha, max_steps=3).walk())
    assert steps[1].k >= 12 > steps[2].k >= 1
    fields = ", ".join(str(getattr(alpha, f)) for f in ("p", "Delta", "b", "c", "k", "branch"))
    setup = B_OFF_DELTA + (
        "def change(out):\n"
        "    r, b, c, k, pk = out\n"
        f"    {change}\n"
        "    return r, b, c, k, pk\n"
        "corrupt_first('_wide_step', change)\n"
    )
    return setup, f"engine.expand(QuadIrr({fields}), max_steps=5)"


def test_residue_route_rejects_b_off_delta_under_python_O():
    # the residue route reads the digit numerator off 2 delta/c, a p-unit
    # whatever b is; its check v_p(W) >= k + 1 fails exactly when b !=
    # delta mod p**(k+1), so the corrupted state cannot pass
    setup, call = _after_a_wide_step("b = off_delta((r, (b, c, k)))[1][0]")
    proc = _step_under_python_O(setup, call)
    want = "1 InvariantError next complete quotient must have negative valuation"
    assert proc.stdout.strip() == want, proc.stderr


def test_residue_route_rejects_c_divisible_by_p_under_python_O():
    # the table of inverses holds 0 where p divides the index, so a c that
    # is no p-unit gives the digit numerator 0, which the p-unit check stops
    setup, call = _after_a_wide_step("c *= 5")
    proc = _step_under_python_O(setup, call)
    assert proc.stdout.strip() == "1 InvariantError digit numerator must be a p-unit", proc.stderr


def test_split_p_rejects_a_corrupt_lent_power_under_python_O():
    # split_p_power takes the number construct lends for p, with one
    # division; its checks must reject one that is no power of p, so the
    # strip falls back to the doubling and the answer stands. 2 * 3**31838
    # divides n with a quotient free of 3, and only the congruence with
    # 3**31838 mod 2**128 rejects it: taken, it would give (31838, 7)
    for lent, n, want in (("3**31838 + 1", "3**31838 * 7", ["(31838,", "7)"]),
                          ("2 * 3**31838", "3**31838 * 14", ["(31838,", "14)"])):
        setup = (
            "from padiccf.core import _HELD_POWER, split_p\n"
            f"_HELD_POWER.set((3, 31838, {lent}))\n"
        )
        proc = _step_under_python_O(setup, f"print(split_p({n}, 3))")
        assert proc.stdout.split() == want + ["1", "accepted"], proc.stderr


def test_is_square_matches_isqrt():
    # the residue sieve before isqrt from 2**64 up: every square residue of
    # 64, 63, 65 and 11 is admitted, and the answers are isqrt's
    for q, mask in zip((64, 63, 65, 11), engine_module._SQUARES):
        residues = {k * k % q for k in range(q)}
        assert {r for r in range(q) if mask >> r & 1} == residues
    rng = random.Random(23)
    ks = [0, 1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 3**41, 10**30]
    ks += [rng.getrandbits(rng.randrange(1, 50000)) for _ in range(150)]
    values = [0, 1, -1, -4, 2**64, 2**64 - 1, 2**64 + 1]
    values += [k * k + d for k in ks for d in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(1, 100000)) for _ in range(300)]
    squares = 0
    for n in values:
        want = n >= 0 and isqrt(n) ** 2 == n
        assert _is_square(n) == want, n
        squares += want
    assert squares >= 150


def test_stepped_states_carry_the_root_in_b():
    # a state stepped from one with k >= 1 has b = delta mod p**(k+1), the
    # fact that lets expand skip the Hensel lift on it; first states with
    # k <= 0 or b != branch mod p are drawn too, and every digit stream
    # must still match the rational-pair oracle
    rng = random.Random(1212)
    checked, first_kinds = 0, set()
    for i in range(80):
        p = rng.choice([3, 5, 7])
        alpha = random_quad(rng, p) if i % 2 else random_trace_zero(rng, p)
        first_kinds.add((alpha.k <= 0, (alpha.b - alpha.branch) % p != 0))
        u, v = _pair(alpha)
        for flavor in (BROWKIN, RUBAN):
            exp = expand(alpha, flavor, max_steps=10)
            want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, p, flavor, 8)
            assert [exp.quotient_at(j).value for j in range(8)] == want, (alpha, flavor)
            states = list(exp.walk())
            for prev, st in zip(states, states[1:]):
                if prev.k < 1:
                    continue
                pk = p ** (st.k + 1)
                if pk <= 10**5:
                    assert (st.b - hensel_brute(st.Delta, st.branch, st.k + 1, p)) % pk == 0
                else:  # the congruences that define hensel_brute's unique root
                    assert (st.b * st.b - st.Delta) % pk == 0 and st.b % p == st.branch
                checked += 1
    assert {(False, False), (False, True), (True, True)} <= first_kinds
    assert checked > 1000


def test_expand_lifts_delta_at_most_twice(monkeypatch):
    # only state 0, and state 1 when k_0 <= 0, need a Hensel lift; every
    # expansion, first_reexpansion's included, runs engine._expand
    lifts, per_expansion = [0], []
    real_lift, real_expand = engine_module.hensel_digits, engine_module._expand

    def counting_lift(*args):
        lifts[0] += 1
        return real_lift(*args)

    def counting_expand(*args, **kwargs):
        before = lifts[0]
        exp = real_expand(*args, **kwargs)
        per_expansion.append(lifts[0] - before)
        return exp

    monkeypatch.setattr(engine_module, "hensel_digits", counting_lift)
    monkeypatch.setattr(engine_module, "_expand", counting_expand)
    opened = engine_module.expand(SQRT89_STATE, max_steps=2000)
    assert opened.status == OPEN and len(opened.preperiod) == 2000
    assert engine_module.expand(PERIOD12_STATE).status == PERIODIC
    assert len(analysis_module.ruban_nonperiodic_probe(6, 1, 5).expansion.preperiod) == 2000
    cert = construct_module.is_nice((LaurentInt(3, 1, 1), LaurentInt(3, 110, 4)))
    assert construct_module.construct(cert, 0).verified
    assert len(per_expansion) >= 4
    assert max(per_expansion) <= 2, per_expansion


def test_first_reexpansion_lifts_each_candidate_once(monkeypatch):
    # the candidate that passes the first-digit test goes on from the chain
    # step that gave that digit; every candidate starts with k >= 1, so its
    # state 0 is the only one lifted, once
    cert = construct_module.is_nice(SEED_P16)
    lifts, real_lift = [], engine_module.hensel_digits

    def spy(*args):
        lifts.append(args)
        return real_lift(*args)

    monkeypatch.setattr(engine_module, "hensel_digits", spy)
    res = construct_module.construct(cert, 12)
    assert res.verified and res.k0 >= 1
    tested = {args[:3] for args in lifts}  # (p, Delta, branch): one per candidate
    assert 1 <= len(tested) <= 2 and (5, res.m, res.branch) in tested
    assert len(lifts) == len(tested), lifts


@pytest.mark.parametrize("flavor", [BROWKIN, RUBAN])
def test_expansion_states_follow_the_dividing_update(flavor):
    # expand steps without dividing by c; every stored state, and the wrap
    # back into the cycle, must equal the dividing update of the state before
    # it, and the digits must match the rational-pair oracle
    rng = random.Random(1313)
    pinned = [PERIOD12_STATE, SQRT89_STATE, QuadIrr(7, 386, 0, -386, -1, 6),
              QuadIrr(5, 126, 0, 2, 0, 1)]
    drawn = [random_quad(rng, rng.choice([3, 5, 7])) for _ in range(30)]
    drawn += [random_trace_zero(rng, rng.choice([3, 5, 7])) for _ in range(30)]
    checked = 0
    for alpha in pinned + drawn:
        p = alpha.p
        exp = expand(alpha, flavor, max_steps=40)
        n = len(exp.quotients)
        u, v = _pair(alpha)
        want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, p, flavor, n)
        assert [q.value for q in exp.quotients] == want, (alpha, flavor)
        for i in range(n if exp.status == PERIODIC else n - 1):
            st, nxt = exp.state_at(i), exp.state_at(i + 1)
            r = exp.quotient_at(i).value * Fraction(p) ** max(st.k, 0)
            assert r.denominator == 1
            assert (nxt.b, nxt.c, nxt.k) == step_brute(st.Delta, st.b, st.c, st.k, int(r), p)
            checked += 1
    assert {-1, 0} <= {alpha.k for alpha in drawn}  # first states with k <= 0
    assert checked > 1500


def test_expand_divides_by_c_only_on_state_0(monkeypatch):
    # state 0's (Delta - b**2)/c divides by c, and so does state 1's after a
    # state 0 with k < 1; every exact kernel step with k < J makes no
    # divmod (one remainder by p**J, one exact // by a one-digit power of
    # p), and one with k >= J divmods b - b' by p**k.
    # With a budget of 2,000 steps or more a block runs from every kernel
    # state of 600 bits or more with k < J; from state i to state j it
    # divides only in its rebuild, by p**(2E + k_j), p**(2E) and p**(2E)
    # with E = k_i + ... + k_(j-1), and one the budget cuts off divides
    # nothing
    divisors = []

    def recording_divmod(x, y):
        divisors.append(y)
        return divmod(x, y)

    real_expand = engine_module.expand

    def recording_expand(*args, **kwargs):
        # records inside expand only: walk() and state_at, as the probe's
        # read of state 2, replay state 0 and divide by its c again
        with monkeypatch.context() as spy:
            spy.setattr(engine_module, "divmod", recording_divmod, raising=False)
            return real_expand(*args, **kwargs)

    monkeypatch.setattr(analysis_module, "expand", recording_expand)
    runs = [  # (budget, run)
        (2000, lambda: recording_expand(SQRT89_STATE, max_steps=2000)),
        (1999, lambda: recording_expand(SQRT89_STATE, max_steps=1999)),
        (DEFAULT_MAX_STEPS, lambda: recording_expand(PERIOD12_STATE)),
        (2000, lambda: analysis_module.ruban_nonperiodic_probe(6, 1, 5).expansion),
    ]
    pJ, J = engine_module._digit_powers(5)[-1], 12
    assert pJ == 5**J and engine_module._BLOCK_BUDGET == 2000
    counts = []
    for budget, run in runs:
        divisors.clear()
        exp = run()
        st = list(exp.walk())
        assert len(st) in (12, budget)
        stepped = st[:2] if st[0].k < 1 else st[:1]
        assert divisors[:len(stepped)] == [cur.c for cur in stepped]
        blocks_on = budget >= 2000
        K = [0]
        for cur in st:
            K.append(K[-1] + cur.k)
        i, pos, exact, rebuilt, cut = len(stepped), len(stepped), 0, 0, False
        while i < len(st):
            cur = st[i]
            if not (blocks_on and cur.k < J and cur.b.bit_length() >= engine_module._BLOCK_BITS):
                want = [] if cur.k < J else [5**cur.k]
                assert divisors[pos:pos + len(want)] == want, (i, cur.k)
                pos, i, exact = pos + len(want), i + 1, exact + 1
                continue
            if pos == len(divisors):
                cut = True  # the budget ended inside this block
                break
            d = divisors[pos]
            j = next(j for j in range(i + 1, len(st)) if d == 5 ** (2 * (K[j] - K[i]) + st[j].k))
            x = 5 ** (2 * (K[j] - K[i]))
            assert divisors[pos:pos + 3] == [d, x, x], i
            pos, i, rebuilt = pos + 3, j, rebuilt + 1
        assert pos == len(divisors)
        counts.append((exact, rebuilt, cut))
    # SQRT89 at 2,000 and 1,999 steps, PERIOD12, and the probe's 2,000 Ruban steps
    assert counts[0][1] >= 10 and counts[0][0] < 1000, counts
    assert counts[1] == (1998, 0, False) and counts[2] == (11, 0, False), counts
    assert counts[3][1] >= 20 and st[0].k < 0, counts


def test_expand_steps_only_its_first_two_states(monkeypatch):
    # the dividing step sees alpha, and state 1 only after a state 0 with
    # k < 1; every other state, replays included, goes through the kernel.
    # It takes the state as ints, so the spy rebuilds it to compare
    calls = []
    real_step = engine_module._dividing_step

    def counting_step(p, Delta, branch, b, c, k, flavor):
        calls.append(QuadIrr(p, Delta, b, c, k, branch))
        return real_step(p, Delta, branch, b, c, k, flavor)

    monkeypatch.setattr(engine_module, "_dividing_step", counting_step)
    digits, seen_state1 = 0, False
    for alpha in (SQRT89_STATE, PERIOD12_STATE, QuadIrr(7, 386, 0, -386, -1, 6),
                  QuadIrr(5, 126, 0, 2, 0, 1)) + tuple(RUBAN_PERIODIC):
        for flavor in (BROWKIN, RUBAN):
            calls.clear()
            exp = expand(alpha, flavor, max_steps=300)
            digits += len(exp.quotients)
            stepped = list(calls)
            state1 = exp.state_at(1) if alpha.k < 1 else None
            assert stepped[0] == alpha
            assert all(st == alpha or st == state1 for st in stepped), (alpha, flavor)
            seen_state1 |= state1 in stepped
    assert digits > 1000 and seen_state1


def test_kernel_runs_only_on_states_stepped_from_k_at_least_1(kernel_steps):
    # the kernel reads b as delta mod p**(k+1), which holds on a state
    # stepped from one with k >= 1; starts with k0 < 0, k0 = 0 (state 1
    # with k >= J among them) and k0 >= 1 must hand over right after the
    # first state with k >= 1, and every later state goes through the kernel
    # with Z = p**k_prev * c_prev and pk = p**k
    rng = random.Random(2525)
    values = [_near_digit(5, 89, 3, 0, 14), _near_digit(3, -80, 2, 2, 19)]
    values += [(random_quad, random_trace_zero)[i % 2](rng, (3, 5, 7, 211)[i % 4]) for i in range(40)]
    starts = set()
    for alpha in values + RUBAN_PERIODIC:
        p = alpha.p
        for flavor in (BROWKIN, RUBAN):
            kernel_steps.clear()
            exp = expand(alpha, flavor, max_steps=40)
            got = {before[:3] + before[4:5] for _, _, before, _ in kernel_steps}
            assert all(before[3] == p ** before[2] for _, _, before, _ in kernel_steps)
            states = list(exp.walk())
            want = {(st.b, st.c, st.k, p**prev.k * prev.c)
                    for prev, st in zip(states, states[1:]) if prev.k >= 1}
            assert got == want, (alpha, flavor)
            assert all(st.k >= 1 for st in states[1:])
            J = len(engine_module._digit_powers(p)) - 1
            starts.add("k0 < 0" if alpha.k < 0 else "k0 >= 1" if alpha.k >= 1
                       else "k0 = 0, k1 >= J" if states[1].k >= J else "k0 = 0")
    assert starts == {"k0 < 0", "k0 = 0", "k0 = 0, k1 >= J", "k0 >= 1"}


def _corpus_values(seed, n):
    """n seeded corpus values over p in {3, 5, 7}, first states with
    k < 0, k = 0 and k >= 1 among them, plus the pinned states."""
    rng = random.Random(seed)
    draws = (random_quad, random_trace_zero, random_periodic)
    values = [draws[i % 3](rng, (3, 5, 7)[i % 3]) for i in range(n)]
    values += [PERIOD12_STATE, SQRT89_STATE, QuadIrr(7, 386, 0, -386, -1, 6),
               QuadIrr(5, 126, 0, 2, 0, 1)] + RUBAN_PERIODIC
    assert {alpha.k for alpha in values} >= {-1, 0, 1, 2}
    return values


def _construction_expansions(hs=(0,)):
    """The re-expansions behind l = 353 at h = 0 and the period-16 seed at
    each h in hs."""
    cases = [(SEED_353, 0)] + [(SEED_P16, h) for h in hs]
    return [construct_module.construct(construct_module.is_nice(seed), h).expansion
            for seed, h in cases]


def test_emitted_digits_pass_full_validation():
    # expand builds each kernel digit without LaurentInt's strip; rebuilt
    # with it, every digit must come back field for field
    exps = [expand(alpha, flavor, max_steps=80)
            for alpha in _corpus_values(1818, 150) for flavor in (BROWKIN, RUBAN)]
    exps += _construction_expansions()
    assert {exp.k0 for exp in exps} >= {-2, -1, 0, 1}
    checked = 0
    for exp in exps:
        for d in exp.quotients:
            rebuilt = LaurentInt(d.p, d.tilde, d.e)
            assert type(d) is LaurentInt
            assert (rebuilt.tilde, rebuilt.e) == (d.tilde, d.e), (exp.alpha, d)
            checked += 1
    assert checked > 10_000


def _assert_kernel_chain_is_the_dividing_route(exp, extra=1):
    """Steps alpha by hand with the dividing step, which divides by c and
    lifts delta: its digits must be the recorded ones and its first n states the
    n that walk() yields. On a periodic expansion it goes extra states
    further, and state_at must wrap onto them. Returns the states checked."""
    walked = list(exp.walk())
    n = len(walked)
    total = n + extra if exp.status == PERIODIC else n
    chain = [exp.alpha]
    for i in range(total):  # digit i leads to state i + 1
        a, nxt = _step(chain[i], exp.flavor)
        assert a == exp.quotient_at(i), (exp.alpha, i)
        chain.append(nxt)
    assert walked == chain[:n], exp.alpha
    for i in range(n, total):
        assert exp.state_at(i) == chain[i], (exp.alpha, i)
    return chain[:total]


@pytest.mark.parametrize("flavor", [BROWKIN, RUBAN])
def test_kernel_chain_agrees_with_the_dividing_route(flavor):
    checked = sum(len(_assert_kernel_chain_is_the_dividing_route(expand(alpha, flavor, max_steps=60)))
                  for alpha in _corpus_values(1919, 90))
    assert checked > 3000


def test_kernel_chain_agrees_with_the_dividing_route_at_k_near_omega():
    exps = _construction_expansions(hs=(0, 1, 2))
    assert max(st.k for st in exps[-1].walk()) > 28_000
    for exp in exps:
        assert exp.status == PERIODIC
        _assert_kernel_chain_is_the_dividing_route(exp)


def _near_digit(p, Delta, branch, k0, K):
    """(b + delta)/p**k0 whose remainder after the digit 1/p**k0 has
    valuation at least K, so state 1 has k >= K."""
    b = (1 - newton_sqrt_mod(Delta, branch, p, k0 + K)) % p ** (k0 + K)
    return QuadIrr(p, Delta, b, 1, k0, branch)


def _kernel_routes(J, before, after):
    """The routes one kernel step took, named as in _chain's docstring;
    a residue too short is one the next step cannot read its digit off."""
    k, k1, cres1 = before[2], after[2], after[5]
    if k >= J:
        return {"k >= J"} | ({"J = 1"} if J == 1 else set())
    if k + k1 < J and cres1 is None:
        return {"residue too short"}
    return {"residue"}


def test_kernel_routes_agree_with_the_dividing_step_and_the_oracle(kernel_steps):
    # every route of the kernel, on states chosen to reach it, must give the
    # states of the dividing step and the digits of the rational-pair
    # oracle: states with k >= J = 18 (p = 3, after a k >= 1 state; the
    # p = 5 state 1 with k >= J = 12 after a k = 0 one is the dividing
    # step's), residues too short for the next digit (p = 211, J = 3), and
    # a prime above 2**15, where J = 1 and every kernel step divides
    rng = random.Random(2121)
    values = [_near_digit(5, 89, 3, 0, 14), _near_digit(5, -434, 1, 0, 13),
              _near_digit(3, 37, 1, 1, 20), _near_digit(3, -80, 2, 2, 19)]
    for p in (211, 32771):
        values += [draw(rng, p) for draw in (random_quad, random_trace_zero) for _ in range(6)]
    ks = {alpha.k for alpha in values}
    assert min(ks) < 0 and 0 in ks and max(ks) >= 2
    assert engine_module._digit_powers(32771) == (1, 32771)
    for alpha in values:
        u, v = _pair(alpha)
        for flavor in (BROWKIN, RUBAN):
            exp = expand(alpha, flavor, max_steps=12)
            _assert_kernel_chain_is_the_dividing_route(exp)
            want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, alpha.p, flavor, 8)
            assert [exp.quotient_at(i).value for i in range(8)] == want, (alpha, flavor)
    seen = set().union(*(_kernel_routes(J, before, after) for _, J, before, after in kernel_steps))
    assert {"residue", "residue too short", "k >= J", "J = 1"} <= seen
    firsts = [expand(alpha, max_steps=2).ks[1] for alpha in values[:4]]
    assert all(k1 >= K for k1, K in zip(firsts, (14, 13, 20, 19))), firsts


def test_inverse_tables_hold_every_inverse_up_to_the_cap():
    # inv[x] = x**-1 mod p**n for every n with p**n inside the table, 0 where
    # p divides x, and the table reaches the largest power up to the cap
    cap = engine_module._INVERSE_CAP
    for p in (3, 5, 7, 11, 13):
        inv, pT = engine_module._inverses(p)
        assert pT <= cap < pT * p and len(inv) == pT
        pn = p
        while pn <= pT:
            for x in range(pn):
                assert inv[x] == 0 if x % p == 0 else inv[x] % pn == pow(x, -1, pn), (p, pn, x)
            pn *= p
    assert engine_module._inverses(65537) == ((0,), 1)


def test_residue_route_past_the_table_takes_pow(monkeypatch):
    # p = 4099 is past the cap with J = 2, and p = 3 states with k >= 7
    # are past their table's 3**7: their residue digits come from pow, and
    # the chain still agrees with the dividing step and the oracle
    calls, real = [], pow

    def counting_pow(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(engine_module, "pow", counting_pow, raising=False)
    rng = random.Random(2929)
    values = [random_quad(rng, 4099) for _ in range(6)] + [_near_digit(3, 37, 1, 1, 8)]
    for alpha in values:
        u, v = _pair(alpha)
        for flavor in (BROWKIN, RUBAN):
            calls.clear()
            exp = expand(alpha, flavor, max_steps=12)
            _assert_kernel_chain_is_the_dividing_route(exp)
            want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, alpha.p, flavor, 8)
            assert [exp.quotient_at(i).value for i in range(8)] == want, (alpha, flavor)
            # the window digit's pow works mod its small den, the residue
            # route's mod a power of p past the table
            pT, p = engine_module._inverses(alpha.p)[1], alpha.p
            mods = [m for m in calls if m > 1 and split_p(m, p)[1] == 1]
            assert mods and all(m > pT for m in mods), (alpha, flavor)
    assert engine_module._digit_powers(4099) == (1, 4099, 4099**2)


def test_inverse_tables_leave_expansions_unchanged(monkeypatch):
    # with the tables cut to nothing every residue digit, in the chain and
    # in the blocks, comes from pow; the results must not move
    # (blocks from 2,000 steps; p = 211 and 65537 grow ~8 and ~16 bits a
    # step, so they stop at 300)
    rng = random.Random(3030)
    cases = []
    for p in (3, 5, 7, 11, 211, 65537):
        for j, budget in enumerate((1, 7, 60, 300, 2500, 6000)[: 6 if p < 100 else 4]):
            alpha = (random_quad, random_trace_zero)[j % 2](rng, p)
            cases += [(alpha, flavor, budget) for flavor in (BROWKIN, RUBAN)]
    got = [expand(alpha, flavor, max_steps=n) for alpha, flavor, n in cases]
    monkeypatch.setattr(engine_module, "_inverses", lambda p: ((0,), 1))
    want = [expand(alpha, flavor, max_steps=n) for alpha, flavor, n in cases]
    assert [(e.to_json(), e.text()) for e in got] == [(e.to_json(), e.text()) for e in want]
    assert sum(len(e.quotients) for e in got) > 20_000


def test_slotted_records_pickle_compare_and_hash():
    # states and digits are slotted: no instance dict, and a pickle round
    # trip (pcf search --jobs ships certificates between processes), ==
    # and hash agree with the validated constructors, for built and stepped
    # records alike
    exp = expand(PERIOD12_STATE, max_steps=40)
    states = list(exp.walk())
    records = states + list(exp.quotients) + [PERIOD12_STATE, LaurentInt(5, 50, 3)]
    for rec in records:
        assert not hasattr(rec, "__dict__")
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and hash(back) == hash(rec) and type(back) is type(rec)
        fields = dataclasses.astuple(rec)
        twin = type(rec)(*fields)
        assert twin == rec and hash(twin) == hash(rec) and dataclasses.astuple(twin) == fields
    assert pickle.loads(pickle.dumps(exp)) == exp
    assert len({*states, *(pickle.loads(pickle.dumps(st)) for st in states)}) == len(set(states))
    assert LaurentInt(5, 50, 3) == LaurentInt(5, 2, 1) != LaurentInt(5, 2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        states[0].b = 0


@pytest.mark.parametrize("k", [0, 1, 2, 40, 5000])
def test_window_residue_matches_the_inverse_route(k):
    # solving through the small denominator must give num * den**-1 mod
    # p**(k+1), centered for Browkin, for any sign and size of den
    rng = random.Random(1414 + k)
    for p in (3, 5, 7):
        pn = p ** (k + 1)
        bits = pn.bit_length()
        dens = [1, -1]
        for size in (3, 12, bits + 20):
            d = rng.getrandbits(size) | 1
            if d % p == 0:
                d += 2
            dens += [d, -d]
        assert any(d > pn for d in dens)
        for den in dens:
            for size in (0, 5, bits, 3 * bits):
                num = rng.getrandbits(size) * rng.choice((1, -1)) if size else 0
                want = num * pow(den, -1, pn) % pn
                assert _window_residue(num, den, p**k, p, RUBAN) == want
                centered = want - pn if 2 * want > pn else want
                assert _window_residue(num, den, p**k, p, BROWKIN) == centered


def test_digit_windows_along_expansion():
    exp = expand(SQRT89_STATE, max_steps=60)
    for i in range(1, 50):
        q = exp.quotient_at(i)
        assert q.e >= 1
        assert in_digit_window(q, centered=True)
        assert exp.ks[i] == q.e


# -- convergents and finite evaluation ---------------------------------------


def test_convergents_match_plain_recurrences():
    rng = random.Random(1109)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        digs = random_digits(rng, p, rng.randint(2, 8))
        tab = convergents(digs)
        A, B = convergents_brute([d.value for d in digs])
        for n in range(-1, len(digs)):
            assert tab.A_(n) == A[n + 1]
            assert tab.B_(n) == B[n + 1]
            if n >= 0:  # the n = -1 tilde seeds are the bare 1 and 0
                assert tab.Atilde_(n) == int(tab.A_(n) * Fraction(p) ** tab.Kprime(n))
                assert tab.Btilde_(n) == int(tab.B_(n) * Fraction(p) ** tab.K(n))


def test_determinant_identity():
    rng = random.Random(1110)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        digs = random_digits(rng, p, rng.randint(2, 7))
        tab = convergents(digs)
        for n in range(len(digs)):
            lhs = tab.A_(n) * tab.B_(n - 1) - tab.A_(n - 1) * tab.B_(n)
            assert lhs == (-1) ** (n + 1)
            if n >= 1:
                tilde = tab.Atilde_(n) * tab.Btilde_(n - 1) - tab.Atilde_(n - 1) * tab.Btilde_(n)
                assert tilde == (-1) ** (n + 1) * p ** (tab.K(n) + tab.Kprime(n - 1))


def test_eval_finite_is_back_substitution():
    rng = random.Random(1111)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        digs = random_digits(rng, p, rng.randint(1, 7))
        assert eval_finite(digs) == eval_cf_brute([d.value for d in digs])


def test_valuation_audit_on_pinned_states():
    for alpha in (PERIOD12_STATE, SQRT89_STATE):
        exp = expand(alpha, max_steps=40)
        audit = valuation_audit(exp)
        assert audit.ok, audit.failures


# -- periodic reconstruction ---------------------------------------------------


def test_periodic_limit_recovers_pinned_values():
    alpha = periodic_limit((), parse_quotient_list("1/3", 3), 3)
    assert alpha.value_equals(QuadIrr(3, 37, 1, 2, 1, 1))
    exp = expand(PERIOD12_STATE)
    back = periodic_limit(exp.preperiod, exp.period, 5)
    assert back.value_equals(PERIOD12_STATE)


def test_periodic_limit_round_trips_random_periodic_values():
    rng = random.Random(1112)
    for _ in range(25):
        p = rng.choice([3, 5, 7])
        alpha = random_periodic(rng, p)
        exp = expand(alpha)
        assert exp.status == PERIODIC
        back = periodic_limit(exp.preperiod, exp.period, p)
        assert back.value_equals(alpha)


@pytest.mark.parametrize("flavor,draws,max_steps", [(BROWKIN, 400, 100), (RUBAN, 2400, 60)])
def test_periodic_limit_round_trips_preperiodic_values(flavor, draws, max_steps):
    rng = random.Random(3011)
    primes_hit = set()
    for i in range(draws):
        p = (3, 5, 7, 11)[i % 4]
        alpha = random_quad(rng, p) if i % 8 < 4 else random_trace_zero(rng, p)
        exp = expand(alpha, flavor, max_steps=max_steps)
        if exp.status != PERIODIC or not exp.preperiod:
            continue
        pre, per = exp.preperiod, exp.period
        # non-minimal claims of the same stream name the same value
        for claim in ((pre, per), (pre, per * 2), (pre + per, per)):
            back = periodic_limit(*claim, p, flavor)
            assert back.value_equals(alpha), (alpha, flavor, claim)
        primes_hit.add(p)
    assert primes_hit == {3, 5, 7, 11}


def test_periodic_limit_builds_one_convergent_table(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return convergents(*args, **kwargs)

    monkeypatch.setattr(engine_module, "convergents", counting)
    exp = expand(QuadIrr(5, -434, 0, -434, 1, 1))
    assert exp.preperiod and exp.period
    back = periodic_limit(exp.preperiod, exp.period, 5)
    assert back.value_equals(QuadIrr(5, -434, 0, -434, 1, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("status", [OPEN, PERIODIC])
def test_reexpansion_needs_a_state_repeat_where_the_claim_says(monkeypatch, status):
    # fakes agreeing with the claim [(x)*] on its first m + 2N + 2 = 4 digits:
    # an open stream, and a period (x, x, x, x, y) whose length does not divide 1
    alpha = QuadIrr(3, 37, 1, 2, 1, 1)
    x = expand(alpha).period[0]
    assert first_reexpansion([alpha], (), (x,))
    if status == OPEN:
        fake = Expansion(3, BROWKIN, OPEN, (x,) * 4, (), 1, alpha)
    else:
        fake = Expansion(3, BROWKIN, PERIODIC, (), (x,) * 4 + (LaurentInt(3, -1, 1),), 1, alpha)
    assert [fake.quotient_at(i) for i in range(4)] == [x] * 4
    monkeypatch.setattr(engine_module, "_expand", lambda *args, **kwargs: fake)
    assert first_reexpansion([alpha], (), (x,)) is None


def test_periodic_limit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        periodic_limit((), (), 5)
    # [4, (24/5)*] sums to the rational -1, not a quadratic irrational
    pre = parse_quotient_list("4", 5)
    per = parse_quotient_list("24/5", 5)
    with pytest.raises(ValueError, match="rational"):
        periodic_limit(pre, per, 5, RUBAN)


# -- k_n read off the digits -------------------------------------------------------


def test_ks_are_the_valuations_of_the_stored_states():
    rng = random.Random(4040)
    for i in range(300):
        p = rng.choice([3, 5, 7, 11])
        flavor = rng.choice([BROWKIN, RUBAN])
        # random_trace_zero also draws k < 0, where k_0 is not a digit exponent
        alpha = random_quad(rng, p) if i % 2 else random_trace_zero(rng, p)
        exp = expand(alpha, flavor, max_steps=40)
        states = list(exp.walk())
        assert len(exp.ks) == len(states) == len(exp.quotients)
        for n, st in enumerate(states):
            assert exp.ks[n] == -st.valuation, (alpha, flavor, n)


def test_rational_ks_are_the_valuations_of_the_complete_quotients():
    rng = random.Random(4041)
    samples = [(Fraction(0), 5, BROWKIN), (Fraction(0), 5, RUBAN), (Fraction(-1), 5, RUBAN)]
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11])
        x = random_rational(rng) * Fraction(p) ** rng.randint(-2, 3)
        samples.append((x, p, rng.choice([BROWKIN, RUBAN])))
    for x, p, flavor in samples:
        exp = expand_rational(x, p, flavor, max_steps=60)
        assert len(exp.ks) == len(exp.quotients)
        cur = x
        for n, a in enumerate(exp.quotients):
            v = vp_brute(cur, p)
            assert exp.ks[n] == (0 if v == INF else -v), (x, p, flavor, n)
            if cur == a.value:
                break
            cur = 1 / (cur - a.value)


def test_expand_rational_rejects_a_zero_step_budget():
    with pytest.raises(ValueError, match="max_steps"):
        expand_rational(Fraction(10, 3), 3, max_steps=0)


# -- rationals on plain ints ----------------------------------------------------


def _rational_corpus(seed):
    """(x, p) over p in {3, 5, 7, 11, 1000003}: 0, integers, p dividing the
    numerator or the denominator, both signs, seeded draws and two
    ~1,000-digit rationals per prime."""
    rng = random.Random(seed)
    cases = []
    for p in (3, 5, 7, 11, 1000003):
        xs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(p), Fraction(-(p**3)),
              Fraction(7 * p**2, 2), Fraction(1, p), Fraction(-5, 2 * p**4)]
        xs += [random_rational(rng) * Fraction(p) ** rng.randint(-3, 3) for _ in range(24)]
        xs += [Fraction(rng.getrandbits(3322) * sign, rng.getrandbits(3322) | 1) for sign in (1, -1)]
        cases += [(x, p) for x in xs]
    return cases


def _fraction_reference(x, p, flavor, max_steps):
    """expand_rational as it ran on Fraction arithmetic: the digit of a
    complete quotient is its numerator over its p-free denominator mod
    p**(k+1), and the next quotient is 1/(x - a); a Ruban quotient seen
    before closes the cycle, and a spent budget leaves the expansion open."""
    x = Fraction(x)
    k0 = 0 if x == 0 else -vp_brute(x, p)
    seen, quots, cur = {}, [], x
    for i in range(max_steps):
        if flavor == RUBAN:
            if cur in seen:
                j = seen[cur]
                return Expansion(p, flavor, PERIODIC, tuple(quots[:j]), tuple(quots[j:]), k0, x)
            seen[cur] = i
        k = max(0, -vp_brute(cur, p)) if cur else 0
        pn = p ** (k + 1)
        r = cur.numerator * pow(cur.denominator // p**k, -1, pn) % pn
        if flavor == BROWKIN and 2 * r > pn:
            r -= pn
        a = LaurentInt(p, r, k)
        quots.append(a)
        if cur == a.value:
            return Expansion(p, flavor, FINITE, tuple(quots), (), k0, x)
        cur = 1 / (cur - a.value)
    return Expansion(p, flavor, OPEN, tuple(quots), (), k0, x)


def test_rational_expansions_equal_the_fraction_reference(monkeypatch):
    # the state is a pair of plain ints read once from Fraction(x), so the
    # expansions come out with Fraction arithmetic refused
    cases = [(x, p, flavor, (1, 2, 5, DEFAULT_MAX_STEPS)[i % 4])
             for i, (x, p) in enumerate(_rational_corpus(2424)) for flavor in (BROWKIN, RUBAN)]
    want = [_fraction_reference(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("expand_rational did Fraction arithmetic")

    with monkeypatch.context() as patched:
        for name in ("__sub__", "__truediv__", "__rtruediv__"):
            patched.setattr(Fraction, name, refuse)
        got = [expand_rational(x, p, flavor, max_steps=n) for x, p, flavor, n in cases]
    for case, exp, ref in zip(cases, got, want):
        assert exp.to_json() == ref.to_json(), case
        assert exp.text() == ref.text()
        assert exp == ref
    statuses = {(case[2], exp.status) for case, exp in zip(cases, got)}
    assert statuses == {(f, s) for f in (BROWKIN, RUBAN) for s in (FINITE, OPEN)} | {(RUBAN, PERIODIC)}
    assert sum(len(exp.quotients) for exp in got) > 5_000


def test_browkin_rational_on_a_short_budget_is_open():
    # a centered expansion always terminates, but not within any budget:
    # cut short, it reports the digits it has, as an open expansion
    x = Fraction(1234567, 89)
    full = expand_rational(x, 5)
    assert full.status == FINITE and len(full.preperiod) == 12
    for n in (1, 2, 11):
        short = expand_rational(x, 5, max_steps=n)
        assert short.status == OPEN and short.period == ()
        assert short.preperiod == full.preperiod[:n]
        assert short.text() == "[" + ", ".join(str(q) for q in full.preperiod[:n]) + ", ...]"
    assert expand_rational(x, 5, max_steps=12) == full


def test_rational_digit_off_by_one_raises_under_python_O():
    # the first digit of 1234567/89 over 5 has k = 0; a digit numerator off
    # by one leaves a remainder u - r d that p does not divide
    setup = (
        "from fractions import Fraction\n"
        "import padiccf.engine as engine\n"
        "real = engine._window_residue\n"
        "engine._window_residue = lambda *args: real(*args) + 1\n"
    )
    proc = _step_under_python_O(setup, "engine.expand_rational(Fraction(1234567, 89), 5)")
    want = "1 InvariantError the digit must leave a remainder of positive valuation"
    assert proc.stdout.strip() == want, proc.stderr


# -- normalization ----------------------------------------------------------------


def test_normalize_pinned_shapes():
    assert normalize(3, 37, 1, 6, 0, 1) == QuadIrr(3, 37, 1, 2, 1, 1)
    # square p-power inside Delta moves into k: 5*sqrt(19) = sqrt(475)
    assert normalize(5, 475, 0, 1, 0, 2) == QuadIrr(5, 19, 0, 1, -1, 2)
    # c not dividing Delta - b**2 forces the (b c, c^2 Delta, c^2) rescale
    got = normalize(5, 21, 1, 4, 0, 1)
    assert got.c != 0 and (got.Delta - got.b**2) % got.c == 0


def test_normalize_rejects_values_outside_qp():
    outside = r"not in Q_5 \(odd valuation or non-residue unit part\)"
    with pytest.raises(ValueError, match=outside):
        normalize(5, 10, 0, 1, 0, 1)  # odd p-valuation in Delta
    with pytest.raises(ValueError, match=outside):
        normalize(5, 2, 0, 1, 0, 1)  # nonresidue unit part
    with pytest.raises(ValueError):
        normalize(5, 16, 1, 1, 0, 1)  # square Delta
    with pytest.raises(ValueError):
        normalize(5, 475, 1, 1, 0, 2)  # unit b against p-divisible sqrt


def test_normalize_preserves_value():
    rng = random.Random(1113)
    done = 0
    while done < 40:
        p = rng.choice([3, 5, 7])
        raw = random_quad(rng, p)
        c = rng.choice([1, -1, 2, 3, 7, 12]) * raw.c
        k = raw.k + rng.randint(-1, 1)
        if c % p == 0:
            continue
        alpha = normalize(p, raw.Delta, raw.b, c, k, raw.branch)
        assert (alpha.Delta - alpha.b**2) % alpha.c == 0
        assert alpha.Delta % p != 0 and alpha.c % p != 0
        u, v = Fraction(raw.b), Fraction(1)
        den = Fraction(p) ** k * c
        want = surd_expand_brute(u / den, v / den, raw.Delta, raw.branch, p, BROWKIN, 8)
        exp = expand(alpha, max_steps=12)
        assert [exp.quotient_at(i).value for i in range(8)] == want
        done += 1


def test_quotient_list_parsing_errors():
    with pytest.raises(ValueError):
        parse_quotient_list("", 5)
    with pytest.raises(ValueError):
        parse_quotient_list("1/6", 5)


def test_state_accessors_are_consistent():
    exp = expand(PERIOD12_STATE)
    for i in range(30):
        st = exp.state_at(i)
        assert -st.valuation == (exp.k0 if i == 0 else exp.quotient_at(i).e)
        a, nxt = _step(st)
        assert a == exp.quotient_at(i)
        assert nxt.value_equals(exp.state_at(i + 1))


def test_quotient_at_rejects_a_negative_index():
    # a negative index names no digit; read as a list index it would give
    # a digit from the end
    opened = expand(SQRT89_STATE, max_steps=14)
    periodic = expand(PERIOD12_STATE)
    finite = expand_rational(Fraction(1234567, 89), 5)
    assert (opened.status, periodic.status, finite.status) == (OPEN, PERIODIC, FINITE)
    for exp in (opened, periodic, finite):
        n = len(exp.quotients)
        assert exp.quotient_at(n - 1) == exp.quotients[-1]
        for i in (-1, -2, -n, -n - 1):
            with pytest.raises(IndexError):
                exp.quotient_at(i)
    assert periodic.quotient_at(12) == periodic.quotient_at(0)
    for exp in (opened, finite):
        with pytest.raises(IndexError):
            exp.quotient_at(len(exp.quotients))


# -- one state held, the rest replayed ------------------------------------------


# Ruban cycles are rare among corpus draws: two preperiodic values (one with
# k0 < 0) and two purely periodic tails.
RUBAN_PERIODIC = [QuadIrr(5, 136, 15, 1, 1, 1), QuadIrr(7, 1628, 0, -407, -2, 5),
                  QuadIrr(3, 835, 5, 10, 2, 2), QuadIrr(7, 379, 6, 1, 1, 6)]


def test_collisions_never_make_a_period(monkeypatch):
    # with every fingerprint equal, each state is checked by replaying all
    # states before it; only an exact triple repeat may end the expansion,
    # so the result must be the one of the unpatched run, and the oracle's
    rng = random.Random(1515)
    values = [(random_periodic, random_quad, random_trace_zero)[i % 3](rng, (3, 5, 7)[i % 3])
              for i in range(100)]
    cases = []
    for alpha in values + RUBAN_PERIODIC:
        for flavor in (BROWKIN, RUBAN):
            cases.append((alpha, flavor, expand(alpha, flavor, max_steps=60)))
    with monkeypatch.context() as patched:
        patched.setattr(engine_module, "hash", lambda key: 0, raising=False)
        got = [expand(alpha, flavor, max_steps=60) for alpha, flavor, _ in cases]
    kinds = set()
    for (alpha, flavor, plain), exp in zip(cases, got):
        assert exp == plain, (alpha, flavor)
        n = len(exp.preperiod) + 2 * len(exp.period) if exp.status == PERIODIC else 60
        u, v = _pair(alpha)
        want = surd_expand_brute(u, v, alpha.Delta, alpha.branch, alpha.p, flavor, n)
        assert [exp.quotient_at(j).value for j in range(n)] == want, (alpha, flavor)
        kinds.add((flavor, exp.status, exp.is_purely_periodic))
    assert {(f, s, pure) for f in (BROWKIN, RUBAN) for s, pure in
            ((OPEN, False), (PERIODIC, False), (PERIODIC, True))} <= kinds
    assert min(alpha.k for alpha, _, _ in cases) < 0


def _block_spy(monkeypatch):
    """Counts of the blocks _chain runs: started, rebuilt at their end (at
    a state whose W is 0 mod p**J among them: wide), cut off by the end of
    the expansion, and ended before any step.

    A block is a mode of _chain's kernel loop, so no call marks it: the
    spy wraps each chain and reads its locals after every resume. Each
    block computes its own M = p**N, so a new M object means a block
    started, at most one per resume (a block's first step is followed by a
    yield); if base, which holds the block's first state while it runs, is
    None again and P1 still 0, it ended before any step. _rebuild, wrapped
    too, ends a block that took a step; a rebuild for a send(True), with
    the chain's ask local set, is not counted."""
    counts = {"started": 0, "rebuilt": 0, "wide": 0, "cut": 0, "no step": 0}
    real_chain, real_rebuild = engine_module._chain, engine_module._rebuild

    def rebuild(*args):
        loc = sys._getframe(1).f_locals
        if not loc["ask"]:
            counts["rebuilt"] += 1
            counts["wide"] += not loc["rho"]
        return real_rebuild(*args)

    def chain(alpha, flavor, budget=0):
        gen = real_chain(alpha, flavor, budget)
        out, M = next(gen), None
        while True:
            try:
                sent = yield out
            except GeneratorExit:
                counts["cut"] += gen.gi_frame.f_locals.get("base") is not None
                gen.close()
                raise
            out = gen.send(sent)
            loc = gen.gi_frame.f_locals
            if loc.get("M", M) is not M:
                M = loc["M"]
                counts["started"] += 1
                counts["no step"] += loc["base"] is None and not loc["P1"]

    monkeypatch.setattr(engine_module, "_chain", chain)
    monkeypatch.setattr(engine_module, "_rebuild", rebuild)
    return counts


def _with_and_without_blocks(monkeypatch, cases):
    """(to_json(), text()) of each (alpha, flavor, max_steps) case with
    blocks, and with them off (as for a budget below _BLOCK_BUDGET)."""
    got = [expand(alpha, flavor, max_steps=n) for alpha, flavor, n in cases]
    with monkeypatch.context() as off:
        off.setattr(engine_module, "_BLOCK_BUDGET", 10**9)
        want = [expand(alpha, flavor, max_steps=n) for alpha, flavor, n in cases]
    return [(e.to_json(), e.text()) for e in got], [(e.to_json(), e.text()) for e in want]


def test_blocks_leave_expansions_unchanged(monkeypatch):
    # seeded open values over p in {3, 5, 7, 11} in both flavors at 3,000
    # to 20,000 steps, budgets ending inside a block, periodic values, and
    # p = 65537, where J = 1 and no block runs
    counts = _block_spy(monkeypatch)
    rng = random.Random(2727)
    cases = [(SQRT89_STATE, BROWKIN, 20_000)]
    for p in (3, 5, 7, 11):
        for draw in (random_quad, random_trace_zero):
            for flavor in (BROWKIN, RUBAN):
                cases.append((draw(rng, p), flavor, rng.randint(3000, 6000)))
    periodic = [(random_periodic(rng, (3, 5, 7)[i % 3]), (BROWKIN, RUBAN)[i % 2], 3000)
                for i in range(12)] + [(alpha, RUBAN, 2000) for alpha in RUBAN_PERIODIC]
    got, want = _with_and_without_blocks(monkeypatch, cases + periodic)
    assert got == want
    assert sum(rec["status"] == PERIODIC for rec, _ in got) >= 12
    assert counts["rebuilt"] > 1000 and counts["cut"] >= len(cases) - 4, counts
    counts.update(started=0)
    wide = [(random_quad(rng, 65537), flavor, 3000) for flavor in (BROWKIN, RUBAN)]
    got, want = _with_and_without_blocks(monkeypatch, wide)
    assert got == want and counts["started"] == 0
    big = max(st.b.bit_length() for st in expand(*wide[0][:2], max_steps=100).walk())
    assert big >= engine_module._BLOCK_BITS  # blocks would run if J allowed


def test_blocks_meet_the_middle_digit_of_a_construction(monkeypatch):
    # a construction's value, re-expanded with a long budget: blocks run on
    # its big states, and the one that reaches the middle digit, k ~ omega,
    # ends where W is 0 mod p**J and leaves that step to the kernel, which
    # takes it before any other block starts: no block ends without a step
    res = construct_module.construct(construct_module.is_nice(SEED_P16), 0)
    alpha, pinned = res.expansion.alpha, res.expansion
    counts = _block_spy(monkeypatch)
    got, want = _with_and_without_blocks(monkeypatch, [(alpha, BROWKIN, 2000)])
    assert got == want and got[0][0] == pinned.to_json()
    assert max(pinned.ks) > 7000 and counts["wide"] >= 1 and counts["no step"] == 0, counts


def test_block_collisions_never_make_a_period(monkeypatch):
    # about one state in 100 gets the fingerprint 0: each is materialized
    # from its block when inside one and checked by an exact replay, so the
    # result is the one of the unpatched run
    rng = random.Random(2828)
    cases = [(SQRT89_STATE, BROWKIN, 3000), (QuadIrr(5, 1231, 0, 1, -1, 1), RUBAN, 2000),
             (random_quad(rng, 3), BROWKIN, 2500), (random_periodic(rng, 7), BROWKIN, 2000)]
    plain = [expand(alpha, flavor, max_steps=n).to_json() for alpha, flavor, n in cases]
    real_hash, rebuilds, real_rebuild = hash, [0], engine_module._rebuild

    def counting_rebuild(*args):
        rebuilds[0] += 1
        return real_rebuild(*args)

    monkeypatch.setattr(engine_module, "_rebuild", counting_rebuild)
    counts = _block_spy(monkeypatch)
    monkeypatch.setattr(engine_module, "hash", lambda key: 0 if real_hash(key) % 100 == 0
                        else real_hash(key), raising=False)
    got = [expand(alpha, flavor, max_steps=n).to_json() for alpha, flavor, n in cases]
    assert got == plain
    assert rebuilds[0] - counts["rebuilt"] >= 20, (rebuilds, counts)  # materialized states


def test_block_rebuild_rejects_a_corrupted_matrix_under_python_O():
    setup = (
        "real = engine._rebuild\n"
        "engine._rebuild = lambda base, P, *rest: real(base, P + 1, *rest)\n"
    )
    proc = _step_under_python_O(setup, "engine.expand(QuadIrr(5, 89, 8, 1, 1, 3), max_steps=2000)")
    want = "1 InvariantError a block's rebuild must divide exactly by p**(2E)"
    assert proc.stdout.strip() == want, proc.stderr


def test_block_rebuild_rejects_a_corrupted_residue_under_python_O():
    # Z's residue off by p**J: the digits drift off the true chain while
    # every step's own checks pass, and the rebuild's division finds it
    setup = (
        "import inspect\n"
        "source = inspect.getsource(engine._chain)\n"
        "exec(source.replace('Z % M', '(Z + pJ) % M', 1), vars(engine))\n"
    )
    for call in ("engine.expand(QuadIrr(5, 89, 8, 1, 1, 3), max_steps=2000)",
                 "engine.expand(QuadIrr(5, 1231, 0, 1, -1, 1), 'ruban', max_steps=2000)"):
        proc = _step_under_python_O(setup, call)
        want = "1 InvariantError a block's rebuild must divide exactly by p**(2E)"
        assert proc.stdout.strip() == want, proc.stderr


def _reachable(root):
    """Objects reachable from root by gc.get_referents, types and modules
    excluded (they lead to every global)."""
    seen, todo, out = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        out.append(obj)
        todo.extend(gc.get_referents(obj))
    return out


def test_expand_keeps_no_state_but_alpha():
    # 4,000 open steps of (8+sqrt(89))/5 reach ~2,800-bit states, 3.7 MB
    # together; the digits and the fingerprints take far less
    gc.collect()
    tracemalloc.start()
    try:
        exp = expand(SQRT89_STATE, max_steps=4000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exp.status == OPEN and len(exp.preperiod) == 4000
    assert retained < 1.5e6, retained
    quads = [obj for obj in _reachable(exp) if isinstance(obj, QuadIrr)]
    assert len(quads) == 1 and quads[0] is exp.alpha


def test_walked_states_cost_what_a_validated_state_does():
    # the replay builds each state field by field (engine._quad); filling
    # the instance __dict__ in one update made a state ~2.5x bigger
    exp = expand(PERIOD12_STATE)
    n = 10_000
    first = tuple(exp.quotient_at(i) for i in range(n))
    long = dataclasses.replace(exp, status=OPEN, preperiod=first, period=())
    gc.collect()
    tracemalloc.start()
    try:
        states = list(long.walk())
        walked, _ = tracemalloc.get_traced_memory()
        rebuilt = [QuadIrr(st.p, st.Delta, st.b, st.c, st.k, st.branch) for st in states]
        validated = tracemalloc.get_traced_memory()[0] - walked
    finally:
        tracemalloc.stop()
    assert len(states) == len(rebuilt) == n and states[len(exp.period)] == states[0]
    # a walked state also holds its own b and c, at most 32 bytes each
    assert walked / n <= validated / n + 64, (walked / n, validated / n)


@pytest.mark.parametrize("flavor", [BROWKIN, RUBAN])
def test_replayed_states_are_the_hand_stepped_chain(flavor):
    # walk() yields the states behind the digits, state_at(i) wraps into the
    # cycle, and both are the chain the dividing step builds by hand
    rng = random.Random(1717)
    values = [PERIOD12_STATE, SQRT89_STATE, QuadIrr(5, -434, 0, -434, 1, 1),
              QuadIrr(7, 386, 0, -386, -1, 6)]
    values += [random_periodic(rng, rng.choice([3, 5, 7])) for _ in range(8)]
    values += [random_trace_zero(rng, rng.choice([3, 5, 7])) for _ in range(8)]
    values += RUBAN_PERIODIC
    wrapped = 0
    for alpha in values:
        exp = expand(alpha, flavor, max_steps=30)
        n = len(exp.quotients)
        chain = _assert_kernel_chain_is_the_dividing_route(exp, extra=2 * len(exp.period) + 1)
        for i, st in enumerate(chain):
            assert exp.state_at(i) == st, (alpha, flavor, i)
        if exp.status == PERIODIC:
            wrapped += 1
        else:
            with pytest.raises(IndexError):
                exp.state_at(n)
        with pytest.raises(IndexError):
            exp.state_at(-1)
    assert wrapped >= 4


def test_rational_expansions_have_no_states():
    for exp in (expand_rational(Fraction(10, 3), 3), expand_rational(Fraction(-1), 5, RUBAN)):
        assert list(exp.walk()) == []
        with pytest.raises(IndexError):
            exp.state_at(0)


def test_periodic_pool_is_unchanged(monkeypatch):
    # the pool random_periodic draws from, rebuilt from walk(), and seeded
    # draws from it, pinned by digest
    monkeypatch.setattr(corpus_module, "_PERIODIC_STATE_CACHE", {})
    draws = []
    for p in (3, 5, 7):
        rng = random.Random(1616 + p)
        draws += [random_periodic(rng, p) for _ in range(40)]
    pools = [corpus_module._PERIODIC_STATE_CACHE[p] for p in (3, 5, 7)]
    assert [len(pool) for pool in pools] == [11, 28, 13]
    h = hashlib.sha256()
    for st in [s for pool in pools for s in pool] + draws:
        h.update(repr((st.p, st.Delta, st.b, st.c, st.k, st.branch)).encode())
    assert h.hexdigest() == "cbb666fb5f00a044e3b0c8b407a14a4701c9ca0a00939b5191a0d529cb19a5b6"
