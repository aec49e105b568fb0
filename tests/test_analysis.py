import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import padiccf
from padiccf import (
    QuadIrr,
    dt_identities,
    expand,
    galois_check,
    is_regular,
    normalize,
    reversed_period_identity,
    ruban_nonperiodic_probe,
    trace_zero_classify,
)
from padiccf.core import divisors
from padiccf.corpus import random_digits, random_periodic, random_quad
from padiccf.engine import OPEN, PERIODIC, RUBAN

from oracles import first_regular_brute

analysis_module = importlib.import_module("padiccf.analysis")
engine_module = importlib.import_module("padiccf.engine")

PERIOD12_STATE = QuadIrr(5, 19, -13, 6, 1, 2)
SQRT37_STATE = QuadIrr(3, 37, 1, 2, 1, 1)
# 1/(5*sqrt(-434)), written with the root in the numerator
INV_5_SQRT_M434 = QuadIrr(5, -434, 0, -434, 1, 1)


# -- regularity and the periodicity criterion -----------------------------------


def _brute_first_regular(alpha, n):
    den = Fraction(alpha.p) ** alpha.k * alpha.c
    return first_regular_brute(alpha.b / den, 1 / den, alpha.Delta, alpha.branch, alpha.p, n)


def _random_state(rng, p):
    """A state with k in -3..3; about 40% have b = +-delta mod p, where the
    valuation of b + delta or of its conjugate is at least 1."""
    while True:
        base = random_quad(rng, p)
        b = base.b
        if rng.random() < 0.4:
            b += (rng.choice((base.branch, -base.branch)) - b) % p
        rem = base.Delta - b * b
        if rem == 0:
            continue
        c = rng.choice(divisors(abs(rem))) * rng.choice((1, -1))
        if c % p:
            return QuadIrr(p, base.Delta, b, c, rng.randint(-3, 3), base.branch)


def test_regular_state_is_purely_periodic():
    rep = is_regular(PERIOD12_STATE)
    assert rep.regular
    assert rep.v_alpha < 0 < rep.v_conj
    assert rep.first_regular_index == 0


def test_irregular_state_has_positive_first_regular_index():
    rep = is_regular(INV_5_SQRT_M434)
    assert not rep.regular
    assert rep.v_alpha == -1 and rep.v_conj == -1
    assert rep.first_regular_index == 1  # preperiod [6/5] then the cycle


def test_first_regular_index_matches_the_brute_stepper():
    rng = random.Random(2203)
    negative_k_on_delta = 0
    for _ in range(2000):
        p = rng.choice([3, 5, 7, 11, 13])
        alpha = _random_state(rng, p)
        negative_k_on_delta += alpha.k < 0 and (alpha.b - alpha.branch) % p == 0
        for m in (1, 2, 3, 200):
            rep = is_regular(alpha, max_steps=m)
            assert rep.first_regular_index == _brute_first_regular(alpha, m), (alpha, m)
    assert negative_k_on_delta >= 50


def test_is_regular_steps_no_state(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("is_regular stepped a state")

    monkeypatch.setattr(engine_module, "_dividing_step", no_step)
    monkeypatch.setattr(engine_module, "_chain", no_step)
    assert is_regular(PERIOD12_STATE).first_regular_index == 0
    assert is_regular(INV_5_SQRT_M434).first_regular_index == 1
    # sqrt(126)/2 (k = 0) and 5*sqrt(19) (k = -1) are regular from index 2
    assert is_regular(QuadIrr(5, 126, 0, 2, 0, 1)).first_regular_index == 2
    assert is_regular(QuadIrr(5, 19, 0, 1, -1, 2)).first_regular_index == 2


def test_galois_check_on_pinned_states():
    for alpha in (PERIOD12_STATE, SQRT37_STATE, INV_5_SQRT_M434):
        exp = expand(alpha)
        verdict = galois_check(alpha, exp)
        assert verdict.ok
        assert verdict.preperiod_length == len(exp.preperiod)
        assert verdict.regular == exp.is_purely_periodic


def test_galois_check_on_random_periodic_corpus():
    rng = random.Random(2201)
    for _ in range(30):
        p = rng.choice([3, 5, 7])
        alpha = random_periodic(rng, p)
        exp = expand(alpha)
        assert galois_check(alpha, exp).ok, alpha


def test_galois_check_requires_a_periodic_expansion():
    exp = expand(QuadIrr(5, 89, 8, 1, 1, 3), max_steps=20)
    assert exp.status == OPEN
    with pytest.raises(ValueError):
        galois_check(QuadIrr(5, 89, 8, 1, 1, 3), exp)


def test_galois_check_reads_the_stored_states(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("galois_check stepped a state again")

    exp = expand(INV_5_SQRT_M434)
    assert len(exp.preperiod) == 1
    monkeypatch.setattr(engine_module, "_dividing_step", no_step)
    monkeypatch.setattr(engine_module, "_chain", no_step)
    verdict = galois_check(INV_5_SQRT_M434, exp)
    assert verdict.ok and not verdict.regular
    assert verdict.first_regular_index == verdict.preperiod_length == 1


def test_galois_check_agrees_with_is_regular_on_preperiodic_values():
    rng = random.Random(2202)
    seen = 0
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        alpha = random_quad(rng, p)
        exp = expand(alpha, max_steps=150)
        if exp.status != PERIODIC:
            continue
        seen += bool(exp.preperiod)
        verdict = galois_check(alpha, exp)
        rep = is_regular(alpha, max_steps=len(exp.quotients) + 2)
        assert verdict.ok, alpha
        assert (verdict.regular, verdict.first_regular_index, verdict.v_alpha, verdict.v_conj) == (
            rep.regular, rep.first_regular_index, rep.v_alpha, rep.v_conj)
        # both share one closed form, so the index is also checked by stepping
        assert verdict.first_regular_index == _brute_first_regular(alpha, len(exp.quotients) + 2)
    assert seen >= 10


# -- period reversal -------------------------------------------------------------


def test_reversed_period_of_the_period12_value():
    exp = expand(PERIOD12_STATE)
    rev = reversed_period_identity(exp)
    assert rev.is_purely_periodic
    assert rev.period == tuple(reversed(exp.period))
    # norm 1/6 != -1, so the period must not be a palindrome
    assert PERIOD12_STATE.norm == Fraction(1, 6)
    assert list(exp.period) != list(reversed(exp.period))


def test_palindrome_iff_norm_minus_one():
    # (1+sqrt(37))/6 has norm -1 and the one-digit period is a palindrome
    assert SQRT37_STATE.norm == -1
    rev = reversed_period_identity(expand(SQRT37_STATE))
    assert rev.period == expand(SQRT37_STATE).period


def test_reversal_on_random_purely_periodic_corpus():
    rng = random.Random(2202)
    checked = 0
    while checked < 12:
        p = rng.choice([3, 5, 7])
        alpha = random_periodic(rng, p)
        exp = expand(alpha)
        if not exp.is_purely_periodic:
            continue
        rev = reversed_period_identity(exp)
        assert rev.period == tuple(reversed(exp.period))
        checked += 1


def test_reversed_period_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        reversed_period_identity(expand(INV_5_SQRT_M434))  # nonempty preperiod
    with pytest.raises(ValueError):
        reversed_period_identity(expand(SQRT37_STATE, RUBAN, max_steps=60))


def test_reversed_period_is_rejected_under_python_O():
    # python -O strips assert statements; the invariant must still fire.
    code = (
        "import dataclasses, sys\n"
        "from padiccf import QuadIrr, expand, reversed_period_identity\n"
        "exp = expand(QuadIrr(5, 19, -13, 6, 1, 2))\n"
        "bad = dataclasses.replace(exp, period=tuple(reversed(exp.period)))\n"
        "try:\n"
        "    reversed_period_identity(bad)\n"
        "    print(sys.flags.optimize, 'accepted')\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, type(exc).__name__, exc)\n"
    )
    src = str(Path(padiccf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.strip() == "1 InvariantError -1/alpha^c period is the reversal", proc.stderr


# -- trace-zero trichotomy -----------------------------------------------------------


def test_trace_zero_negative_valuation_template():
    rep = trace_zero_classify(INV_5_SQRT_M434)
    assert rep.klass == "preperiod_1"
    assert rep.valuation == -1
    assert rep.a0_small is True
    assert rep.matched is True
    assert len(rep.expansion.preperiod) == 1


def test_trace_zero_positive_valuation_without_small_leading_digit():
    # 7*sqrt(386): periodic with preperiod length 2, but a_0 = 22/7 is too
    # big for the doubled-digit template (22/7 > 7/4), so matched stays off.
    rep = trace_zero_classify(QuadIrr(7, 386, 0, -386, -1, 6))
    assert rep.klass == "preperiod_2"
    assert rep.valuation == 1
    assert rep.expansion.status == PERIODIC
    assert len(rep.expansion.preperiod) == 2
    assert rep.a0_small is False
    assert rep.matched is False


def test_trace_zero_valuation_zero_class():
    rep = trace_zero_classify(QuadIrr(5, 126, 0, 2, 0, 1))
    assert rep.klass == "preperiod_2"
    assert rep.valuation == 0
    assert rep.a0_small is None
    if rep.expansion.status == PERIODIC:
        assert rep.matched == (len(rep.expansion.preperiod) == 2)


def test_trace_zero_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        trace_zero_classify(PERIOD12_STATE)


# -- palindromic convergent identities ------------------------------------------------


def _mirror(w, parity):
    """Palindrome of length 2t+1 (even case) or 2t+2 (odd case) from w."""
    return tuple(w) + tuple(reversed(w[:-1] if parity == "even" else w))


def test_dt_identities_hold_on_random_palindromes():
    rng = random.Random(2203)
    for _ in range(40):
        p = rng.choice([3, 5, 7])
        t = rng.randint(1, 4)
        parity = rng.choice(["even", "odd"])
        w = random_digits(rng, p, t + 1)
        cf = _mirror(w, parity)
        assert dt_identities(cf, t, parity) is True, (cf, parity)


def test_dt_identities_fail_off_the_palindromes(monkeypatch):
    # with the palindrome gate lifted, a list whose digit a_{d-1} differs
    # from its mirror a_1 changes A_{d-1} and B_{d-1} but no right side
    monkeypatch.setattr(analysis_module, "_palindromic", lambda seq: True)
    rng = random.Random(2205)
    for parity in ("even", "odd"):
        crooked = list(_mirror(random_digits(rng, 5, 3), parity))
        crooked[-2] = crooked[-2].doubled()
        assert dt_identities(crooked, 2, parity) is False


def test_dt_identities_input_validation():
    rng = random.Random(2204)
    w = random_digits(rng, 5, 3)
    with pytest.raises(ValueError):
        dt_identities(_mirror(w, "even"), 2, "sideways")
    with pytest.raises(ValueError):
        dt_identities(_mirror(w, "even"), 3, "even")  # wrong length for t
    crooked = _mirror(w, "odd")
    crooked = crooked[:-1] + (crooked[-1].doubled(),)
    with pytest.raises(ValueError, match="palindromic"):
        dt_identities(crooked, 2, "odd")


# -- Ruban probes ------------------------------------------------------------------


def test_ruban_probe_certifies_nonperiodicity():
    probe = ruban_nonperiodic_probe(6, 1, 5, N=200)
    assert probe.status == "nonperiodic"
    assert probe.witness_negative_embeddings is True
    assert probe.expansion.quotient_at(1).tilde >= 1
    assert probe.expansion.status == OPEN


@pytest.mark.parametrize("m,k", [(6, 1), (11, 2), (14, 1), (19, 2), (21, 1)])
def test_ruban_probe_samples(m, k):
    probe = ruban_nonperiodic_probe(m, k, 5, N=120)
    assert probe.status == "nonperiodic"
    assert probe.witness_negative_embeddings


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ruban_state_witness_matches_the_closed_form(p):
    # the closed form alpha_2 = p**k (sqrt(m) + a~_1 m)/(1 - a~_1**2 m) and
    # its witness a~_1 >= 1, a~_1**2 m > 1 against the probe's stored state
    rng = random.Random(700 + p)
    done = 0
    while done < 25:
        m, k = rng.randint(2, 3000), rng.randint(1, 3)
        if m % p == 0 or isqrt(m) ** 2 == m or pow(m, (p - 1) // 2, p) != 1:
            continue
        probe = ruban_nonperiodic_probe(m, k, p, N=8)
        exp = probe.expansion
        a1 = exp.quotient_at(1)
        assert a1.e == k
        at1 = a1.tilde
        assert probe.witness_negative_embeddings == (at1 >= 1 and at1 * at1 * m > 1)
        closed = normalize(p, p ** (2 * k) * m, p**k * at1 * m, 1 - at1 * at1 * m, 0,
                           exp.alpha.branch)
        assert closed.value_equals(exp.state_at(2))
        done += 1


@pytest.mark.parametrize("h", [1, 2, 3])
def test_ruban_sqrt_family_is_periodic(h):
    m = 1 + 5 ** (2 * h)
    probe = ruban_nonperiodic_probe(m, -h, 5, N=60)
    assert probe.status == PERIODIC
    exp = expand(QuadIrr(5, m, 0, 1, h, 1), RUBAN, max_steps=30)
    assert exp.text() == f"[1/{5**h}, (2/{5**h})*]"


def test_ruban_probe_input_validation():
    with pytest.raises(ValueError):
        ruban_nonperiodic_probe(6, 0, 5)
    with pytest.raises(ValueError):
        ruban_nonperiodic_probe(25, 1, 5)  # p | m
    with pytest.raises(ValueError):
        ruban_nonperiodic_probe(16, 1, 5)  # square
    with pytest.raises(ValueError):
        ruban_nonperiodic_probe(7, 1, 5)  # nonresidue mod 5
