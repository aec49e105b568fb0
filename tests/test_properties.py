"""Property-based checks of the expansion engine.

The pinned suites freeze known-good values; here hypothesis hunts for
states where a digit window, a round-trip or a determinant invariant
breaks. The corpus generators already encode the validity constraints
(residue class, divisor condition, branch choice), so hypothesis only
supplies the entropy through an integer seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiccf.corpus import random_digits, random_periodic, random_quad
from padiccf.engine import (
    BROWKIN,
    FINITE,
    PERIODIC,
    RUBAN,
    QuadIrr,
    convergents,
    eval_finite,
    expand,
    expand_rational,
    normalize,
    periodic_limit,
)

from oracles import convergents_brute, in_digit_window

seeds = st.integers(min_value=0, max_value=2**48)
primes = st.sampled_from((3, 5, 7, 11))
flavors = st.sampled_from((BROWKIN, RUBAN))

rationals = st.fractions(
    min_value=Fraction(-(10**6)),
    max_value=Fraction(10**6),
    max_denominator=10**4,
)


def quad(seed: int, p: int):
    return random_quad(random.Random(seed), p)


def digits_of(exp) -> list:
    return list(exp.preperiod) + list(exp.period)


@given(seeds, primes, flavors)
@settings(max_examples=80, deadline=None)
def test_every_digit_sits_in_its_window(seed, p, flavor):
    alpha = quad(seed, p)
    exp = expand(alpha, flavor, max_steps=12)
    stream = digits_of(exp)
    assert stream
    for i, a in enumerate(stream):
        assert in_digit_window(a, flavor == BROWKIN)
        if i >= 1:
            # everything past the head is a genuine denominator digit
            assert a.e >= 1


@given(seeds, primes, flavors)
@settings(max_examples=80, deadline=None)
def test_stepped_states_pass_public_validation(seed, p, flavor):
    # the chain builds its states without QuadIrr's checks; the public
    # constructor must accept every state an expansion records
    exp = expand(quad(seed, p), flavor, max_steps=60)
    for state in exp.walk():
        assert QuadIrr(**state.to_json()) == state


@given(seeds, primes, flavors)
@settings(max_examples=80, deadline=None)
def test_convergent_table_holds_up(seed, p, flavor):
    # convergents() builds only the integer tilde rows and reads A_n, B_n
    # off them; they must match the plain Fraction recurrences and stay
    # unimodular.
    alpha = quad(seed, p)
    exp = expand(alpha, flavor, max_steps=10)
    digits = digits_of(exp)[:10]
    table = convergents(digits)
    A, B = convergents_brute([d.value for d in digits])
    for n in range(-1, len(table)):
        assert table.A_(n) == A[n + 1] and table.B_(n) == B[n + 1]
        if n >= 1:
            assert table.A_(n) * table.B_(n - 1) - table.B_(n) * table.A_(n - 1) == (-1) ** (n + 1)


@given(rationals, primes)
@settings(max_examples=120, deadline=None)
def test_rational_round_trip_and_mirror(x, p):
    exp = expand_rational(x, p)
    assert exp.status == FINITE
    assert eval_finite(exp.preperiod) == x
    mirrored = expand_rational(-x, p)
    assert [q.value for q in mirrored.preperiod] == [-q.value for q in exp.preperiod]


@given(seeds, primes, st.integers(min_value=1, max_value=6))
@settings(max_examples=80, deadline=None)
def test_digit_lists_reproduce_themselves(seed, p, length):
    digits = random_digits(random.Random(seed), p, length)
    x = eval_finite(digits)
    exp = expand_rational(x, p)
    assert exp.status == FINITE
    assert [q.value for q in exp.preperiod] == [d.value for d in digits]


@given(seeds, primes)
@settings(max_examples=60, deadline=None)
def test_negation_mirrors_centered_digits(seed, p):
    # the centered window is symmetric, so -alpha expands to the negated
    # stream with the same preperiod/period split (states repeat together)
    alpha = quad(seed, p)
    exp = expand(alpha, BROWKIN, max_steps=10)
    neg = expand(alpha.negated(), BROWKIN, max_steps=10)
    assert neg.status == exp.status
    assert len(neg.preperiod) == len(exp.preperiod)
    assert [d.value for d in digits_of(neg)] == [-d.value for d in digits_of(exp)]


@given(seeds, st.sampled_from((3, 5, 7)))
@settings(max_examples=50, deadline=None)
def test_periodic_limit_recovers_the_state(seed, p):
    alpha = random_periodic(random.Random(seed), p)
    exp = expand(alpha, BROWKIN, max_steps=600)
    assert exp.status == PERIODIC
    back = periodic_limit(exp.preperiod, exp.period, p)
    assert back.value_equals(alpha)


@given(seeds, primes, st.integers(min_value=1, max_value=60))
@settings(max_examples=80, deadline=None)
def test_normalize_is_scale_invariant(seed, p, s):
    assume(s % p != 0)
    alpha = quad(seed, p)
    beta = normalize(
        p, alpha.Delta * s * s, alpha.b * s, alpha.c * s, alpha.k,
        (alpha.branch * s) % p,
    )
    canonical = normalize(p, alpha.Delta, alpha.b, alpha.c, alpha.k, alpha.branch)
    assert beta == canonical
    assert beta.value_equals(alpha)
    assert beta.Delta % p != 0 and beta.c % p != 0
    assert (beta.Delta - beta.b * beta.b) % beta.c == 0
    assert 1 <= beta.branch < p and (beta.branch**2 - beta.Delta) % p == 0


@given(seeds, primes)
@settings(max_examples=60, deadline=None)
def test_flavors_agree_on_the_head_digit_mod_p(seed, p):
    # same value, same truncation: the head digits of the two flavors are
    # congruent mod p**(e+1), they just pick different representatives
    alpha = quad(seed, p)
    cexp = expand(alpha, BROWKIN, max_steps=8)
    rexp = expand(alpha, RUBAN, max_steps=8)
    c0, r0 = digits_of(cexp)[0], digits_of(rexp)[0]
    assert c0.e == r0.e
    assert (r0.tilde - c0.tilde) % p ** (c0.e + 1) == 0
