"""Seeded generators for randomized suites.

Everything takes an explicit random.Random so the suites are reproducible:
the same seed gives the same cases in the CLI verification run and in the
test suite, just with different case counts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import LaurentInt, _invariant, divisors, legendre, sqrt_mod_p
from .engine import BROWKIN, PERIODIC, QuadIrr, _is_square, expand


def random_digit(rng: random.Random, p: int, e: int) -> LaurentInt:
    """One centered digit with denominator exactly p**e (e >= 1)."""
    half = p ** (e + 1) // 2
    while True:
        t = rng.randint(-half, half)
        if t % p != 0:
            return LaurentInt(p, t, e)


def random_digits(rng: random.Random, p: int, length: int, k_max: int = 3,
                  int_first: bool = True):
    """A digit list that is its own centered expansion.

    Every entry past the first is a legal negative-valuation digit; the
    first is either a small integer (including 0) or another digit,
    depending on int_first. Such a list always reproduces itself when the
    evaluated rational is re-expanded.
    """
    if length < 1:
        raise ValueError("need length >= 1")
    out = []
    if int_first and rng.random() < 0.5:
        out.append(LaurentInt(p, rng.randint(-(p // 2), p // 2), 0))
    else:
        out.append(random_digit(rng, p, rng.randint(1, k_max)))
    for _ in range(length - 1):
        out.append(random_digit(rng, p, rng.randint(1, k_max)))
    return tuple(out)


def random_rational(rng: random.Random, p: int, num_bound: int = 10**6,
                    den_bound: int = 10**4) -> Fraction:
    num = rng.randint(-num_bound, num_bound)
    den = rng.randint(1, den_bound)
    return Fraction(num, den)


def random_quad(rng: random.Random, p: int, Delta_bound: int = 400,
                b_bound: int = 20, k_max: int = 2) -> QuadIrr:
    """A uniform-ish quadratic irrational state over p.

    Delta is drawn in both signs, kept prime to p, nonsquare and a residue;
    c is a signed divisor of Delta - b**2 so the state is valid without any
    rescaling.
    """
    while True:
        Delta = rng.choice((1, -1)) * rng.randint(2, Delta_bound)
        if Delta % p == 0 or (Delta > 0 and _is_square(Delta)):
            continue
        if legendre(Delta % p, p) != 1:
            continue
        b = rng.randint(-b_bound, b_bound)
        rem = Delta - b * b
        if rem == 0:
            continue
        c = rng.choice(divisors(abs(rem))) * rng.choice((1, -1))
        if c % p == 0:
            continue
        r = sqrt_mod_p(Delta % p, p)
        branch = rng.choice((r, p - r))
        return QuadIrr(p, Delta, b, c, rng.randint(0, k_max), branch)


def periodic_bases(p: int):
    """Hand-picked states with known periodic centered expansions.

    Small discriminants that happen to cycle fast for the given prime;
    used as transport seeds for the periodic corpus.
    """
    if p == 3:
        return (
            QuadIrr(3, 37, 1, 2, 1, 1),          # (1 + sqrt 37)/6, period [1/3]
            QuadIrr(3, -34867844, 0, -34867844, 1, 1),
            QuadIrr(3, 1 - 3**4, 0, 2, 1, 2),    # closed-form family, t=2
        )
    if p == 5:
        return (
            QuadIrr(5, 19, -13, 6, 1, 2),        # the period-12 example
            QuadIrr(5, -434, 0, -434, 1, 1),     # constructed, period 2
            QuadIrr(5, 1 - 5**4, 0, 2, 1, 4),
            QuadIrr(5, 126, 0, 2, 0, 1),
        )
    if p == 7:
        return (
            QuadIrr(7, 1 - 7**4, 0, 2, 1, 6),
            QuadIrr(7, 7**3 + 1, 0, 2, 0, 1),
        )
    raise ValueError(f"no periodic base list for p={p}")


_PERIODIC_STATE_CACHE: dict = {}


def random_periodic(rng: random.Random, p: int) -> QuadIrr:
    """A state guaranteed to have a periodic centered expansion.

    Drawn from the complete quotients of the known periodic bases (tails of
    periodic expansions are periodic), possibly negated (negation flips
    every digit, preserving periodicity). No Moebius transports here: an
    arbitrary transport of a periodic value need not be periodic in the
    p-adic setting.
    """
    pool = _PERIODIC_STATE_CACHE.get(p)
    if pool is None:
        pool = []
        for base in periodic_bases(p):
            exp = expand(base, BROWKIN, max_steps=600)
            _invariant(exp.status == PERIODIC, "periodic base list is stale")
            for i in range(len(exp.preperiod) + len(exp.period)):
                pool.append(exp.state_at(i))
        _PERIODIC_STATE_CACHE[p] = pool = tuple(pool)
    st = rng.choice(pool)
    if rng.random() < 0.5:
        st = st.negated()
    return st


def random_trace_zero(rng: random.Random, p: int, m_bound: int = 3000,
                      k_max: int = 2) -> QuadIrr:
    """A value of the form p**j * sqrt(m), j in [-k_max, k_max], b = 0."""
    while True:
        m = rng.choice((1, -1)) * rng.randint(2, m_bound)
        if m % p == 0 or (m > 0 and _is_square(m)):
            continue
        if legendre(m % p, p) != 1:
            continue
        r = sqrt_mod_p(m % p, p)
        branch = rng.choice((r, p - r))
        k = rng.randint(-k_max, k_max)
        c = rng.choice(divisors(abs(m))) * rng.choice((1, -1))
        if c % p == 0:
            continue
        return QuadIrr(p, m, 0, c, k, branch)
