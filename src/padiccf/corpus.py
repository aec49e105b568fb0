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


def random_digits(rng: random.Random, p: int, length: int, int_first: bool = True):
    """A digit list that is its own centered expansion.

    Every entry past the first is a legal negative-valuation digit with
    denominator p**1 to p**3; the first is either a small integer
    (including 0) or another digit, depending on int_first. Such a list
    always reproduces itself when the evaluated rational is re-expanded.
    """
    if length < 1:
        raise ValueError("need length >= 1")
    out = []
    if int_first and rng.random() < 0.5:
        out.append(LaurentInt(p, rng.randint(-(p // 2), p // 2), 0))
    else:
        out.append(random_digit(rng, p, rng.randint(1, 3)))
    for _ in range(length - 1):
        out.append(random_digit(rng, p, rng.randint(1, 3)))
    return tuple(out)


def random_rational(rng: random.Random) -> Fraction:
    """num/den with |num| <= 10**6 and 1 <= den <= 10**4."""
    num = rng.randint(-(10**6), 10**6)
    den = rng.randint(1, 10**4)
    return Fraction(num, den)


def random_quad(rng: random.Random, p: int) -> QuadIrr:
    """A uniform-ish quadratic irrational state over p.

    Delta is drawn in both signs with 2 <= |Delta| <= 400, kept prime to p,
    nonsquare and a residue; |b| <= 20, k lies in 0..2, and c is a signed
    divisor of Delta - b**2 so the state is valid without any rescaling.
    """
    while True:
        Delta = rng.choice((1, -1)) * rng.randint(2, 400)
        if Delta % p == 0 or (Delta > 0 and _is_square(Delta)):
            continue
        if legendre(Delta % p, p) != 1:
            continue
        b = rng.randint(-20, 20)
        rem = Delta - b * b
        if rem == 0:
            continue
        c = rng.choice(divisors(abs(rem))) * rng.choice((1, -1))
        if c % p == 0:
            continue
        r = sqrt_mod_p(Delta % p, p)
        branch = rng.choice((r, p - r))
        return QuadIrr(p, Delta, b, c, rng.randint(0, 2), branch)


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
            pool.extend(exp.walk())
        _PERIODIC_STATE_CACHE[p] = pool = tuple(pool)
    st = rng.choice(pool)
    if rng.random() < 0.5:
        st = st.negated()
    return st


def random_trace_zero(rng: random.Random, p: int) -> QuadIrr:
    """A trace-zero state sqrt(m)/(p**k * c): 2 <= |m| <= 3000, k in [-2, 2]."""
    while True:
        m = rng.choice((1, -1)) * rng.randint(2, 3000)
        if m % p == 0 or (m > 0 and _is_square(m)):
            continue
        if legendre(m % p, p) != 1:
            continue
        r = sqrt_mod_p(m % p, p)
        branch = rng.choice((r, p - r))
        k = rng.randint(-2, 2)
        c = rng.choice(divisors(abs(m))) * rng.choice((1, -1))
        if c % p == 0:
            continue
        return QuadIrr(p, m, 0, c, k, branch)
