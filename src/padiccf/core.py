"""Exact integer and p-adic primitives for one fixed odd prime.

Everything in here is integer-exact. The only appearance of a float is the
+infinity sentinel returned by :func:`vp` at zero; no floating point
arithmetic happens anywhere.

Conventions used throughout the package:

* ``vp(x, p)`` is the usual p-adic valuation, ``|x|_p = p**(-vp(x))``.
* the "tilde" of a nonzero x in Z[1/p] is its prime-to-p numerator,
  ``x~ = x * p**(-vp(x))``, carried around as an integer.
* square roots of a nonsquare integer Delta in Q_p come in two branches,
  labelled by the residue of the root mod p; Hensel digits for a branch are
  grown lazily and cached per (p, Delta, branch).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from sympy import factorint, isprime

INF = math.inf


class DlogBudgetExceeded(RuntimeError):
    """Baby-step table would exceed the allowed size.

    Deliberately distinct from the None return of discrete_log, which means
    the target is provably outside the cyclic subgroup.
    """


@lru_cache(maxsize=None)
def _check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"prime must be an int, got {p!r}")
    if p < 3 or p % 2 == 0 or not isprime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


def vp(x, p):
    """p-adic valuation of a rational; vp(0) is +infinity (sentinel).

    >>> vp(Fraction(37, 9), 3)
    -2
    """
    _check_odd_prime(p)
    if isinstance(x, int):
        num, den = x, 1
    elif isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        raise TypeError(f"vp wants int or Fraction, got {type(x).__name__}")
    if num == 0:
        return INF
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def centered_residue(x: int, n: int, p: int) -> int:
    """The representative of x mod p**n lying strictly inside (-p**n/2, p**n/2).

    p is odd so p**n is odd and the representative is unique.
    """
    _check_odd_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    pn = p**n
    r = x % pn
    if 2 * r > pn:
        r -= pn
    assert -pn < 2 * r < pn
    return r


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1}."""
    _check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod_p(a: int, p: int):
    """Square root of a mod p, or None for a non-residue.

    Tonelli-Shanks with the smallest quadratic non-residue as auxiliary, so
    the output is reproducible; of the two roots the smaller one in [1, p-1]
    is returned. a divisible by p gives 0.
    """
    _check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while legendre(z, p) != -1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    assert r * r % p == a
    return min(r, p - r)


def _newton_lift(p: int, Delta: int, x: int, have: int, want: int) -> int:
    # classic x -> (x + Delta/x)/2, doubling the precision each round
    n = have
    while n < want:
        n = min(2 * n, want)
        mod = p**n
        x = (x + Delta * pow(x, -1, mod)) * pow(2, -1, mod) % mod
    return x


class _HenselCache:
    """Lazily grown digit store, one entry per (p, Delta, branch).

    Readers may share the cache; growth happens under a lock. Precision is
    grown to at least double the previous value so deep expansions do O(log)
    lifts total. A new key is validated before it is stored: p an odd prime,
    Delta prime to p, and branch a square root of Delta mod p in [1, p-1].
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._store: dict[tuple[int, int, int], tuple[int, int]] = {}

    def digits(self, p: int, Delta: int, branch: int, N: int) -> int:
        if N < 1:
            N = 1
        key = (p, Delta, branch)
        with self._lock:
            hit = self._store.get(key)
            if hit is None:
                _check_odd_prime(p)
                if Delta % p == 0:
                    raise ValueError("Delta must be prime to p")
                if not 1 <= branch < p:
                    raise ValueError("branch must lie in [1, p-1]")
                if (branch * branch - Delta) % p != 0:
                    raise ValueError("branch**2 != Delta mod p")
                hit = (branch, 1)
            digits, have = hit
            if have < N:
                grow_to = max(N, 2 * have)
                digits = _newton_lift(p, Delta, digits, have, grow_to)
                have = grow_to
            self._store[key] = (digits, have)
        return digits % p**N

    def clear(self):
        with self._lock:
            self._store.clear()


HENSEL_CACHE = _HenselCache()


def hensel_digits(p: int, Delta: int, branch: int, N: int) -> int:
    """Cached branch root of Delta mod p**N (grows the shared cache)."""
    return HENSEL_CACHE.digits(p, Delta, branch, N)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m in [1, m-1]; raises for non-coprime input."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not invertible mod {m}")
    return pow(a, -1, m)


def _lambda_prime_power(q: int, e: int) -> int:
    if q == 2:
        if e == 1:
            return 1
        if e == 2:
            return 2
        return 2 ** (e - 2)
    return (q - 1) * q ** (e - 1)


def mult_order(a: int, m: int) -> int:
    """Least s >= 1 with a**s == 1 mod m.

    Factors m (and the per-prime-power Carmichael values), then strips
    primes from the exponent while the power still fixes 1. Factoring is
    delegated to sympy.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m == 1:
        return 1
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1, no multiplicative order")
    order = 1
    for q, e in factorint(m).items():
        mod = q**e
        t = _lambda_prime_power(q, e)
        for f in factorint(t):
            while t % f == 0 and pow(a, t // f, mod) == 1:
                t //= f
        order = math.lcm(order, t)
    assert pow(a, order, m) == 1
    return order


_BRUTE_DLOG_MODULUS = 10**6
DEFAULT_DLOG_TABLE_CAP = 1 << 22


def discrete_log(base: int, target: int, m: int, budget=None):
    """Least w >= 0 with base**w == target mod m, or None if target is
    outside the subgroup generated by base.

    Baby-step/giant-step over the subgroup order; small moduli (< 10**6) are
    done by direct enumeration. budget caps the baby-step table size and
    blowing it raises DlogBudgetExceeded, which callers must treat as
    "unknown", not as "no".
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    base %= m
    target %= m
    if gcd(base, m) != 1:
        raise ValueError("base must be a unit mod m")
    if gcd(target, m) != 1:
        return None  # not even in the unit group, so not in the subgroup
    if m < _BRUTE_DLOG_MODULUS:
        cur = 1
        order = mult_order(base, m)
        for w in range(order):
            if cur == target:
                return w
            cur = cur * base % m
        return None
    order = mult_order(base, m)
    steps = isqrt(order - 1) + 1
    cap = DEFAULT_DLOG_TABLE_CAP if budget is None else budget
    if steps > cap:
        raise DlogBudgetExceeded(
            f"need {steps} table entries, budget is {cap}"
        )
    table = {}
    cur = target
    for j in range(steps):
        table.setdefault(cur, j)
        cur = cur * base % m
    giant = pow(base, steps, m)
    cur = 1
    for i in range(1, steps + 1):
        cur = cur * giant % m
        j = table.get(cur)
        if j is not None:
            w = (i * steps - j) % order
            assert pow(base, w, m) == target
            return w
    return None


def padic_square_exists(m: int, p: int):
    """Does m have a square root in Q_p? Returns (flag, (m0, s) or None).

    On success m == p**(2*s) * m0 with p not dividing m0 and m0 a quadratic
    residue mod p. Odd valuation or a non-residue unit part give
    (False, None).
    """
    _check_odd_prime(p)
    if m == 0:
        raise ValueError("m must be nonzero")
    v = 0
    m0 = m
    while m0 % p == 0:
        m0 //= p
        v += 1
    if v % 2 != 0:
        return False, None
    if legendre(m0, p) != 1:
        return False, None
    return True, (m0, v // 2)


@dataclass(frozen=True)
class LaurentInt:
    """An element tilde/p**e of Z[1/p] with p not dividing tilde.

    Partial quotients live here: for an emitted quotient a_n the pair is
    (a~_n, k_n) with a~_n = p**k_n * a_n. Zero is stored as (0, 0). The
    constructor strips shared p factors and rejects values whose valuation
    is positive (those are not of this shape).
    """

    p: int
    tilde: int
    e: int = 0

    def __post_init__(self):
        _check_odd_prime(self.p)
        tilde, e = self.tilde, self.e
        if tilde == 0:
            e = 0
        else:
            while tilde % self.p == 0:
                tilde //= self.p
                e -= 1
            if e < 0:
                raise ValueError(
                    f"{self.tilde}/{self.p}**{self.e} has positive valuation, "
                    "not representable with a nonnegative denominator exponent"
                )
        object.__setattr__(self, "tilde", tilde)
        object.__setattr__(self, "e", e)

    @classmethod
    def from_value(cls, x, p: int) -> "LaurentInt":
        x = Fraction(x)
        den = x.denominator
        e = 0
        while den % p == 0:
            den //= p
            e += 1
        if den != 1:
            raise ValueError(f"{x} has a denominator prime to {p}")
        return cls(p, x.numerator, e)

    @classmethod
    def parse(cls, text: str, p: int) -> "LaurentInt":
        """Parse "ntilde/p**e written out", e.g. "-5208/3125" or "4"."""
        text = text.strip().replace(" ", "")
        if not text:
            raise ValueError("empty quotient string")
        if "/" in text:
            num_s, den_s = text.split("/", 1)
            num, den = int(num_s), int(den_s)
            if den <= 0:
                raise ValueError(f"denominator must be positive in {text!r}")
            e = 0
            while den % p == 0:
                den //= p
                e += 1
            if den != 1:
                raise ValueError(f"denominator of {text!r} is not a power of {p}")
            return cls(p, num, e)
        return cls(p, int(text), 0)

    @property
    def value(self) -> Fraction:
        return Fraction(self.tilde, self.p**self.e)

    @property
    def valuation(self):
        return INF if self.tilde == 0 else -self.e

    def __str__(self) -> str:
        if self.e == 0:
            return str(self.tilde)
        return f"{self.tilde}/{self.p ** self.e}"

    def __neg__(self) -> "LaurentInt":
        return LaurentInt(self.p, -self.tilde, self.e)

    def doubled(self) -> "LaurentInt":
        return LaurentInt(self.p, 2 * self.tilde, self.e)

    def abs_lt(self, bound: Fraction) -> bool:
        """Exact test |value| < bound."""
        bound = Fraction(bound)
        return abs(self.tilde) * bound.denominator < bound.numerator * self.p**self.e

    def in_browkin_range(self) -> bool:
        """|value| < p/2 as real numbers, the centered digit window."""
        return 2 * abs(self.tilde) < self.p ** (self.e + 1)

    def in_ruban_range(self) -> bool:
        """0 <= value < p, the nonnegative digit window."""
        return 0 <= self.tilde < self.p ** (self.e + 1)
