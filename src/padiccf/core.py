"""Exact integer and p-adic primitives for one fixed odd prime.

Everything in here is integer-exact. The only appearance of a float is the
+infinity sentinel returned by :func:`vp` at zero; no floating point
arithmetic happens anywhere.

Conventions used throughout the package:

* ``vp(x, p)`` is the usual p-adic valuation, ``|x|_p = p**(-vp(x))``.
* the "tilde" of a nonzero x in Z[1/p] is its prime-to-p numerator,
  ``x~ = x * p**(-vp(x))``, carried around as an integer.
* square roots of a nonsquare integer Delta in Q_p come in two branches,
  labelled by the residue of the root mod p; hensel_digits lifts a branch
  to the precision asked for, and nothing is stored between calls.
"""

from __future__ import annotations

import math
import sys
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

INF = math.inf


class InvariantError(AssertionError):
    """A mathematical invariant the library relies on failed to hold.

    Raised explicitly, never through an assert statement, so the check
    still runs under python -O.
    """


def _invariant(cond, message: str):
    if not cond:
        raise InvariantError(message)


class DlogBudgetExceeded(RuntimeError):
    """Baby-step table would exceed the allowed size.

    Deliberately distinct from the None return of discrete_log and the
    False of in_subgroup, which mean the target is provably outside the
    cyclic subgroup.
    """


@lru_cache(maxsize=None)
def _check_odd_prime(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"prime must be an int, got {p!r}")
    if p < 3 or p % 2 == 0 or not isprime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


# (p, e, p**e) while construct re-expands the m it built, whose middle step
# strips exactly that power; set and reset around that one call, so nothing
# outlives it. Only split_p_power reads it, and it checks what it takes
_HELD_POWER = ContextVar("_HELD_POWER", default=None)


def split_p(n: int, p: int):
    """(e, u) with n == p**e * u and u not divisible by p, for n != 0, p >= 2:
    split_p_power without the power."""
    if n % p:  # the common case, kept to one cheap test
        return 0, n
    if n == 0 or p < 2:
        raise ValueError(f"split_p needs n != 0 and p >= 2, got n={n}, p={p}")
    return split_p_power(n, p)[:2]


def split_p_power(n: int, p: int):
    """(e, u, p**e) with n == p**e * u and u not divisible by p, for n != 0
    and p >= 2 (unchecked): the one p-power strip.

    One remainder rho = n mod p**J (_digit_powers) settles every e < J at
    any size: e = v_p(rho), read off the small rho, and one exact division
    by the one-digit p**e gives u (none for e = 0). For rho = 0, a power
    (p, e, p**e) that construct lends for this p (_HELD_POWER) costs one
    division: it is taken when it divides n with a quotient free of p and
    agrees with p**e mod 2**128, a cheap check that turns away a corrupt
    lent number. Otherwise, the doubling _split_p runs on n/p**J and p**e
    is built.
    """
    pows = _digit_powers(p)
    rho = n % pows[-1]
    if rho:
        e = 0
        while not rho % p:
            rho //= p
            e += 1
        if e:
            n, r = divmod(n, pows[e])
            if r:
                raise InvariantError("p**v_p(n mod p**J) must divide n")
        return e, n, pows[e]
    held = _HELD_POWER.get()
    if held is not None and held[0] == p:
        _, e, pe = held
        u, r = divmod(n, pe)
        if not r and u % p and pe % (1 << 128) == pow(p, e, 1 << 128):
            return e, u, pe
    e, u = _split_p(n // pows[-1], p)
    e += len(pows) - 1
    return e, u, p**e


def _split_p(n: int, p: int):
    """Divides by p, p**2, p**4, ... while the division is exact, then walks
    back down the same powers, so e factors cost O(log e) big divisions."""
    q, r = divmod(n, p)
    if r:
        return 0, n
    e, u = _split_p(q, p * p)  # n == p**(2e + 1) * u, and p**2 does not divide u
    q, r = divmod(u, p)
    return (2 * e + 1, u) if r else (2 * e + 2, q)


@lru_cache(maxsize=None)
def _digit_powers(p: int) -> tuple:
    """(1, p, ..., p**J) with J >= 1 the largest exponent for which p**J
    fits in one CPython digit (below 2**30): J = 18, 12 and 10 for p = 3, 5
    and 7, and J = 1 for every prime above 2**15. A remainder or an exact
    quotient by one of them is one pass over the digits of the dividend."""
    pows = [1, p]
    while pows[-1] * p < 1 << 30:
        pows.append(pows[-1] * p)
    return tuple(pows)


def to_decimal(n: int) -> str:
    """str(n) for an int of any size, under any sys.set_int_max_str_digits.

    With the limit lifted this is str(n). Otherwise n is split at powers of
    10 until every piece has fewer than 3 * limit bits, hence fewer than
    limit digits, and the pieces are joined zero-padded: divide and
    conquer, quadratic like str() itself.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(n)
    return "-" + _decimal(-n, 3 * limit) if n < 0 else _decimal(n, 3 * limit)


def _decimal(n: int, max_bits: int) -> str:
    bits = n.bit_length()
    if bits < max_bits:
        return str(n)
    half = bits * 3 // 20  # about half the digits; 10**half < n, so hi >= 1
    hi, lo = divmod(n, 10**half)
    return _decimal(hi, max_bits) + _decimal(lo, max_bits).zfill(half)


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
    return split_p(num, p)[0] - split_p(den, p)[0]


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
        s, q = split_p(p - 1, 2)
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
    _invariant(r * r % p == a, "Tonelli-Shanks root must square to a")
    return min(r, p - r)


def hensel_digits(p: int, Delta: int, branch: int, N: int) -> int:
    """The root of Delta mod p**N (N < 1 counts as 1) that is branch mod p,
    for p an odd prime, Delta prime to p and branch a root mod p in [1, p-1].

    Newton's x -> (x + Delta/x)/2 doubles the precision each round. Delta
    is reduced mod p**N first, so a huge Delta costs one division. Nothing
    is cached: the engine lifts only the first states of an expansion.
    """
    _check_odd_prime(p)
    Delta %= p ** max(N, 1)
    if Delta % p == 0:
        raise ValueError("Delta must be prime to p")
    if not 1 <= branch < p:
        raise ValueError("branch must lie in [1, p-1]")
    if (branch * branch - Delta) % p != 0:
        raise ValueError("branch**2 != Delta mod p")
    x, n = branch, 1
    while n < N:
        n = min(2 * n, N)
        mod = p**n
        # (mod + 1)//2 is the inverse of 2 mod the odd p**n
        x = (x + Delta * pow(x, -1, mod)) * ((mod + 1) // 2) % mod
    return x


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m in [1, m-1]; raises for non-coprime input."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible mod {m}") from None


# -- prime tests, factoring, orders and discrete logs --------------------------


def _primes_below(bound: int) -> tuple:
    """The primes below bound, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    for i in range(2, isqrt(bound - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, bound, i)))
    return tuple(i for i in range(2, bound) if sieve[i])


_PRIMES = _primes_below(10_000)  # trial division and content reduction
_SMALL_PRIMES = tuple(q for q in _PRIMES if q < 1000)
# Miller-Rabin to the prime bases up to 41 decides primality below this bound
# (Sorenson and Webster, 2017); above it isprime runs Baillie-PSW.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, a: int) -> bool:
    s, d = split_p(n - 1, 2)
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        s, a = split_p(a, 2)
        if s % 2 and n % 8 in (3, 5):
            sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters; n odd, not a square."""
    D = 5
    while _jacobi(D, n) != -1:
        if gcd(D, n) not in (1, n):
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s, d = split_p(n + 1, 2)
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q**1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Deterministic primality: Miller-Rabin to the prime bases up to 41 below
    3.3 * 10**24, Baillie-PSW above (no counterexample is known)."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    r = isqrt(n)
    return r * r != n and _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper factor of an odd composite n.

    Brent's cycle finding with batched gcds; the polynomials x**2 + c are
    tried in order c = 1, 2, ... so the factor found is reproducible.
    """
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _perfect_power(n: int):
    """(r, k) with r**k == n for the least prime k, or None; n >= 2.

    floor(n ** (1/k)) comes from integer Newton started above the root.
    """
    for k in _SMALL_PRIMES:
        if k >= n.bit_length():
            return None
        x = 1 << -(-n.bit_length() // k)
        while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
            x = y
        if x**k == n:
            return x, k
    return None


def factorint(n: int) -> dict:
    """Prime factorization {prime: exponent} of n >= 1, primes ascending.

    Trial division by the primes below 1000, which ends as soon as the
    square of the next prime passes what is left (that cofactor is 1 or
    prime, with no primality test), then Pollard-Brent on what is left. A
    composite cofactor that is a perfect k-th power (k prime) is
    split by an integer k-th root first, so factoring A**k costs what
    factoring A does. Pollard-Brent has no step bound: it needs about
    sqrt(q) steps for the least prime factor q of a cofactor, so a number
    with two prime factors beyond ~1e20 does not come back in practical time.
    """
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    for q in _SMALL_PRIMES:
        if q * q > n:  # no factor up to sqrt(n) is left: n is 1 or prime
            if n > 1:
                out[n] = 1
            return out
        if n % q == 0:
            out[q], n = split_p(n, q)
    todo = [(n, 1)] if n > 1 else []
    while todo:
        n, mult = todo.pop()
        if isprime(n):
            out[n] = out.get(n, 0) + mult
        elif root := _perfect_power(n):
            todo.append((root[0], root[1] * mult))
        else:
            d = _pollard_brent(n)
            todo += [(d, mult), (n // d, mult)]
    return dict(sorted(out.items()))


def divisors(n: int) -> list:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for q, e in factorint(n).items():
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=4096)
def _order_factors(a: int, m: int) -> tuple:
    """The multiplicative order s of the unit a mod m >= 2 with its prime
    powers, as one flat tuple (s, n, q_1, e_1, g_1, q_2, e_2, g_2, ...):
    primes ascending, q_i**e_i exactly dividing s, g_i = a**(s // q_i**e_i)
    mod m, an element of order exactly q_i**e_i, and n the product of the
    q_i**e_i whose q_i-Sylow subgroup of (Z/m)^* is not cyclic.

    Starts from the Carmichael exponent lambda(m), factored from one
    factorization of m, and strips each prime while the power still fixes 1.
    The q-Sylow subgroup is not cyclic when q divides the order of two CRT
    factors (Z/r**f)^* of m, or q = 2 and 2**f | m with f >= 3, since
    (Z/2**f)^* = C_2 x C_(2**(f-2)).
    Memoised per (a, m): a search asks for the same modulus again and again,
    and discrete_log then takes s and each g from here instead of raising a
    to a full-size power per prime on every call. An entry holds one residue
    per prime, one n and nothing per target. It is flat because a tuple per
    prime costs more memory than the g it carries: over the 21,952
    candidates of the p = 5, t = 3 search slice the memo retains 1.16 MB
    flat (1.14 MB without n) and 1.50 MB with (q, e, g) tuples (tracemalloc,
    CPython 3.11).
    """
    lam, noncyclic = {}, set()
    for r, f in factorint(m).items():
        if r == 2:  # lambda(2) = 1, lambda(4) = 2, lambda(2**f) = 2**(f-2)
            parts = {2: f - 1 if f < 3 else f - 2}
            if f >= 3:
                noncyclic.add(2)
        else:
            parts = factorint(r - 1)
            if f > 1:
                parts[r] = f - 1
        for q, k in parts.items():
            if k:
                if q in lam:  # a second CRT factor with a q-part
                    noncyclic.add(q)
                lam[q] = max(lam.get(q, 0), k)
    order = math.prod(q**k for q, k in lam.items())
    out = []
    for q in sorted(lam):
        k = lam[q]
        while k and pow(a, order // q, m) == 1:
            order //= q
            k -= 1
        if k:
            out.append((q, k))
    n = math.prod(q**k for q, k in out if q in noncyclic)
    return (order, n, *(x for q, k in out for x in (q, k, pow(a, order // q**k, m))))


def mult_order(a: int, m: int) -> int:
    """Least s >= 1 with a**s == 1 mod m, as memoised by _order_factors."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if m == 1:
        return 1
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1, no multiplicative order")
    return _order_factors(a, m)[0]


# below this prime a scan of at most q powers beats baby-step/giant-step,
# which pays for a dict and an inverse (measured crossing: q ~ 37..41)
_SCAN_BELOW = 40


def _prime_log(g: int, h: int, q: int, m: int):
    """Least d in [0, q) with g**d == h mod m, for g of prime order q; or None.

    A small q scans the powers of g; a larger one runs baby-step/giant-step
    with a table of isqrt(q - 1) + 1 entries, built per call.
    """
    cur = 1
    if q < _SCAN_BELOW:
        for d in range(q):
            if cur == h:
                return d
            cur = cur * g % m
        return None
    steps = isqrt(q - 1) + 1
    table = {}
    for j in range(steps):
        table[cur] = j
        cur = cur * g % m
    giant = pow(cur, -1, m)
    cur = h
    for i in range(steps):
        j = table.get(cur)
        if j is not None:
            return i * steps + j
        cur = cur * giant % m
    return None


def _sylow_log(h: int, q: int, e: int, g: int, m: int):
    """Pohlig-Hellman for one prime: x in [0, q**e) with g**x == h mod m,
    for g of order q**e and h**(q**e) == 1; or None when h is outside <g>.
    One _prime_log per base-q digit of x; a digit with no log means h is
    outside <g>, and when every digit has one, g**x is h exactly.
    """
    qe = q**e
    gamma = pow(g, qe // q, m)  # order q
    x = 0
    for i in range(e):
        y = h * pow(g, qe - x, m) % m if x else h  # h * g**-x
        d = _prime_log(gamma, pow(y, qe // q ** (i + 1), m), q, m)
        if d is None:
            return None
        x += d * q**i
    return x


_UNBUDGETED_DLOG_MODULUS = 10**6
DEFAULT_DLOG_TABLE_CAP = 1 << 22


def _units(base: int, target: int, m: int, budget):
    """The argument checks of discrete_log and in_subgroup: (target mod m,
    _order_factors entry of base), or None when target is no unit mod m."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    base %= m
    target %= m
    if gcd(base, m) != 1:
        raise ValueError("base must be a unit mod m")
    if gcd(target, m) != 1:
        return None
    return target, _order_factors(base, m)


def _check_budget(q: int, m: int, budget):
    """Raise DlogBudgetExceeded if the prime q's baby-step table would pass
    the budget (default DEFAULT_DLOG_TABLE_CAP); m < 10**6 is never capped."""
    if m >= _UNBUDGETED_DLOG_MODULUS:
        steps = isqrt(q - 1) + 1
        cap = DEFAULT_DLOG_TABLE_CAP if budget is None else budget
        if steps > cap:
            raise DlogBudgetExceeded(f"need {steps} table entries, budget is {cap}")


def discrete_log(base: int, target: int, m: int, budget=None):
    """Least w >= 0 with base**w == target mod m, or None if target is
    outside the subgroup generated by base.

    Every element base**w of that subgroup has an order dividing
    s = ord(base), since (base**w)**s = (base**s)**w = 1. So a target with
    target**s != 1 is outside it, and None comes back after one pow,
    before the budget is looked at: no budget makes that answer unknown.

    Otherwise Pohlig-Hellman over the factored order (_order_factors, which
    also holds each element g of order q**e): _sylow_log of each q-part
    target**(s // q**e), and only when every prime succeeds are the
    residues recombined by the Chinese remainder theorem. The answer is
    accepted only if base**w == target mod m holds. From m = 10**6 up,
    budget caps the baby-step table of the largest prime subgroup
    (_check_budget), checked after the order pre-test and before any table
    is built; a blown budget raises DlogBudgetExceeded, which callers must
    treat as "unknown", not as "no". A budget below 1 is a ValueError.
    """
    units = _units(base, target, m, budget)
    if units is None:
        return None
    target, entry = units
    order = entry[0]
    if pow(target, order, m) != 1:
        return None
    if order > 1:
        _check_budget(entry[-3], m, budget)  # the largest prime of the order
    w, modulus = 0, 1
    primes = iter(entry[2:])
    for q, e, g in zip(primes, primes, primes):
        qe = q**e
        x = _sylow_log(pow(target, order // qe, m), q, e, g, m)
        if x is None:
            return None
        w += modulus * ((x - w) * pow(modulus, -1, qe) % qe)
        modulus *= qe
    return w if pow(base, w, m) == target else None


def in_subgroup(base: int, target: int, m: int, budget=None) -> bool:
    """Whether discrete_log(base, target, m) is not None, without the log.

    (Z/m)^* is abelian, so target lies in <base> exactly when each q-part
    of target lies in the q-part <g> of <base>. The order pre-test of
    discrete_log, target**s == 1 with s = ord(base), makes each q-part's
    order divide ord(g) (trivial for q not dividing s). A cyclic q-Sylow
    subgroup of (Z/m)^* has one subgroup of each order, so there the
    pre-test proves membership. Only the primes whose Sylow subgroup is
    not cyclic, n the product of their q**e (_order_factors), run the
    digits of _sylow_log. One full-size pow v = target**(s // n) serves
    both: the pre-test is v**n == 1 and each q-part is v**(n // q**e). The
    budget caps the largest of those primes, checked after the pre-test and
    before any table is built; a budget below 1 is a ValueError.
    """
    units = _units(base, target, m, budget)
    if units is None:
        return False
    target, entry = units
    n = entry[1]
    v = pow(target, entry[0] // n, m)
    if pow(v, n, m) != 1:
        return False
    if n == 1:  # every Sylow subgroup of the order is cyclic
        return True
    noncyclic = [i for i in range(2, len(entry), 3) if n % entry[i] == 0]
    _check_budget(entry[noncyclic[-1]], m, budget)
    for i in noncyclic:
        q, e, g = entry[i:i + 3]
        if _sylow_log(pow(v, n // q**e, m), q, e, g, m) is None:
            return False
    return True


def padic_square_exists(m: int, p: int):
    """Does m have a square root in Q_p? Returns (flag, (m0, s) or None).

    On success m == p**(2*s) * m0 with p not dividing m0 and m0 a quadratic
    residue mod p. Odd valuation or a non-residue unit part give
    (False, None).
    """
    _check_odd_prime(p)
    if m == 0:
        raise ValueError("m must be nonzero")
    v, m0 = split_p(m, p)
    if v % 2 != 0:
        return False, None
    if legendre(m0, p) != 1:
        return False, None
    return True, (m0, v // 2)


@dataclass(frozen=True, slots=True)
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
            s, tilde = split_p(tilde, self.p)
            e -= s
            if e < 0:
                raise ValueError(
                    f"{self.tilde}/{self.p}**{self.e} has positive valuation, "
                    "not representable with a nonnegative denominator exponent"
                )
        object.__setattr__(self, "tilde", tilde)
        object.__setattr__(self, "e", e)

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
            e, den = split_p(den, p)
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
            return to_decimal(self.tilde)
        return f"{to_decimal(self.tilde)}/{to_decimal(self.p ** self.e)}"

    def __neg__(self) -> "LaurentInt":
        return LaurentInt(self.p, -self.tilde, self.e)

    def doubled(self) -> "LaurentInt":
        return LaurentInt(self.p, 2 * self.tilde, self.e)

    def abs_lt(self, bound: Fraction) -> bool:
        """Exact test |value| < bound."""
        bound = Fraction(bound)
        return abs(self.tilde) * bound.denominator < bound.numerator * self.p**self.e
