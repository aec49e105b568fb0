"""Independent brute-force twins of library primitives.

These deliberately avoid the library's code paths (enumeration instead of
Tonelli-Shanks, back substitution instead of recurrences, and so on) so the
unit tests compare two separately derived answers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def vp_brute(x, p):
    x = Fraction(x)
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def centered_residue_brute(x, n, p):
    pn = p**n
    for r in range(-(pn // 2), pn // 2 + 1):
        if (x - r) % pn == 0:
            return r
    raise AssertionError("unreachable for odd p")


def sqrt_mod_brute(a, p):
    roots = [r for r in range(p) if (r * r - a) % p == 0]
    return min(roots) if roots else None


def hensel_brute(Delta, branch, N, p):
    pn = p**N
    hits = [x for x in range(pn) if (x * x - Delta) % pn == 0 and x % p == branch]
    assert len(hits) == 1
    return hits[0]


def factorint_brute(n):
    """{prime: exponent} by trial division over every d up to sqrt(n)."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def isprime_brute(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def divisors_brute(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def order_brute(a, m):
    assert gcd(a, m) == 1
    cur, s = a % m, 1
    while cur != 1:
        cur = cur * a % m
        s += 1
    return s


def dlog_brute(base, target, m):
    cur = 1
    for w in range(order_brute(base, m)):
        if cur == target % m:
            return w
        cur = cur * base % m
    return None


def in_digit_window(a, centered: bool) -> bool:
    """Whether the digit a lies in its window, read off its exact value:
    |a| < p/2 for the centered flavor, 0 <= a < p for the nonnegative one."""
    x = a.value
    return abs(x) < Fraction(a.p, 2) if centered else 0 <= x < a.p


def eval_cf_brute(values):
    """Back substitution; values are Fractions (or ints)."""
    acc = Fraction(values[-1])
    for a in reversed(values[:-1]):
        acc = Fraction(a) + 1 / acc
    return acc


def convergents_brute(values):
    """(A_n, B_n) lists indexed from -1, by the plain recurrences."""
    A = [Fraction(1), Fraction(values[0])]
    B = [Fraction(0), Fraction(1)]
    for a in values[1:]:
        A.append(Fraction(a) * A[-1] + A[-2])
        B.append(Fraction(a) * B[-1] + B[-2])
    return A, B


# -- expansion twin over Q(sqrt(Delta)) ---------------------------------------
#
# State is the pair (u, v) of Fractions with alpha = u + v*sqrt(Delta). Digits
# come from plain modular arithmetic against a Newton-lifted root, and the
# recursion inverts through the conjugate. No integer-triple bookkeeping, no
# shared code with the engine.


def newton_sqrt_mod(Delta, branch, p, N):
    x = branch % p
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        mod = p**prec
        x = (x - (x * x - Delta) * pow(2 * x % mod, -1, mod)) % mod
    assert (x * x - Delta) % p**N == 0 and x % p == branch % p
    return x


def step_brute(Delta, b, c, k, r, p):
    """(b', c', k') after the digit r/p**k of (b + sqrt(Delta))/(p**k * c), by
    the dividing update: b' = r*c - b, strip p from Delta - b'**2, divide by c.
    p is stripped 256 and 16 factors at a time first, so that exponents
    near omega stay cheap."""
    b1 = r * c - b
    D = Delta - b1 * b1
    assert D != 0
    e = 0
    for f in (256, 16, 1):
        while D % p**f == 0:
            D //= p**f
            e += f
    c1, rem = divmod(D, c)
    assert rem == 0
    return b1, c1, e - k


def surd_valuation_brute(u, v, Delta, branch, p):
    u, v = Fraction(u), Fraction(v)
    if v == 0:
        return vp_brute(u, p)
    if u == 0:
        return vp_brute(v, p)
    mu, mv = vp_brute(u, p), vp_brute(v, p)
    if mu != mv:
        return min(mu, mv)
    uu = u / Fraction(p) ** mu
    vv = v / Fraction(p) ** mv
    x1 = branch % p
    ru = uu.numerator * pow(uu.denominator, -1, p) % p
    rv = vv.numerator * pow(vv.denominator, -1, p) % p
    if (ru + rv * x1) % p != 0:
        return mu
    # the conjugate keeps valuation mu, so read alpha off the norm
    return vp_brute(u * u - v * v * Delta, p) - mu


def surd_digit_brute(u, v, Delta, branch, p, flavor):
    u, v = Fraction(u), Fraction(v)
    val = surd_valuation_brute(u, v, Delta, branch, p)
    h = max(0, -val)
    s = u.denominator * v.denominator // gcd(u.denominator, v.denominator)
    e = 0
    while s % p == 0:
        s //= p
        e += 1
    U = int(u * s * p**e)
    V = int(v * s * p**e)
    N = e + h + 2
    X = newton_sqrt_mod(Delta, branch, p, N) if V else 0
    W = (U + V * X) % p**N
    if e >= h:
        assert W % p ** (e - h) == 0
        core = W // p ** (e - h)
    else:
        core = W * p ** (h - e)
    M = p ** (h + 1)
    n = core * pow(s, -1, M) % M
    if flavor == "browkin" and 2 * n > M:
        n -= M
    return Fraction(n, p**h)


def surd_expand_brute(u, v, Delta, branch, p, flavor, n_steps):
    """First n_steps digits of u + v*sqrt(Delta); v must stay nonzero."""
    u, v = Fraction(u), Fraction(v)
    assert v != 0
    digits = []
    for _ in range(n_steps):
        a = surd_digit_brute(u, v, Delta, branch, p, flavor)
        digits.append(a)
        u -= a
        den = u * u - v * v * Delta
        u, v = u / den, -v / den
    return digits


def first_regular_brute(u, v, Delta, branch, p, n):
    """Index of the first regular complete quotient of u + v*sqrt(Delta) in
    the centered expansion, among the first n, else None. Regular means
    val(u, v) < 0 < val(u, -v)."""
    u, v = Fraction(u), Fraction(v)
    for i in range(n):
        val = surd_valuation_brute(u, v, Delta, branch, p)
        if val < 0 < surd_valuation_brute(u, -v, Delta, branch, p):
            return i
        u -= surd_digit_brute(u, v, Delta, branch, p, "browkin")
        den = u * u - v * v * Delta
        u, v = u / den, -v / den
    return None


def rational_expand_brute(x, p, flavor, max_steps=500):
    """Digit list of a rational; returns (digits, terminated)."""
    x = Fraction(x)
    digits = []
    for _ in range(max_steps):
        a = surd_digit_brute(x, 0, 2, 1, p, flavor) if x else Fraction(0)
        digits.append(a)
        if x == a:
            return digits, True
        x = 1 / (x - a)
    return digits, False
