"""Independent reference arithmetic for checking padiccf results.

Nothing here imports padiccf. A quadratic irrational is carried as the pair
(u, v) of Fractions with value u + v*sqrt(D), where sqrt(D) is the p-adic
root congruent to ``branch`` mod p. Digits come from plain modular arithmetic
against a Newton-lifted root, and the recursion inverts through the
conjugate; the library instead steps an integer triple (b, c, k). The two
agree digit for digit only if both are right.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

BROWKIN = "browkin"
RUBAN = "ruban"


def val_int(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(x: Fraction, p: int):
    """p-adic valuation of a rational; None stands for zero."""
    if x == 0:
        return None
    return val_int(x.numerator, p) - val_int(x.denominator, p)


def sqrt_mod(D: int, branch: int, p: int, n: int) -> int:
    """The root x of x*x == D mod p**n with x == branch mod p."""
    x, prec = branch % p, 1
    while prec < n:
        prec = min(2 * prec, n)
        mod = p**prec
        x = (x - (x * x - D) * pow(2 * x, -1, mod)) % mod
    return x


def roots_mod_p(D: int, p: int) -> list:
    """Both square roots of a unit quadratic residue D mod p (small p)."""
    return [r for r in range(1, p) if (r * r - D) % p == 0]


def surd_val(u: Fraction, v: Fraction, D: int, branch: int, p: int) -> int:
    """v_p(u + v*sqrt(D)) for v != 0 (sqrt(D) is a p-unit)."""
    if u == 0:
        return val(v, p)
    mu, mv = val(u, p), val(v, p)
    if mu != mv:
        return min(mu, mv)
    scale = Fraction(p) ** mu
    uu, vv = u / scale, v / scale
    ru = uu.numerator * pow(uu.denominator, -1, p) % p
    rv = vv.numerator * pow(vv.denominator, -1, p) % p
    if (ru + rv * branch) % p:
        return mu
    # the conjugate is then a unit times p**mu: read the value off the norm
    return val(u * u - v * v * D, p) - mu


def _residue(x: Fraction, mod: int) -> int:
    return x.numerator * pow(x.denominator, -1, mod) % mod


def digit(u: Fraction, v: Fraction, D: int, branch: int, p: int, flavor: str) -> Fraction:
    """The digit y = n/p**h with |alpha - y|_p < 1, n in the flavor's window."""
    if v == 0:
        w = val(u, p)
        w = 1 if w is None else w
    else:
        w = surd_val(u, v, D, branch, p)
    h = max(0, -w)
    # p**h * alpha is p-integral; scale out any p-denominators of the parts
    e = max(0, -(val(u, p) or 0) - h, -(val(v, p) or 0) - h if v else 0)
    M = e + h + 1
    mod = p**M
    U = _residue(u * Fraction(p) ** (h + e), mod)
    V = _residue(v * Fraction(p) ** (h + e), mod) if v else 0
    T = (U + V * sqrt_mod(D, branch, p, M)) % mod if V else U
    if T % p**e:
        raise ArithmeticError("scaled value is not p-integral")
    top = p ** (h + 1)
    n = T // p**e % top
    if flavor == BROWKIN and 2 * n > top:
        n -= top
    return Fraction(n, p**h)


def surd_expand(u, v, D: int, branch: int, p: int, flavor: str, n_steps: int,
                stop_on_cycle: bool = False):
    """Digits of u + v*sqrt(D), and the states (u, v) they came from.

    With stop_on_cycle the run stops at the first repeated state and returns
    (digits, states, j) where the cycle starts at index j; otherwise j is None.
    """
    u, v = Fraction(u), Fraction(v)
    digits, states, seen = [], [], {}
    for i in range(n_steps):
        if stop_on_cycle:
            j = seen.get((u, v))
            if j is not None:
                return digits, states, j
            seen[(u, v)] = i
        states.append((u, v))
        y = digit(u, v, D, branch, p, flavor)
        digits.append(y)
        u -= y
        den = u * u - v * v * D
        u, v = u / den, -v / den
    return digits, states, None


def is_regular_state(u: Fraction, v: Fraction, D: int, branch: int, p: int) -> bool:
    """Negative valuation and positive conjugate valuation."""
    return surd_val(u, v, D, branch, p) < 0 < surd_val(u, -v, D, branch, p)


def first_regular(u, v, D: int, branch: int, p: int, n_steps: int):
    """Index of the first regular state of the centered expansion, or None."""
    u, v = Fraction(u), Fraction(v)
    for i in range(n_steps):
        if is_regular_state(u, v, D, branch, p):
            return i
        u -= digit(u, v, D, branch, p, BROWKIN)
        den = u * u - v * v * D
        u, v = u / den, -v / den
    return None


def rational_expand(x, p: int, flavor: str, max_steps: int):
    """(digits, status, cycle_start) of a rational: finite, periodic or open."""
    x = Fraction(x)
    digits, seen = [], {}
    for i in range(max_steps):
        if flavor == RUBAN:
            j = seen.get(x)
            if j is not None:
                return digits, "periodic", j
            seen[x] = i
        y = digit(x, Fraction(0), 2, 1, p, flavor)
        digits.append(y)
        if x == y:
            return digits, "finite", None
        x = 1 / (x - y)
    return digits, "open", None


def eval_cf(values) -> Fraction:
    """Value of a finite digit list by back substitution."""
    acc = Fraction(values[-1])
    for a in reversed(values[:-1]):
        acc = a + 1 / acc
    return acc


def quad_params(u: Fraction, v: Fraction, p: int):
    """(b, c, k) with u + v*sqrt(D) == (b + sqrt(D))/(p**k * c), p not | c.

    Every state reached by expanding such a value keeps this shape.
    """
    r = 1 / v
    k = val(r, p)
    c = r / Fraction(p) ** k
    b = u * r
    if c.denominator != 1 or b.denominator != 1:
        raise ValueError("state is not of the (b + sqrt(D))/(p**k c) shape")
    return int(b), int(c), k


def tilde_rows(cf):
    """Integer tilde convergent rows for digits given as (tilde, e) pairs.

    Returns (At, Bt) indexed from -1, i.e. At[n + 1] is Atilde_n, computed
    from the Fraction convergents A_n, B_n scaled by p**K'_n and p**K_n, not
    from the tilde recurrence the library uses.
    """
    p = cf[0][2]
    vals = [Fraction(t, p**e) for t, e, _ in cf]
    A, B = [Fraction(1), vals[0]], [Fraction(0), Fraction(1)]
    for a in vals[1:]:
        A.append(a * A[-1] + A[-2])
        B.append(a * B[-1] + B[-2])
    At, Bt = [1], [0]
    K = 0
    for n in range(len(cf)):
        if n:
            K += cf[n][1]
        At.append(A[n + 1] * Fraction(p) ** (K + cf[0][1]))
        Bt.append(B[n + 1] * Fraction(p) ** K)
    if any(x.denominator != 1 for x in At + Bt):
        raise ArithmeticError("tilde rows are not integral")
    return [int(x) for x in At], [int(x) for x in Bt]


def cond_ab(cf, At) -> tuple:
    """Conditions (a) and (b) of niceness, exactly, from the tilde rows."""
    p = cf[0][2]
    t0, e0 = cf[0][0], cf[0][1]
    cond_a = e0 >= 1 and 4 * abs(t0) < p ** (e0 + 1)
    last, prev = At[len(cf)], At[len(cf) - 1]
    if prev == 0:
        cond_b = last != 0
    else:
        # |A_{t-1}/A_{t-2}| = |At_{t-1}| / (|At_{t-2}| p**k_{t-1})
        cond_b = p * abs(last) > 4 * abs(prev) * p ** cf[-1][1]
    return cond_a, cond_b


def divisors(n: int) -> list:
    n = abs(n)
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return small + large[::-1]


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n
