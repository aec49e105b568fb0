"""Continued fraction engine over exact quadratic-irrational state.

A value is held as alpha = (b + delta)/(p**k * c) with integer b, c, k,
where delta is the branch-selected square root of a nonsquare integer Delta
prime to p, and c divides Delta - b**2. One algorithm step emits the digit
a = s(alpha) (centered window for the Browkin flavor, [0, p) window for the
Ruban flavor) and produces the next state by the closed-form update

    b' = a~ * c - b,      p**(k + k') * c * c' = Delta - b'**2,

which keeps every quantity an integer. Periodicity is detected by the first
repeat of the exact triple (b, c, k); for a fixed (Delta, branch) that triple
determines the value (c is prime to p, so k and c are recoverable from the
denominator), hence the first repeat yields the minimal preperiod and period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from .core import (
    INF,
    LaurentInt,
    _check_odd_prime,
    _invariant,
    centered_residue,
    hensel_digits,
    legendre,
    mod_inverse,
    split_p,
    sqrt_mod_p,
    vp,
)

BROWKIN = "browkin"
RUBAN = "ruban"
FLAVORS = (BROWKIN, RUBAN)

FINITE = "finite"
PERIODIC = "periodic"
OPEN = "open"

DEFAULT_MAX_STEPS = 10_000


def _check_flavor(flavor: str) -> str:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    return flavor


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class QuadIrr:
    """(b + delta)/(p**k * c) with delta**2 = Delta, delta = branch mod p.

    Invariants enforced at construction: Delta is a nonsquare prime to p,
    c != 0 is prime to p and divides Delta - b**2, branch selects an actual
    square root of Delta mod p. k may be negative, which is how values with
    positive valuation (p**j * sqrt(m) and friends) are written.
    """

    p: int
    Delta: int
    b: int
    c: int
    k: int
    branch: int

    def __post_init__(self):
        _check_odd_prime(self.p)
        p = self.p
        if _is_square(self.Delta):
            raise ValueError(
                f"Delta={self.Delta} is a perfect square; the value is rational"
            )
        if self.Delta % p == 0:
            raise ValueError("Delta must be prime to p (normalize first)")
        if self.c == 0 or self.c % p == 0:
            raise ValueError("c must be nonzero and prime to p")
        if (self.Delta - self.b * self.b) % self.c != 0:
            raise ValueError("c must divide Delta - b**2")
        if not 1 <= self.branch < p:
            raise ValueError("branch must lie in [1, p-1]")
        if (self.branch * self.branch - self.Delta) % p != 0:
            raise ValueError("branch**2 != Delta mod p")

    # -- exact valuation helpers ------------------------------------------

    def _val_b_plus_delta(self) -> int:
        return _val_linear(self.b, 1, self.Delta, self.branch, self.p)

    @property
    def valuation(self) -> int:
        """v_p of the value, computed exactly."""
        return self._val_b_plus_delta() - self.k

    @property
    def norm(self) -> Fraction:
        """Field norm alpha * conjugate(alpha) = (b**2 - Delta)/(p**2k c**2)."""
        return Fraction(self.b * self.b - self.Delta) / (
            Fraction(self.p) ** (2 * self.k) * self.c * self.c
        )

    @property
    def trace_zero(self) -> bool:
        return self.b == 0

    # -- companions --------------------------------------------------------

    def conjugate(self) -> "QuadIrr":
        """(b - delta)/(p**k c), stored with the same branch as (-b, -c)."""
        return QuadIrr(self.p, self.Delta, -self.b, -self.c, self.k, self.branch)

    def negated(self) -> "QuadIrr":
        return QuadIrr(self.p, self.Delta, -self.b, self.c, self.k, self.p - self.branch)

    def inverse(self) -> "QuadIrr":
        """1/alpha as a QuadIrr (rationalized through the conjugate)."""
        p, b, c, k = self.p, self.b, self.c, self.k
        w = b * b - self.Delta
        if k >= 0:
            return _from_uvw(p, p**k * c * b, -(p**k) * c, w, self.Delta, self.branch)
        return _from_uvw(p, c * b, -c, p ** (-k) * w, self.Delta, self.branch)

    def value_equals(self, other: "QuadIrr") -> bool:
        """Exact equality of the represented values, across different Delta."""
        if self.p != other.p:
            return False
        p = self.p
        s_den = Fraction(p) ** self.k * self.c
        o_den = Fraction(p) ** other.k * other.c
        if Fraction(self.b) / s_den != Fraction(other.b) / o_den:
            return False
        # irrational parts delta_i/den_i: compare squares, then valuation and
        # the leading digit mod p (the two candidates differ by a sign, and
        # -u != u mod p for a unit u when p is odd)
        if Fraction(self.Delta) / s_den**2 != Fraction(other.Delta) / o_den**2:
            return False
        if self.k != other.k:
            return False
        u_self = mod_inverse(self.c % p, p) * self.branch % p
        u_other = mod_inverse(other.c % p, p) * other.branch % p
        return u_self == u_other

    def approx_digits(self, n_digits: int):
        """(e, u): value = p**e * (u + O(p**n_digits)) with u a unit mod p**n_digits."""
        w = self._val_b_plus_delta()
        N = w + n_digits
        dig = hensel_digits(self.p, self.Delta, self.branch, N)
        pn = self.p**n_digits
        unit = (self.b + dig) // self.p**w % pn
        unit = unit * mod_inverse(self.c % pn, pn) % pn
        _invariant(unit % self.p != 0, "the leading digit of the value must be a unit")
        return w - self.k, unit

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "Delta": self.Delta,
            "b": self.b,
            "c": self.c,
            "k": self.k,
            "branch": self.branch,
        }

    def __str__(self) -> str:
        return (
            f"({self.b}+sqrt({self.Delta}))/({self.p}^{self.k}*{self.c})"
            f"[delta={self.branch} mod {self.p}]"
        )


def _val_linear(x: int, y: int, Delta: int, branch: int, p: int):
    """v_p(x + y*delta) for integers x, y; INF when both vanish.

    After pulling out the shared p power at least one of x, y is a unit.
    The sum is then a unit unless x = -y*delta mod p, in which case the
    conjugate x - y*delta is the unit and the valuation is read off the
    rational product x**2 - y**2*Delta.
    """
    if x == 0 and y == 0:
        return INF
    if x == 0 or y == 0:
        return split_p(x or y, p)[0]
    g = min(split_p(x, p)[0], split_p(y, p)[0])
    x //= p**g
    y //= p**g
    if (x + y * branch) % p != 0:
        return g
    return g + split_p(x * x - y * y * Delta, p)[0]


def quad_distance_valuation(alpha: QuadIrr, r) -> int:
    """v_p(alpha - r) for rational r, computed exactly."""
    r = Fraction(r)
    den = Fraction(alpha.p) ** alpha.k * alpha.c
    x = Fraction(alpha.b) - r * den  # alpha - r = (x + delta)/den
    X, L = x.numerator, x.denominator
    v = _val_linear(X, L, alpha.Delta, alpha.branch, alpha.p)
    if v == INF:
        raise ValueError("alpha - r is purely irrational only; unreachable")
    return v - vp(L, alpha.p) - alpha.k


def normalize(p: int, Delta: int, b: int, c: int, k: int, branch: int) -> QuadIrr:
    """Bring (b + sqrt(Delta))/(p**k c) to the canonical QuadIrr shape.

    Handles p-power square parts of Delta (absorbed into k), p powers inside
    c (moved into k), the (b*c, c**2*Delta, c**2) rescale that restores the
    divisibility c | Delta - b**2, and a final reduction by common square
    factors. When p divides the input Delta, branch refers to the square
    root of the unit part of Delta left after stripping p**(2s).
    """
    _check_odd_prime(p)
    if c == 0:
        raise ValueError("c must be nonzero")
    if Delta == 0 or _is_square(Delta):
        raise ValueError(f"Delta={Delta} is a perfect square; value is rational")
    v, D0 = split_p(Delta, p)
    if v % 2 != 0:
        raise ValueError(f"sqrt({Delta}) not in Q_{p}: odd valuation")
    if legendre(D0, p) != 1:
        raise ValueError(f"sqrt({Delta}) not in Q_{p}: unit part is a non-residue")
    if not (1 <= branch < p) or (branch * branch - D0) % p != 0:
        raise ValueError("branch does not select a square root of the unit part")
    s = v // 2
    # value = (b + p**s * delta0)/(p**k c)
    if s > 0:
        if b == 0:
            k -= s
        else:
            j = min(split_p(b, p)[0], s)
            b //= p**j
            k -= j
            if s - j > 0:
                raise ValueError(
                    "value mixes a p-unit rational part with a p-divisible "
                    "irrational part; it has no (b+delta)/(p^k c) form with "
                    "Delta prime to p"
                )
    vc, c = split_p(c, p)
    k += vc
    if (D0 - b * b) % c != 0:
        absc = abs(c)
        b, D0, branch = b * absc, D0 * c * c, branch * absc % p
        c = c * absc
    # Best-effort square-content reduction: pull q**f out of b and c (and
    # q**2f out of D0) for the primes q below 10,000 only, and only when the
    # c | D0-b**2 invariant survives; factoring huge cofactors is never worth
    # it here. One gcd with the product of those primes picks the q to try.
    g = gcd(b, c)
    primes, primorial = _content_primes()
    h = gcd(g, primorial)
    for q in primes:
        if q > h:
            break
        if h % q or q == p or D0 % q:
            continue
        f = min(split_p(g, q)[0], split_p(D0, q)[0] // 2)
        while f > 0:
            qf = q**f
            if (D0 // (qf * qf) - (b // qf) ** 2) % (c // qf) == 0:
                b //= qf
                c //= qf
                D0 //= qf * qf
                branch = branch * mod_inverse(qf % p, p) % p
                break
            f -= 1
    return QuadIrr(p, D0, b, c, k, branch)


@lru_cache(maxsize=None)
def _content_primes():
    """The primes below 10,000 and their product, sieved on first use."""
    sieve = bytearray([1]) * 10_000
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 10_000, i)))
    primes = tuple(i for i in range(2, 10_000) if sieve[i])
    return primes, prod(primes)


def _from_uvw(p: int, u: int, v: int, w: int, Delta: int, branch: int) -> QuadIrr:
    """QuadIrr for (u + v*delta)/w with integer u, v != 0, w != 0."""
    if v == 0 or w == 0:
        raise ValueError("need v != 0 and w != 0")
    if v < 0:
        v, branch = -v, p - branch
    v0 = split_p(v, p)[1]
    return normalize(p, v * v * Delta, u, w, 0, v0 * branch % p)


def _mobius(A, Ap, B, Bp, gamma: QuadIrr) -> QuadIrr:
    """(A*gamma + Ap)/(B*gamma + Bp) for rational A, Ap, B, Bp."""
    den = Fraction(gamma.p) ** gamma.k * gamma.c
    x1 = Fraction(A) * gamma.b + Fraction(Ap) * den
    x2 = Fraction(A)
    y1 = Fraction(B) * gamma.b + Fraction(Bp) * den
    y2 = Fraction(B)
    # (x1 + x2 d)/(y1 + y2 d) = ((x1 y1 - x2 y2 D) + (x2 y1 - x1 y2) d)/(y1^2 - y2^2 D)
    U = x1 * y1 - x2 * y2 * gamma.Delta
    V = x2 * y1 - x1 * y2
    W = y1 * y1 - y2 * y2 * gamma.Delta
    if W == 0:
        raise ValueError("Moebius transport degenerates (conjugate hit)")
    L = lcm(U.denominator, V.denominator, W.denominator)
    Ui, Vi, Wi = int(U * L), int(V * L), int(W * L)
    if Vi == 0:
        raise ValueError("transport produced a rational value")
    g = gcd(gcd(Ui, Vi), Wi)
    return _from_uvw(gamma.p, Ui // g, Vi // g, Wi // g, gamma.Delta, gamma.branch)


# -- s-functions -----------------------------------------------------------


def _digit(alpha: QuadIrr, flavor: str) -> LaurentInt:
    p, k = alpha.p, alpha.k
    if k < 0:
        # v_p(alpha) = v_p(b + delta) - k >= 1, the digit window is empty
        return LaurentInt(p, 0, 0)
    N = k + 1
    pn = p**N
    dig = hensel_digits(p, alpha.Delta, alpha.branch, N)
    t = (alpha.b + dig) * mod_inverse(alpha.c % pn, pn) % pn
    r = centered_residue(t, N, p) if flavor == BROWKIN else t
    return LaurentInt(p, r, k)


def _digit_rational(x: Fraction, v, p: int, flavor: str) -> LaurentInt:
    """The digit of x, whose valuation v = vp(x, p) the caller has."""
    if v == INF or v >= 1:
        return LaurentInt(p, 0, 0)
    k = max(0, -v)
    N = k + 1
    pn = p**N
    d = x.denominator // p**k
    t = x.numerator * mod_inverse(d % pn, pn) % pn
    r = centered_residue(t, N, p) if flavor == BROWKIN else t
    return LaurentInt(p, r, k)


# -- the stepper -----------------------------------------------------------


def step(alpha: QuadIrr, flavor: str = BROWKIN):
    """One algorithm step: returns (digit, next complete quotient).

    The update is exact integer arithmetic: with a~ = p**k * a,
    b' = a~ c - b, and Delta - b'**2 = p**(k + k') c c' defines k' and c'.
    """
    _check_flavor(flavor)
    a = _digit(alpha, flavor)
    if a.tilde == 0:
        atilde = 0
    else:
        atilde = a.tilde * alpha.p ** (alpha.k - a.e)
    b1 = atilde * alpha.c - alpha.b
    D = alpha.Delta - b1 * b1
    if D == 0:
        raise ValueError("rational leak: Delta = b'**2, invariant violation")
    e, Dt = split_p(D, alpha.p)
    c1, rem = divmod(Dt, alpha.c)
    _invariant(rem == 0, "c | Delta - b'**2 must propagate")
    k1 = e - alpha.k
    _invariant(k1 >= 1, "next complete quotient must have negative valuation")
    # Delta and branch are kept, and c1 != 0 is free of p and divides
    # Delta - b1**2 = p**e * c * c1, so QuadIrr's checks are skipped.
    nxt = object.__new__(QuadIrr)
    nxt.__dict__.update(p=alpha.p, Delta=alpha.Delta, b=b1, c=c1, k=k1, branch=alpha.branch)
    return a, nxt


# -- expansions ------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    """Result of running the algorithm: digits, cycle data, bookkeeping.

    ks[i] is k_i = -v_p(alpha_i) for each recorded index (preperiod plus one
    period for periodic results); k_at(i) extends it through the cycle.
    states mirrors the recorded complete quotients when the source was
    a QuadIrr.
    """

    p: int
    flavor: str
    status: str
    preperiod: tuple
    period: tuple
    ks: tuple
    alpha: object = None
    states: tuple = ()

    @property
    def quotients(self) -> tuple:
        return self.preperiod + self.period

    @property
    def is_purely_periodic(self) -> bool:
        return self.status == PERIODIC and not self.preperiod

    def quotient_at(self, i: int) -> LaurentInt:
        pre, per = len(self.preperiod), len(self.period)
        if i < pre:
            return self.preperiod[i]
        if per == 0:
            raise IndexError(f"index {i} beyond a {self.status} expansion")
        return self.period[(i - pre) % per]

    def k_at(self, i: int) -> int:
        pre, per = len(self.preperiod), len(self.period)
        if i < pre:
            return self.ks[i]
        if per == 0:
            if i < len(self.ks):
                return self.ks[i]
            raise IndexError(f"index {i} beyond a {self.status} expansion")
        return self.ks[pre + (i - pre) % per]

    def state_at(self, i: int) -> "QuadIrr":
        pre, per = len(self.preperiod), len(self.period)
        if i < pre or per == 0:
            return self.states[i]
        return self.states[pre + (i - pre) % per]

    def text(self) -> str:
        pre = ", ".join(str(q) for q in self.preperiod)
        if self.status == PERIODIC:
            per = ", ".join(str(q) for q in self.period)
            return f"[{pre}, ({per})*]" if pre else f"[({per})*]"
        if self.status == OPEN:
            return f"[{pre}, ...]"
        return f"[{pre}]"

    __str__ = text

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "flavor": self.flavor,
            "status": self.status,
            "preperiod": [str(q) for q in self.preperiod],
            "period": [str(q) for q in self.period],
            "ks": list(self.ks),
        }


def expand(alpha: QuadIrr, flavor: str = BROWKIN, max_steps: int = DEFAULT_MAX_STEPS) -> Expansion:
    """Run the algorithm with cycle detection on the exact state triple.

    Returns a periodic expansion with minimal preperiod and period, or an
    open one if no state repeats within max_steps.
    """
    _check_flavor(flavor)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    seen: dict[tuple[int, int, int], int] = {}
    quots: list[LaurentInt] = []
    ks: list[int] = []
    states: list[QuadIrr] = []
    cur = alpha
    for i in range(max_steps):
        key = (cur.b, cur.c, cur.k)
        j = seen.get(key)
        if j is not None:
            pre, per = tuple(quots[:j]), tuple(quots[j:])
            if pre:
                _invariant(pre[-1] != per[-1], "state-minimal cycle should be digit-minimal")
            return Expansion(
                alpha.p, flavor, PERIODIC, pre, per,
                tuple(ks[: j + len(per)]), alpha, tuple(states[: j + len(per)]),
            )
        seen[key] = i
        states.append(cur)
        ks.append(cur.k - cur._val_b_plus_delta())
        a, cur = step(cur, flavor)
        quots.append(a)
    return Expansion(
        alpha.p, flavor, OPEN, tuple(quots), (), tuple(ks), alpha, tuple(states)
    )


def expand_rational(x, p: int, flavor: str = BROWKIN, max_steps: int = DEFAULT_MAX_STEPS) -> Expansion:
    """Expansion of a rational; the centered flavor always terminates, the
    nonnegative flavor terminates or cycles."""
    _check_flavor(flavor)
    _check_odd_prime(p)
    x = Fraction(x)
    seen: dict[Fraction, int] = {}
    quots: list[LaurentInt] = []
    ks: list[int] = []
    cur = x
    for i in range(max_steps):
        if flavor == RUBAN:
            j = seen.get(cur)
            if j is not None:
                return Expansion(
                    p, flavor, PERIODIC, tuple(quots[:j]), tuple(quots[j:]),
                    tuple(ks), x,
                )
            seen[cur] = i
        v = vp(cur, p)
        ks.append(0 if v == INF else -v)
        a = _digit_rational(cur, v, p, flavor)
        quots.append(a)
        rem = cur - a.value
        if rem == 0:
            return Expansion(p, flavor, FINITE, tuple(quots), (), tuple(ks), x)
        cur = 1 / rem
    if flavor == BROWKIN:
        raise RuntimeError(
            f"centered expansion of {x} did not terminate in {max_steps} steps; "
            "this contradicts finiteness on rationals and signals a bug"
        )
    return Expansion(p, flavor, OPEN, tuple(quots), (), tuple(ks), x)


# -- convergents -----------------------------------------------------------


@dataclass
class ConvergentTable:
    """A_n, B_n and their integer tilde companions, indices from -1.

    Only the tilde rows are built, by Atilde_n = a~_n Atilde_{n-1} +
    p**(k_n + k_{n-1}) Atilde_{n-2} with k_n the denominator exponent of the
    n-th digit (same for Btilde). They equal p**(K'_n) A_n and p**(K_n) B_n,
    so A_(n) and B_(n) are read off them as exact Fractions; the test suite
    checks this against the plain recurrences A_n = a_n A_{n-1} + A_{n-2}.
    """

    p: int
    quotients: tuple
    Atilde: list
    Btilde: list
    ks: tuple
    Ksum: list  # Ksum[n + 1] = K_n = k_1 + ... + k_n, with K_{-1} = K_0 = 0

    def __len__(self) -> int:
        return len(self.quotients)

    def A_(self, n: int) -> Fraction:
        return Fraction(self.Atilde[n + 1], self.p ** self.Kprime(n))

    def B_(self, n: int) -> Fraction:
        return Fraction(self.Btilde[n + 1], self.p ** self.K(n))

    def Atilde_(self, n: int) -> int:
        return self.Atilde[n + 1]

    def Btilde_(self, n: int) -> int:
        return self.Btilde[n + 1]

    def K(self, n: int) -> int:
        return self.Ksum[n + 1]

    def Kprime(self, n: int) -> int:
        """K'_n = K_n + k_0, and K'_{-1} = 0 (Atilde_{-1} = A_{-1} = 1)."""
        return self.Ksum[n + 1] + self.ks[0] if n >= 0 else 0


def convergents(quotients, p: int = None) -> ConvergentTable:
    """Build the full table for a digit list (LaurentInt entries)."""
    quotients = tuple(quotients)
    if not quotients:
        raise ValueError("need at least one digit")
    if p is None:
        p = quotients[0].p
    ks = tuple(q.e for q in quotients)
    Atilde = [1, quotients[0].tilde]
    Btilde = [0, 1]
    Ksum = [0, 0]
    for n in range(1, len(quotients)):
        a = quotients[n]
        jump = p ** (ks[n] + ks[n - 1])
        Atilde.append(a.tilde * Atilde[-1] + jump * Atilde[-2])
        Btilde.append(a.tilde * Btilde[-1] + jump * Btilde[-2])
        Ksum.append(Ksum[-1] + ks[n])
    return ConvergentTable(p, quotients, Atilde, Btilde, ks, Ksum)


def eval_finite(quotients) -> Fraction:
    """Exact value A_n/B_n of a finite digit list."""
    t = convergents(quotients)
    n = len(t) - 1
    if t.B_(n) == 0:
        raise ZeroDivisionError("digit list has a vanishing denominator row")
    return t.A_(n) / t.B_(n)


# -- periodic reconstruction ------------------------------------------------


def _stream_equal(exp: Expansion, preperiod, period, n: int) -> bool:
    if exp.status not in (PERIODIC, OPEN):
        return False
    pre, per = len(preperiod), len(period)
    if exp.status == OPEN and len(exp.preperiod) < n:
        return False
    for i in range(n):
        want = preperiod[i] if i < pre else period[(i - pre) % per]
        try:
            got = exp.quotient_at(i)
        except IndexError:
            return False
        if got != want:
            return False
    return True


def first_reexpansion(candidates, preperiod, period, flavor: str = BROWKIN):
    """The first candidate whose expansion reproduces [preperiod, (period)*].

    Candidates (typically the two square-root branches of one value) are
    tried in order, lazily; each is expanded for n = len(preperiod) +
    2*len(period) + 2 steps and its first n digits are compared with the
    claimed stream. A true match with preperiod m and period N repeats a
    state by step m + N < n, so its expansion comes back periodic. Returns
    (alpha, expansion), or None when no candidate matches.
    """
    want_n = len(preperiod) + 2 * len(period) + 2
    for alpha in candidates:
        exp = expand(alpha, flavor, max_steps=want_n)
        if _stream_equal(exp, preperiod, period, want_n):
            return alpha, exp
    return None


def _period_roots(period, p: int) -> tuple:
    """Both branch roots of the period quadratic of a nonempty period.

    The purely periodic value [(period)*] is a root of
    B_{N-1} x**2 - (A_{N-1} - B_{N-2}) x - A_{N-2} = 0 over the period's
    convergents. Raises ValueError when that quadratic is degenerate, has
    rational roots or has no roots in Q_p.
    """
    if not period:
        raise ValueError("period must be nonempty")
    t = convergents(period, p)
    N = len(period)
    aq = t.B_(N - 1)
    bq = t.A_(N - 1) - t.B_(N - 2)
    cq = t.A_(N - 2)
    if aq == 0:
        raise ValueError("degenerate period: B_{N-1} = 0")
    M = lcm(aq.denominator, bq.denominator, cq.denominator)
    a2, b2, c2 = int(aq * M), int(bq * M), int(cq * M)
    Draw = b2 * b2 + 4 * a2 * c2
    if Draw == 0 or _is_square(Draw):
        raise ValueError("period value is rational, not a quadratic irrational")
    v2, D0 = split_p(Draw, p)
    if v2 % 2 != 0 or legendre(D0, p) != 1:
        raise ValueError(f"period discriminant has no square root in Q_{p}")
    r = sqrt_mod_p(D0 % p, p)
    _invariant(r, "a unit quadratic residue has a nonzero root mod p")
    return tuple(_from_uvw(p, b2, 1, 2 * a2, Draw, br) for br in (r, p - r))


def periodic_limit(preperiod, period, p: int, flavor: str = BROWKIN) -> QuadIrr:
    """The exact value of [preperiod, (period)*].

    A root of the period quadratic (see _period_roots) is transported
    through the preperiod, and of the sign/branch candidates the one whose
    re-expansion reproduces the digit stream is returned.
    """
    _check_flavor(flavor)
    preperiod, period = tuple(preperiod), tuple(period)
    gammas = _period_roots(period, p)
    m = len(preperiod)
    if m:
        tp = convergents(preperiod, p)
        A1, A2 = tp.A_(m - 1), tp.A_(m - 2)
        B1, B2 = tp.B_(m - 1), tp.B_(m - 2)
    cands = (_mobius(A1, A2, B1, B2, g) for g in gammas) if m else gammas
    hit = first_reexpansion(cands, preperiod, period, flavor)
    if hit is None:
        raise ValueError("no branch of the reconstructed value re-expands to the given digits")
    return hit[0]


# -- the audit ---------------------------------------------------------------


@dataclass(frozen=True)
class ValuationAudit:
    ok: bool
    n_checked: int
    failures: tuple

    def to_json(self) -> dict:
        return {"ok": self.ok, "n_checked": self.n_checked, "failures": list(self.failures)}


def valuation_audit(expansion: Expansion, table: ConvergentTable = None, depth: int = None) -> ValuationAudit:
    """Check v_p(A_n) = -K'_n, v_p(B_n) = -K_n and the approximation law
    v_p(Q_n - alpha) = 2 K_n + k_{n+1} >= 2n + 1 on an expansion of a
    quadratic irrational."""
    alpha = expansion.alpha
    if not isinstance(alpha, QuadIrr):
        raise ValueError("audit needs an expansion produced from a QuadIrr")
    p = expansion.p
    pre, per = len(expansion.preperiod), len(expansion.period)
    available = pre + per if expansion.status == PERIODIC else pre
    if depth is None:
        depth = available if expansion.status != PERIODIC else pre + 2 * per
    digits = [expansion.quotient_at(i) for i in range(depth)]
    if table is None:
        table = convergents(digits, p)
    failures = []
    K = 0
    Kp = expansion.k_at(0)
    if table.A_(0) != 0:
        got = vp(table.A_(0), p)
        if got != -Kp:
            failures.append(f"v(A_0)={got} != {-Kp}")
    for n in range(1, depth):
        K += expansion.k_at(n)
        Kp += expansion.k_at(n)
        va = vp(table.A_(n), p)
        vb = vp(table.B_(n), p)
        if va != -Kp:
            failures.append(f"v(A_{n})={va} != -K'_{n}={-Kp}")
        if vb != -K:
            failures.append(f"v(B_{n})={vb} != -K_{n}={-K}")
    K = 0
    for n in range(0, depth - 1):
        if n >= 1:
            K += expansion.k_at(n)
        q_n = table.A_(n) / table.B_(n)
        want = 2 * K + expansion.k_at(n + 1)
        got = quad_distance_valuation(alpha, q_n)
        if got != want:
            failures.append(f"v(Q_{n}-alpha)={got} != 2K_{n}+k_{n+1}={want}")
        if got < 2 * n + 1:
            failures.append(f"v(Q_{n}-alpha)={got} < {2 * n + 1}")
    return ValuationAudit(not failures, depth, tuple(failures))


# -- parsing helpers (shared with the CLI) -----------------------------------


def parse_quotient_list(text: str, p: int):
    """Comma-separated digits in the n~/p**e grammar, e.g. "1/3, 110/81"."""
    items = [piece for piece in (s.strip() for s in text.split(",")) if piece]
    if not items:
        raise ValueError("empty digit list")
    return tuple(LaurentInt.parse(s, p) for s in items)


def parse_expansion_text(text: str, p: int):
    """Inverse of Expansion.text(); returns (preperiod, period, status)."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"expansion text must be bracketed, got {text!r}")
    body = body[1:-1].strip()
    status = FINITE
    period: tuple = ()
    if body.endswith("..."):
        status = OPEN
        body = body[: -len("...")].rstrip().rstrip(",")
    elif "(" in body:
        status = PERIODIC
        open_i = body.index("(")
        star_i = body.rindex(")*")
        period = parse_quotient_list(body[open_i + 1 : star_i], p)
        body = body[:open_i].rstrip().rstrip(",")
    preperiod = parse_quotient_list(body, p) if body.strip() else ()
    return preperiod, period, status
