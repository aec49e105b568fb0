"""Continued fraction engine over exact quadratic-irrational state.

A value is held as alpha = (b + delta)/(p**k * c) with integer b, c, k,
where delta is the branch-selected square root of a nonsquare integer Delta
prime to p, and c divides Delta - b**2. One algorithm step emits the digit
a = s(alpha) (centered window for the Browkin flavor, [0, p) window for the
Ruban flavor) and produces the next state by the closed-form update

    b' = a~ * c - b,      p**(k + k') * c * c' = Delta - b'**2,

which keeps every quantity an integer. The update needs no squaring: with
r = a~ and X = (Delta - b**2)/c,

    W = (Delta - b'**2)/c = X + r * (b - b') = p**(k + k') * c',

because Delta - b'**2 = (Delta - b**2) + r*c*(b - b') when b + b' = r*c, and
the next state's X is p**(k + k') * c. On a state stepped from one with
k_prev >= 1, X = p**k * Z with Z = p**k_prev * c_prev, and the digit
numerator r is a p-unit (the state has k >= 1 and valuation exactly -k).

With p**J the largest power of p in one CPython digit (J = 18, 12 and 10
for p = 3, 5 and 7), a step whose digit exponent k is below J reads its
digit off residues of delta and c below p**(k+1), k' off one remainder of
W by p**J, and c' from one exact division by a one-digit power of p. A
step with k >= J, as after the middle digit of a construction's
re-expansion (k ~ omega), divides b - b' exactly by p**k first, a division
with a small quotient, and a W that p**J divides goes to
core.split_p_power whole, which hands back the p**(k + k') it used, so
p**k' is one division by the one-digit p**k; both are _wide_step's, and
every step stays linear in the state size.

That update is the kernel of one generator, _chain, on plain ints: it
carries p**k, Z and c's residue from step to step, reads c**-1 mod p**(k+1)
off a table per prime (_inverses) and builds no QuadIrr; its docstring
proves that reading the digit off delta is sound. State 0 has no
predecessor, and a state stepped from one with k_prev < 1 has b = delta
only mod p**(k_prev + k), short of the p**(k+1) its digit needs, so those
go through _dividing_step, which lifts delta and finds X by one exact
division by c; the kernel takes over by state 2. expand, walk(), state_at
and the replay all consume the chain, so a replayed state is the one
expand saw. The chain yields each digit as its numerator and exponent,
and expand alone builds the digits, without LaurentInt's validation: the
kernel checks that r is a p-unit.

Long expansions step big states in Lehmer blocks (Lehmer's method for
Euclid's algorithm on large numbers, at the p-adic low end), a mode of
the same kernel loop. A digit and its k' depend only on the state's
residues, so from a kernel state of 600 bits or more with k < J the loop
runs its residue route on b, c and Z mod p**N, N = 12 J (about 336
bits), multiplies the tilde digit matrices of its steps, and rebuilds
the exact state once, at the end, from the block's first state: read as
binary quadratic forms, L steps with matrix product M and digit
exponents summing to E take f to (-1)**L (f o M)/p**(2E), every division
exact (_chain has the proof). A block of ~55 steps at p = 5 touches the
big numbers about as much as 10 kernel steps. Blocks run only when
expand's budget is 2,000 steps or more: a state inside a block is known
by residues alone, so such an expansion fingerprints every state by
residues mod p**J, which costs two remainders of the big numbers per
exactly stepped state. Construct's re-expansions, with huge states and
short budgets, keep the exact hash. walk(), state_at and the replay step
every state exactly.

expand_rational runs on plain ints too, with the kernel's window digit
(_window_residue) and one exact divmod per step; its docstring proves
that its state stays in lowest terms without a gcd.

Periodicity is detected by the first repeat of the exact triple (b, c, k);
for a fixed (Delta, branch) that triple determines the value (c is prime to
p, so k and c are recoverable from the denominator), hence the first repeat
yields the minimal preperiod and period. expand holds a fixed four states
and a fingerprint of each triple, and a matching fingerprint counts
only when the state it points back to, replayed from alpha, has the exact
triple of the current state, which a block materializes for it. An
Expansion keeps its digits and alpha, and replays any state it is asked
for, so memory grows with the digit count, not with the total size of
the states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, lcm, prod

from .core import (
    INF,
    InvariantError,
    LaurentInt,
    _PRIMES,
    _check_odd_prime,
    _digit_powers,
    _invariant,
    hensel_digits,
    mod_inverse,
    padic_square_exists,
    split_p,
    split_p_power,
    sqrt_mod_p,
    to_decimal,
    vp,
)

BROWKIN = "browkin"
RUBAN = "ruban"
FLAVORS = (BROWKIN, RUBAN)

FINITE = "finite"
PERIODIC = "periodic"
OPEN = "open"

DEFAULT_MAX_STEPS = 10_000

# an expansion with a budget of _BLOCK_BUDGET steps or more runs a block
# from each kernel state of _BLOCK_BITS bits or more with k < J, on
# residues mod p**(J * _BLOCK_DIGITS), about 28 bits a CPython digit
_BLOCK_BUDGET = 2000
_BLOCK_BITS = 600
_BLOCK_DIGITS = 12

# build a digit or state whose checks a proof in the stepper stands in for
_new = object.__new__


def _check_flavor(flavor: str) -> str:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    return flavor


# k**2 mod 64, 63, 65 and 11 over all k, as bit masks: a square's residue
# is a set bit of each (Cohen, A Course in Computational Algebraic Number
# Theory, Alg. 1.7.3); 45045 = 63 * 65 * 11
_SQUARES = tuple(sum(1 << r for r in {k * k % q for k in range(q)}) for q in (64, 63, 65, 11))


def _is_square(n: int) -> bool:
    """Whether n is the square of an integer.

    From 2**64 up, residues mod 64 and 45045 rule out all but ~0.8% of
    non-squares before isqrt, whose cost grows with n: 0.3 us against
    4 us at 1,024 bits and 1.1 us against 84 us at 11,000 bits. Below
    2**64 the sieve would cost about what isqrt does.
    """
    if n < 0:
        return False
    if n.bit_length() > 64:
        q64, q63, q65, q11 = _SQUARES
        r = n % 45045
        if not (q64 >> (n & 63) & q63 >> r % 63 & q65 >> r % 65 & q11 >> r % 11 & 1):
            return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True, slots=True)
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

    @property
    def valuation(self) -> int:
        """v_p of the value, computed exactly."""
        return _val_linear(self.b, 1, self.Delta, self.branch, self.p) - self.k

    @property
    def norm(self) -> Fraction:
        """Field norm alpha * conjugate(alpha) = (b**2 - Delta)/(p**2k c**2)."""
        return Fraction(self.b * self.b - self.Delta) / (
            Fraction(self.p) ** (2 * self.k) * self.c * self.c
        )

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
        b, Delta, c = (to_decimal(n) for n in (self.b, self.Delta, self.c))
        return f"({b}+sqrt({Delta}))/({self.p}^{self.k}*{c})[delta={self.branch} mod {self.p}]"


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
    ok, parts = padic_square_exists(Delta, p)
    if not ok:
        raise ValueError(
            f"sqrt({Delta}) not in Q_{p} (odd valuation or non-residue unit part)"
        )
    D0, s = parts
    if not (1 <= branch < p) or (branch * branch - D0) % p != 0:
        raise ValueError("branch does not select a square root of the unit part")
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
    h = gcd(g, _primorial())
    for q in _PRIMES:
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
def _primorial():
    """The product of the primes below 10,000 (core._PRIMES), on first use."""
    return prod(_PRIMES)


def _from_uvw(p: int, u: int, v: int, w: int, Delta: int, branch: int) -> QuadIrr:
    """QuadIrr for (u + v*delta)/w with integer u, v != 0, w != 0."""
    if v == 0 or w == 0:
        raise ValueError("need v != 0 and w != 0")
    if v < 0:
        v, branch = -v, p - branch
    v0 = split_p(v, p)[1]
    return normalize(p, v * v * Delta, u, w, 0, v0 * branch % p)


# -- s-functions -----------------------------------------------------------


def _window_residue(num: int, den: int, pk: int, p: int, flavor: str) -> int:
    """The numerator r of the digit r/pk of num/(pk * den), for pk = p**k
    with k >= 0 and a p-unit den: num/den mod pn = p**(k+1), centered for
    the Browkin flavor.

    With t = num mod pn and d = den mod pn (den made positive first, so a
    small den stays small), the residue in [0, pn) is (t + j*pn)/d for
    j = -t/pn mod d: d divides that numerator, which lies in [0, d*pn).
    Every product and division is then by d, so the cost is O(bits(d) * k)
    where reducing num times an inverse mod pn costs O(k**2).
    """
    pn = pk * p
    if den < 0:
        num, den = -num, -den
    t, d = num % pn, den % pn
    j = -(t % d) * pow(pn, -1, d) % d
    r = (t + j * pn) // d
    if flavor == BROWKIN:
        if 2 * r > pn:
            r -= pn
        if not -pn < 2 * r < pn:
            raise InvariantError("centered residue must lie inside the window")
    return r


_INVERSE_CAP = 4096  # see _inverses


@lru_cache(maxsize=16)  # a table holds up to ~4,096 ints, so few are kept
def _inverses(p: int) -> tuple:
    """(inv, pT): pT = p**T the largest power of p up to _INVERSE_CAP (1
    above it) and inv[x] = x**-1 mod pT, 0 where p divides x. For n <= T,
    inv[c mod p**n] is c**-1 mod p**n too, a lookup of ~25 ns where
    pow(c, -1, p**n) takes 135-217 ns."""
    pT = 1
    while pT * p <= _INVERSE_CAP:
        pT *= p
    return tuple(pow(x, -1, pT) if x % p else 0 for x in range(pT)), pT


def _dividing_step(p, Delta, branch, b, c, k, flavor):
    """One step of any valid state (b + delta)/(p**k * c) on plain ints:
    returns ((r, e), (b', c', k')), the digit r/p**e as LaurentInt stores
    it and the next state's triple.

    The digit numerator is the window residue of (b + delta)/c, so delta
    is needed only mod p**(k+1), and this lifts it; for k < 0 the window is
    empty (v_p(alpha) = v_p(b + delta) - k >= 1) and the digit is (0, 0).
    X = (Delta - b**2)/c comes from one exact division by c. A state
    stepped from one with k >= 1 needs no lift, which is why the kernel
    in _chain takes over there: its b is delta mod p**(k+1). Proof: for a
    state with k >= 0, digit r/p**k and b' = r c - b, v(alpha - a) >= 1
    gives b' = delta mod p, so delta + b' is a unit (the next state has
    valuation exactly -k') and Delta - b'**2 = (delta - b')(delta + b') =
    p**(k + k') c c' gives b' = delta mod p**(k + k'), which covers the
    next digit's p**(k' + 1) when k >= 1.
    """
    r = 0
    if k >= 0:
        root = hensel_digits(p, Delta, branch, k + 1)
        r = _window_residue(b + root, c, p**k, p, flavor)
    b1 = r * c - b
    # Delta - b'**2 = Delta - b**2 mod c, so this is the check that c
    # divides the next state's Delta - b'**2
    X, rem = divmod(Delta - b * b, c)
    _invariant(rem == 0, "c | Delta - b'**2 must propagate")
    Y = X + r * (b - b1)  # (Delta - b1**2)/c = p**(k + k1) * c1
    _invariant(Y, "rational leak: Delta = b'**2")
    e, c1 = split_p(Y, p)
    k1 = e - k
    _invariant(k1 >= 1, "next complete quotient must have negative valuation")
    # state 0 may have valuation above -k, so r may carry p factors; the
    # window keeps |r| < p**(k+1), so at most k of them, and r = 0 is (0, 0)
    s, r = split_p(r, p) if r else (k, 0)
    return (r, k - s), (b1, c1, k1)


# -- the stepper -----------------------------------------------------------


def _wide_step(p, b, c, k, pk, Z, r, W, flavor):
    """The kernel's two rare routes (see _chain), on its state and Z.
    Returns (r, b', c', k', p**k').

    With r None, k >= J: r is the window residue of 2 b/c, a p-unit, and
    W/p**k = Z + r (b - b')/p**k after one exact division, since p**k Z
    would be a product the size of the state (k ~ omega after a
    construction's middle digit); its valuation is k'. Otherwise the
    residue route found r and W, which p**J divides, so v_p(W) = k + k' with
    k' >= J - k >= 1. split_p_power strips either number and hands back
    the p**e it used, so p**k' = p**e/p**k costs one division by a one-digit
    power.
    """
    if r is None:
        r = _window_residue(2 * b, c, pk, p, flavor)
        q, rem = divmod(2 * b - r * c, pk)  # (b - b')/p**k
        if rem:
            raise InvariantError("p**k must divide b - b'")
        if not r % p:
            raise InvariantError("digit numerator must be a p-unit")
        W, k, pk = Z + r * q, 0, 1  # W/p**k, stripped as a W with k = 0
    if not W:
        raise InvariantError("rational leak: Delta = b'**2")
    e, c1, pe = split_p_power(W, p)
    if e - k < 1:
        raise InvariantError("next complete quotient must have negative valuation")
    return r, r * c - b, c1, e - k, pe // pk


def _unit_digit(p: int, r: int, k: int) -> LaurentInt:
    """The digit r/p**k for a pair that LaurentInt's strip would leave as
    it is (a p-unit r, or (0, 0)), so the strip is skipped."""
    a = _new(LaurentInt)
    _DIGIT_P(a, p)
    _DIGIT_TILDE(a, r)
    _DIGIT_E(a, k)
    return a


def _quad(p: int, Delta: int, b: int, c: int, k: int, branch: int) -> QuadIrr:
    """QuadIrr(p, Delta, b, c, k, branch) without its checks, for a caller
    that has proved them: a stepped state (c != 0 is free of p and divides
    Delta - b**2 = p**(k_prev + k) c_prev c) or a construction's target."""
    st = _new(QuadIrr)
    _QUAD_P(st, p)
    _QUAD_DELTA(st, Delta)
    _QUAD_B(st, b)
    _QUAD_C(st, c)
    _QUAD_K(st, k)
    _QUAD_BRANCH(st, branch)
    return st


# slot setters for _unit_digit and _quad: they skip the frozen __setattr__
# and the field name's lookup (a digit in ~300 ns, ~450 by object.__setattr__)
_DIGIT_P, _DIGIT_TILDE, _DIGIT_E = (getattr(LaurentInt, f).__set__ for f in ("p", "tilde", "e"))
_QUAD_P, _QUAD_DELTA, _QUAD_B, _QUAD_C, _QUAD_K, _QUAD_BRANCH = (
    getattr(QuadIrr, f).__set__ for f in ("p", "Delta", "b", "c", "k", "branch"))


# -- expansions ------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    """Result of running the algorithm: digits, cycle data, bookkeeping.

    k0 is -v_p(alpha_0) (0 for alpha_0 = 0). Every later complete quotient
    has negative valuation, so its k_n = -v_p(alpha_n) is the exponent of
    the digit a_n; ks reads it from there. No complete quotient
    is stored: when the source alpha is a QuadIrr, walk() and state_at(i)
    replay them from alpha by _chain, the stepping chain expand ran.
    """

    p: int
    flavor: str
    status: str
    preperiod: tuple
    period: tuple
    k0: int
    alpha: object = None

    @property
    def quotients(self) -> tuple:
        return self.preperiod + self.period

    @property
    def ks(self) -> tuple:
        """(k_0, k_1, ...) over the recorded digits."""
        return (self.k0,) + tuple(q.e for q in self.quotients[1:])

    @property
    def is_purely_periodic(self) -> bool:
        return self.status == PERIODIC and not self.preperiod

    def quotient_at(self, i: int) -> LaurentInt:
        """Digit i; on a periodic expansion an index past the cycle wraps
        into it. IndexError for a negative index or one past an open or
        finite expansion's digits."""
        pre, per = len(self.preperiod), len(self.period)
        if 0 <= i < pre:
            return self.preperiod[i]
        if i < 0 or per == 0:
            raise IndexError(f"no digit {i} on this {self.status} expansion")
        return self.period[(i - pre) % per]

    def walk(self):
        """Yields the complete quotients 0, 1, ..., n - 1 behind the n
        recorded digits, one at a time, replayed from alpha; nothing when
        the source was a rational."""
        alpha = self.alpha
        if isinstance(alpha, QuadIrr):
            p, Delta, branch = alpha.p, alpha.Delta, alpha.branch
            for _, (b, c, k) in islice(_chain(alpha, self.flavor), len(self.quotients)):
                yield _quad(p, Delta, b, c, k, branch)

    def state_at(self, i: int) -> "QuadIrr":
        """Complete quotient i, replayed from alpha in O(i) steps that build
        no state but the one returned. On a periodic expansion an index
        past the cycle wraps into it. IndexError for a negative index, an
        index past an open expansion's digits, or a rational source."""
        pre, per = len(self.preperiod), len(self.period)
        n = i if i < pre or per == 0 else pre + (i - pre) % per
        alpha = self.alpha
        if 0 <= n < len(self.quotients) and isinstance(alpha, QuadIrr):
            _, (b, c, k) = next(islice(_chain(alpha, self.flavor), n, None))
            return _quad(alpha.p, alpha.Delta, b, c, k, alpha.branch)
        raise IndexError(f"no complete quotient {i} on this {self.status} expansion")

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


def _rebuild(base, P, Q, P1, Q1, pk):
    """The exact (b, c, p**k, Z) of the state L steps after base = (b0, c0,
    p**k0, Z0), from the tilde digit matrix M = [[P, P1], [Q, Q1]] of those
    steps and pk = p**k of the state reached: the identity proved in
    _chain, with det M = P Q1 - P1 Q = (-1)**L p**(2E)."""
    b0, c0, pk0, Z0 = base
    det = P * Q1 - P1 * Q
    # the sign of det rides on the small entries: (u, v) = sign G (P, Q) and
    # (u1, v1) = -sign G (P1, Q1) for G = [[D0, -b0], [b0, Z0]], so that
    # f(P, Q) = sign (P u - Q v), B = sign (P1 u - Q1 v) and f(P1, Q1) =
    # sign (Q1 v1 - P1 u1)
    sP, sQ, tP, tQ = (-P, -Q, P1, Q1) if det < 0 else (P, Q, -P1, -Q1)
    u, v = c0 * (pk0 * sP) - b0 * sQ, b0 * sP + Z0 * sQ
    u1, v1 = c0 * (pk0 * tP) - b0 * tQ, b0 * tP + Z0 * tQ
    pe2 = abs(det)
    c, rc = divmod(P * u - Q * v, pe2 * pk)
    b, rb = divmod(Q1 * v - P1 * u, pe2)
    Z, rz = divmod(P1 * u1 - Q1 * v1, pe2)
    if rc or rb or rz:
        raise InvariantError("a block's rebuild must divide exactly by p**(2E)")
    return b, c, pk, Z


def _chain(alpha: QuadIrr, flavor: str, budget: int = 0):
    """Yields ((r, e), (b, c, k)) for states 0, 1, 2, ... of alpha, without
    end: state i's triple and the digit a_(i-1) = r/p**e that led into it,
    as LaurentInt stores it (None for state 0). While the previous state
    had k < 1 (state 0, and state 1 after a state 0 with k < 1) the next
    state comes from _dividing_step, and from then on from the kernel
    inline here, on plain ints, which takes over by state 2.

    The kernel steps (b + delta)/(pk * c), pk = p**k, stepped from a state
    with k_prev >= 1, carrying Z = p**k_prev * c_prev, two_delta = 2 delta
    mod p**n, n > k, and cres, c mod some p**n, n > k, or None. Its state
    has valuation exactly -k, so r is a p-unit, and W = p**k Z + r (b - b')
    = p**(k + k') c'. For k < J (the residue route), r = two_delta/c mod
    p**(k+1), by the table of _inverses when p**(k+1) is in it, and rho =
    W mod p**J != 0 gives v = v_p(rho) = v_p(W) < J, k' = v - k, c' = W/p**v
    by one exact division and c' mod p**(J-v) = rho/p**v, carried when
    J - v > k'. k >= J and rho = 0 are _wide_step's routes.

    Proof that v_p(W) >= k + 1 checks the reading of delta for k < J:
    k_prev >= 1, so p**(k+1) divides p**k Z, and mod p**(k+1) r c = 2 delta
    makes b - b' = 2 (b - delta) and W = 2 r (b - delta), with r and 2
    units: v_p(W) >= k + 1 iff b = delta mod p**(k+1). A state stepped from
    one with k_prev >= 1 has b = delta mod p**(k_prev + k) (see
    _dividing_step), so 2 b mod p**min(J, k_prev + k) serves every later
    digit up to that exponent; two_delta is read again only when a digit
    needs more, and on that state the check is only k' >= 1.

    With a budget of _BLOCK_BUDGET steps or more (expand's max_steps) and
    J > 1, every state is yielded by the fingerprint (b mod p**J, c mod
    p**J, k), and a kernel state of _BLOCK_BITS bits or more with k < J
    starts a Lehmer block (D. H. Lehmer, Amer. Math. Monthly 45, 1938, at
    the p-adic low end), except right after a block that ended where p**J
    divides W. A block keeps its exact first state in base and runs the
    residue route on b, c and Z mod p**N, N = J * _BLOCK_DIGITS, while
    [[P, P1], [Q, Q1]] multiplies the tilde digit matrices of its steps.
    Whatever the budget, send(True) answers with the current state's exact
    triple; inside a block, that ends the block there.

    Residues suffice: r depends only on two_delta and c mod p**(k+1), and
    W is an integer polynomial in b, c and Z, so W mod p**m follows from
    b, c and Z mod p**m; for m > v = v_p(W) that fixes k' = v - k and
    c' = W/p**v mod p**(m - v).

    Precision: nc counts the digits of c that are right, N at the start.
    b and Z stay right to at least nc digits (b' = r c - b mod p**nc, Z' =
    p**k c mod p**(nc + k)), so W is right mod p**nc and c' mod p**(nc -
    v). A block takes a step only when W is not 0 mod p**J, so v < J <= nc
    and k' < J, and when nc - v >= J, so every state it yields has its
    fingerprint right and the digit r' mod p**(k' + 1), k' < J, that leaves
    it. Where either fails, or on send(True), the block ends on the state
    it yielded last: _rebuild makes that state exact (it is base when the
    block took no step), and the loop steps it again, by a new block or,
    where p**J divides W, by the kernel, so no state is yielded twice.

    Rebuild: a state is the form f(x, y) = D x**2 - 2 b x y - Z y**2 with
    D = p**k c, of discriminant b**2 + D Z = Delta, and alpha = (b +
    delta)/D is its root x/y. A step substitutes (x, y) = T (x', y') with
    T = [[r, p**k], [p**k, 0]], since alpha = r/p**k + 1/alpha', and
    comparing coefficients (the x'**2 one is -p**k W) gives f' = -(f o
    T)/p**(2k). Over L steps, M = [[P, P1], [Q, Q1]] = T_1 ... T_L and E =
    k_1 + ... + k_L, (f o T_1) o T_2 = f o (T_1 T_2) makes f_L = det (f o
    M)/p**(2E), det = (-1)**L: with B(x, y; x', y') = D x x' - b (x y' +
    x' y) - Z y y' the polar form of f, D_L = det f(P, Q)/p**(2E), b_L =
    -det B(P, Q; P1, Q1)/p**(2E) and Z_L = -det f(P1, Q1)/p**(2E) (as for
    binary forms, Schoenhage, ISSAC 1991). det T = -p**(2k) makes det M =
    (-1)**L p**(2E), so _rebuild reads the sign and p**(2E) off M. Those
    divisions are exact on the true chain; one that is not means a
    residue or the matrix left it, and _rebuild raises InvariantError.
    P1 is 0 until the block takes a step and then p**k times the P before,
    a p-unit (P = r P + p**k P1 = r P mod p), so it tells whether there is
    anything to rebuild.

    Only the residues taken at the start and the rebuild touch big
    numbers: 3 remainders by p**N, 14 products by a matrix entry of about
    E log2(p) bits and 3 divisions by p**(2E). On a 10,000-bit state at
    p = 5 they cost what ~10 kernel steps do, and a block runs ~55 steps.
    """
    p, Delta, branch = alpha.p, alpha.Delta, alpha.branch
    pows = _digit_powers(p)
    J, pJ = len(pows) - 1, pows[-1]
    blocks = budget >= _BLOCK_BUDGET and J > 1
    digit, (b, c, k) = None, (alpha.b, alpha.c, alpha.k)
    while True:
        if (yield digit, (b % pJ, c % pJ, k) if blocks else (b, c, k)):
            yield b, c, k
        kp, cp = k, c
        digit, (b, c, k) = _dividing_step(p, Delta, branch, b, c, k, flavor)
        if kp >= 1:
            break
    n = min(J, kp + k)  # two_delta = 2 delta mod p**n
    two_delta = 2 * b % pows[n]
    pk, Z, cres, wide, base, ask = p**k, p**kp * cp, None, False, None, False
    inv, pT = _inverses(p)
    centered = flavor == BROWKIN
    while True:
        if (yield digit, (b % pJ, c % pJ, k) if blocks else (b, c, k)):
            if base is None:
                yield b, c, k
            else:
                ask = True
        while True:  # twice where a block ends: its last state steps again
            if k < J:
                if blocks and not wide and base is None and b.bit_length() >= _BLOCK_BITS:
                    M, nc = pJ**_BLOCK_DIGITS, J * _BLOCK_DIGITS
                    base, P, Q, P1, Q1 = (b, c, pk, Z), 1, 0, 0, 1
                    b, c, Z = b % M, c % M, Z % M
                pn = pows[k + 1]
                x = (c if cres is None else cres) % pn
                r = two_delta * (inv[x] if pn <= pT else pow(x, -1, pn)) % pn
                if centered and 2 * r > pn:
                    r -= pn
                if not r % p:
                    raise InvariantError("digit numerator must be a p-unit")
                b1 = r * c - b
                W = pk * Z + r * (b - b1)
                rho = W % pJ
                if rho:
                    if rho % pn:
                        raise InvariantError("next complete quotient must have negative valuation")
                    u, v = rho // pn, k + 1
                    while not u % p:
                        u //= p
                        v += 1
            else:
                r = W = rho = None
            if base is None:
                break
            if rho and nc - v >= J and not ask:
                P, P1, Q, Q1 = r * P + pk * P1, pk * P, r * Q + pk * Q1, pk * Q
                nc -= v
                break
            b, c, pk, Z = _rebuild(base, P, Q, P1, Q1, pk) if P1 else base
            base, wide = None, not rho
            if ask:
                ask = False
                yield b, c, k
        if rho:
            k1 = v - k
            pk1, c1 = pows[k1], W // pows[v]
            cres = u if pows[J - v] > pk1 else None
        else:
            r, b1, c1, k1, pk1 = _wide_step(p, b, c, k, pk, Z, r, W, flavor)
            cres, wide = None, False
        digit, b, c, Z = (r, k), b1, c1, pk * c
        if n <= k1 < J:
            n = min(J, k + k1)
            two_delta = 2 * b % pows[n]
        k, pk = k1, pk1


def _replay(alpha: QuadIrr, flavor: str, held: tuple, last: int):
    """Yields the triples of states 0 .. last: those of states 0 and 1 from
    held, the rest replayed from alpha by _chain."""
    yield from held[: last + 1]
    if last >= 2:
        for _, key in islice(_chain(alpha, flavor), 2, last + 1):
            yield key


def expand(alpha: QuadIrr, flavor: str = BROWKIN, max_steps: int = DEFAULT_MAX_STEPS) -> Expansion:
    """Run the algorithm with cycle detection on the exact state triple.

    Returns a periodic expansion with minimal preperiod and period, or an
    open one if no state repeats within max_steps; state max_steps is
    stepped to but never compared. The digits and triples come from
    _chain; each distinct digit is built once, and equal digits share that
    immutable LaurentInt. Held are alpha, the triples of states 0 and 1 and the current
    one; seen maps the fingerprint of each state, hash((b, c, k)) or, with
    a budget long enough for the chain's blocks, hash((b mod p**J, c mod
    p**J, k)), to the last index that had it.

    When state i's fingerprint is in seen, the chain hands over state i's
    exact triple, materialized from its block when it is inside one, and
    state i repeats the first of states 0 .. seen[fingerprint] whose
    exact triple equals it. The held triples settle a repeat of state 0
    or 1, as in every purely periodic or preperiod-1 expansion
    (construct's re-expansions among them), without stepping anything;
    states 2 onwards are replayed from alpha, exactly. A search without a
    match is a fingerprint collision, and i then becomes the index kept
    for that fingerprint.

    Proof that this finds the first exact repeat: either fingerprint is a
    function of the triple, so equal triples have equal fingerprints, and
    every j < i with state j = state i has a fingerprint in seen, and j
    is at most the last index kept for it, which the search reaches, held
    or replayed. By induction no exact repeat went unseen before i, so
    states 0 .. i - 1 are pairwise distinct, at most one j matches, and
    state i = state j is the first repeat: j is the minimal preperiod and
    i - j the minimal period. A collision only costs a replay; PERIODIC
    is never declared without exact equality.
    """
    _check_flavor(flavor)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    steps = _chain(alpha, flavor, max_steps)
    return _expand(alpha, flavor, max_steps, steps, (next(steps), next(steps)))


def _expand(alpha: QuadIrr, flavor: str, max_steps: int, steps, head) -> Expansion:
    """expand on steps = _chain(alpha, flavor, max_steps), whose first two
    yields, head, a caller has read (first_reexpansion)."""
    k0 = -alpha.valuation
    p = alpha.p
    made = {}
    (_, key0), (d, key) = head
    made[d] = a = _unit_digit(p, *d)
    held = ((alpha.b, alpha.c, alpha.k), steps.send(True))
    seen, quots = {hash(key0): 0}, [a]
    for i in range(1, max_steps):
        fingerprint = hash(key)
        last = seen.setdefault(fingerprint, i)
        if last != i:
            exact = held[1] if i == 1 else steps.send(True)
            replay = _replay(alpha, flavor, held, last)
            j = next((n for n, st in enumerate(replay) if st == exact), None)
            if j is not None:
                pre, per = tuple(quots[:j]), tuple(quots[j:])
                if pre:
                    _invariant(pre[-1] != per[-1], "state-minimal cycle should be digit-minimal")
                return Expansion(p, flavor, PERIODIC, pre, per, k0, alpha)
            seen[fingerprint] = i
        d, key = next(steps)
        a = made.get(d)
        if a is None:
            a = made[d] = _unit_digit(p, *d)
        quots.append(a)
    return Expansion(p, flavor, OPEN, tuple(quots), (), k0, alpha)


def expand_rational(x, p: int, flavor: str = BROWKIN, max_steps: int = DEFAULT_MAX_STEPS) -> Expansion:
    """Expansion of a rational: FINITE when a remainder vanishes, PERIODIC
    when a complete quotient repeats (only the Ruban flavor can cycle), and
    OPEN when neither happens within max_steps digits. The centered flavor
    always terminates, so it is OPEN only on a budget too short for it.

    A complete quotient x_n = u/(p**k * d) is held as plain ints, read
    once from Fraction(x) in lowest terms: u, a p-free d > 0 and k >= 0.
    Its digit is a_n = r/p**k with r = _window_residue(u, d, p**k), the
    window digit of the quadratic kernel, so r d = u mod p**(k+1), and one
    exact divmod(u - r d, p**(k+1)) = (q, 0) gives x_n - a_n = p q/d; a
    nonzero remainder means a wrong digit and raises InvariantError. q = 0
    ends the expansion. Otherwise x_(n+1) = d/(p q): with (e, w) =
    split_p(q), it is (d, k' = e + 1, w), the signs moved so that w > 0.

    Proof that x_(n+1) is again in lowest terms, so that no gcd ever runs:
    d divides the denominator p**k d and gcd(u, p**k d) = 1, so gcd(d, w)
    divides gcd(d, u - r d) = gcd(d, u) = 1, and p does not divide d. So
    (u, k, d) is the canonical form of the quotient's value, and the Ruban
    cycle key compares values exactly. The digits are what LaurentInt
    stores, so each distinct (r, k) is built once by _unit_digit: for
    k >= 1, p divides the denominator and not u, so r is a p-unit; for
    k = 0 the window holds r = 0 (the digit (0, 0)) or a unit below p in
    absolute value.
    """
    _check_flavor(flavor)
    _check_odd_prime(p)
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    x = Fraction(x)
    u, (k, d) = x.numerator, split_p(x.denominator, p)
    k0 = k if k or not u else -split_p(u, p)[0]
    seen, made, quots = {}, {}, []
    for i in range(max_steps):
        if flavor == RUBAN:
            j = seen.setdefault((u, k, d), i)
            if j != i:
                return Expansion(p, flavor, PERIODIC, tuple(quots[:j]), tuple(quots[j:]), k0, x)
        pk = p**k
        r = _window_residue(u, d, pk, p, flavor)
        a = made.get((r, k))
        if a is None:
            a = made[r, k] = _unit_digit(p, r, k)
        quots.append(a)
        q, rem = divmod(u - r * d, pk * p)
        if rem:
            raise InvariantError("the digit must leave a remainder of positive valuation")
        if not q:
            return Expansion(p, flavor, FINITE, tuple(quots), (), k0, x)
        e, w = split_p(q, p)
        u, k, d = (d, e + 1, w) if w > 0 else (-d, e + 1, -w)
    return Expansion(p, flavor, OPEN, tuple(quots), (), k0, x)


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


def convergents(quotients) -> ConvergentTable:
    """Build the full table for a digit list (LaurentInt entries over one p)."""
    quotients = tuple(quotients)
    if not quotients:
        raise ValueError("need at least one digit")
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


def first_reexpansion(candidates, preperiod, period, flavor: str = BROWKIN):
    """The first candidate whose expansion is exactly [preperiod, (period)*].

    Candidates (typically the two square-root branches of one value) are
    tried in order, lazily. One whose first digit differs from the claim is
    dropped before it is expanded; a survivor's expansion goes on from the
    chain step that gave that digit, so no state is stepped twice. A true
    match with preperiod m and period N repeats a state by step m + N, so
    each survivor is expanded for m + N + 1 steps and accepted only when it
    repeats a state where the claim says: expand stops at the first
    repeated state, so its preperiod m' and period N' are minimal, and
    state m equals state m + N iff m' <= m and N' divides N. From there
    both streams repeat every N digits, so the first m + N digits decide
    the rest. Returns (alpha, expansion), or None when no candidate
    matches.
    """
    _check_flavor(flavor)
    claim = preperiod + period
    m, N = len(preperiod), len(period)
    for alpha in candidates:
        steps = _chain(alpha, flavor, m + N + 1)
        head = next(steps), next(steps)
        if _unit_digit(alpha.p, *head[1][0]) != claim[0]:
            continue
        exp = _expand(alpha, flavor, m + N + 1, steps, head)
        if (exp.status == PERIODIC and len(exp.preperiod) <= m and N % len(exp.period) == 0
                and all(exp.quotient_at(i) == a for i, a in enumerate(claim))):
            return alpha, exp
    return None


def _period_roots(t: ConvergentTable, m: int) -> tuple:
    """Both branch roots of the fixed-point quadratic of [preperiod, (period)*],
    given the convergent table t of preperiod + period and m = len(preperiod).

    A digit a has the matrix [[a, 1], [1, 0]]. With P the product over the
    preperiod and Q over the nonempty period, the value x is a fixed point
    of (P Q) adj(P) = [[a, b], [c, d]], so c x**2 - (a - d) x - b = 0. The
    table holds both P Q and P. Raises ValueError when that quadratic is
    degenerate, has rational roots or has no roots in Q_p.
    """
    p, n = t.p, len(t)
    A1, A2, B1, B2 = t.A_(n - 1), t.A_(n - 2), t.B_(n - 1), t.B_(n - 2)
    P1, P2, R1, R2 = (t.A_(m - 1), t.A_(m - 2), t.B_(m - 1), t.B_(m - 2)) if m else (1, 0, 0, 1)
    # c, a - d and b of (P Q) adj(P), with adj(P) = [[R2, -P2], [-R1, P1]]
    aq = B1 * R2 - B2 * R1
    bq = A1 * R2 - A2 * R1 + B1 * P2 - B2 * P1
    cq = A2 * P1 - A1 * P2
    if aq == 0:
        raise ValueError("degenerate period: the fixed-point quadratic has no x**2 term")
    M = lcm(aq.denominator, bq.denominator, cq.denominator)
    a2, b2, c2 = int(aq * M), int(bq * M), int(cq * M)
    Draw = b2 * b2 + 4 * a2 * c2
    if Draw == 0 or _is_square(Draw):
        raise ValueError("period value is rational, not a quadratic irrational")
    ok, parts = padic_square_exists(Draw, p)
    if not ok:
        raise ValueError(f"period discriminant has no square root in Q_{p}")
    r = sqrt_mod_p(parts[0], p)
    return tuple(_from_uvw(p, b2, 1, 2 * a2, Draw, br) for br in (r, p - r))


def periodic_limit(preperiod, period, p: int, flavor: str = BROWKIN) -> QuadIrr:
    """The exact value of [preperiod, (period)*].

    Of the two roots of the fixed-point quadratic (see _period_roots), the
    one whose re-expansion reproduces the digit stream is returned.
    """
    _check_flavor(flavor)
    preperiod, period = tuple(preperiod), tuple(period)
    if not period:
        raise ValueError("period must be nonempty")
    if any(q.p != p for q in preperiod + period):
        raise ValueError(f"every digit must lie over p={p}")
    roots = _period_roots(convergents(preperiod + period), len(preperiod))
    hit = first_reexpansion(roots, preperiod, period, flavor)
    if hit is None:
        raise ValueError("no branch of the reconstructed value re-expands to the given digits")
    return hit[0]


# -- the audit ---------------------------------------------------------------


@dataclass(frozen=True)
class ValuationAudit:
    ok: bool
    failures: tuple


def valuation_audit(expansion: Expansion) -> ValuationAudit:
    """Check v_p(A_n) = -K'_n, v_p(B_n) = -K_n and the approximation law
    v_p(Q_n - alpha) = 2 K_n + k_{n+1} >= 2n + 1 on an expansion of a
    quadratic irrational: through the second period of a periodic one,
    through the recorded digits of any other.

    K_n comes from the convergent table and K'_n = K_n + k_0, with k_0 =
    -v_p(alpha) from the expansion: the table's own first exponent is that
    of a_0, which is 0 rather than k_0 when v_p(alpha) > 0.
    """
    alpha = expansion.alpha
    if not isinstance(alpha, QuadIrr):
        raise ValueError("audit needs an expansion produced from a QuadIrr")
    p, k0 = expansion.p, expansion.k0
    depth = len(expansion.preperiod) + 2 * len(expansion.period)
    table = convergents([expansion.quotient_at(i) for i in range(depth)])
    failures = []
    if table.A_(0) != 0:
        got = vp(table.A_(0), p)
        if got != -k0:
            failures.append(f"v(A_0)={got} != {-k0}")
    for n in range(1, depth):
        K = table.K(n)
        va = vp(table.A_(n), p)
        vb = vp(table.B_(n), p)
        if va != -(K + k0):
            failures.append(f"v(A_{n})={va} != -K'_{n}={-(K + k0)}")
        if vb != -K:
            failures.append(f"v(B_{n})={vb} != -K_{n}={-K}")
    for n in range(depth - 1):
        want = 2 * table.K(n) + table.ks[n + 1]
        got = quad_distance_valuation(alpha, table.A_(n) / table.B_(n))
        if got != want:
            failures.append(f"v(Q_{n}-alpha)={got} != 2K_{n}+k_{n+1}={want}")
        if got < 2 * n + 1:
            failures.append(f"v(Q_{n}-alpha)={got} < {2 * n + 1}")
    return ValuationAudit(not failures, tuple(failures))


# -- parsing helpers (shared with the CLI) -----------------------------------


def parse_quotient_list(text: str, p: int):
    """Comma-separated digits in the n~/p**e grammar, e.g. "1/3, 110/81"."""
    items = [piece for piece in (s.strip() for s in text.split(",")) if piece]
    if not items:
        raise ValueError("empty digit list")
    return tuple(LaurentInt.parse(s, p) for s in items)

