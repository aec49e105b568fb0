"""Constructive machinery: nice seeds, prescribed even periods, beta family.

A finite digit list [a_0, ..., a_{t-1}] is "nice" when (a) a_0 has negative
valuation and real absolute value below p/4, (b) |A_{t-1}/A_{t-2}| > 4/p,
and (c) some signed q with Btilde_{t-1} | q | Btilde_{t-1}**2 lies in the
subgroup generated by p modulo Atilde_{t-1}**2. From a nice seed and a power
p**omega in that coset the construction produces an integer m, a middle
digit a_t, and the palindromic period

    [a_0, (a_1, ..., a_{t-1}, a_t, a_{t-1}, ..., a_1, 2*a_0)*]

whose value is exactly 1/(p**k0 * sqrt(m)); the period length is 2t. The
beta digit lists realize this with t = 2**(n-1), giving periods of length
2**n. Each construction is verified on the spot by the eq. (12)
identity on the certificate's tilde rows and an exact re-expansion of the
target value, which must repeat a state where the claimed period says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, product

from .core import (
    DlogBudgetExceeded,
    LaurentInt,
    _HELD_POWER,
    _check_odd_prime,
    _invariant,
    discrete_log,
    divisors,
    in_subgroup,
    mult_order,
    sqrt_mod_p,
)
from .engine import (
    BROWKIN,
    PERIODIC,
    Expansion,
    QuadIrr,
    _is_square,
    _period_roots,
    _quad,
    convergents,
    expand,
    first_reexpansion,
)

DEFAULT_MAX_DIGITS = 200_000


class ConstructionInfeasible(RuntimeError):
    """The required power p**omega is too large to materialize exactly."""

    def __init__(self, message: str, omega: int, digits_estimate: int):
        super().__init__(message)
        self.omega = omega
        self.digits_estimate = digits_estimate


# -- niceness ------------------------------------------------------------------


@dataclass(frozen=True)
class NiceCertificate:
    p: int
    cf: tuple
    ks: tuple
    k0: int
    K_prev: int
    Atilde_last: int
    Atilde_prev: int
    Btilde_last: int
    Btilde_prev: int
    cond_a: bool
    cond_b: bool
    cond_c: bool | None
    q: int | None
    omega0: int | None
    nice: bool
    failure: str | None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "cf": [str(a) for a in self.cf],
            "Atilde_last": self.Atilde_last,
            "Btilde_last": self.Btilde_last,
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "q": self.q,
            "omega0": self.omega0,
            "nice": self.nice,
            "failure": self.failure,
        }


def _q_candidates(B: int):
    """Signed q with B | q and q | B**2, ordered by |q| then positive first.

    Lazy: +-|B| (the divisor 1) come out before B is factored, so a caller
    that stops there never calls divisors. The divisors ascend from 1, so
    the order is that of the full list.
    """
    absB = abs(B)
    yield absB
    yield -absB
    if absB > 1:
        for d in divisors(absB)[1:]:
            yield absB * d
            yield -absB * d


def is_nice(cf, dlog_budget: int | None = None) -> NiceCertificate:
    """Decide niceness of a finite digit list; every check is exact.

    Condition (a) is 4|a~_0| < p**(e_0 + 1) on integers. Condition (c)
    enumerates the finitely many admissible q lazily (_q_candidates, so B is
    factored only when +-|B| both miss) and tests each for membership in
    the subgroup generated by p modulo Atilde_{t-1}**2 (in_subgroup, which
    takes no log). At the first member, omega0 is its least discrete log
    when (a) and (b) hold, and None otherwise: only a certificate that can
    be nice carries a log. The common fast exits (modulus 1, q = 1) avoid
    factoring entirely, so niceness of the beta seeds stays cheap even when
    the convergents are huge. A blown discrete-log budget, in a membership
    test or in the log of a member, leaves that q undecided and the loop
    goes on; when no q decides, cond_c is None: indeterminate rather than
    failed. A budget below 1 is a ValueError.
    """
    cf = tuple(cf)
    if not cf:
        raise ValueError("empty digit list")
    if dlog_budget is not None and dlog_budget < 1:
        raise ValueError(f"dlog_budget must be >= 1, got {dlog_budget}")
    p = cf[0].p
    if any(a.p != p for a in cf):
        raise ValueError("digits must share one prime")
    if any(a.e < 1 for a in cf[1:]):
        raise ValueError("digits past the first must have negative valuation")
    t = len(cf)
    tab = convergents(cf)
    A1, A2_ = tab.Atilde_(t - 1), tab.Atilde_(t - 2)
    B1, B2_ = tab.Btilde_(t - 1), tab.Btilde_(t - 2)
    _invariant(B1 != 0 and B1 % p != 0, "Btilde_{t-1} is a p-unit by the valuation law")
    a0 = cf[0]
    cond_a = a0.e >= 1 and 4 * abs(a0.tilde) < p ** (a0.e + 1)  # |a_0| < p/4
    # |A_{t-1}/A_{t-2}| > 4/p on the tilde rows: A_n = Atilde_n/p**K'_n and
    # K'_{t-1} - K'_{t-2} = k_{t-1}
    if A2_ == 0:
        cond_b = A1 != 0
    else:
        cond_b = abs(A1) * p > 4 * abs(A2_) * p ** tab.ks[-1]
    cond_c: bool | None = False
    q = omega0 = None
    indeterminate = False
    A1sq = A1 * A1
    if A1sq != 0:
        logged = cond_a and cond_b  # only a certificate that can be nice carries omega0
        for qc in _q_candidates(B1):  # a q that is no unit is in no subgroup
            r = qc % A1sq
            if r == 1 % A1sq:
                w = 0 if logged else None
            elif not A1sq % p:  # no p**omega, omega >= 1, is a unit mod A1sq
                continue
            else:
                try:
                    if not in_subgroup(p, r, A1sq, dlog_budget):
                        continue
                    w = discrete_log(p, r, A1sq, dlog_budget) if logged else None
                except DlogBudgetExceeded:
                    indeterminate = True
                    continue
            q, omega0, cond_c = qc, w, True
            break
        if cond_c is False and indeterminate:
            cond_c = None
    nice = bool(cond_a and cond_b and cond_c)
    if not cond_a:
        failure = "a"
    elif not cond_b:
        failure = "b"
    elif cond_c is None:
        failure = "c-indeterminate"
    elif not cond_c:
        failure = "c"
    else:
        failure = None
    return NiceCertificate(
        p, cf, tab.ks, tab.ks[0], tab.K(t - 1), A1, A2_, B1, B2_,
        cond_a, cond_b, cond_c, q, omega0, nice, failure,
    )


# -- the construction ----------------------------------------------------------


@dataclass(frozen=True)
class ConstructionResult:
    p: int
    t: int
    k0: int
    omega: int
    order_s: int
    q: int
    b: int
    kt: int
    c_tilde: int
    a_t: LaurentInt
    m: int
    preperiod: tuple
    period: tuple
    expansion: Expansion | None
    branch: int | None
    verified: bool

    def to_json(self) -> dict:
        """Plain data: the integers stay ints, and a_t and the period are
        strings of any length (LaurentInt.__str__ uses core.to_decimal).
        a_t is formatted once, for its own key and its slot in the period,
        so its denominator p**k_t is built once."""
        a_t = str(self.a_t)
        return {
            "p": self.p,
            "k0": self.k0,
            "t": self.t,
            "omega": self.omega,
            "q": self.q,
            "b": self.b,
            "kt": self.kt,
            "c_tilde": self.c_tilde,
            "a_t": a_t,
            "m": self.m,
            "preperiod": [str(a) for a in self.preperiod],
            "period": [a_t if a is self.a_t else str(a) for a in self.period],
            "verified": self.verified,
            "branch": self.branch,
        }


def _members(cert: NiceCertificate, max_digits: int):
    """The valid members of the certificate's coset in order, as tuples
    (omega, s, k_t, b, c~, m, jump), s = order_s and jump = p**(k_t + k_{t-1}).
    Raises ConstructionInfeasible at the first element whose p**omega passes
    max_digits decimal digits, and RuntimeError once 201 elements in all are
    passed over: the n-th valid one sits at coset index n + 200 at most.
    Each element meets that cap first, then the validity tests."""
    p, A1, A2_, B1 = cert.p, cert.Atilde_last, cert.Atilde_prev, cert.Btilde_last
    A1sq = A1 * A1
    s = mult_order(p, A1sq)
    qq, rem = divmod(cert.q, B1)
    _invariant(rem == 0, "B~_{t-1} must divide q")
    q1, rem = divmod(B1 * B1, cert.q)
    _invariant(rem == 0, "q must divide B~_{t-1}**2")
    sign_t, log10p, kt1 = (-1) ** (len(cert.cf) - 1), math.log10(p), cert.ks[-1]
    lead = cert.k0 + 2 * cert.K_prev  # k_t = omega - lead; lead >= k_{t-1} and lead >= k0 >= 1
    valid, pw, ps = 0, None, None  # valid members so far; p**omega, p**s
    for j in count():
        if j > valid + 200:
            raise RuntimeError("no valid omega within 200 coset steps; the certificate "
                               "violates the growth expectations of condition (b)")
        omega = cert.omega0 + j * s
        if omega <= lead:
            continue
        if omega * log10p > max_digits:
            digits = int(omega * log10p)
            raise ConstructionInfeasible(f"needs p**omega with omega = {omega} (about {digits} "
                                         f"decimal digits, cap {max_digits})", omega, digits)
        kt = omega - lead
        # the member's one big power, carried from the member before by one
        # product with p**s, built once the walk first moves past a member;
        # p**(kt + kt1) and p**(kt + 1) are exact quotients of it by small
        # powers of p
        if pw is None:
            pw = p**omega
        else:
            ps = ps or p**s
            pw *= ps
        # q | B~_{t-1}**2 is a p-unit and p | p**omega: p**omega != q, b != 0, m != 0
        b_int, rem = divmod(pw - cert.q, A1sq)
        _invariant(rem == 0, "coset membership must make b integral")
        jump = pw // p ** (lead - kt1)
        ctil, rem = divmod(sign_t * qq - jump * A2_, A1)
        if rem != 0:
            raise ValueError("certificate corrupt: c~ is not an integer")
        _invariant(ctil % p != 0, "c~ must be a p-unit")
        if 4 * abs(ctil) >= pw // p ** (lead - 1):
            continue
        m = -b_int * q1
        _invariant(m % p != 0, "m must be prime to p")
        if _is_square(m):
            continue
        yield omega, s, kt, b_int, ctil, m, jump
        valid += 1


def _verified(cert: NiceCertificate, member: tuple) -> ConstructionResult:
    """One member of _members(cert, ...) as a ConstructionResult, verified as construct says."""
    p, t, k0, kt1 = cert.p, len(cert.cf), cert.k0, cert.ks[-1]
    omega, s, kt, b_int, ctil, m, jump = member
    # eq. (12) on the rows of cf + (a_t,): with J = p**(k_t + k_{t-1}),
    # row t is 2 c~ row(t-1) + J row(t-2), and the division defining c~
    # turns its A side into 2 (-1)**t b A~_{t-1} B~_{t-1}; B~_{t-1} != 0
    # cancels, leaving this one identity on the certificate's rows
    eq12_ok = (ctil * cert.Btilde_last + jump * cert.Btilde_prev
               == (-1) ** t * b_int * cert.Atilde_last)
    a_t = LaurentInt(p, 2 * ctil, kt)
    period = cert.cf[1:] + (a_t,) + tuple(reversed(cert.cf[1:])) + (cert.cf[0].doubled(),)
    preperiod = (cert.cf[0],)
    r = sqrt_mod_p(m % p, p)
    _invariant(r, "sqrt(m) must exist in Q_p by construction")
    # QuadIrr's checks hold: m is prime to p and not a square (the walk
    # checked both), c = m divides Delta - b**2 = m, r**2 = m mod p
    targets = (_quad(p, m, 0, m, k0, br) for br in (r, p - r))
    # the re-expansion strips exactly p**(k_t + k_{t-1}) off the W (for
    # t = 1, the dividing step's Y) of its middle step: lend it jump
    token = _HELD_POWER.set((p, kt + kt1, jump))
    try:
        hit = first_reexpansion(targets, preperiod, period, BROWKIN)
    finally:
        _HELD_POWER.reset(token)
    branch_used, actual = (hit[0].branch, hit[1]) if hit else (None, None)
    return ConstructionResult(
        p, t, k0, omega, s, cert.q, b_int, kt, ctil, a_t, m, preperiod, period,
        actual, branch_used, eq12_ok and hit is not None,
    )


def construct(cert: NiceCertificate, h: int = 0) -> ConstructionResult:
    """Run the period-2t construction on a nice certificate.

    h indexes the valid exponents omega = omega0 + j*order_s (those beyond
    k0 + 2*K_{t-1} whose c~ satisfies 4|c~| < p**(k_t+1)); each valid omega
    yields its own m. Raises ConstructionInfeasible when the next valid
    p**omega would exceed DEFAULT_MAX_DIGITS decimal digits (pcf construct
    --max-digits caps its own walk).

    verified is eq. (12), checked as one integer identity on the
    certificate's tilde rows, plus an exact re-expansion: one branch of
    1/(p**k0 * sqrt(m)) must repeat a state exactly where the claimed
    preperiod and period say, with matching digits up to there. The two
    branches start with opposite digits, so only one is expanded.
    expansion and branch are that re-expansion, or None when neither
    branch reproduces the digits. A broken eq. (12) leaves verified False.

    Cost: one coset walk (_members) up to the h-th valid member, which
    alone is verified (_verified); pcf construct verifies each requested
    member of one walk. The walk builds p**omega of its first member and
    multiplies it by p**s, built once, per later one; a member's other two
    big powers are exact quotients of its p**omega by small powers of p.
    The target 1/(p**k0 sqrt(m)) is built without QuadIrr's checks, which
    the walk has proved, so m's square test (a residue sieve, then isqrt)
    runs at most once per member. The re-expansion's middle step strips
    p**(k_t + k_{t-1}), k_t ~ omega (engine._wide_step,
    core.split_p_power): eq. (12)'s jump, lent for the re-expansion only
    (core._HELD_POWER), so the strip is one division by it instead of a
    doubling that builds p**e, and a walk raises p to a big power twice.
    """
    if cert.cond_c is None:
        raise ValueError("niceness is indeterminate (discrete-log budget): cannot construct")
    if not cert.nice:
        raise ValueError(f"certificate is not nice (first failed condition: {cert.failure})")
    if h < 0:
        raise ValueError("h must be >= 0")
    return _verified(cert, next(islice(_members(cert, DEFAULT_MAX_DIGITS), h, None)))


# -- the beta family -----------------------------------------------------------


def beta(n: int, k: int, p: int) -> tuple:
    """The digit list beta_n^k: length 2**n, entries +-1/p**k.

    beta_1^k = [1/p**k, 1/p**k]; each later stage interleaves the previous
    digits, sign-twisted by (-1)**i, with (-1)**i / p**k in the odd slots.
    """
    _check_odd_prime(p)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    digs = [LaurentInt(p, 1, k), LaurentInt(p, 1, k)]
    for _ in range(n - 1):
        nxt = []
        for i, b in enumerate(digs):
            sgn = -1 if i % 2 else 1
            nxt.append(LaurentInt(p, sgn * b.tilde, b.e))
            nxt.append(LaurentInt(p, sgn, k))
        digs = nxt
    return tuple(digs)


def _stilde(n: int, X: int) -> int:
    if n == 1:
        return 1
    acc = X * X * _stilde(n - 1, X * X) - 1 - X * X
    acc -= 2 * sum(X ** (2**j) for j in range(2, n))
    return acc


def beta_polynomials(n: int, k: int, p: int) -> bool:
    """Whether the closed-form convergent values of beta_n^k match the table.

    U, V, S, W evaluate the displayed polynomials at X = p**k and must equal
    A_{2^n-1}, B_{2^n-2}, A_{2^n-2}, B_{2^n-1} respectively; the last tilde
    denominator collapses to Btilde_{2^n-1} = 1. The result reports whether
    all of that holds; callers check it.
    """
    _check_odd_prime(p)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    X = p**k
    Ut = 1 + sum(X ** (2**j) for j in range(1, n + 1))
    Vt = X ** (2 * (2 ** (n - 1) - 1)) - sum(X ** (2 * (2**j - 1)) for j in range(0, n - 1))
    L = 2**n
    tab = convergents(beta(n, k, p))
    return (
        Fraction(Ut, X**L) == tab.A_(L - 1)
        and Fraction(Vt, X ** (L - 2)) == tab.B_(L - 2)
        and Fraction(_stilde(n, X), X ** (L - 1)) == tab.A_(L - 2)
        and Fraction(1, X ** (L - 1)) == tab.B_(L - 1)
        and tab.Btilde_(L - 1) == 1
    )


@dataclass(frozen=True)
class CalaVerdict:
    ok: bool
    pairs_checked: int
    detail: str | None


def cala_identities(cf, bullet) -> CalaVerdict:
    """The four interleave identities tying cf to its bullet companion.

    cf must have the alternating shape c_{2i} = (-1)**i * btilde_i / p**k,
    c_{2i+1} = (-1)**i / p**k where the bullet digits are btilde_i / p**2k.
    Checks, for every i: B_{2i} = (-1)**i (B*_i - B*_{i-1}),
    B_{2i+1} = B*_i / p**k, A_{2i+1} = A*_i + B*_i, and
    A_{2i} = (-1)**i p**k (A*_i - A*_{i-1} + B*_i - B*_{i-1}).
    """
    cf, bullet = tuple(cf), tuple(bullet)
    if not bullet or len(cf) != 2 * len(bullet):
        raise ValueError("need len(cf) = 2 * len(bullet) > 0")
    p = cf[0].p
    if any(a.p != p for a in cf) or any(a.p != p for a in bullet):
        raise ValueError("digits must share one prime")
    k = cf[1].e
    for i, bd in enumerate(bullet):
        sgn = -1 if i % 2 else 1
        if bd.e != 2 * k:
            raise ValueError("bullet digits need exponent 2k")
        if cf[2 * i + 1] != LaurentInt(p, sgn, k):
            raise ValueError(f"odd slot {2 * i + 1} breaks the interleave shape")
        if cf[2 * i].e != k or cf[2 * i].tilde != sgn * bd.tilde:
            raise ValueError(f"even slot {2 * i} breaks the interleave shape")
    tc = convergents(cf)
    tb = convergents(bullet)
    pk = Fraction(p) ** k
    for i in range(len(bullet)):
        sgn = -1 if i % 2 else 1
        checks = (
            ("B_even", tc.B_(2 * i) == sgn * (tb.B_(i) - tb.B_(i - 1))),
            ("B_odd", tc.B_(2 * i + 1) == tb.B_(i) / pk),
            ("A_odd", tc.A_(2 * i + 1) == tb.A_(i) + tb.B_(i)),
            ("A_even", tc.A_(2 * i) == sgn * pk * (tb.A_(i) - tb.A_(i - 1) + tb.B_(i) - tb.B_(i - 1))),
        )
        for name, good in checks:
            if not good:
                return CalaVerdict(False, i, f"{name} fails at i={i}")
    return CalaVerdict(True, len(bullet), None)


# -- closed-form families -------------------------------------------------------


@dataclass(frozen=True)
class FamilyReport:
    p: int
    t: int
    alpha: QuadIrr
    expansion: Expansion
    branch: int
    literal_check: str
    matrix_check: bool
    char_poly_check: bool | None
    verified: bool


def family_section6(variant: int, p: int, t: int) -> FamilyReport:
    """The three closed-form families with prescribed periodic expansions.

    Variant 1 (p >= 3, t >= 2): sqrt(1 - p**(t+2))/(2p), preperiod
    [(p**2-1)/(2p)], period [-2/p, -1/p**(t-1), 2/p, -1/p]. Variant 2
    (p >= 5, t >= 3): sqrt(p**t + 1)/2 with a length-6 period. Variant 3
    (p >= 5, t >= 3): sqrt(p**t + 1)/(2 p**(t-2)); its printed leading
    digit (p**(t-1)+1)/(2 p**(t-2)) = p/2 + 1/(2 p**(t-2)) falls outside
    the centered window |y| < p/2, so no digit stream can emit it, the
    literal digit claim is recorded as "indeterminate" and the value is
    verified through the period-matrix fixed point instead. For variants
    1 and 2 literal_check is "ok" when a branch re-expands to the claimed
    digits and "failed" when neither does.
    """
    _check_odd_prime(p)
    if variant == 1:
        if t < 2:
            raise ValueError("variant 1 needs t >= 2")
        Delta, k = 1 - p ** (t + 2), 1
        pre = (LaurentInt(p, (p * p - 1) // 2, 1),)
        per = (
            LaurentInt(p, -2, 1),
            LaurentInt(p, -1, t - 1),
            LaurentInt(p, 2, 1),
            LaurentInt(p, -1, 1),
        )
    elif variant == 2:
        if p < 5 or t < 3:
            raise ValueError("variant 2 needs p >= 5 and t >= 3")
        Delta, k = p**t + 1, 0
        pre = (LaurentInt(p, -(p - 1) // 2, 0), LaurentInt(p, 2, 1))
        per = (
            LaurentInt(p, -1, t - 2),
            LaurentInt(p, p - 2, 1),
            LaurentInt(p, -(p + 2), 1),
            LaurentInt(p, 1, t - 2),
            LaurentInt(p, -(p - 2), 1),
            LaurentInt(p, p + 2, 1),
        )
    elif variant == 3:
        if p < 5 or t < 3:
            raise ValueError("variant 3 needs p >= 5 and t >= 3")
        Delta, k = p**t + 1, t - 2
        pre = per = None
    else:
        raise ValueError("variant must be 1, 2 or 3")
    r = sqrt_mod_p(Delta % p, p)
    _invariant(r, "Delta = 1 mod p, so its unit square root exists")
    if variant in (1, 2):
        cands = (QuadIrr(p, Delta, 0, 2, k, br) for br in (r, p - r))
        matched = first_reexpansion(cands, pre, per, BROWKIN)
        if matched is None:
            alpha = QuadIrr(p, Delta, 0, 2, k, r)
            exp = expand(alpha, BROWKIN, max_steps=len(pre) + 2 * len(per) + 2)
            return FamilyReport(p, t, alpha, exp, r, "failed", False, None, False)
        alpha, exp = matched
        br = alpha.branch
        literal = "ok"
    else:
        br = r
        alpha = QuadIrr(p, Delta, 0, 2, k, br)
        exp = expand(alpha, BROWKIN, max_steps=400)
        literal = "indeterminate"
    matrix_ok = False
    char_ok = None
    if exp.status == PERIODIC:
        tail = exp.state_at(len(exp.preperiod))
        tab = convergents(exp.period)
        matrix_ok = any(g.value_equals(tail) for g in _period_roots(tab, 0))
        if variant == 1:
            N = len(exp.period)
            tr = tab.A_(N - 1) + tab.B_(N - 2)
            det = tab.A_(N - 1) * tab.B_(N - 2) - tab.A_(N - 2) * tab.B_(N - 1)
            char_ok = tr == 2 - Fraction(4, p ** (t + 2)) and det == 1
    verified = exp.status == PERIODIC and matrix_ok and (
        literal == "ok" or variant == 3
    ) and (char_ok is not False)
    return FamilyReport(p, t, alpha, exp, br, literal, matrix_ok, char_ok, verified)


# -- search --------------------------------------------------------------------


MAX_SEARCH_T, MAX_SEARCH_POOL, MAX_SEARCH_SPACE = 60, 10**5, 10**18


def _digit_pool(p: int, pool: str, num_bound: int, exp_bound: int) -> tuple:
    """The digits tt/p**e, e = 1..exp_bound, tt = 1..min(num_bound, half)
    prime to p, half = p**(e+1) // 2 (the centered window), by exponent,
    numerator, then sign (+, and - for pool "all"). half grows by one small
    product per exponent; a window that would pass MAX_SEARCH_POOL is refused unbuilt."""
    if num_bound < 1:
        return ()
    signs = (1, -1) if pool == "all" else (1,)
    out, half = [], p // 2
    for e in range(1, exp_bound + 1):
        if half < num_bound:
            half = p * half + p // 2
        top = min(num_bound, half)
        if len(out) + len(signs) * (top - top // p) > MAX_SEARCH_POOL:
            raise ValueError(f"the digit pool would hold more than {MAX_SEARCH_POOL} digits")
        out += [LaurentInt(p, s * tt, e) for tt in range(1, top + 1) if tt % p for s in signs]
    return tuple(out)


@lru_cache(maxsize=1)  # search_space_size and each nice_search of one space share it
def _search_pool(p: int, t: int, pool: str, num_bound: int, exp_bound: int) -> tuple:
    """_digit_pool's digits, or ValueError past a MAX_SEARCH_* cap, checked in
    the order p, t, the pool kind, the pool, then the space len(pool) ** t."""
    _check_odd_prime(p)
    if not 1 <= t <= MAX_SEARCH_T:
        raise ValueError(f"t must lie in 1..{MAX_SEARCH_T}, got {t}")
    if pool not in ("pos", "all"):
        raise ValueError("pool must be 'pos' or 'all'")
    digits = _digit_pool(p, pool, num_bound, exp_bound)
    if len(digits) ** t > MAX_SEARCH_SPACE:
        raise ValueError(f"the search space would hold {len(digits)}**{t} candidates, "
                         f"more than {MAX_SEARCH_SPACE}")
    return digits


def search_space_size(p: int, t: int, pool: str, num_bound: int, exp_bound: int) -> int:
    """The number of candidates nice_search walks, len(_search_pool(...)) ** t."""
    return len(_search_pool(p, t, pool, num_bound, exp_bound)) ** t


def _candidates_from(digits: tuple, t: int, start: int):
    """product(digits, repeat=t) from index start on, without walking the
    start indices before it.

    start is unranked into base-len(digits) ranks, most significant first.
    The rest of the space is then t blocks, from the last position up: the
    prefix ranks[:j] held fixed, position j past ranks[j] (from ranks[j]
    itself in the first block), and every later position free.
    """
    n = len(digits)
    if start >= n**t:  # past the end of the space, or an empty pool
        return
    ranks = [start // n**i % n for i in reversed(range(t))]
    for j in reversed(range(t)):
        head = tuple(digits[r] for r in ranks[:j])
        first = ranks[j] + (j < t - 1)
        for tail in product(digits[first:], *(digits,) * (t - 1 - j)):
            yield head + tail


def nice_search(p: int, t: int, pool: str = "pos", num_bound: int = 6,
                exp_bound: int = 2, start_index: int = 0,
                dlog_budget: int | None = None, stop_index: int | None = None):
    """Enumerate candidate digit lists and yield (index, certificate) for
    the nice ones.

    Candidates are drawn from _search_pool, kept for the last space: numerators
    up to num_bound in the centered windows of exponents up to exp_bound,
    positive only or both signs. The enumeration order is deterministic
    (exponent, then numerator, then sign, cartesian power by position), so
    start_index gives exact resumption. Only indices in [start_index,
    stop_index) are scanned (stop_index None means to the end of the
    space); the scan starts in O(t) wherever start_index lies (_candidates_from).
    """
    digits = _search_pool(p, t, pool, num_bound, exp_bound)
    if start_index < 0 or (stop_index is not None and stop_index < 0):
        raise ValueError("start_index and stop_index must be >= 0")
    combos = _candidates_from(digits, t, start_index)
    if stop_index is not None:
        combos = islice(combos, max(stop_index - start_index, 0))
    for idx, combo in enumerate(combos, start_index):
        cert = is_nice(combo, dlog_budget)
        if cert.nice:
            yield idx, cert
