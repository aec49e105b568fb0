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
tilde-row identity and an exact re-expansion of the target value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import gcd

from .core import (
    DlogBudgetExceeded,
    LaurentInt,
    _check_odd_prime,
    _invariant,
    discrete_log,
    divisors,
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
    order_s: int | None
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
            "order_s": self.order_s,
            "nice": self.nice,
            "failure": self.failure,
        }


def _q_candidates(B: int):
    """Signed q with B | q and q | B**2, ordered by |q| then positive first."""
    absB = abs(B)
    for d in divisors(absB):
        yield absB * d
        yield -absB * d


def is_nice(cf, dlog_budget: int | None = None) -> NiceCertificate:
    """Decide niceness of a finite digit list; every check is exact.

    Condition (c) enumerates the finitely many admissible q and tests coset
    membership by discrete log modulo Atilde_{t-1}**2. The common fast exits
    (modulus 1, q = 1) avoid factoring entirely, so niceness of the beta
    seeds stays cheap even when the convergents are huge. A discrete-log
    budget overflow makes cond_c None: indeterminate rather than failed.
    """
    cf = tuple(cf)
    if not cf:
        raise ValueError("empty digit list")
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
    quarter = Fraction(p, 4)
    cond_a = cf[0].e >= 1 and cf[0].abs_lt(quarter)
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
        cap = {} if dlog_budget is None else {"budget": dlog_budget}
        for qc in _q_candidates(B1):
            if gcd(qc, A1sq) != 1:
                continue
            if A1sq == 1 or qc % A1sq == 1 % A1sq:
                q, omega0, cond_c = qc, 0, True
                break
            try:
                w = discrete_log(p, qc % A1sq, A1sq, **cap)
            except DlogBudgetExceeded:
                indeterminate = True
                continue
            if w is not None:
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
        cond_a, cond_b, cond_c, q, omega0, None, nice, failure,
    )


def positive_shortcut(cf) -> bool:
    """Whether condition (b) follows for free: all digits positive and the
    last one above 4/p."""
    cf = tuple(cf)
    if not cf:
        raise ValueError("empty digit list")
    p = cf[0].p
    return all(a.value > 0 for a in cf) and cf[-1].value > Fraction(4, p)


# -- the construction ----------------------------------------------------------


@dataclass(frozen=True)
class ConstructionResult:
    p: int
    t: int
    k0: int
    h: int
    omega: int
    omega0: int
    order_s: int
    q: int
    q1: int
    b: int
    kt: int
    c_tilde: int
    a_t: LaurentInt
    m: int
    preperiod: tuple
    period: tuple
    expansion: Expansion | None
    branch: int | None
    eq12_ok: bool
    reexpand_ok: bool
    verified: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k0": self.k0,
            "t": self.t,
            "omega": self.omega,
            "q": self.q,
            "b": self.b,
            "kt": self.kt,
            "c_tilde": self.c_tilde,
            "a_t": str(self.a_t),
            "m": self.m,
            "preperiod": [str(a) for a in self.preperiod],
            "period": [str(a) for a in self.period],
            "verified": self.verified,
            "branch": self.branch,
        }


def construct(cert: NiceCertificate, h: int = 0,
              max_digits: int = DEFAULT_MAX_DIGITS) -> ConstructionResult:
    """Run the period-2t construction on a nice certificate.

    h indexes the valid exponents omega = omega0 + j*order_s (those beyond
    k0 + 2*K_{t-1} whose c~ satisfies 4|c~| < p**(k_t+1)); each valid omega
    yields its own m. Raises ConstructionInfeasible when the next valid
    p**omega would exceed max_digits decimal digits.

    verified is the eq. (12) tilde-row identity plus an exact re-expansion:
    one branch of 1/(p**k0 * sqrt(m)) must expand to the claimed preperiod
    and period. expansion and branch are that re-expansion, or None when
    neither branch reproduces the digits.
    """
    if cert.cond_c is None:
        raise ValueError("niceness is indeterminate (discrete-log budget): cannot construct")
    if not cert.nice:
        raise ValueError(f"certificate is not nice (first failed condition: {cert.failure})")
    if h < 0:
        raise ValueError("h must be >= 0")
    p, t = cert.p, len(cert.cf)
    A1, A2_ = cert.Atilde_last, cert.Atilde_prev
    B1, B2_ = cert.Btilde_last, cert.Btilde_prev
    k0, Kt1, kt1 = cert.k0, cert.K_prev, cert.ks[-1]
    A1sq = A1 * A1
    s = cert.order_s
    if s is None:
        s = 1 if A1sq == 1 else mult_order(p, A1sq)
    sign_t = (-1) ** (t - 1)
    qq, rem = divmod(cert.q, B1)
    _invariant(rem == 0, "B~_{t-1} must divide q")
    log10p = math.log10(p)
    found = []
    j = 0
    while len(found) <= h:
        if j > h + 200:
            raise RuntimeError(
                "no valid omega within 200 coset steps; the certificate "
                "violates the growth expectations of condition (b)"
            )
        omega = cert.omega0 + j * s
        j += 1
        if omega <= k0 + 2 * Kt1:
            continue
        if omega * log10p > max_digits:
            raise ConstructionInfeasible(
                f"needs p**omega with omega = {omega} "
                f"(about {int(omega * log10p)} decimal digits, cap {max_digits})",
                omega, int(omega * log10p),
            )
        kt = omega - k0 - 2 * Kt1
        b_int, rem = divmod(p**omega - cert.q, A1sq)
        _invariant(rem == 0, "coset membership must make b integral")
        if b_int == 0:
            continue
        jump = p ** (kt + kt1)
        ctil, rem = divmod(sign_t * qq - jump * A2_, A1)
        if rem != 0:
            raise ValueError("certificate corrupt: c~ is not an integer")
        _invariant(ctil % p != 0, "c~ must be a p-unit")
        if 4 * abs(ctil) >= p ** (kt + 1):
            continue
        q1, rem = divmod(B1 * B1, cert.q)
        _invariant(rem == 0, "q must divide B~_{t-1}**2")
        m = -b_int * q1
        _invariant(m % p != 0, "m must be prime to p")
        if m == 0 or _is_square(m):
            continue
        found.append((omega, kt, b_int, ctil, q1, m))
    omega, kt, b_int, ctil, q1, m = found[h]
    jump = p ** (kt + kt1)
    _invariant(ctil * A1 + jump * A2_ == sign_t * qq, "A-row coset identity")
    _invariant(ctil * B1 + jump * B2_ == (-1) ** t * b_int * A1, "B-row coset identity")
    a_t = LaurentInt(p, 2 * ctil, kt)
    period = cert.cf[1:] + (a_t,) + tuple(reversed(cert.cf[1:])) + (cert.cf[0].doubled(),)
    preperiod = (cert.cf[0],)
    tab2 = convergents(cert.cf + (a_t,))
    lhs = tab2.Btilde_(t - 1) * (tab2.Btilde_(t) + jump * tab2.Btilde_(t - 2))
    rhs = m * tab2.Atilde_(t - 1) * (tab2.Atilde_(t) + jump * tab2.Atilde_(t - 2))
    eq12_ok = lhs == rhs
    r = sqrt_mod_p(m % p, p)
    _invariant(r, "sqrt(m) must exist in Q_p by construction")
    targets = (QuadIrr(p, m, 0, m, k0, br) for br in (r, p - r))
    hit = first_reexpansion(targets, preperiod, period, BROWKIN)
    branch_used, actual = (hit[0].branch, hit[1]) if hit else (None, None)
    reexpand_ok = hit is not None
    verified = eq12_ok and reexpand_ok
    return ConstructionResult(
        p, t, k0, h, omega, cert.omega0, s, cert.q, q1, b_int, kt, ctil,
        a_t, m, preperiod, period, actual, branch_used,
        eq12_ok, reexpand_ok, verified,
    )


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


@dataclass(frozen=True)
class BetaPolyValues:
    n: int
    k: int
    p: int
    S: Fraction
    U: Fraction
    V: Fraction
    W: Fraction
    Stilde: int
    Utilde: int
    Vtilde: int
    ok: bool


def beta_polynomials(n: int, k: int, p: int) -> BetaPolyValues:
    """Closed-form convergent values of beta_n^k, checked against the table.

    U, V, S, W evaluate the displayed polynomials at X = p**k and must equal
    A_{2^n-1}, B_{2^n-2}, A_{2^n-2}, B_{2^n-1} respectively; the last tilde
    denominator collapses to Btilde_{2^n-1} = 1.
    """
    _check_odd_prime(p)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    X = p**k
    Ut = 1 + sum(X ** (2**j) for j in range(1, n + 1))
    Vt = X ** (2 * (2 ** (n - 1) - 1)) - sum(X ** (2 * (2**j - 1)) for j in range(0, n - 1))
    St = _stilde(n, X)
    L = 2**n
    U = Fraction(Ut, X**L)
    V = Fraction(Vt, X ** (L - 2))
    S = Fraction(St, X ** (L - 1))
    W = Fraction(1, X ** (L - 1))
    tab = convergents(beta(n, k, p))
    ok = (
        U == tab.A_(L - 1)
        and V == tab.B_(L - 2)
        and S == tab.A_(L - 2)
        and W == tab.B_(L - 1)
        and tab.Btilde_(L - 1) == 1
    )
    _invariant(ok, "polynomial values must reproduce the beta convergents")
    return BetaPolyValues(n, k, p, S, U, V, W, St, Ut, Vt, ok)


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
    variant: int
    p: int
    t: int
    alpha: QuadIrr
    claimed_preperiod: tuple | None
    claimed_period: tuple | None
    expansion: Expansion
    branch: int
    matched_sign: str | None
    literal_check: str
    matrix_check: bool
    char_poly_check: bool | None
    verified: bool
    note: str | None

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "p": self.p,
            "t": self.t,
            "alpha": self.alpha.to_json(),
            "status": self.expansion.status,
            "branch": self.branch,
            "matched_sign": self.matched_sign,
            "literal_check": self.literal_check,
            "matrix_check": self.matrix_check,
            "char_poly_check": self.char_poly_check,
            "verified": self.verified,
            "note": self.note,
        }


def family_section6(variant: int, p: int, t: int) -> FamilyReport:
    """The three closed-form families with prescribed periodic expansions.

    Variant 1 (p >= 3, t >= 2): sqrt(1 - p**(t+2))/(2p), preperiod
    [(p**2-1)/(2p)], period [-2/p, -1/p**(t-1), 2/p, -1/p]. Variant 2
    (p >= 5, t >= 3): sqrt(p**t + 1)/2 with a length-6 period. Variant 3
    (p >= 5, t >= 3): sqrt(p**t + 1)/(2 p**(t-2)); its printed leading
    digit (p**(t-1)+1)/(2 p**(t-2)) falls outside the digit set, so the
    literal digit claim is recorded as indeterminate and the value is
    verified through the period-matrix fixed point instead.
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
    note = None
    if variant in (1, 2):
        cands = (QuadIrr(p, Delta, 0, 2, k, br) for br in (r, p - r))
        matched = first_reexpansion(cands, pre, per, BROWKIN)
        if matched is None:
            alpha = QuadIrr(p, Delta, 0, 2, k, r)
            exp = expand(alpha, BROWKIN, max_steps=len(pre) + 2 * len(per) + 2)
            return FamilyReport(variant, p, t, alpha, pre, per, exp, r, None,
                                "failed", False, None, False,
                                "neither branch reproduces the claimed digits")
        alpha, exp = matched
        br = alpha.branch
        sign = "+" if br == r else "-"
        literal = "ok"
    else:
        br = r
        alpha = QuadIrr(p, Delta, 0, 2, k, br)
        exp = expand(alpha, BROWKIN, max_steps=400)
        sign = None
        literal = "indeterminate"
        lead = Fraction(p ** (t - 1) + 1, 2 * p ** (t - 2))
        note = (
            f"claimed leading digit {lead} = p/2 + 1/(2*p**{t - 2}) exceeds "
            "the centered window |y| < p/2, so no digit stream can emit it "
            "verbatim; matching by value instead"
        )
    matrix_ok = False
    char_ok = None
    if exp.status == PERIODIC:
        tail = exp.state_at(len(exp.preperiod))
        matrix_ok = any(g.value_equals(tail) for g in _period_roots(exp.period, p))
        if variant == 1:
            tab = convergents(exp.period, p)
            N = len(exp.period)
            tr = tab.A_(N - 1) + tab.B_(N - 2)
            det = tab.A_(N - 1) * tab.B_(N - 2) - tab.A_(N - 2) * tab.B_(N - 1)
            char_ok = tr == 2 - Fraction(4, p ** (t + 2)) and det == 1
    verified = exp.status == PERIODIC and matrix_ok and (
        literal == "ok" or variant == 3
    ) and (char_ok is not False)
    return FamilyReport(variant, p, t, alpha, pre, per, exp, br, sign,
                        literal, matrix_ok, char_ok, verified, note)


# -- search --------------------------------------------------------------------


def _digit_pool(p: int, pool: str, num_bound: int, exp_bound: int) -> tuple:
    out = []
    for e in range(1, exp_bound + 1):
        for tt in range(1, num_bound + 1):
            if tt % p == 0 or 2 * tt >= p ** (e + 1):
                continue
            out.append(LaurentInt(p, tt, e))
            if pool == "all":
                out.append(LaurentInt(p, -tt, e))
    return tuple(out)


def nice_search(p: int, t: int, pool: str = "pos", num_bound: int = 6,
                exp_bound: int = 2, limit: int | None = None,
                start_index: int = 0, dlog_budget: int | None = None,
                stop_index: int | None = None):
    """Enumerate candidate digit lists and yield (index, certificate) for
    the nice ones.

    Candidates are drawn from the centered digit window with numerator up
    to num_bound and denominator exponent up to exp_bound, positive only or
    both signs; the enumeration order is deterministic (exponent, then
    numerator, then sign, cartesian power by position), so start_index
    gives exact resumption. Only indices in [start_index, stop_index) are
    scanned (stop_index None means to the end of the space).
    """
    _check_odd_prime(p)
    if t < 1:
        raise ValueError("need t >= 1")
    if pool not in ("pos", "all"):
        raise ValueError("pool must be 'pos' or 'all'")
    digits = _digit_pool(p, pool, num_bound, exp_bound)
    emitted = 0
    combos = islice(product(digits, repeat=t), start_index, stop_index)
    for idx, combo in enumerate(combos, start_index):
        cert = is_nice(combo, dlog_budget)
        if cert.nice:
            yield idx, cert
            emitted += 1
            if limit is not None and emitted >= limit:
                return
