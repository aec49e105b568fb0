"""Structural analysis of expansions.

Covers the regularity criterion (negative valuation, positive conjugate
valuation) and its equivalence with pure periodicity, the reversed-period
and conjugate identities, norm-sign window bounds with the explicit K
constant, the trace-zero trichotomy with its palindromic period template,
palindrome convergent identities, and the Ruban non-periodicity probe for
p**k * sqrt(m).

Everything here is exact: signs come from integer comparisons, valuations
from the residue trick in the engine, and every claimed identity is checked
on Fraction/int arithmetic, never floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .core import LaurentInt, _check_odd_prime, _invariant, legendre, sqrt_mod_p
from .engine import (
    BROWKIN,
    OPEN,
    PERIODIC,
    RUBAN,
    DEFAULT_MAX_STEPS,
    Expansion,
    QuadIrr,
    _from_uvw,
    _is_square,
    _stream_equal,
    _val_linear,
    convergents,
    expand,
    step,
)


# -- regularity --------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    v_alpha: int
    v_conj: int
    regular: bool
    first_regular_index: int | None
    preperiod_bound: int

    def to_json(self) -> dict:
        return {
            "v_alpha": self.v_alpha,
            "v_conj": self.v_conj,
            "regular": self.regular,
            "first_regular_index": self.first_regular_index,
            "preperiod_bound": self.preperiod_bound,
        }


def _conjugate_valuation(alpha: QuadIrr) -> int:
    """v_p of (b - delta)/(p**k c), without building the conjugate."""
    return _val_linear(-alpha.b, 1, alpha.Delta, alpha.branch, alpha.p) - alpha.k


def _is_regular_state(alpha: QuadIrr) -> bool:
    return alpha.valuation < 0 and _conjugate_valuation(alpha) > 0


def is_regular(alpha: QuadIrr, max_steps: int = 200) -> RegularityReport:
    """Exact regularity data plus the contraction-based preperiod estimate.

    first_regular_index is the index of the first regular complete quotient
    in the centered expansion (None if not seen within max_steps, which for
    a periodic expansion means never). preperiod_bound is n0 + 1 with
    n0 = ceil(v_p(alpha - alpha^c)/2); it is recorded as a rule of thumb and
    deliberately never asserted against the detected preperiod, because the
    estimate can be off by one at valuation-zero boundaries.
    """
    va = alpha.valuation
    vc = _conjugate_valuation(alpha)
    idx = None
    cur = alpha
    for n in range(max_steps):
        if _is_regular_state(cur):
            idx = n
            break
        _, cur = step(cur, BROWKIN)
    # alpha - alpha^c = 2*delta/(p**k c) has valuation exactly -k
    vdiff = -alpha.k
    n0 = -((-vdiff) // 2)
    return RegularityReport(va, vc, va < 0 < vc, idx, n0 + 1)


@dataclass(frozen=True)
class GaloisVerdict:
    ok: bool
    regular: bool
    preperiod_length: int
    first_regular_index: int | None
    v_alpha: int
    v_conj: int

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "regular": self.regular,
            "preperiod_length": self.preperiod_length,
            "first_regular_index": self.first_regular_index,
            "v_alpha": self.v_alpha,
            "v_conj": self.v_conj,
        }


def galois_check(alpha: QuadIrr, expansion: Expansion) -> GaloisVerdict:
    """Pure periodicity against regularity, on a detected periodic expansion.

    Checks both halves: empty preperiod iff alpha is regular, and the
    preperiod length equals the index of the first regular complete
    quotient.
    """
    if expansion.status != PERIODIC:
        raise ValueError("galois_check needs a periodic expansion")
    pre = len(expansion.preperiod)
    horizon = pre + len(expansion.period) + 2
    rep = is_regular(alpha, max_steps=horizon)
    ok = ((pre == 0) == rep.regular) and rep.first_regular_index == pre
    return GaloisVerdict(ok, rep.regular, pre, rep.first_regular_index,
                         rep.v_alpha, rep.v_conj)


def reversed_period_identity(expansion: Expansion) -> Expansion:
    """For purely periodic centered expansions: the digit-reversal laws.

    Verifies that -1/alpha^c expands to the reversed period, that alpha^c
    expands to [0, (negated reversed period)*] as a digit stream, and the
    palindrome criterion: the period reads the same both ways iff the norm
    of alpha is exactly -1. Returns the expansion of -1/alpha^c.
    """
    if expansion.flavor != BROWKIN:
        raise ValueError("the reversal identities are centered-flavor facts")
    if not expansion.is_purely_periodic:
        raise ValueError("needs a purely periodic expansion")
    alpha = expansion.alpha
    if not isinstance(alpha, QuadIrr):
        raise ValueError("expansion must come from a QuadIrr")
    per = expansion.period
    N = len(per)
    rev = tuple(reversed(per))
    target = alpha.conjugate().inverse().negated()
    got = expand(target, BROWKIN, max_steps=2 * N + 6)
    _invariant(got.is_purely_periodic and len(got.period) == N,
               "-1/alpha^c must be purely periodic with the same period length")
    _invariant(got.period == rev, "-1/alpha^c period is the reversal")
    zero = LaurentInt(alpha.p, 0, 0)
    neg_rev = tuple(-q for q in rev)
    conj_exp = expand(alpha.conjugate(), BROWKIN, max_steps=2 * N + 8)
    _invariant(_stream_equal(conj_exp, (zero,), neg_rev, 1 + 2 * N),
               "alpha^c must expand as [0, (negated reversal)*]")
    palindromic = per == rev
    _invariant(palindromic == (alpha.norm == -1),
               "palindromic period iff norm(alpha) = -1")
    return got


def reversal_prefix_check(expansion: Expansion, n: int) -> bool:
    """Finite reversal: -1/(alpha_{n+1})^c starts with digits a_n, ..., a_0.

    Holds whenever every complete quotient through index n+1 is regular,
    in particular on purely periodic expansions.
    """
    st = expansion.state_at(n + 1)
    target = st.conjugate().inverse().negated()
    texp = expand(target, BROWKIN, max_steps=n + 4)
    want = [expansion.quotient_at(i) for i in range(n, -1, -1)]
    try:
        got = [texp.quotient_at(i) for i in range(n + 1)]
    except IndexError:
        return False
    return got == want


# -- norm signs and the K bound ----------------------------------------------


def K_bound(Delta: int) -> int:
    """The explicit count (2t+1)*Delta + 1 - t(t+1)(2t+1)/3, t = isqrt(Delta).

    Equals 1 + sum over |i| <= t of (Delta - i**2): an upper bound for the
    number of states with negative norm, hence a period-length bound when a
    negative-norm window is observed.
    """
    if Delta <= 0:
        raise ValueError("K_bound needs Delta > 0 (negative norms need a real image)")
    t = isqrt(Delta)
    return (2 * t + 1) * Delta + 1 - t * (t + 1) * (2 * t + 1) // 3


@dataclass(frozen=True)
class NormSignTrace:
    p: int
    Delta: int
    signs: str
    b_values: tuple
    c_values: tuple
    k_values: tuple
    K_bound: int | None
    abs_b_counts: tuple
    all_b_bounded: bool
    ever_b_bounded: bool
    has_real_norms: bool
    status: str
    period_length: int | None
    negative_window: int
    alternating_window: int
    negative_window_triggered: bool
    alternating_window_triggered: bool

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "Delta": self.Delta,
            "signs": self.signs,
            "b_values": list(self.b_values),
            "K_bound": self.K_bound,
            "abs_b_counts": [list(x) for x in self.abs_b_counts],
            "all_b_bounded": self.all_b_bounded,
            "ever_b_bounded": self.ever_b_bounded,
            "status": self.status,
            "period_length": self.period_length,
            "negative_window": self.negative_window,
            "alternating_window": self.alternating_window,
            "negative_window_triggered": self.negative_window_triggered,
            "alternating_window_triggered": self.alternating_window_triggered,
        }


def _longest_sign_run(word: str, sign: str) -> int:
    best = cur = 0
    for ch in word:
        cur = cur + 1 if ch == sign else 0
        best = max(best, cur)
    return best


def _longest_alternating(word: str) -> int:
    best = cur = 0
    prev = ""
    for ch in word:
        if ch == "0":
            cur, prev = 0, ""
            continue
        cur = cur + 1 if (prev and ch != prev) else 1
        prev = ch
        best = max(best, cur)
    return best


def b_sequence_analysis(alpha: QuadIrr, N: int, flavor: str = BROWKIN) -> NormSignTrace:
    """Trace b_n, c_n, k_n and the norm signs over an N-step horizon.

    The sign at n is sign(Delta - b_n**2): '+' means the real image of the
    complete quotient has negative norm. When the trace shows a
    negative-norm window of length K_bound (or the whole cycle is negative)
    the period bound is asserted; same for an alternating window of length
    2*K_bound. Plateau reporting is deliberately weak: the full multiset of
    |b_n| plus boundedness flags, since the infinite-subsequence statement
    is not decidable at a finite horizon.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    exp = expand(alpha, flavor, max_steps=N)
    states = exp.states
    Delta = alpha.Delta
    signs = "".join(
        "+" if Delta > st.b * st.b else ("-" if Delta < st.b * st.b else "0")
        for st in states
    )
    b_values = tuple(st.b for st in states)
    c_values = tuple(st.c for st in states)
    k_values = tuple(st.k for st in states)
    Kb = K_bound(Delta) if Delta > 0 else None
    t = isqrt(Delta) if Delta > 0 else None
    abs_b = [abs(b) for b in b_values]
    counts = tuple(sorted(Counter(abs_b).items()))
    all_bounded = Delta > 0 and all(v <= t for v in abs_b)
    ever_bounded = Delta > 0 and any(v <= t for v in abs_b)
    periodic = exp.status == PERIODIC
    per_len = len(exp.period) if periodic else None
    if periodic:
        pre_n = len(exp.preperiod)
        pre_signs, per_signs = signs[:pre_n], signs[pre_n:]
        word = pre_signs + per_signs * 2
    else:
        per_signs = ""
        word = signs
    neg_window = _longest_sign_run(word, "+")
    alt_window = _longest_alternating(word)
    neg_trig = alt_trig = False
    if Kb is not None:
        whole_cycle_neg = periodic and per_signs and set(per_signs) == {"+"}
        neg_trig = whole_cycle_neg or neg_window >= Kb
        cycle_alternates = (
            periodic
            and per_signs
            and "0" not in per_signs
            and all(per_signs[i] != per_signs[(i + 1) % len(per_signs)]
                    for i in range(len(per_signs)))
        )
        alt_trig = cycle_alternates or alt_window >= 2 * Kb
        if neg_trig and periodic:
            _invariant(per_len <= Kb, "negative-norm window bound violated")
        if alt_trig and periodic:
            _invariant(per_len <= 2 * Kb, "alternating-sign window bound violated")
    return NormSignTrace(
        alpha.p, Delta, signs, b_values, c_values, k_values, Kb, counts,
        all_bounded, ever_bounded, Delta > 0, exp.status, per_len,
        neg_window, alt_window, neg_trig, alt_trig,
    )


# -- trace zero ---------------------------------------------------------------


@dataclass(frozen=True)
class TraceZeroReport:
    klass: str
    valuation: int
    template: str | None
    matched: bool | None
    a0_small: bool | None
    expansion: Expansion

    def to_json(self) -> dict:
        return {
            "class": self.klass,
            "valuation": self.valuation,
            "template": self.template,
            "matched": self.matched,
            "a0_small": self.a0_small,
            "status": self.expansion.status,
        }


def _palindromic(seq) -> bool:
    return list(seq) == list(reversed(seq))


def trace_zero_classify(alpha: QuadIrr, max_steps: int = DEFAULT_MAX_STEPS) -> TraceZeroReport:
    """The trichotomy for sqrt-type values (b = 0), centered flavor.

    Negative valuation: preperiod length 1 and the period is a palindromic
    interior closed by the doubled leading digit. Positive valuation: the
    same template shifted behind a [0, a_0] preperiod. Valuation zero:
    preperiod length 2 with no template claimed.

    The preperiod lengths hold whenever the expansion is periodic. The
    doubled-closing-digit template additionally needs 2*a_0 to be a legal
    digit, i.e. |a_0| < p/4; a0_small reports that hypothesis and matched
    is the literal structural comparison, meaningful only under it.
    """
    if alpha.b != 0:
        raise ValueError("trace_zero_classify needs a trace-zero value (b = 0)")
    v = alpha.valuation
    klass = "preperiod_1" if v < 0 else "preperiod_2"
    exp = expand(alpha, BROWKIN, max_steps=max_steps)
    p = alpha.p
    quarter = Fraction(p, 4)
    template = matched = a0_small = None
    if v < 0:
        template = "[a_0, (w_1, ..., w_{r-1}, 2*a_0)*] with palindromic interior"
        if exp.status == PERIODIC:
            pre, per = exp.preperiod, exp.period
            matched = (
                len(pre) == 1
                and per[-1] == pre[0].doubled()
                and _palindromic(per[:-1])
            )
            a0_small = pre[0].abs_lt(quarter)
    elif v > 0:
        template = "[0, a_0, (w_1, ..., w_{r-1}, 2*a_0)*] with palindromic interior"
        if exp.status == PERIODIC:
            pre, per = exp.preperiod, exp.period
            matched = (
                len(pre) == 2
                and pre[0] == LaurentInt(p, 0, 0)
                and per[-1] == pre[1].doubled()
                and _palindromic(per[:-1])
            )
            a0_small = pre[1].abs_lt(quarter)
    else:
        if exp.status == PERIODIC:
            matched = len(exp.preperiod) == 2
    return TraceZeroReport(klass, v, template, matched, a0_small, exp)


# -- palindromic convergent identities ----------------------------------------


@dataclass(frozen=True)
class DtVerdict:
    ok: bool
    d: int
    t: int
    parity: str
    lhs_A: Fraction
    rhs_A: Fraction
    lhs_B: Fraction
    rhs_B: Fraction


def dt_identities(cf, t: int, parity: str) -> DtVerdict:
    """Exact convergent identities of a palindrome [a_0, ..., a_0].

    Even case d = 2t:  a_0 A_{d-1} + A_{d-2} = A_{t-1}(A_t + A_{t-2}) and
    B_{d-1} = B_{t-1}(B_t + B_{t-2}). Odd case d = 2t+1: the right sides
    become the sums of squares A_t**2 + A_{t-1}**2 and B_t**2 + B_{t-1}**2.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if t < 1:
        raise ValueError("need t >= 1")
    cf = tuple(cf)
    d = 2 * t if parity == "even" else 2 * t + 1
    if len(cf) != d + 1:
        raise ValueError(f"palindrome of parity {parity} with t={t} has {d + 1} digits")
    if not _palindromic(cf):
        raise ValueError("digit list is not palindromic")
    tab = convergents(cf)
    a0 = cf[0].value
    lhs_A = a0 * tab.A_(d - 1) + tab.A_(d - 2)
    lhs_B = tab.B_(d - 1)
    if parity == "even":
        rhs_A = tab.A_(t - 1) * (tab.A_(t) + tab.A_(t - 2))
        rhs_B = tab.B_(t - 1) * (tab.B_(t) + tab.B_(t - 2))
    else:
        rhs_A = tab.A_(t) ** 2 + tab.A_(t - 1) ** 2
        rhs_B = tab.B_(t) ** 2 + tab.B_(t - 1) ** 2
    return DtVerdict(lhs_A == rhs_A and lhs_B == rhs_B, d, t, parity,
                     lhs_A, rhs_A, lhs_B, rhs_B)


# -- Ruban probe ---------------------------------------------------------------


@dataclass(frozen=True)
class RubanProbe:
    p: int
    m: int
    k: int
    status: str
    horizon: int
    a1_tilde: int | None
    witness_negative_embeddings: bool | None
    expansion: Expansion

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "k": self.k,
            "status": self.status,
            "horizon": self.horizon,
            "a1_tilde": self.a1_tilde,
            "witness_negative_embeddings": self.witness_negative_embeddings,
        }


def ruban_nonperiodic_probe(m: int, k: int, p: int, N: int = 2000,
                            branch: int | None = None) -> RubanProbe:
    """Probe the nonnegative-flavor expansion of p**k * sqrt(m).

    For k > 0 the expansion is never periodic: the probe asserts no cycle
    within N steps and checks the underlying witness exactly, namely that
    both real embeddings of the third complete quotient
    alpha_2 = p**k (sqrt(m) + a~_1 m)/(1 - a~_1**2 m) are negative, which
    follows from a~_1 >= 1 and m > 1 by integer comparisons. Negative k is
    accepted for the periodic sqrt(1 + p**(2h))/p**h family; there the
    observed status is simply reported.
    """
    _check_odd_prime(p)
    if k == 0:
        raise ValueError("need k != 0 (a nonzero p-power factor)")
    if N < 4:
        raise ValueError("need N >= 4 to reach the witness state")
    if m <= 1 or m % p == 0 or _is_square(m):
        raise ValueError("need m > 1, prime to p, not a perfect square")
    if legendre(m % p, p) != 1:
        raise ValueError(f"sqrt({m}) not in Q_{p}")
    if branch is None:
        branch = sqrt_mod_p(m % p, p)
    alpha = QuadIrr(p, m, 0, 1, -k, branch)
    exp = expand(alpha, RUBAN, max_steps=N)
    if k < 0:
        return RubanProbe(p, m, k, exp.status, N, None, None, exp)
    _invariant(exp.status == OPEN,
               f"p^{k} sqrt({m}) produced a cycle in the nonnegative flavor; "
               "the real-embedding sign obstruction rules that out")
    a1 = exp.quotient_at(1)
    _invariant(a1.e == k, "first complete quotient must have valuation exactly -k")
    at1 = a1.tilde
    witness = at1 >= 1 and at1 * at1 * m > 1
    alpha2 = _from_uvw(p, p**k * at1 * m, p**k, 1 - at1 * at1 * m, m, branch)
    _invariant(alpha2.value_equals(exp.state_at(2)), "witness state formula mismatch")
    return RubanProbe(p, m, k, "nonperiodic", N, at1, witness, exp)
