"""Structural analysis of expansions.

Covers the regularity criterion (negative valuation, positive conjugate
valuation) and its equivalence with pure periodicity, the reversed-period
and conjugate identities, the trace-zero trichotomy with its palindromic
period template, the convergent identities of palindromes that the
period-2t construction rests on, and the Ruban non-periodicity probe for
p**k * sqrt(m).

Everything here is exact: signs come from integer comparisons, valuations
from the residue trick in the engine, and every claimed identity is checked
on Fraction/int arithmetic, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import LaurentInt, _check_odd_prime, _invariant, legendre, sqrt_mod_p
from .engine import (
    BROWKIN,
    OPEN,
    PERIODIC,
    RUBAN,
    DEFAULT_MAX_STEPS,
    Expansion,
    QuadIrr,
    _is_square,
    _val_linear,
    convergents,
    expand,
    first_reexpansion,
)


# -- regularity --------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    v_alpha: int
    v_conj: int
    regular: bool
    first_regular_index: int | None


def _conjugate_valuation(alpha: QuadIrr) -> int:
    """v_p of (b - delta)/(p**k c), without building the conjugate."""
    return _val_linear(-alpha.b, 1, alpha.Delta, alpha.branch, alpha.p) - alpha.k


def is_regular(alpha: QuadIrr, max_steps: int = 200) -> RegularityReport:
    """Exact regularity data of alpha.

    first_regular_index is the index of the first regular complete quotient
    in the centered expansion: 0 if alpha is regular, else 1 if
    alpha.k >= 1, else 2. It is None only when it is not below max_steps.

    Here k is the state's exponent, not -v_p(alpha). Take a state with
    k >= 0 and its digit a. Then v(alpha - a) >= 1, and alpha - a =
    (delta - b')/(p**k c), so v(b' - delta) >= k + 1 and b' = delta mod p.
    As p is odd, b' + delta = 2 delta mod p is a unit, and with
    Delta - b'**2 = p**(k + k') c c' the next quotient has v(alpha') = -k'
    <= -1 and v(alpha'^c) = k. So alpha_{n+1} is regular iff k_n >= 1.
    Every k_n with n >= 1 is at least 1 (engine._dividing_step's
    invariant k' >= 1), so every alpha_n with n >= 2 is regular. If k < 0
    the digit is 0 and alpha_1 = 1/alpha, so v(alpha_1^c) = -v(alpha^c) < 0
    and alpha_1 is not regular.
    Nothing here depends on the digit window, so it holds in both flavors.
    """
    va = alpha.valuation
    vc = _conjugate_valuation(alpha)
    regular = va < 0 < vc
    idx = 0 if regular else 1 if alpha.k >= 1 else 2
    return RegularityReport(va, vc, regular, idx if idx < max_steps else None)


@dataclass(frozen=True)
class GaloisVerdict:
    ok: bool
    regular: bool
    preperiod_length: int
    first_regular_index: int
    v_alpha: int
    v_conj: int


def galois_check(alpha: QuadIrr, expansion: Expansion) -> GaloisVerdict:
    """Pure periodicity against regularity, on a detected periodic expansion
    of alpha.

    Checks both halves: empty preperiod iff alpha is regular, and the
    preperiod length equals the index of the first regular complete
    quotient. Both come from is_regular's report, a closed form in alpha
    alone, so no state is stepped or read again.
    """
    if expansion.status != PERIODIC:
        raise ValueError("galois_check needs a periodic expansion")
    pre = len(expansion.preperiod)
    rep = is_regular(alpha)
    ok = ((pre == 0) == rep.regular) and rep.first_regular_index == pre
    return GaloisVerdict(ok, rep.regular, pre, rep.first_regular_index, rep.v_alpha, rep.v_conj)


def reversed_period_identity(expansion: Expansion) -> Expansion:
    """For purely periodic centered expansions: the digit-reversal laws.

    Verifies that -1/alpha^c expands exactly to [(reversed period)*] and
    alpha^c exactly to [0, (negated reversed period)*], each by
    first_reexpansion, and the palindrome criterion: the period reads the
    same both ways iff the norm of alpha is exactly -1. Returns the
    expansion of -1/alpha^c.
    """
    if expansion.flavor != BROWKIN:
        raise ValueError("the reversal identities are centered-flavor facts")
    if not expansion.is_purely_periodic:
        raise ValueError("needs a purely periodic expansion")
    alpha = expansion.alpha
    if not isinstance(alpha, QuadIrr):
        raise ValueError("expansion must come from a QuadIrr")
    per = expansion.period
    rev = tuple(reversed(per))
    got = first_reexpansion((alpha.conjugate().inverse().negated(),), (), rev)
    _invariant(got, "-1/alpha^c period is the reversal")
    zero = LaurentInt(alpha.p, 0, 0)
    _invariant(first_reexpansion((alpha.conjugate(),), (zero,), tuple(-q for q in rev)),
               "alpha^c must expand as [0, (negated reversal)*]")
    _invariant((per == rev) == (alpha.norm == -1),
               "palindromic period iff norm(alpha) = -1")
    return got[1]


# -- trace zero ---------------------------------------------------------------


@dataclass(frozen=True)
class TraceZeroReport:
    klass: str
    valuation: int
    matched: bool | None
    a0_small: bool | None
    expansion: Expansion


def _palindromic(seq) -> bool:
    return list(seq) == list(reversed(seq))


def trace_zero_classify(alpha: QuadIrr, max_steps: int = DEFAULT_MAX_STEPS) -> TraceZeroReport:
    """The trichotomy for sqrt-type values (b = 0), centered flavor.

    Negative valuation: the template [a_0, (w_1, ..., w_{r-1}, 2*a_0)*],
    a preperiod of length 1 and a palindromic interior closed by the
    doubled leading digit. Positive valuation: the template
    [0, a_0, (w_1, ..., w_{r-1}, 2*a_0)*], the same period behind a
    [0, a_0] preperiod. Valuation zero: preperiod length 2 with no template
    claimed.

    The preperiod lengths hold whenever the expansion is periodic. The
    doubled closing digit additionally needs 2*a_0 to be a legal digit,
    i.e. |a_0| < p/4; a0_small reports that hypothesis and matched is the
    literal comparison with the template, meaningful only under it.
    """
    if alpha.b != 0:
        raise ValueError("trace_zero_classify needs a trace-zero value (b = 0)")
    v = alpha.valuation
    klass = "preperiod_1" if v < 0 else "preperiod_2"
    exp = expand(alpha, BROWKIN, max_steps=max_steps)
    matched = a0_small = None
    if exp.status == PERIODIC:
        pre, per = exp.preperiod, exp.period
        if v == 0:
            matched = len(pre) == 2
        else:
            a0 = pre[0] if v < 0 else pre[1]
            head = (a0,) if v < 0 else (LaurentInt(alpha.p, 0, 0), a0)
            matched = pre == head and per[-1] == a0.doubled() and _palindromic(per[:-1])
            a0_small = a0.abs_lt(Fraction(alpha.p, 4))
    return TraceZeroReport(klass, v, matched, a0_small, exp)


# -- palindromic convergent identities ----------------------------------------


def dt_identities(cf, t: int, parity: str) -> bool:
    """Whether the exact convergent identities of a palindrome
    [a_0, ..., a_0] hold.

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
    return lhs_A == rhs_A and lhs_B == rhs_B


# -- Ruban probe ---------------------------------------------------------------


@dataclass(frozen=True)
class RubanProbe:
    p: int
    m: int
    k: int
    status: str
    witness_negative_embeddings: bool | None
    expansion: Expansion


def ruban_nonperiodic_probe(m: int, k: int, p: int, N: int = 2000) -> RubanProbe:
    """Probe the nonnegative-flavor expansion of p**k * sqrt(m).

    For k > 0 the expansion is never periodic: the probe asserts no cycle
    within N steps and checks the underlying witness exactly on the third
    complete quotient alpha_2 = (b + sqrt(m))/(p**k2 c), two steps from
    alpha: both of its real embeddings are negative iff b**2 > m and
    b*c < 0, two integer comparisons. Digits are nonnegative, so every later state keeps both
    embeddings negative, and no purely periodic tail can. Negative k is
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
    alpha = QuadIrr(p, m, 0, 1, -k, sqrt_mod_p(m % p, p))
    exp = expand(alpha, RUBAN, max_steps=N)
    if k < 0:
        return RubanProbe(p, m, k, exp.status, None, exp)
    _invariant(exp.status == OPEN,
               f"p^{k} sqrt({m}) produced a cycle in the nonnegative flavor; "
               "the real-embedding sign obstruction rules that out")
    alpha2 = exp.state_at(2)
    witness = alpha2.b * alpha2.b > m and alpha2.b * alpha2.c < 0
    return RubanProbe(p, m, k, "nonperiodic", witness, exp)
