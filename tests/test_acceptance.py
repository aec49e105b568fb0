"""The shipping gate: eleven end-to-end checks, one test each.

Every test appends a single "ACCEPTANCE nn PASS/FAIL: ..." line to the
session log that conftest prints after the summary, so a full run always
shows the eleven verdicts in order regardless of how pytest interleaves
its own output. Checks with runtime budgets time themselves and fail
when over.
"""

from __future__ import annotations

import hashlib
import time
from fractions import Fraction

import pytest

from padiccf.construct import (
    ConstructionInfeasible,
    beta,
    beta_polynomials,
    cala_identities,
    construct,
    family_section6,
    is_nice,
)
from padiccf.core import discrete_log, mult_order
from padiccf.engine import (
    BROWKIN,
    OPEN,
    PERIODIC,
    convergents,
    eval_finite,
    expand,
    normalize,
    parse_quotient_list,
    periodic_limit,
)
from padiccf.refchecks import run_checks

PERIOD12 = ("4/5", "-11/5", "-3/5", "-4/25", "274/125", "-4/25",
            "-3/5", "-11/5", "4/5", "1/5", "24/25", "1/5")

PREFIX14 = ("-9/5", "-2/5", "-59/25", "2/5", "-9/5", "23/25", "3/5",
            "1/5", "51/25", "8/5", "2/5", "-7/5", "-12/5", "6/5")


def _run(number: int, body, log: list):
    """Record one verdict line, then let any failure propagate to pytest."""
    try:
        detail = body()
    except ConstructionInfeasible as exc:
        log.append(f"ACCEPTANCE {number:02d} FAIL: infeasible,"
                   f" omega={exc.omega} (~{exc.digits_estimate} digits)")
        raise
    except Exception as exc:
        head = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        log.append(f"ACCEPTANCE {number:02d} FAIL: {head}")
        raise
    log.append(f"ACCEPTANCE {number:02d} PASS: {detail}")


def _period_12_showcase():
    t0 = time.perf_counter()
    alpha = normalize(5, 19, -13, 30, 0, 2)
    exp = expand(alpha, BROWKIN)
    dt = time.perf_counter() - t0
    assert exp.status == PERIODIC
    assert exp.preperiod == ()
    assert tuple(str(q) for q in exp.period) == PERIOD12
    assert dt < 1.0, f"took {dt:.2f}s, budget 1s"
    return f"(-13+sqrt(19))/30 purely periodic with the 12 known digits, {dt:.2f}s"


def test_criterion_01(acceptance_log):
    _run(1, _period_12_showcase, acceptance_log)


def _open_prefix_14():
    alpha = normalize(5, 89, 8, 5, 0, 3)
    exp = expand(alpha, BROWKIN, max_steps=10_000)
    assert exp.status == OPEN
    assert len(exp.preperiod) == 10_000
    assert tuple(str(q) for q in exp.preperiod[:14]) == PREFIX14
    return "(8+sqrt(89))/5 prefix exact, still open after 10000 digits"


def test_criterion_02(acceptance_log):
    _run(2, _open_prefix_14, acceptance_log)


def _pure_period_sqrt37():
    alpha = normalize(3, 37, 1, 6, 0, 1)
    exp = expand(alpha, BROWKIN)
    assert exp.status == PERIODIC
    assert exp.preperiod == ()
    assert tuple(str(q) for q in exp.period) == ("1/3",)
    return "(1+sqrt(37))/6 over p=3 is [(1/3)*]"


def test_criterion_03(acceptance_log):
    _run(3, _pure_period_sqrt37, acceptance_log)


def _construct_length_one_seed():
    t0 = time.perf_counter()
    cert = is_nice(parse_quotient_list("6/5", 5))
    res = construct(cert, 0)
    assert res.verified
    assert (res.m, res.kt, res.c_tilde) == (-434, 5, -2604)
    alpha = periodic_limit(res.preperiod, res.period, 5)
    assert alpha.b == 0
    assert 25 * 434 * (-alpha.norm) + 1 == 0  # alpha**2 = -norm when b = 0
    exp = expand(alpha, BROWKIN)
    assert tuple(str(q) for q in exp.preperiod) == ("6/5",)
    assert tuple(str(q) for q in exp.period) == ("-5208/3125", "12/5")
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s, budget 1s"
    return f"m=-434, kt=5, c_tilde=-2604; 1/(5*sqrt(-434)) re-expands, {dt:.2f}s"


def test_criterion_04(acceptance_log):
    _run(4, _construct_length_one_seed, acceptance_log)


def _construct_length_two_seed():
    t0 = time.perf_counter()
    cert = is_nice(parse_quotient_list("1/3, 1/3", 3))
    res = construct(cert, 0)
    assert res.verified
    assert (res.b, res.kt, res.m) == (34867844, 17, -34867844)
    # 3*sqrt(m) and 66*sqrt(-72041) name the same value
    assert 9 * res.m == 66 * 66 * -72041
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"took {dt:.2f}s, budget 5s"
    return f"b=34867844, kt=17, m=-34867844, 3*sqrt(m)=66*sqrt(-72041), {dt:.2f}s"


def test_criterion_05(acceptance_log):
    _run(5, _construct_length_two_seed, acceptance_log)


def _order_and_log_pins():
    t0 = time.perf_counter()
    assert mult_order(5, 36) == 6
    assert mult_order(3, 100) == 20
    assert mult_order(3, 353**2) == 124256
    assert discrete_log(3, 110, 353**2) == 31861
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"took {dt:.2f}s, budget 5s"
    return f"orders 6, 20, 124256 and log 31861 exact, {dt:.2f}s"


def test_criterion_06(acceptance_log):
    _run(6, _order_and_log_pins, acceptance_log)


def _doubling_family_identities():
    t0 = time.perf_counter()
    combos = 0
    for p in (3, 5, 7):
        for k in (1, 2):
            for n in range(1, 6):
                digs = beta(n, k, p)
                want = Fraction(1 + sum(p ** (2**j * k) for j in range(1, n + 1)), p**k)
                assert eval_finite(digs) == want, (p, k, n)
                assert convergents(digs).Btilde_(2**n - 1) == 1, (p, k, n)
                assert is_nice(digs).nice, (p, k, n)
                assert beta_polynomials(n, k, p), (p, k, n)
                if n >= 2:
                    verdict = cala_identities(digs, beta(n - 1, 2 * k, p))
                    assert verdict.ok, (p, k, n, verdict.detail)
                combos += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"took {dt:.2f}s, budget 30s"
    return f"{combos} (p,k,n) combos: closed form, unit denominator, nice, {dt:.2f}s"


def test_criterion_07(acceptance_log):
    _run(7, _doubling_family_identities, acceptance_log)


def _period_power_of_two_ladder():
    t0 = time.perf_counter()
    realized = []
    for n in (1, 2, 3, 4):
        seed = parse_quotient_list("6/5", 5) if n == 1 else beta(n - 1, 1, 5)
        cert = is_nice(seed)
        assert cert.nice, f"seed for period 2**{n} is not nice"
        res = construct(cert, 0)
        assert res.verified, (n, res)
        assert len(res.period) == 2**n, (n, len(res.period))
        realized.append(2**n)
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"took {dt:.2f}s, budget 300s"
    return f"periods {realized} realized over p=5, {dt:.2f}s"


def test_criterion_08(acceptance_log):
    _run(8, _period_power_of_two_ladder, acceptance_log)


def test_period_16_from_a_small_order_seed():
    # Beside criterion 8, not in its place: this t=8 seed has
    # |Atilde_7| = 1752, and the order of 5 mod 1752**2 is small, so the
    # period-16 construction needs only omega = 7,676.
    cf = parse_quotient_list("-2/5, 9/5, 4/5, 6/5, 11/5, 11/5, 7/5, 12/5", 5)
    cert = is_nice(cf)
    assert cert.nice and abs(cert.Atilde_last) == 1752
    res = construct(cert, 0)
    assert res.verified and len(res.period) == 16 and res.omega == 7676
    digest = hashlib.sha256(str(res.m).encode()).hexdigest()
    assert digest == "f0fa8ee6cfd37f5a5031ca9fc193512ff25efcfee75afd52a1af35a0d5459cfc"


@pytest.mark.parametrize("p,seed,atilde,omega,digest", [
    (3, "2/3, -2/3, -4/3, -4/3, -1/3, 4/3, 4/3, 1/3", 1870, 949,
     "88cbe751ad449b4af66c8c4df65fb1ed641210a3b5ccc2feb066a7afa6c682ce"),
    (7, "-2/7, 20/7, 9/7, 23/7, 13/7, 16/7, -17/7, -22/7", 4920, 2056,
     "7c40f5dc7667494bdaa67035bf8f5130aefa8fb377336dd5a8f6b5edd3bfe489"),
], ids=["p3", "p7"])
def test_period_16_over_p_3_and_7(p, seed, atilde, omega, digest):
    # period 16 beside p = 5: a t = 8 seed over each prime whose
    # |Atilde_7| makes the order of p mod Atilde_7**2 small, so omega stays
    # near 1,000-2,000 and the construction verifies in milliseconds
    cert = is_nice(parse_quotient_list(seed, p))
    assert cert.nice and abs(cert.Atilde_last) == atilde
    res = construct(cert, 0)
    assert res.verified and len(res.period) == 16 and res.omega == omega
    assert hashlib.sha256(str(res.m).encode()).hexdigest() == digest


def _closed_form_families():
    pairs = ((3, 2), (5, 2), (5, 3), (7, 3))
    ran = 0
    for variant in (1, 2, 3):
        for p, t in pairs:
            if variant >= 2 and (p < 5 or t < 3):
                continue  # outside the family's domain
            rep = family_section6(variant, p, t)
            assert rep.verified, (variant, p, t, rep.literal_check)
            if variant == 3:
                assert rep.literal_check == "indeterminate", (p, t)
            ran += 1
    assert ran == 8
    return "8 in-domain (variant, p, t) cases verified; variant 3 indeterminate"


def test_criterion_09(acceptance_log):
    _run(9, _closed_form_families, acceptance_log)


_STRUCTURAL_SUITES = (
    "convergents.det",
    "convergents.growth",
    "convergents.closeness",
    "regularity.pure_iff_regular",
    "reversal.palindrome_norm",
    "tracezero.preperiods",
    "palindrome.identities",
    "rational.finiteness",
    "bedocchi.scan",
)


def _structural_suites():
    bad = []
    for name in _STRUCTURAL_SUITES:
        (res,) = run_checks(only=name, cases=1000)
        if not res.ok:
            bad.append(f"{name}: {res.detail}")
    assert not bad, "; ".join(bad)
    return f"{len(_STRUCTURAL_SUITES)} structural suites green at 1000 cases"


def test_criterion_10(acceptance_log):
    _run(10, _structural_suites, acceptance_log)


def _ruban_contrast():
    for name in ("ruban.family", "ruban.probes"):
        (res,) = run_checks(only=name)
        assert res.ok, f"{name}: {res.detail}"
    return "family digits exact; 10 probes open at 2000 steps with sign witness"


def test_criterion_11(acceptance_log):
    _run(11, _ruban_contrast, acceptance_log)
