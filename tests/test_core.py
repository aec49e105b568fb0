import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiccf.core import (
    INF,
    DlogBudgetExceeded,
    LaurentInt,
    _check_odd_prime,
    centered_residue,
    discrete_log,
    hensel_digits,
    legendre,
    mod_inverse,
    mult_order,
    padic_square_exists,
    sqrt_mod_p,
    vp,
)

from oracles import (
    centered_residue_brute,
    dlog_brute,
    hensel_brute,
    order_brute,
    sqrt_mod_brute,
    vp_brute,
)

SMALL_ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def test_odd_prime_validation():
    assert _check_odd_prime(7) == 7
    for bad in (1, 2, 4, 9, -5, 15):
        with pytest.raises(ValueError):
            _check_odd_prime(bad)


def test_vp_pinned_values():
    assert vp(0, 5) == INF
    assert vp(Fraction(6, 5), 5) == -1
    assert vp(Fraction(37, 9), 3) == -2
    assert vp(250, 5) == 3


@given(
    st.sampled_from(SMALL_ODD_PRIMES),
    st.fractions(min_value=-1000, max_value=1000),
)
def test_vp_matches_brute(p, x):
    assert vp(x, p) == vp_brute(x, p)


@given(
    st.sampled_from(SMALL_ODD_PRIMES),
    st.fractions(min_value=-100, max_value=100).filter(lambda f: f != 0),
    st.fractions(min_value=-100, max_value=100).filter(lambda f: f != 0),
)
def test_vp_is_a_valuation(p, x, y):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))


def test_centered_residue_pinned():
    assert centered_residue(16, 2, 5) == -9
    assert centered_residue(3, 1, 5) == -2
    assert centered_residue(1, 2, 3) == 1


@given(st.sampled_from([3, 5, 7]), st.integers(-200, 200), st.integers(1, 3))
def test_centered_residue_matches_brute(p, x, n):
    assert centered_residue(x, n, p) == centered_residue_brute(x, n, p)


@given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(-(10**12), 10**12), st.integers(1, 6))
def test_centered_residue_window_and_congruence(p, x, n):
    r = centered_residue(x, n, p)
    pn = p**n
    assert (x - r) % pn == 0
    assert -pn / 2 < r < pn / 2


def test_sqrt_mod_p_pinned():
    assert sqrt_mod_p(89, 5) == 2
    assert sqrt_mod_p(37, 3) == 1
    assert sqrt_mod_p(2, 5) is None


@given(st.sampled_from([3, 5, 7, 13, 17, 97, 193]), st.integers(0, 500))
def test_sqrt_mod_p_matches_brute(p, a):
    got = sqrt_mod_p(a, p)
    want = sqrt_mod_brute(a % p, p)
    assert got == want
    if got not in (None, 0):
        assert legendre(a, p) == 1


def test_hensel_pinned():
    assert hensel_digits(5, 89, 3, 2) == 8
    assert hensel_digits(3, 37, 1, 2) == 1
    lifted = hensel_digits(5, 89, 3, 6)
    assert (lifted**2 - 89) % 5**6 == 0
    assert lifted % 25 == 8


@pytest.mark.parametrize("p,Delta,branch", [(5, 89, 3), (5, 19, 2), (3, 37, 1), (7, 2, 3)])
def test_hensel_matches_brute(p, Delta, branch):
    for N in (1, 2, 3, 4):
        assert hensel_digits(p, Delta, branch, N) == hensel_brute(Delta, branch, N, p)


def test_hensel_monotone_consistency():
    a = hensel_digits(5, 19, 2, 9)
    b = hensel_digits(5, 19, 2, 4)
    assert a % 5**4 == b


def test_hensel_rejects_bad_branch():
    with pytest.raises(ValueError):
        hensel_digits(5, 19, 1, 1)  # 1**2 != 19 mod 5
    with pytest.raises(ValueError):
        hensel_digits(5, 25, 2, 1)  # Delta divisible by p
    with pytest.raises(ValueError):
        hensel_digits(5, 19, 7, 1)  # branch outside [1, p-1]
    with pytest.raises(ValueError):
        hensel_digits(9, 19, 1, 1)  # 9 is not prime


def test_mod_inverse():
    assert mod_inverse(2, 9) == 5
    assert mod_inverse(6, 25) == 21
    with pytest.raises(ValueError):
        mod_inverse(3, 6)


def test_mult_order_pinned():
    assert mult_order(5, 36) == 6
    assert mult_order(3, 100) == 20
    assert mult_order(3, 353**2) == 124256


@given(st.integers(2, 400), st.integers(2, 400))
@settings(max_examples=150)
def test_mult_order_matches_brute(a, m):
    if math.gcd(a, m) != 1:
        with pytest.raises(ValueError):
            mult_order(a, m)
    else:
        assert mult_order(a, m) == order_brute(a, m)


def test_discrete_log_pinned():
    assert discrete_log(3, 110, 353**2) == 31861
    assert discrete_log(5, 1, 36) == 0
    assert discrete_log(5, 2, 36) is None


def test_discrete_log_bsgs_path():
    m = 1000003  # prime, just over the brute-force cutoff
    target = pow(2, 12345, m)
    w = discrete_log(2, target, m)
    assert pow(2, w, m) == target
    assert w == 12345 % mult_order(2, m)


def test_discrete_log_budget_is_distinct_from_none():
    m = 1000003
    with pytest.raises(DlogBudgetExceeded):
        discrete_log(2, 5, m, budget=3)


@given(st.sampled_from([36, 100, 101, 341, 1009]), st.integers(1, 300), st.integers(1, 300))
@settings(max_examples=120)
def test_discrete_log_matches_brute(m, base, target):
    if math.gcd(base, m) != 1 or math.gcd(target, m) != 1:
        return
    assert discrete_log(base, target, m) == dlog_brute(base, target, m)


def test_padic_square_exists_pinned():
    assert padic_square_exists(-434, 5) == (True, (-434, 0))
    assert padic_square_exists(10, 5) == (False, None)
    ok, parts = padic_square_exists(-72041 * 484, 3)
    assert ok and parts == (-72041 * 484, 0)
    ok, parts = padic_square_exists(25 * 6, 5)
    assert ok and parts == (6, 1)


@given(st.sampled_from(SMALL_ODD_PRIMES), st.integers(-5000, 5000).filter(bool))
def test_padic_square_exists_consistent_with_hensel(p, m):
    ok, parts = padic_square_exists(m, p)
    if ok:
        m0, s = parts
        assert m == p ** (2 * s) * m0
        r = sqrt_mod_p(m0, p)
        assert r not in (None, 0)
        d = hensel_digits(p, m0, r, 3)
        assert (d * d - m0) % p**3 == 0


def test_laurent_int_canonicalization():
    x = LaurentInt(5, 50, 3)  # 50/125 == 2/5
    assert (x.tilde, x.e) == (2, 1)
    assert str(x) == "2/5"
    assert LaurentInt(5, 0, 0).valuation == INF
    with pytest.raises(ValueError):
        LaurentInt(5, 25, 1)  # value 5 has positive valuation


def test_laurent_int_parse_and_format():
    q = LaurentInt.parse("-5208/3125", 5)
    assert (q.tilde, q.e) == (-5208, 5)
    assert str(q) == "-5208/3125"
    assert LaurentInt.parse(" 4 ", 5).value == 4
    assert str(LaurentInt.parse("7", 5)) == "7"
    with pytest.raises(ValueError):
        LaurentInt.parse("3/10", 5)  # denominator not a pure power of 5
    with pytest.raises(ValueError):
        LaurentInt.parse("", 5)


def test_laurent_int_ranges():
    a = LaurentInt.from_value(Fraction(-9, 5), 5)
    assert a.in_browkin_range()
    assert not a.in_ruban_range()
    b = LaurentInt.from_value(Fraction(16, 5), 5)
    assert b.in_ruban_range()
    assert not b.in_browkin_range()
    assert a.abs_lt(Fraction(5, 2))
    assert not a.abs_lt(Fraction(9, 5))


def test_laurent_int_from_value_requires_p_power_denominator():
    with pytest.raises(ValueError):
        LaurentInt.from_value(Fraction(1, 10), 5)
    assert (-LaurentInt.from_value(Fraction(2, 5), 5)).value == Fraction(-2, 5)
