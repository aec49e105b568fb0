import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiccf import core
from padiccf.core import (
    INF,
    DlogBudgetExceeded,
    LaurentInt,
    _check_odd_prime,
    discrete_log,
    divisors,
    factorint,
    hensel_digits,
    isprime,
    legendre,
    mod_inverse,
    mult_order,
    padic_square_exists,
    split_p,
    split_p_power,
    sqrt_mod_p,
    to_decimal,
    vp,
)
from padiccf.engine import BROWKIN, _window_residue

from oracles import (
    centered_residue_brute,
    divisors_brute,
    dlog_brute,
    factorint_brute,
    hensel_brute,
    in_digit_window,
    isprime_brute,
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


def _strip_one_at_a_time(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _unit(rng, p, bits):
    """A random u of the given bit length that p does not divide."""
    u = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    return u + 2 if u % p == 0 else u


def test_split_p_matches_the_naive_loop():
    rng = random.Random(6)
    for p in (3, 5, 7, 353):
        for e in sorted({0, 1, 2, 3, 63, 64, 65, 5000, *rng.sample(range(5001), 10)}):
            u = rng.randrange(p**40) * p + rng.randrange(1, p)  # p does not divide u
            for n in (p**e * u, -(p**e) * u, p**e):
                assert split_p(n, p) == _strip_one_at_a_time(n, p) == (e, n // p**e), (p, e)
    # at any size one remainder by p**J reads an e below J; from J on the
    # doubling runs on n/p**J, past 8,192 bits too (e_top puts p**e past
    # 8,128 bits, next to cofactors below and past 2**64)
    for p in (2, 3, 5, 7, 211, 32771, 65537):
        J = len(core._digit_powers(p)) - 1
        for e in sorted({1, J - 1, J, J + 1, 2 * J}):
            pe = p**e
            for bits in (1, 2, 30, 64, 65, 500, 8000):
                u = _unit(rng, p, bits)
                for n in (pe * u, -pe * u):
                    assert n.bit_length() < 8192
                    assert split_p(n, p) == _strip_one_at_a_time(n, p) == (e, n // pe), (p, e, bits)
                    assert split_p_power(n, p) == (e, n // pe, pe), (p, e, bits)
    for p in (3, 5, 7, 211, 353, 32771):
        J = len(core._digit_powers(p)) - 1
        e_top = 8200 * 16384 // (p**16384).bit_length() + 1
        for e in sorted({1, J - 1, J, J + 1, 62, 63, 64, 127, 128, e_top}):
            pe = p**e
            for bits in (1, 63, 64, 65, 9000):
                u = _unit(rng, p, bits)
                if (pe * u).bit_length() < 8192:
                    u *= _unit(rng, p, 8192)
                for n in (pe * u, -pe * u):
                    assert split_p(n, p) == (e, n // pe), (p, e, bits)
                    assert split_p_power(n, p) == (e, n // pe, pe), (p, e, bits)
        n = -(p**63) * _unit(rng, p, 9000)
        assert split_p(n, p) == _strip_one_at_a_time(n, p) == (63, n // p**63)
    # a construction's regime: a huge e next to a cofactor of 1 bit, below
    # p, of ~64 bits or half the size of n; past e ~ 5,000 the reference is
    # the (e, u) the input is built from
    for p, e in ((3, 5001), (3, 12345), (3, 31850), (5, 133805)):
        pe = p**e
        units = [1, 2, p - 1, _unit(rng, p, 63), _unit(rng, p, 64), _unit(rng, p, 70)]
        if e < 10**5:
            units.append(_unit(rng, p, pe.bit_length()))
        for u in units:
            for n in (pe * u, -pe * u):
                assert split_p(n, p) == (e, n // pe), (p, e, u.bit_length())
                assert split_p_power(n, p) == (e, n // pe, pe)
    assert split_p_power(3**5 * 7, 3) == (5, 7, 243)
    assert split_p(2**20 * 3, 2) == (20, 3)
    assert split_p(2**9000 * 3, 2) == (9000, 3)
    with pytest.raises(ValueError):
        split_p(0, 5)
    with pytest.raises(ValueError):
        split_p(5, 1)


def _split_lent(n, p, held):
    """split_p_power(n, p) while construct's lent power is held."""
    token = core._HELD_POWER.set(held)
    try:
        return split_p_power(n, p)
    finally:
        core._HELD_POWER.reset(token)


def test_split_p_strips_a_big_n_in_one_pass(monkeypatch):
    # an e below J costs one remainder by p**J and one exact division by
    # p**e, here past 8,192 bits: the doubling's p, p**2, p**4, ... never
    # run. A power lent for this p and e costs one division, by the lent
    # number, which comes back as p**e. One lent for another prime is not
    # tried; one for another e is tried once, is not taken, and the
    # doubling's answer stands
    divisors = []

    def recording_divmod(a, b):
        divisors.append(b)
        return divmod(a, b)

    monkeypatch.setattr(core, "divmod", recording_divmod, raising=False)
    rng = random.Random(23)
    for p, other in ((3, 5), (5, 3), (7, 3), (211, 7)):
        J = len(core._digit_powers(p)) - 1
        for e in range(1, J):
            n = p**e * _unit(rng, p, 50000)
            divisors.clear()
            assert split_p(-n, p) == (e, -n // p**e)
            assert divisors == [p**e], (p, e)
        n, lent = p**20000 * 2, p**20000
        divisors.clear()
        e, u, pe = _split_lent(n, p, (p, 20000, lent))
        assert (e, u) == (20000, 2) and pe is lent
        assert len(divisors) == 1 and divisors[0] is lent
        for q, k, tries in ((other, 20000, 0), (p, 19999, 1), (p, 20001, 1)):
            held = (q, k, q**k)
            divisors.clear()
            assert _split_lent(n, p, held) == (20000, 2, lent), (p, q, k)
            assert sum(d is held[2] for d in divisors) == tries, (p, q, k)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit here")
def test_to_decimal_is_str_under_any_limit():
    # conftest lifts the 4,300-digit guard; to_decimal must not need that
    rng = random.Random(18)
    values = [0, 7, -7, 10**4299, 10**4300, -(10**20000), 3**31861 * 7]
    values += [rng.choice((1, -1)) * rng.getrandbits(rng.randrange(1, 120000)) for _ in range(20)]
    want = [str(v) for v in values]
    try:
        for limit in (640, 4300):
            sys.set_int_max_str_digits(limit)
            with pytest.raises(ValueError):
                str(10**20000)
            assert [to_decimal(v) for v in values] == want
    finally:
        sys.set_int_max_str_digits(0)
    assert [to_decimal(v) for v in values] == want


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


def centered_residue(x, n, p):
    # the residue of x mod p**n centered in (-p**n/2, p**n/2) is the Browkin
    # digit window of x/1 at k = n - 1
    return _window_residue(x, 1, p ** (n - 1), p, BROWKIN)


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
    with pytest.raises(ValueError, match="3 is not invertible mod 6"):
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


# -- prime tests and factoring -------------------------------------------------

# Carmichael numbers, and the least strong pseudoprimes to all the prime
# bases up to 2, 3, 5, 7, 11, 13, 17 and 23 in turn.
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051)
# two products of primes p, 2p - 1 with a 40-bit p: 318665857834031151167461
# is a strong pseudoprime to the bases up to 37 that base 41 catches, and
# 3317044064679887385961981, a strong pseudoprime to every base up to 41,
# is the bound itself, where isprime switches to Baillie-PSW
BIG_SEMIPRIMES = ((399165290221, 798330580441), (1287836182261, 2575672364521))


def _next_prime_brute(n):
    while not isprime_brute(n):
        n += 1
    return n


def _lucas_lehmer(e):
    """2**e - 1 is prime iff this holds, for odd prime e."""
    M, s = 2**e - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % M
    return s == 0


def test_isprime_factorint_divisors_match_trial_division():
    for n in range(1, 5001):
        assert isprime(n) == isprime_brute(n), n
        assert factorint(n) == factorint_brute(n), n
        assert list(factorint(n)) == sorted(factorint_brute(n)), n
        assert divisors(n) == divisors_brute(n), n
    assert not any(isprime(n) for n in (-7, -1, 0))
    with pytest.raises(ValueError):
        factorint(0)


def test_factorint_squares_and_prime_powers():
    for q in (2, 3, 997, 1009, 65521, 1000003):
        for e in (1, 2, 3, 7):
            assert factorint(q**e) == {q: e}
            assert isprime(q**e) == (e == 1)
    for n in (10403, 999983 * 1000003, 2**20 * 3**5 * 1009**3):
        brute = factorint_brute(n)
        assert factorint(n * n) == {q: 2 * e for q, e in brute.items()}
    assert divisors(10403**2) == divisors_brute(10403**2)


def test_factorint_splits_higher_perfect_powers():
    # 100000000000031 is a prime near 1e14: Pollard-Brent alone needs ~1e7
    # steps on its cube, the k-th root split none
    for n in (100000000000031, 999983 * 1000003, 2**3 * 3**2 * 10007 * 65521):
        brute = factorint_brute(n)
        for k in (3, 5, 6):
            assert factorint(n**k) == {q: k * e for q, e in brute.items()}, (n, k)
    assert factorint(1009**7 * 1013**7) == {1009: 7, 1013: 7}


def test_carmichael_numbers_and_strong_pseudoprimes_are_composite():
    for n in CARMICHAEL + STRONG_PSEUDOPRIMES:
        assert not isprime(n), n
        assert factorint(n) == factorint_brute(n), n
    for q, r in BIG_SEMIPRIMES:
        assert isprime_brute(q) and isprime_brute(r)
        assert isprime(q) and isprime(r) and not isprime(q * r)
        assert factorint(q * r) == {q: 1, r: 1}


def test_factorint_splits_products_of_two_40_bit_primes():
    for lo, hi in ((2**39 + 5, 2**39 + 1234), (2**40 - 5000, 2**40 + 77)):
        q, r = _next_prime_brute(lo), _next_prime_brute(hi)
        assert factorint(q * r) == {q: 1, r: 1}
        assert divisors(q * r) == [1, q, r, q * r]
        assert not isprime(q * r)


def test_isprime_above_the_miller_rabin_bound():
    m89, m61 = 2**89 - 1, 2**61 - 1
    assert m89 > 3_317_044_064_679_887_385_961_981
    assert _lucas_lehmer(89) and _lucas_lehmer(61) and not _lucas_lehmer(67)
    assert isprime(m89)
    assert not isprime(m61 * m89)
    assert not isprime(2**67 - 1)
    assert not isprime(m89**2) and not isprime(m89**3)
    assert factorint(m89 * 3**4) == {3: 4, m89: 1}
    assert factorint(m89**2 * 1009**3) == {1009: 3, m89: 2}  # the square root split
    assert factorint(10007**5 * 10009**10) == {10007: 5, 10009: 10}


# -- orders and discrete logs ---------------------------------------------------


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


def test_discrete_log_matches_brute_on_noncyclic_moduli():
    # 36 and 3*5*7**2 have non-cyclic unit groups: many bases generate a
    # proper subgroup, so both the least w and None come up, and None comes
    # in both kinds: a target that fails the order pre-test
    # (target**ord(base) != 1) and one that passes it but lies outside
    for m in (36, 3 * 5 * 7**2):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        outcomes = set()
        for base in units[:: max(1, len(units) // 40)]:
            order = mult_order(base, m)
            for target in units:
                w = discrete_log(base, target, m)
                assert w == dlog_brute(base, target, m), (base, target, m)
                if w is None:
                    outcomes.add("pre-test" if pow(target, order, m) != 1 else "outside")
                else:
                    outcomes.add("log")
        assert outcomes == {"log", "pre-test", "outside"}, m
        assert discrete_log(units[1], 0, m) is None  # not a unit


def test_discrete_log_least_w_above_the_cutoff():
    m = 353**2 * 5**2  # above 10**6, unit group of rank 4
    order = mult_order(3, m)
    assert order == order_brute(3, m) == 621280
    for w in (0, 1, 31861, order - 1):
        assert discrete_log(3, pow(3, w, m), m) == w
        assert discrete_log(3, pow(3, w + 5 * order, m), m) == w
    for target in (2, 7, m - 1):
        assert discrete_log(3, target, m) == dlog_brute(3, target, m)


def test_discrete_log_budget_caps_the_largest_prime_subgroup():
    # below the 10**6 cutoff no budget applies
    assert discrete_log(3, 110, 353**2, budget=1) == 31861
    # above it, base 2 mod 1000003 has order 2 * 3 * 166667: its largest
    # prime subgroup needs a table of isqrt(166666) + 1 = 409 entries
    m = 1000003
    assert mult_order(2, m) == 1000002
    target = pow(2, 777777, m)
    with pytest.raises(DlogBudgetExceeded):
        discrete_log(2, target, m, budget=408)
    assert discrete_log(2, target, m, budget=409) == 777777


def test_discrete_log_membership_test_runs_before_the_budget():
    # 11**ord(5) != 1 mod 1009**2 proves by one pow that 11 is outside <5>,
    # so the smallest budget still answers None; a member of <5> whose
    # log needs a 32-entry table blows that budget
    m = 1009**2
    order = mult_order(5, m)
    assert pow(11, order, m) != 1
    assert discrete_log(5, 11, m, budget=1) is None
    with pytest.raises(DlogBudgetExceeded, match="need 32 table entries"):
        discrete_log(5, pow(5, 1234, m), m, budget=1)


def test_discrete_log_rejects_a_budget_below_one():
    # a nonsense budget is an error, not an "unknown" from a blown table
    for budget in (0, -1):
        for base, target, m in ((2, 4, 1000003**2), (3, 110, 353**2)):
            with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
                discrete_log(base, target, m, budget=budget)


def test_prime_log_scan_and_bsgs_agree_with_brute():
    # primes on both sides of the scan cut-over, each inside a prime field
    # whose unit group it divides
    for q in (2, 3, 5, 37, 41, 43, 101):
        assert (q < core._SCAN_BELOW) == (q <= 37)
        M = next(M for M in range(2 * q + 1, 10**6, 2 * q) if isprime(M))
        gamma = next(g for g in (pow(x, (M - 1) // q, M) for x in range(2, M)) if g != 1)
        for d in range(q):
            assert core._prime_log(gamma, pow(gamma, d, M), q, M) == d
        members = {pow(gamma, d, M) for d in range(q)}
        for h in range(1, 60):
            if h not in members:
                assert core._prime_log(gamma, h, q, M) is None


def test_discrete_log_runs_the_scan_and_bsgs_paths(monkeypatch):
    # base 2 mod 1000003 has order 2 * 3 * 166667: two primes go to the scan,
    # the third to baby-step/giant-step
    m = 1000003
    seen = []
    real = core._prime_log

    def spy(g, h, q, mod):
        seen.append(q)
        return real(g, h, q, mod)

    monkeypatch.setattr(core, "_prime_log", spy)
    for w in (0, 1, 5, 4321):
        target = pow(2, w, m)
        assert discrete_log(2, target, m) == dlog_brute(2, target, m) == w
    assert sorted(set(seen)) == [2, 3, 166667]
    assert 2 < core._SCAN_BELOW <= 166667
    # 4 = 2**2 has order 3 * 166667, so the non-residues 5 and -1 fail the
    # pre-test before any prime is tried
    seen.clear()
    for target in (5, m - 1):
        assert pow(target, 500001, m) != 1
        assert discrete_log(4, target, m) is None
    assert seen == []


def test_second_discrete_log_on_a_modulus_does_not_factor(monkeypatch):
    m = 10007**2 * 13
    assert discrete_log(3, pow(3, 12345, m), m) == 12345
    calls = []
    real = core.factorint

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(core, "factorint", spy)
    for w in (1, 999, 77777):
        assert discrete_log(3, pow(3, w, m), m) == w
    assert calls == []


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
    a = LaurentInt(5, -9, 1)
    assert in_digit_window(a, centered=True)
    assert not in_digit_window(a, centered=False)
    b = LaurentInt(5, 16, 1)
    assert in_digit_window(b, centered=False)
    assert not in_digit_window(b, centered=True)
    assert a.abs_lt(Fraction(5, 2))
    assert not a.abs_lt(Fraction(9, 5))  # the bound is strict
