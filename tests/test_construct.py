import importlib
from fractions import Fraction

import pytest

from padiccf import (
    ConstructionInfeasible,
    beta,
    beta_polynomials,
    cala_identities,
    construct,
    convergents,
    eval_finite,
    expand,
    family_section6,
    is_nice,
    nice_search,
    periodic_limit,
    positive_shortcut,
)
from padiccf.core import LaurentInt
from padiccf.engine import PERIODIC, QuadIrr, parse_quotient_list

SEED_6_5 = (LaurentInt(5, 6, 1),)
SEED_T2 = (LaurentInt(3, 1, 1), LaurentInt(3, 1, 1))
SEED_353 = (LaurentInt(3, 1, 1), LaurentInt(3, 110, 4))
SEED_P16 = parse_quotient_list("-2/5, 9/5, 4/5, 6/5, 11/5, 11/5, 7/5, 12/5", 5)


# -- niceness -------------------------------------------------------------------


def test_nice_certificate_for_6_5():
    cert = is_nice(SEED_6_5)
    assert cert.nice and cert.failure is None
    assert cert.cond_a and cert.cond_b and cert.cond_c
    assert cert.Btilde_last == 1
    assert cert.q == 1 and cert.omega0 == 0


def test_p3_t1_exclusion():
    cert = is_nice(parse_quotient_list("1/3", 3))
    assert not cert.nice
    assert cert.failure == "b"  # 4/p < |a_0| is empty against |a_0| < p/4


def test_boundary_digit_is_rejected():
    # |4/5| = 4/p exactly, and the window is open on both ends
    cert = is_nice(parse_quotient_list("4/5", 5))
    assert not cert.nice and cert.failure == "b"


def test_digit_list_validation():
    with pytest.raises(ValueError):
        is_nice(())
    with pytest.raises(ValueError):
        is_nice((LaurentInt(5, 6, 1), LaurentInt(3, 1, 1)))
    with pytest.raises(ValueError):
        is_nice((LaurentInt(5, 6, 1), LaurentInt(5, 2, 0)))


def test_positive_shortcut_agrees_with_is_nice():
    for text, p in (("6/5", 5), ("1/5, 1/5", 5), ("1/3, 1/3", 3), ("1/7, 2/7, 1/7", 7)):
        cf = parse_quotient_list(text, p)
        if positive_shortcut(cf):
            assert is_nice(cf).nice, text


def test_indeterminate_dlog_budget_blocks_construction():
    # Atilde_1 = 2000 + 3**8 = 8561, so the coset tests run against a
    # modulus above the brute-force cutoff and a budget of 1 starves them.
    seed = (LaurentInt(3, 1, 1), LaurentInt(3, 2000, 7))
    cert = is_nice(seed, dlog_budget=1)
    assert cert.cond_c is None and cert.failure == "c-indeterminate"
    assert not cert.nice
    with pytest.raises(ValueError, match="indeterminate"):
        construct(cert, 0)


# -- the period-2t construction ----------------------------------------------------


def test_t1_members_match_frozen_values():
    cert = is_nice(SEED_6_5)
    pins = {
        0: (6, -2604, -434),
        1: (12, -40690104, -6781684),
        2: (18, -635782877604, -105963812934),
    }
    for h, (omega, c_tilde, m) in pins.items():
        res = construct(cert, h)
        assert (res.omega, res.c_tilde, res.m) == (omega, c_tilde, m)
        assert res.kt == omega - 1
        assert res.verified
        assert res.m % res.p != 0


def test_t1_first_member_shape():
    res = construct(is_nice(SEED_6_5), 0)
    assert [str(a) for a in res.preperiod] == ["6/5"]
    assert [str(a) for a in res.period] == ["-5208/3125", "12/5"]
    alpha = periodic_limit(res.preperiod, res.period, 5)
    # alpha = 1/(5 sqrt(-434)): squaring kills the root
    assert alpha.trace_zero
    assert 25 * 434 * (-alpha.norm) + 1 == 0


def test_t2_members_match_frozen_values():
    cert = is_nice(SEED_T2)
    res = construct(cert, 0)
    assert res.omega == 20 and res.kt == 17
    assert res.b == 34867844 == (3**20 - 1) // 100
    assert res.m == -34867844
    assert res.verified
    # same value under the alternative surd form: 3*sqrt(m) = 66*sqrt(-72041)
    assert 9 * abs(res.m) == 66**2 * 72041
    deeper = construct(cert, 1)
    assert deeper.omega == 40
    assert deeper.m == -(3**40 - 1) // 100 == 484 * -251191435104482


def test_construction_families_are_monotone_and_distinct():
    seen = set()
    for cf, hs in ((SEED_6_5, range(5)), (SEED_T2, range(3))):
        cert = is_nice(cf)
        prev = None
        for h in hs:
            res = construct(cert, h)
            assert res.verified
            if prev is not None:
                assert res.omega > prev.omega
                assert res.kt > prev.kt
                assert abs(res.m) > abs(prev.m)
            assert res.m not in seen
            seen.add(res.m)
            prev = res


@pytest.mark.parametrize("seed,h", [
    *((SEED_6_5, h) for h in range(3)),
    *((SEED_T2, h) for h in range(3)),
    (SEED_353, 0),
    (beta(1, 1, 5), 0),
    (beta(2, 1, 5), 0),
    (SEED_P16, 0),
], ids=["6_5-0", "6_5-1", "6_5-2", "t2-0", "t2-1", "t2-2", "l353", "beta1", "beta2", "p16"])
def test_construction_is_the_limit_of_its_digits(seed, h):
    # construct proves its result by one re-expansion of 1/(p**k0 sqrt(m));
    # the independent periodic_limit route must land on the same value
    res = construct(is_nice(seed), h)
    assert res.verified
    target = QuadIrr(res.p, res.m, 0, res.m, res.k0, res.branch)
    assert periodic_limit(res.preperiod, res.period, res.p).value_equals(target)
    exp = res.expansion
    assert exp.status == PERIODIC
    assert (exp.preperiod, exp.period) == (res.preperiod, res.period)


def test_construct_is_unverified_when_no_branch_reexpands(monkeypatch):
    # the package re-exports the function construct under the module's name
    module = importlib.import_module("padiccf.construct")
    monkeypatch.setattr(module, "first_reexpansion", lambda *args: None)
    res = construct(is_nice(SEED_6_5), 0)
    assert res.eq12_ok
    assert not res.verified
    assert res.expansion is None and res.branch is None


def test_result_serialization_contract():
    res = construct(is_nice(SEED_6_5), 0)
    js = res.to_json()
    assert set(js) == {
        "p", "k0", "t", "omega", "q", "b", "kt", "c_tilde", "a_t", "m",
        "preperiod", "period", "verified", "branch",
    }
    assert js["m"] == -434 and js["preperiod"] == ["6/5"]


def test_large_instance_with_two_digit_seed():
    cert = is_nice(SEED_353)
    assert cert.nice
    assert cert.q == 110 and cert.omega0 == 31861
    assert cert.Atilde_last == 353
    res = construct(cert, 0)
    assert res.order_s == 124256
    assert (res.omega, res.kt) == (31861, 31852)
    assert res.b == (3**31861 - 110) // 353**2
    assert res.c_tilde == (-(3**31856) - 1) // 353
    assert res.verified


def test_infeasible_size_reports_the_required_omega():
    res_ok = construct(is_nice(SEED_6_5), 0)
    assert res_ok.verified
    with pytest.raises(ConstructionInfeasible) as err:
        construct(is_nice(SEED_6_5), 0, max_digits=3)
    assert err.value.omega == 6
    assert err.value.digits_estimate >= 4


# -- the interleaved seed family -----------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2])
def test_beta_closed_form_values(p, k):
    for n in range(1, 6):
        digs = beta(n, k, p)
        assert len(digs) == 2**n
        want = Fraction(1 + sum(p ** (2**j * k) for j in range(1, n + 1)), p**k)
        assert eval_finite(digs) == want
        assert convergents(digs).Btilde_(2**n - 1) == 1
        assert is_nice(digs).nice


def test_beta_polynomial_identities():
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            for n in range(1, 7):
                assert beta_polynomials(n, k, p).ok


def test_beta_interleave_identities():
    verdict = cala_identities(beta(3, 1, 5), beta(2, 2, 5))
    assert verdict.ok and verdict.pairs_checked > 0
    assert cala_identities(beta(4, 2, 3), beta(3, 4, 3)).ok


def test_realized_periods_double_per_level():
    for n in (1, 2, 3):
        seed = SEED_6_5 if n == 1 else beta(n - 1, 1, 5)
        res = construct(is_nice(seed), 0)
        assert res.verified
        assert len(res.period) == 2**n
        assert res.preperiod == (seed[0],)


def test_period_16_needs_astronomical_omega():
    cert = is_nice(beta(3, 1, 5))
    assert cert.nice
    with pytest.raises(ConstructionInfeasible) as err:
        construct(cert, 0)
    assert err.value.omega == 4575190268


# -- closed-form families ------------------------------------------------------------


@pytest.mark.parametrize("p,t", [(3, 2), (5, 2), (5, 3), (7, 3), (7, 4), (11, 3)])
def test_family_variant1(p, t):
    rep = family_section6(1, p, t)
    assert rep.verified
    assert rep.literal_check == "ok"
    assert rep.matrix_check
    assert rep.char_poly_check
    assert len(rep.expansion.period) == 4


@pytest.mark.parametrize("p,t", [(5, 3), (7, 3), (7, 4), (11, 3)])
def test_family_variant2(p, t):
    rep = family_section6(2, p, t)
    assert rep.verified and rep.literal_check == "ok"
    assert rep.matrix_check
    assert len(rep.expansion.period) == 6


@pytest.mark.parametrize("p,t", [(5, 3), (7, 3), (7, 4), (11, 3)])
def test_family_variant3_matches_by_value_only(p, t):
    rep = family_section6(3, p, t)
    assert rep.verified
    assert rep.literal_check == "indeterminate"
    assert rep.matrix_check
    assert "centered window" in rep.note


def test_family_domain_constraints():
    with pytest.raises(ValueError):
        family_section6(1, 5, 1)
    with pytest.raises(ValueError):
        family_section6(2, 3, 3)
    with pytest.raises(ValueError):
        family_section6(3, 5, 2)
    with pytest.raises(ValueError):
        family_section6(4, 5, 3)


# -- enumeration ---------------------------------------------------------------------


def test_search_p5_t1_finds_exactly_the_classical_seed():
    hits = list(nice_search(5, 1, pool="pos", num_bound=10))
    assert [[str(a) for a in cert.cf] for _, cert in hits] == [["6/5"]]
    both = list(nice_search(5, 1, pool="all", num_bound=10))
    assert sorted(str(cert.cf[0]) for _, cert in both) == ["-6/5", "6/5"]


def test_search_p3_t1_is_empty():
    assert list(nice_search(3, 1)) == []


def test_search_is_deterministic_and_resumable():
    full = list(nice_search(5, 2, pool="pos", num_bound=4))
    assert full, "expected nice two-digit seeds"
    again = list(nice_search(5, 2, pool="pos", num_bound=4))
    assert [(i, c.cf) for i, c in full] == [(i, c.cf) for i, c in again]
    cut = full[0][0] + 1
    rest = list(nice_search(5, 2, pool="pos", num_bound=4, start_index=cut))
    assert [(i, c.cf) for i, c in rest] == [(i, c.cf) for i, c in full[1:]]
    capped = list(nice_search(5, 2, pool="pos", num_bound=4, limit=2))
    assert capped == full[:2]


def test_search_input_validation():
    with pytest.raises(ValueError):
        list(nice_search(5, 0))
    with pytest.raises(ValueError):
        list(nice_search(5, 1, pool="negatives"))
