import dataclasses
import hashlib
import importlib
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from padiccf import (
    ConstructionInfeasible,
    beta,
    beta_polynomials,
    cala_identities,
    construct,
    convergents,
    eval_finite,
    family_section6,
    is_nice,
    nice_search,
    periodic_limit,
)
from padiccf import cli, core
from padiccf.core import LaurentInt, divisors, split_p, split_p_power
from padiccf.corpus import random_digits
from padiccf.engine import PERIODIC, QuadIrr, parse_quotient_list

from oracles import step_brute

SEED_6_5 = (LaurentInt(5, 6, 1),)
SEED_T2 = (LaurentInt(3, 1, 1), LaurentInt(3, 1, 1))
SEED_353 = (LaurentInt(3, 1, 1), LaurentInt(3, 110, 4))
SEED_P16 = parse_quotient_list("-2/5, 9/5, 4/5, 6/5, 11/5, 11/5, 7/5, 12/5", 5)

# the package re-exports the function construct under the module's name
construct_module = importlib.import_module("padiccf.construct")
engine_module = importlib.import_module("padiccf.engine")


def eq12_by_table(res, cert):
    """eq. (12) read off a second convergent table of cf + (a_t,)."""
    t, jump = res.t, res.p ** (res.kt + cert.ks[-1])
    tab = convergents(cert.cf + (res.a_t,))
    lhs = tab.Btilde_(t - 1) * (tab.Btilde_(t) + jump * tab.Btilde_(t - 2))
    rhs = res.m * tab.Atilde_(t - 1) * (tab.Atilde_(t) + jump * tab.Atilde_(t - 2))
    return lhs == rhs


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


def test_indeterminate_dlog_budget_blocks_construction():
    # Atilde_1 = 2000 + 3**8 = 8561, so the coset tests run against a
    # modulus above the brute-force cutoff and a budget of 1 starves them.
    seed = (LaurentInt(3, 1, 1), LaurentInt(3, 2000, 7))
    cert = is_nice(seed, dlog_budget=1)
    assert cert.cond_c is None and cert.failure == "c-indeterminate"
    assert not cert.nice
    with pytest.raises(ValueError, match="indeterminate"):
        construct(cert, 0)


def test_is_nice_rejects_a_dlog_budget_below_one():
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"dlog_budget must be >= 1, got {budget}"):
            is_nice(SEED_6_5, budget)


def test_is_nice_on_a_leading_zero_fails_a_without_a_log():
    # only a leading digit 0 puts p into Atilde_{t-1}; then no p**omega with
    # omega >= 1 is q mod Atilde**2 for a q prime to Atilde, so condition (c)
    # tries omega = 0 alone instead of a log to a base that is no unit
    rng, zeros = random.Random(31), 0
    for p in (3, 5):
        for length in (8, 16):
            for _ in range(16):
                cf = random_digits(rng, p, length)
                cert = is_nice(cf, dlog_budget=1 << 10)
                if cf[0].tilde == 0:
                    zeros += 1
                    assert cert.Atilde_last % p == 0
                    assert not cert.nice and cert.failure == "a", cf
    assert zeros >= 5


def _slice_candidates():
    """The p = 5, t = 3 search slice: --pool all, numerators <= 8, exponents <= 2."""
    return list(product(construct_module._digit_pool(5, "all", 8, 2), repeat=3))


def test_is_nice_matches_an_eager_q_list(monkeypatch):
    combos = _slice_candidates()
    sample = [combos[i] for i in random.Random(17).sample(range(len(combos)), 300)]
    lazy = [is_nice(cf) for cf in sample]

    def eager(B):
        absB = abs(B)
        return [s * absB * d for d in divisors(absB) for s in (1, -1)]

    monkeypatch.setattr(construct_module, "_q_candidates", eager)
    assert [is_nice(cf) for cf in sample] == lazy
    kinds = Counter()
    for cert in lazy:
        B = abs(cert.Btilde_last)
        kinds["nice"] += cert.nice
        kinds["c"] += cert.failure == "c"
        kinds["+B"] += B > 1 and cert.q == B
        kinds["-B"] += B > 1 and cert.q == -B
        kinds["|q| > |B|"] += cert.q is not None and abs(cert.q) > B
        kinds["|B| = 1"] += B == 1
    assert len(kinds) == 6 and min(kinds.values()) >= 3, kinds


def test_is_nice_factors_B_only_when_plus_minus_B_miss(monkeypatch):
    calls = []
    real = construct_module.divisors

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(construct_module, "divisors", spy)
    by_q = {}
    for cf in _slice_candidates()[::7]:
        calls.clear()
        cert = is_nice(cf)
        B = abs(cert.Btilde_last)
        if B > 1 and cert.q in (B, -B):
            assert calls == [], cert.cf
            by_q["+-B"] = cert
        elif cert.q is not None and abs(cert.q) > B:
            assert calls == [B], cert.cf
            by_q["deeper"] = cert
    assert set(by_q) == {"+-B", "deeper"}


def _log_per_q(monkeypatch):
    """The coset test as it was before in_subgroup: one full discrete log
    per admissible q."""
    monkeypatch.setattr(construct_module, "in_subgroup",
                        lambda b, t, m, budget=None:
                        construct_module.discrete_log(b, t, m, budget) is not None)


def test_is_nice_on_the_whole_search_slice(monkeypatch):
    # condition (c) is decided by membership alone, and a log is taken only
    # for a certificate that passes (a) and (b): every certificate of the
    # slice equals the one a log-per-q oracle gives, and carries omega0
    # exactly when it is nice
    combos = _slice_candidates()
    certs = [is_nice(cf) for cf in combos]
    classes = Counter("".join("TF"[not c] for c in (x.cond_a, x.cond_b, x.cond_c)) for x in certs)
    assert classes == {"TFT": 9058, "TTT": 4636, "TFF": 3142, "TTF": 1980,
                       "FTT": 1744, "FTF": 680, "FFT": 548, "FFF": 164}
    assert all(x.cond_c is not None and (x.omega0 is not None) == x.nice for x in certs)
    _log_per_q(monkeypatch)
    assert [is_nice(cf) for cf in combos] == certs


def test_a_blown_log_of_a_nonmember_leaves_c_decided(monkeypatch):
    # Atilde_1 = 5 * 241, so the coset test runs modulo 1205**2 > 10**6,
    # where ord(3) = 2**3 * 3 * 5 * 241. Every admissible q (B = 34) is
    # outside <3>; +-578 and +-1156 pass the order pre-test, and a log of
    # them needs a 16-entry table for 241 that a budget of 4 forbids. Their
    # membership rests on 2 and 5 alone, whose Sylow subgroups are not
    # cyclic, and needs no table beyond 3 entries: (c) fails, as it does
    # without a budget. One log per q left it undecided at this budget
    seed = (LaurentInt(3, 14, 3), LaurentInt(3, 34, 3))
    cert = is_nice(seed, dlog_budget=4)
    assert cert.Atilde_last == 1205 and cert.Btilde_last == 34
    assert cert.cond_a and cert.cond_b and cert.cond_c is False and cert.failure == "c"
    assert cert == is_nice(seed)
    _log_per_q(monkeypatch)
    old = is_nice(seed, dlog_budget=4)
    assert old.cond_c is None and old.failure == "c-indeterminate"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_integer_cond_a_matches_abs_lt(p):
    digits = construct_module._digit_pool(p, "all", 60, 3)
    digits += tuple(LaurentInt(p, t, 0) for t in range(-p, p + 1) if t % p)
    for a0 in digits:
        want = a0.e >= 1 and a0.abs_lt(Fraction(p, 4))
        assert is_nice((a0,)).cond_a == want, a0
    assert {is_nice((a0,)).cond_a for a0 in digits} == {True, False}


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
    assert alpha.b == 0
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
    # the independent periodic_limit route must land on the same value, and
    # eq. (12) on a second table must agree with the one on the cert's rows
    cert = is_nice(seed)
    res = construct(cert, h)
    assert res.verified and res.expansion is not None
    assert eq12_by_table(res, cert)
    target = QuadIrr(res.p, res.m, 0, res.m, res.k0, res.branch)
    assert periodic_limit(res.preperiod, res.period, res.p).value_equals(target)
    exp = res.expansion
    assert exp.status == PERIODIC
    assert (exp.preperiod, exp.period) == (res.preperiod, res.period)


@pytest.mark.parametrize("seed", [SEED_353, SEED_P16], ids=["l353", "p16"])
def test_reexpansion_states_follow_the_dividing_update(seed):
    # the middle digit's exponent is about omega (31,852 for l = 353), the
    # state size where the kernel divides b - b' by p**k before it strips p
    res = construct(is_nice(seed), 0)
    exp, p = res.expansion, res.p
    states = list(exp.walk())
    assert max(st.k for st in states) > 7000
    wrapped = states[1:] + [exp.state_at(len(states))]
    for i, (st, nxt) in enumerate(zip(states, wrapped)):
        assert (nxt.b, nxt.c, nxt.k) == step_brute(st.Delta, st.b, st.c, st.k,
                                                    exp.quotient_at(i).tilde, p)


class _CountingPrime(int):
    """An int p whose powers of floor bits or more are logged as built."""

    def __new__(cls, p, built, floor=50000):
        self = super().__new__(cls, p)
        self.built, self.floor = built, floor
        return self

    def __pow__(self, e, mod=None):
        out = int.__pow__(int(self), e, mod)
        if mod is None and out.bit_length() >= self.floor:
            self.built.append(e)
        return out


def test_construct_builds_one_big_power_per_call():
    # the re-expansion's strip of k_t takes its p**e from construct's
    # p**omega by one division by a small power of p, and nothing is kept
    # between calls: two constructs with equal omega build two powers
    cert = is_nice(SEED_353)
    built = []
    counting = dataclasses.replace(cert, p=_CountingPrime(3, built))
    first = construct(counting, 0)
    assert built == [31861]
    second = construct(counting, 0)
    assert built == [31861, 31861]
    assert first.verified and first.m.bit_length() == 50489
    # to_json formats a_t once, for its own key and its slot in the
    # period: one power p**k_t per call
    built.clear()
    assert first.to_json() == construct(cert, 0).to_json()
    assert built == [first.kt]
    assert second.to_json() == first.to_json()
    assert built == [first.kt] * 3


def test_construct_carries_p_omega_from_member_to_member():
    # a coset member after the first takes its p**omega from the one before
    # by one product with p**s, built once the loop moves past a member:
    # the period-16 seed (s = 10,512, p**s ~ 24,400 bits) builds p**7,676
    # alone at h = 0 and p**s on top at any h >= 1 (l = 353 at h = 0, whose
    # s = 124,256 exceeds its omega, builds no p**s either: see above); the
    # digests, in hex to stay linear in m's size, are those of the results
    # built from a fresh power per member
    built = []
    counting = dataclasses.replace(is_nice(SEED_P16), p=_CountingPrime(5, built, 17000))
    construct(counting, 0)  # fills the per-prime caches that key on p
    for h, omega, digest in ((0, 7676, "a8d9516ad8047df2"), (1, 18188, "9e0f7b1708c27f6c"),
                             (2, 28700, "53dfa0121c406b80"), (3, 39212, "2469ab440c421f23"),
                             (26, 280988, "0126b9a4f3d4e270")):
        built.clear()
        res = construct(counting, h)
        assert res.omega == omega and res.verified
        assert built == ([7676] if h == 0 else [7676, 10512]), h
        record = f"{res.omega} {res.kt} {res.b:x} {res.c_tilde:x} {res.m:x} {res.branch}"
        assert hashlib.sha256(record.encode()).hexdigest()[:16] == digest, h


def test_pcf_construct_walks_the_coset_once(monkeypatch):
    # pcf construct --h 0..3 verifies four members of one walk, which
    # builds p**7,676 and p**s = p**10,512 once each; a construct call per
    # h would build 1 + 3 * 2 big powers
    built = []
    counting = _CountingPrime(5, built, 17000)
    construct(dataclasses.replace(is_nice(SEED_P16), p=counting), 0)  # fills per-prime caches
    built.clear()
    real = cli.is_nice
    monkeypatch.setattr(cli, "is_nice", lambda cf, budget: dataclasses.replace(
        real(cf, budget), p=counting))
    seed = ", ".join(str(a) for a in SEED_P16)
    res = CliRunner().invoke(cli.main, ["construct", "--p", "5", "--cf", seed, "--h", "0..3"])
    assert res.exit_code == 0
    assert built == [7676, 10512]
    rows = [line.split()[:4] for line in res.stdout.splitlines()[2:]]
    assert rows == [[str(h), str(omega), str(omega - 15), "yes"]
                    for h, omega in enumerate((7676, 18188, 28700, 39212))]


def test_construct_holds_its_power_for_the_reexpansion_only(monkeypatch):
    # construct lends eq. (12)'s jump p**(k_t + k_{t-1}), the very power
    # the re-expansion's middle step strips, and exactly one strip hands
    # back that number itself instead of building p**e
    held_power = construct_module._HELD_POWER
    seen, real = [], construct_module.first_reexpansion
    took, real_split = [], core.split_p_power

    def spy(*args):
        seen.append(held_power.get())
        return real(*args)

    def split(n, p):
        out = real_split(n, p)
        held = held_power.get()
        if held is not None and out[2] is held[2]:
            took.append(out[0])
        return out

    monkeypatch.setattr(construct_module, "first_reexpansion", spy)
    monkeypatch.setattr(core, "split_p_power", split)
    monkeypatch.setattr(engine_module, "split_p_power", split)
    res = construct(is_nice(SEED_353), 0)
    assert seen == [(3, 31856, 3**31856)] and res.verified
    assert res.kt + res.period[0].e == 31856
    assert took == [31856]
    assert held_power.get() is None

    def broken(*args):
        seen.append(held_power.get())
        raise ZeroDivisionError("re-expansion failed")

    monkeypatch.setattr(construct_module, "first_reexpansion", broken)
    with pytest.raises(ZeroDivisionError):
        construct(is_nice(SEED_T2), 0)
    assert seen[-1] is not None and seen[-1][0] == 3
    assert held_power.get() is None


def test_reexpansion_strips_p_only_from_state_size_numbers(monkeypatch, kernel_steps):
    # the kernel divides b - b' by p**k before it strips p when k is past
    # the one-digit power p**J, so no strip in the l = 353 re-expansion sees
    # a product twice the size of m, as the one that would strip p**31,853
    # at once would; and the kernel's strip of k' = k_t ~ omega hands the
    # next step p**k' as the power it built
    sizes = []

    def spying(split):
        def spy(n, p):
            sizes.append(n.bit_length())
            return split(n, p)
        return spy

    monkeypatch.setattr(engine_module, "split_p", spying(split_p))
    monkeypatch.setattr(engine_module, "split_p_power", spying(split_p_power))
    res = construct(is_nice(SEED_353), 0)
    assert res.verified and res.m.bit_length() == 50489
    assert sizes and max(sizes) <= res.m.bit_length() + 64
    assert max(after[2] for _, _, _, after in kernel_steps) == res.kt == 31852
    for _, _, _, (_, c1, k1, pk1, _, cres) in kernel_steps:
        assert pk1 == 3**k1
        assert cres is None or (cres - c1) % 3 ** (k1 + 1) == 0


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str limit here")
def test_to_json_needs_no_lifted_str_limit():
    # conftest lifts CPython's 4,300-digit guard; put it back, and the
    # l = 353 record (a_t's denominator has 15,198 digits) and the text of
    # its re-expanded target are unchanged
    res = construct(is_nice(SEED_353), 0)
    lifted, target = res.to_json(), str(res.expansion.alpha)
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str(3**res.kt)
        assert res.to_json() == lifted
        assert str(res.expansion.alpha) == target
    finally:
        sys.set_int_max_str_digits(0)
    assert lifted["a_t"] == f"{2 * res.c_tilde}/{3**res.kt}"


@pytest.mark.parametrize("text,p", [("-6/5", 5), ("-1/3, -1/3", 3), ("-1/3, -110/81", 3)])
def test_construct_expands_once_and_builds_no_table(monkeypatch, text, p):
    # mirrored seeds: the first branch tried starts with the wrong digit
    cert = is_nice(parse_quotient_list(text, p))
    calls, real_expand = [], engine_module._expand

    def counting(*args, **kwargs):
        calls.append(args)
        return real_expand(*args, **kwargs)

    def no_table(*args, **kwargs):
        raise AssertionError("construct must not build a convergent table")

    monkeypatch.setattr(engine_module, "_expand", counting)
    monkeypatch.setattr(construct_module, "convergents", no_table)
    res = construct(cert, 0)
    assert res.verified
    assert len(calls) == 1


def test_construct_reports_a_broken_eq12_as_unverified():
    cert = is_nice(SEED_6_5)
    res = construct(dataclasses.replace(cert, Btilde_prev=cert.Btilde_prev + 1), 0)
    # the re-expansion still succeeds, so eq. (12) alone leaves it unverified
    assert not res.verified
    assert res.expansion is not None


def test_construct_is_unverified_when_no_branch_reexpands(monkeypatch):
    monkeypatch.setattr(construct_module, "first_reexpansion", lambda *args: None)
    res = construct(is_nice(SEED_6_5), 0)
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
    # construct caps p**omega at DEFAULT_MAX_DIGITS; the walk it shares with
    # pcf construct takes the cap, which --max-digits sets
    res_ok = construct(is_nice(SEED_6_5), 0)
    assert res_ok.verified
    with pytest.raises(ConstructionInfeasible) as err:
        next(construct_module._members(is_nice(SEED_6_5), 3))
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
                assert beta_polynomials(n, k, p)


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


def test_family_builds_one_convergent_table(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return convergents(*args, **kwargs)

    for module in (construct_module, engine_module):
        monkeypatch.setattr(module, "convergents", counting)
    rep = family_section6(1, 5, 3)
    assert rep.verified and rep.char_poly_check
    assert len(calls) == 1


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
    capped = list(islice(nice_search(5, 2, pool="pos", num_bound=4), 2))
    assert capped == full[:2]


@pytest.mark.parametrize("start, stop", [(0, None), (1, 37), (63, 64), (100, 256), (200, 150), (255, 999), (256, None), (400, None)])
def test_search_window_matches_islice_of_the_full_product(start, stop):
    # p = 5, --pool all, numerators <= 4, exponents <= 2: 16 digits, 256 pairs
    digits = construct_module._digit_pool(5, "all", 4, 2)
    want = [(i, is_nice(cf)) for i, cf in enumerate(islice(product(digits, repeat=2), start, stop), start)]
    want = [(i, cert) for i, cert in want if cert.nice]
    got = list(nice_search(5, 2, "all", 4, 2, start_index=start, stop_index=stop))
    assert got == want
    if start < 256 and (stop is None or stop > start + 20):
        assert want, "the window should hold nice seeds"


def test_search_starts_near_the_end_of_a_huge_space_at_once(monkeypatch):
    # t = 12 over the 28-digit pool: 28**12 ~ 2.3e17 candidates; the last
    # three are scanned without walking the ones before
    digits = construct_module._digit_pool(5, "all", 8, 2)
    space = construct_module.search_space_size(5, 12, "all", 8, 2)
    assert space == len(digits) ** 12 == 232_218_265_089_212_416
    scanned = []

    def stub(cf, dlog_budget=None):
        scanned.append(cf)
        return SimpleNamespace(nice=True, cf=cf)

    monkeypatch.setattr(construct_module, "is_nice", stub)
    start = time.perf_counter()
    hits = list(nice_search(5, 12, "all", 8, 2, start_index=space - 3))
    assert time.perf_counter() - start < 1.0
    assert [i for i, _ in hits] == [space - 3, space - 2, space - 1]
    assert scanned == [(digits[-1],) * 11 + (d,) for d in digits[-3:]]


def test_search_rejects_negative_indices():
    with pytest.raises(ValueError, match="must be >= 0"):
        list(nice_search(5, 1, start_index=-1))
    with pytest.raises(ValueError, match="must be >= 0"):
        list(nice_search(5, 1, stop_index=-1))


def test_search_input_validation():
    with pytest.raises(ValueError):
        list(nice_search(5, 0))
    with pytest.raises(ValueError):
        list(nice_search(5, 1, pool="negatives"))


def _brute_pool(p, pool, num_bound, exp_bound):
    """The pool's definition, filtered over every numerator up to num_bound."""
    out = []
    for e in range(1, exp_bound + 1):
        for tt in range(1, num_bound + 1):
            if tt % p == 0 or 2 * tt >= p ** (e + 1):
                continue
            out.append(LaurentInt(p, tt, e))
            if pool == "all":
                out.append(LaurentInt(p, -tt, e))
    return out


def test_digit_pool_walks_only_each_exponents_window():
    for p in (3, 5, 7, 11, 13):
        for pool in ("pos", "all"):
            for num_bound in range(-1, 60):
                for exp_bound in range(-1, 5):
                    got = construct_module._digit_pool(p, pool, num_bound, exp_bound)
                    want = _brute_pool(p, pool, num_bound, exp_bound)
                    assert [(d.tilde, d.e) for d in got] == [(d.tilde, d.e) for d in want], (
                        p, pool, num_bound, exp_bound)
    # the windows of 1/3 and 1/9 hold 1, 2, 4 and the 9 numerators up to 13
    # prime to 3; a walk of every numerator up to num_bound would take
    # 2 * 10**8 steps
    start = time.perf_counter()
    digits = construct_module._digit_pool(3, "pos", 10**8, 2)
    assert time.perf_counter() - start < 1.0
    assert [str(d) for d in digits] == [
        "1/3", "2/3", "4/3", "1/9", "2/9", "4/9", "5/9", "7/9", "8/9",
        "10/9", "11/9", "13/9"]


def test_search_space_size_is_the_pool_size_to_the_t():
    for p in (3, 5, 7, 11):
        for pool in ("pos", "all"):
            for num_bound in range(-1, 40):
                for exp_bound in range(-1, 5):
                    n = len(construct_module._digit_pool(p, pool, num_bound, exp_bound))
                    for t in (1, 2, 3):
                        got = construct_module.search_space_size(p, t, pool, num_bound, exp_bound)
                        assert got == n**t, (p, pool, num_bound, exp_bound, t)
    # the caps: t, the pool, then the space
    size = construct_module.search_space_size
    assert size(5, 60, "pos", 1, 1) == 1
    with pytest.raises(ValueError, match="t must lie in 1..60"):
        size(5, 61, "pos", 1, 1)
    # numerators 1..4 fit every window over p = 5: 8 signed digits per exponent
    assert size(5, 1, "all", 4, 12_500) == 10**5
    with pytest.raises(ValueError, match="digit pool would hold more than 100000 digits"):
        size(5, 1, "all", 4, 12_501)
    assert size(3, 29, "pos", 1, 4) == 4**29
    with pytest.raises(ValueError, match="search space would hold 4\\*\\*30"):
        size(3, 30, "pos", 1, 4)
