"""Named verification checks over pinned values and randomized suites.

Each check is a small callable registered under a dotted name; the runner
times it, catches failures, and returns one result per check. The CLI's
verification command is a thin wrapper over run_checks, and the test suite
reuses the same registry so both surfaces agree on what "green" means.

Pinned digit strings and integers in this module were either computed with
an independent method first or cross-checked by hand; nothing here is a
copy of the library's own output.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (
    dt_identities,
    galois_check,
    reversed_period_identity,
    ruban_nonperiodic_probe,
    trace_zero_classify,
)
from .construct import (
    ConstructionInfeasible,
    beta,
    beta_polynomials,
    cala_identities,
    construct,
    family_section6,
    is_nice,
)
from .core import LaurentInt, discrete_log, mult_order, padic_square_exists, sqrt_mod_p, vp
from .corpus import (
    random_digits,
    random_periodic,
    random_quad,
    random_rational,
    random_trace_zero,
)
from .engine import (
    BROWKIN,
    DEFAULT_MAX_STEPS,
    FINITE,
    OPEN,
    PERIODIC,
    RUBAN,
    QuadIrr,
    _is_square,
    convergents,
    eval_finite,
    expand,
    expand_rational,
    periodic_limit,
    valuation_audit,
)

DEFAULT_SEED = 20260815
DEFAULT_CASES = 150


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 3),
        }


_REGISTRY: list = []


def _register(name):
    def deco(fn):
        _REGISTRY.append((name, fn))
        return fn
    return deco


def check_names():
    return tuple(name for name, _ in _REGISTRY)


def _require(cond, *detail):
    """Fail the running check unless cond holds.

    An explicit raise rather than an assert statement, so the checks still
    run under python -O; the runner reports it like a failed assertion.
    """
    if not cond:
        raise AssertionError(*detail)


# -- pinned expansions --------------------------------------------------------

_PERIOD12 = ("4/5", "-11/5", "-3/5", "-4/25", "274/125", "-4/25",
             "-3/5", "-11/5", "4/5", "1/5", "24/25", "1/5")

_PREFIX14 = ("-9/5", "-2/5", "-59/25", "2/5", "-9/5", "23/25", "3/5",
             "1/5", "51/25", "8/5", "2/5", "-7/5", "-12/5", "6/5")


@_register("expand.quad19.period12")
def _quad19(ctx):
    exp = expand(QuadIrr(5, 19, -13, 6, 1, 2), BROWKIN)
    _require(exp.status == PERIODIC and not exp.preperiod)
    got = tuple(str(q) for q in exp.period)
    _require(got == _PERIOD12, got)
    return "purely periodic, 12 digits exact"


@_register("expand.quad37.pure")
def _quad37(ctx):
    exp = expand(QuadIrr(3, 37, 1, 2, 1, 1), BROWKIN)
    _require(exp.status == PERIODIC and not exp.preperiod)
    _require(tuple(str(q) for q in exp.period) == ("1/3",))
    return "period [1/3], empty preperiod"


@_register("expand.quad89.prefix14")
def _quad89(ctx):
    exp = expand(QuadIrr(5, 89, 8, 1, 1, 3), BROWKIN)
    _require(exp.status == OPEN)
    got = tuple(str(exp.quotient_at(i)) for i in range(14))
    _require(got == _PREFIX14, got)
    return f"open at horizon {DEFAULT_MAX_STEPS}, 14-digit prefix exact"


# -- randomized structural suites ----------------------------------------------


@_register("convergents.det")
def _det_suite(ctx):
    rng = random.Random(ctx["seed"])
    cases = ctx["cases"]
    for _ in range(cases):
        p = rng.choice((3, 5, 7, 11))
        digs = random_digits(rng, p, rng.randint(1, 8))
        tab = convergents(digs)
        for n in range(len(digs)):
            det = tab.A_(n) * tab.B_(n - 1) - tab.A_(n - 1) * tab.B_(n)
            _require(det == (-1) ** (n + 1), (digs, n))
    return f"{cases} digit lists, all rows"


@_register("convergents.growth")
def _growth_suite(ctx):
    rng = random.Random(ctx["seed"] + 1)
    cases = ctx["cases"]
    for _ in range(cases):
        p = rng.choice((3, 5, 7))
        alpha = random_quad(rng, p)
        exp = expand(alpha, BROWKIN, max_steps=24)
        audit = valuation_audit(exp)
        _require(audit.ok, (alpha, audit.failures))
    return f"{cases} quadratics, full valuation audit"


@_register("convergents.closeness")
def _closeness_suite(ctx):
    rng = random.Random(ctx["seed"] + 2)
    cases = done = 0
    target = ctx["cases"]
    while done < target:
        cases += 1
        p = rng.choice((3, 5, 7))
        n = rng.randint(1, 6)
        prefix = random_digits(rng, p, n + 1)
        tail_a = random_digits(rng, p, rng.randint(1, 4), int_first=False)
        tail_b = random_digits(rng, p, rng.randint(1, 4), int_first=False)
        a = eval_finite(prefix + tail_a)
        b = eval_finite(prefix + tail_b)
        if a == b:
            continue
        _require(vp(a - b, p) >= 2 * n + 1, (prefix, tail_a, tail_b))
        done += 1
    return f"{done} pairs sharing convergent index up to 6"


@_register("regularity.pure_iff_regular")
def _regular_suite(ctx):
    rng = random.Random(ctx["seed"] + 3)
    cases = ctx["cases"]
    for _ in range(cases):
        p = rng.choice((3, 5, 7))
        alpha = random_periodic(rng, p)
        exp = expand(alpha, BROWKIN, max_steps=600)
        _require(exp.status == PERIODIC)
        verdict = galois_check(alpha, exp)
        _require(verdict.ok, (alpha, verdict))
    return f"{cases} periodic states, both directions"


@_register("reversal.palindrome_norm")
def _reversal_suite(ctx):
    rng = random.Random(ctx["seed"] + 4)
    cases = max(20, ctx["cases"])
    pal = 0
    for _ in range(cases):
        p = rng.choice((3, 5, 7))
        alpha = random_periodic(rng, p)
        exp = expand(alpha, BROWKIN, max_steps=600)
        tail = exp.state_at(len(exp.preperiod))
        texp = expand(tail, BROWKIN, max_steps=600)
        reversed_period_identity(texp)
        if tail.norm == -1:
            pal += 1
    return f"{cases} purely periodic tails ({pal} palindromic)"


@_register("tracezero.preperiods")
def _tracezero_suite(ctx):
    rng = random.Random(ctx["seed"] + 5)
    fixed = (
        QuadIrr(5, -434, 0, -434, 1, 1),
        QuadIrr(5, -434, 0, 1, -1, 1),
        QuadIrr(5, 126, 0, 2, 0, 1),
        QuadIrr(5, 1 - 5**4, 0, 2, 1, 4),
        QuadIrr(3, -34867844, 0, -34867844, 1, 1),
        QuadIrr(3, -34867844, 0, 1, -1, 1),
        QuadIrr(3, 1 - 3**4, 0, 2, 1, 2),
    )
    cases = ctx["cases"]
    periodic_seen = templated = 0
    for i in range(cases):
        if i % 10 == 0:
            alpha = fixed[(i // 10) % len(fixed)]
        else:
            alpha = random_trace_zero(rng, rng.choice((3, 5, 7)))
        rep = trace_zero_classify(alpha, max_steps=250)
        expected = "preperiod_1" if alpha.valuation < 0 else "preperiod_2"
        _require(rep.klass == expected)
        if rep.expansion.status == PERIODIC:
            periodic_seen += 1
            want_len = 1 if alpha.valuation < 0 else 2
            _require(len(rep.expansion.preperiod) == want_len, alpha)
            # the doubled-digit template is only claimed when 2*a_0 is a digit
            if rep.a0_small:
                _require(rep.matched is True, alpha)
                templated += 1
    _require(periodic_seen >= cases // 10)
    return (f"{cases} trace-zero values, {periodic_seen} periodic with the "
            f"right preperiod length, {templated} matching the full template")


@_register("palindrome.identities")
def _palindrome_suite(ctx):
    rng = random.Random(ctx["seed"] + 7)
    cases = ctx["cases"]
    for _ in range(cases):
        p = rng.choice((3, 5, 7))
        t = rng.randint(1, 4)
        parity = rng.choice(("even", "odd"))
        # a palindrome of d + 1 digits, d = 2t (even) or 2t + 1 (odd)
        w = random_digits(rng, p, t + 1)
        cf = w + tuple(reversed(w[:-1] if parity == "even" else w))
        _require(dt_identities(cf, t, parity), (cf, parity))
    return f"{cases} palindromes, t <= 4, both parities"


@_register("rational.finiteness")
def _rational_suite(ctx):
    rng = random.Random(ctx["seed"] + 6)
    cases = ctx["cases"]
    for _ in range(cases):
        p = rng.choice((3, 5, 7))
        x = random_rational(rng)
        exp = expand_rational(x, p, BROWKIN)
        _require(exp.status == FINITE)
        _require(eval_finite(exp.preperiod) == x)
        for q in exp.preperiod[1:]:
            _require(q.e >= 1)
    return f"{cases} rationals, all finite with exact round-trip"


@_register("bedocchi.scan")
def _bedocchi(ctx):
    bound, horizon = 2000, 200
    scanned = periodic = 0
    for p in (5, 7):
        for m in range(2, bound + 1):
            if _is_square(m):
                continue
            ok, parts = padic_square_exists(m, p)
            if not ok:
                continue
            m0, j = parts
            exp = expand(QuadIrr(p, m0, 0, 1, -j, sqrt_mod_p(m0 % p, p)),
                         BROWKIN, max_steps=horizon)
            scanned += 1
            if exp.status == PERIODIC:
                periodic += 1
                _require(len(exp.period) not in (1, 3), (p, m, len(exp.period)))
    return f"{scanned} square roots up to {bound}, {periodic} periodic, no period 1 or 3"


# -- multiplicative-order pins ---------------------------------------------------


@_register("dlog.trio")
def _dlog(ctx):
    _require(mult_order(5, 36) == 6)
    _require(mult_order(3, 100) == 20)
    _require(mult_order(3, 353 * 353) == 124256)
    _require(discrete_log(3, 110, 353 * 353) == 31861)
    return "orders 6, 20, 124256 and log 31861 exact"


# -- beta family ------------------------------------------------------------------


@_register("beta.eval")
def _beta_eval(ctx):
    for p in (3, 5, 7):
        for k in (1, 2):
            for n in range(1, 6):
                digs = beta(n, k, p)
                want = Fraction(1 + sum(p ** (2**j * k) for j in range(1, n + 1)), p**k)
                _require(eval_finite(digs) == want, (p, k, n))
                _require(convergents(digs).Btilde_(2**n - 1) == 1)
    return "closed-form values and unit tilde denominators, n <= 5"


@_register("beta.niceness")
def _beta_nice(ctx):
    for p in (3, 5, 7):
        for k in (1, 2):
            for n in range(1, 6):
                cert = is_nice(beta(n, k, p))
                _require(cert.nice, (p, k, n, cert.failure))
    return "30 seeds, all three conditions"


@_register("beta.polynomials")
def _beta_poly(ctx):
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            for n in range(1, 7):
                _require(beta_polynomials(n, k, p))
    return "polynomial convergent values, n <= 6, k <= 3"


@_register("beta.cala")
def _beta_cala(ctx):
    pairs = 0
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            for n in range(2, 7):
                verdict = cala_identities(beta(n, k, p), beta(n - 1, 2 * k, p))
                _require(verdict.ok, (p, k, n))
                pairs += verdict.pairs_checked
    return f"interleave identities, {pairs} index pairs"


@_register("beta.period2n")
def _beta_period(ctx):
    n_top = ctx["beta_n"]
    got = []
    for j in range(1, n_top + 1):
        seed = (LaurentInt(5, 6, 1),) if j == 1 else beta(j - 1, 1, 5)
        res = construct(is_nice(seed), 0)
        _require(res.verified and len(res.period) == 2**j, j)
        got.append(2**j)
    return f"realized periods {got} over p=5"


# -- construction pins ---------------------------------------------------------------


@_register("construct.t1")
def _construct_t1(ctx):
    cert = is_nice((LaurentInt(5, 6, 1),))
    pins = {
        0: (6, -2604, -434),
        1: (12, -40690104, -6781684),
        2: (18, -635782877604, -105963812934),
    }
    for h, (omega, c_tilde, m) in pins.items():
        res = construct(cert, h)
        _require((res.omega, res.c_tilde, res.m) == (omega, c_tilde, m), h)
        _require(res.verified)
    # the h=1 member in lowest terms: 1/(10 sqrt(-1695421))
    _require(pins[1][2] == -4 * 1695421)
    return "members at omega 6, 12, 18 with exact c~ and m"


@_register("construct.t2")
def _construct_t2(ctx):
    cert = is_nice((LaurentInt(3, 1, 1), LaurentInt(3, 1, 1)))
    pins = {
        0: (20, -38742049, 17),
        1: (40, -135085171767299209, 37),
        2: (60, -471012869724624483492160369, 57),
    }
    for h, (omega, c_tilde, kt) in pins.items():
        res = construct(cert, h)
        _require((res.omega, res.c_tilde, res.kt) == (omega, c_tilde, kt), h)
        _require(res.m == -(3**omega - 1) // 100)
        _require(res.verified)
    # in lowest terms: 1/(66 sqrt(m/484)) for all three members
    for h, unit in ((0, -72041), (1, -251191435104482),
                    (2, -875850377587111642857323)):
        _require(construct(cert, h).m == 484 * unit)
    return "members at omega 20, 40, 60 with exact c~, k_t and m"


@_register("construct.ell353")
def _construct_353(ctx):
    cert = is_nice((LaurentInt(3, 1, 1), LaurentInt(3, 110, 4)))
    _require(cert.nice and cert.q == 110 and cert.omega0 == 31861)
    _require(cert.Atilde_last == 353)
    res = construct(cert, 0)
    _require(res.order_s == 124256 and res.omega == 31861 and res.kt == 31852)
    _require(res.b == (3**31861 - 110) // 353**2)
    _require(res.c_tilde == (-(3**31856) - 1) // 353)
    _require(res.verified)
    return "15k-digit instance, all closed-form pins exact"


@_register("construct.monotone")
def _construct_monotone(ctx):
    for p, cf, hs in (
        (5, (LaurentInt(5, 6, 1),), range(5)),
        (3, (LaurentInt(3, 1, 1), LaurentInt(3, 1, 1)), range(3)),
    ):
        cert = is_nice(cf)
        prev = None
        ms = set()
        for h in hs:
            res = construct(cert, h)
            _require(res.verified)
            if prev is not None:
                _require(res.omega > prev.omega)
                _require(res.kt > prev.kt)
                _require(abs(res.m) > abs(prev.m))
            ms.add(res.m)
            prev = res
        _require(len(ms) == len(tuple(hs)))
    return "omega, k_t, |m| strictly increasing; all m distinct"


# -- closed-form families ---------------------------------------------------------


@_register("section6.variant1")
def _family1(ctx):
    for p, t in ((3, 2), (5, 2), (5, 3), (7, 3)):
        rep = family_section6(1, p, t)
        _require(rep.verified and rep.char_poly_check, (p, t))
    rep = family_section6(1, 3, 2)
    _require(tuple(str(q) for q in rep.expansion.preperiod) == ("4/3",))
    _require(tuple(str(q) for q in rep.expansion.period) == ("-2/3", "-1/3", "2/3", "-1/3"))
    return "four (p,t) pairs, digits and trace identity exact"


@_register("section6.variant2")
def _family2(ctx):
    for p, t in ((5, 3), (7, 3)):
        rep = family_section6(2, p, t)
        _require(rep.verified and len(rep.expansion.period) == 6, (p, t))
    return "length-6 periods at (5,3) and (7,3)"


@_register("section6.variant3")
def _family3(ctx):
    for p, t in ((5, 3), (7, 3)):
        rep = family_section6(3, p, t)
        _require(rep.verified and rep.matrix_check, (p, t))
        _require(rep.literal_check == "indeterminate")
    return "value verified via period matrix; literal digits indeterminate"


# -- Ruban contrast ----------------------------------------------------------------


@_register("ruban.minus_one")
def _ruban_minus_one(ctx):
    exp = expand_rational(-1, 5, RUBAN)
    _require(exp.status == PERIODIC)
    _require(tuple(str(q) for q in exp.preperiod) == ("4",))
    _require(tuple(str(q) for q in exp.period) == ("24/5",))
    return "-1 cycles as [4, (24/5)*]"


@_register("ruban.family")
def _ruban_family(ctx):
    for h in (1, 2, 3):
        probe = ruban_nonperiodic_probe(1 + 5 ** (2 * h), -h, 5)
        exp = probe.expansion
        _require(probe.status == PERIODIC)
        _require(tuple(str(q) for q in exp.preperiod) == (f"1/{5**h}",))
        _require(tuple(str(q) for q in exp.period) == (f"2/{5**h}",))
        lim = periodic_limit(exp.preperiod, exp.period, 5, RUBAN)
        _require(lim.value_equals(QuadIrr(5, 1 + 5 ** (2 * h), 0, 1, h, 1)))
    return "h in {1,2,3}: digits exact, limit equals the closed form"


@_register("ruban.probes")
def _ruban_probes(ctx):
    samples = ((6, 1), (11, 2), (14, 1), (19, 2), (21, 1),
               (24, 2), (26, 1), (29, 2), (31, 1), (34, 2))
    for m, k in samples:
        probe = ruban_nonperiodic_probe(m, k, 5, N=2000)
        _require(probe.status == "nonperiodic")
        _require(probe.witness_negative_embeddings)
    return "10 p**k sqrt(m) probes open at 2000 with sign witness"


# -- runner -------------------------------------------------------------------------


def select_checks(only: str | None = None):
    """Registry rows whose dotted name matches the filter prefix."""
    if only is None:
        return tuple(_REGISTRY)
    picked = tuple(
        (name, fn) for name, fn in _REGISTRY
        if name == only or name.startswith(only + ".")
    )
    if not picked:
        known = sorted({name.split(".")[0] for name, _ in _REGISTRY})
        raise ValueError(f"no checks match {only!r}; groups: {', '.join(known)}")
    return picked


def run_checks(only: str | None = None, beta_n: int = 3,
               cases: int = DEFAULT_CASES, seed: int = DEFAULT_SEED):
    """Run the selected checks and return a list of CheckResult.

    ValueError before any check runs when cases or beta_n is below 1: a
    suite of no cases, or of no periods, would pass having checked nothing.
    """
    if cases < 1 or beta_n < 1:
        raise ValueError(f"need --cases >= 1 and --n >= 1, got {cases} and {beta_n}")
    ctx = {"beta_n": beta_n, "cases": cases, "seed": seed}
    results = []
    for name, fn in select_checks(only):
        start = time.perf_counter()
        try:
            detail = fn(ctx)
            ok = True
        except ConstructionInfeasible as exc:
            ok, detail = False, (
                f"infeasible: needs omega={exc.omega}"
                f" (~{exc.digits_estimate} digits)"
            )
        except AssertionError as exc:
            ok, detail = False, f"assertion failed: {exc.args[0] if exc.args else exc!r}"
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
