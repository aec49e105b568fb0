"""The four workloads: seeded inputs, the timed operation, and its checker.

Each workload hands out rounds of operations. A round has a fixed mix of
operation kinds, so statistics over whole rounds do not depend on how many
rounds fit in the time. For every operation the workload offers:

* run(op): the timed call into padiccf, nothing else;
* record(op, out): plain data taken from the result, outside the timing;
* check(op, rec): None if the record agrees with the independent reference
  in ref.py (or pool.py), else a message;
* tamper(rec): a corrupted copy, which check must reject (the self-test).

The library is reached through module attributes (``engine.expand``), so
the tracer can wrap what the benchmark calls.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
from fractions import Fraction

# by module path: the package namespace re-exports a function named construct
analysis, construct, core, engine = (
    importlib.import_module(f"padiccf.{name}")
    for name in ("analysis", "construct", "core", "engine"))

import pool
import ref
from ref import BROWKIN, RUBAN


def _qfrac(q) -> Fraction:
    return Fraction(q.tilde, q.p**q.e)


def _qkey(q) -> str:
    return f"{q.tilde:x}/{q.e}"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _state_bits(states) -> int:
    return max((max(s.b.bit_length(), s.c.bit_length()) for s in states), default=0)


def exp_record(exp, prefix: int) -> dict:
    """Status, the digit stream to check, and a digest of the whole result.

    For a periodic result the stream runs preperiod + 2*period + 2 digits
    into the cycle; otherwise it is the first ``prefix`` digits.
    """
    pre, per = len(exp.preperiod), len(exp.period)
    quots = exp.preperiod + exp.period
    n = pre + 2 * per + 2 if exp.status == engine.PERIODIC else min(len(quots), prefix)
    states = getattr(exp, "states", ())
    return {
        "status": exp.status, "pre": pre, "per": per, "n": len(quots),
        "stream": [_qfrac(exp.quotient_at(i)) for i in range(n)],
        "digest": _digest(exp.status, pre, per, *map(_qkey, quots)),
        "peak_bits": _state_bits(states), "states": len(states),
    }


def check_surd(rec: dict, u, v, D: int, branch: int, p: int, flavor: str, horizon: int):
    """Compare an expansion record of u + v*sqrt(D) with the reference."""
    if rec["status"] == engine.OPEN and rec["n"] != horizon:
        return f"open expansion has {rec['n']} digits, horizon {horizon}"
    if rec["status"] not in (engine.OPEN, engine.PERIODIC):
        return f"irrational value reported {rec['status']}"
    want = ref.surd_expand(u, v, D, branch, p, flavor, len(rec["stream"]))[0]
    if want != rec["stream"]:
        i = next(i for i, (a, b) in enumerate(zip(want, rec["stream"])) if a != b)
        return f"digit {i} is {rec['stream'][i]}, reference {want[i]}"
    return None


def tamper_stream(rec: dict) -> dict:
    bad = dict(rec)
    bad["stream"] = [-rec["stream"][0] + 1] + rec["stream"][1:]
    return bad


class Workload:
    """Seeded rounds of operations; see the module docstring."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def units(self, rec) -> int:
        """Work units one result counts for in ops_per_s."""
        return 1


def _random_quad(rng, primes, used, b_max=60, c_max=40, r_max=80, k_choices=(0, 1, 2)):
    """(p, D, b, c, k, branch) with c | D - b**2, D a nonsquare unit QR mod p."""
    while True:
        p = rng.choice(primes)
        b = rng.randint(-b_max, b_max)
        c = rng.choice((-1, 1)) * rng.randint(1, c_max)
        D = b * b + c * rng.randint(-r_max, r_max)
        if c % p == 0 or D == 0 or ref.is_square(D) or D % p == 0:
            continue
        roots = ref.roots_mod_p(D, p)
        if not roots:
            continue
        spec = (p, D, b, c, rng.choice(k_choices), rng.choice(roots))
        if spec not in used:
            used.add(spec)
            return spec


def _surd(spec):
    """(u, v) of the spec (p, D, b, c, k, branch) = (b + sqrt(D))/(p**k c)."""
    p, D, b, c, k, _ = spec
    den = Fraction(p) ** k * c
    return Fraction(b) / den, 1 / den


def _quad(spec):
    p, D, b, c, k, branch = spec
    return engine.QuadIrr(p, D, b, c, k, branch)


# -- expand-deep ---------------------------------------------------------------


class ExpandDeep(Workload):
    """Deep open expansions: the paper's (8+sqrt(89))/5, a seeded open
    centered value at p = 5, and a seeded Ruban probe 5*sqrt(m)."""

    name = "expand-deep"
    P = 5
    BROWKIN_STEPS = 10_000
    RUBAN_STEPS = 4_000
    FILTER_STEPS = 300  # seeded centered values must not cycle this early
    PREFIX = 200
    # first 14 digits of (8+sqrt(89))/5, pinned in the package's golden file
    SQRT89 = (5, 89, 8, 1, 1, 3)
    SQRT89_PREFIX = tuple(Fraction(x) for x in (
        "-9/5", "-2/5", "-59/25", "2/5", "-9/5", "23/25", "3/5",
        "1/5", "51/25", "8/5", "2/5", "-7/5", "-12/5", "6/5"))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.used = {self.SQRT89}

    def _open_browkin(self):
        while True:
            spec = _random_quad(self.rng, (self.P,), self.used, 40, 12, 60, (1,))
            u, v = _surd(spec)
            _, _, j = ref.surd_expand(u, v, spec[1], spec[5], self.P, BROWKIN,
                                      self.FILTER_STEPS, stop_on_cycle=True)
            if j is None:
                return spec

    def _ruban_probe(self):
        p = self.P
        while True:
            m = self.rng.randint(2, 2000)
            roots = ref.roots_mod_p(m, p) if m % p else []
            spec = (p, m, 0, 1, -1, self.rng.choice(roots)) if roots else None
            if spec and not ref.is_square(m) and spec not in self.used:
                self.used.add(spec)
                return spec

    def round(self):
        return [
            ("sqrt89", self.SQRT89, BROWKIN, self.BROWKIN_STEPS),
            ("browkin", self._open_browkin(), BROWKIN, self.BROWKIN_STEPS),
            ("ruban", self._ruban_probe(), RUBAN, self.RUBAN_STEPS),
        ]

    def run(self, op):
        _, spec, flavor, steps = op
        return engine.expand(_quad(spec), flavor, max_steps=steps)

    def record(self, op, out):
        return exp_record(out, self.PREFIX)

    def units(self, rec) -> int:
        return rec["n"]

    def check(self, op, rec):
        kind, spec, flavor, steps = op
        if kind == "ruban" and rec["status"] != engine.OPEN:
            return "p**k * sqrt(m) is never periodic in the Ruban flavor"
        if kind == "sqrt89" and tuple(rec["stream"][:14]) != self.SQRT89_PREFIX:
            return "pinned 14-digit prefix of (8+sqrt(89))/5 differs"
        u, v = _surd(spec)
        return check_surd(rec, u, v, spec[1], spec[5], spec[0], flavor, steps)

    tamper = staticmethod(tamper_stream)


# -- expand-many ---------------------------------------------------------------


class ExpandMany(Workload):
    """Many small values: periodic tails, random states at a short horizon,
    rationals in both flavors, trace-zero values, and the analysis calls."""

    name = "expand-many"
    PRIMES = (3, 5, 7)
    HORIZON = 200
    PREFIX = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.used = set()
        self.tails = self._periodic_tails()
        self.last_tail = None

    @staticmethod
    def _periodic_tails():
        """Purely periodic states found by the reference expander in two
        closed-form families of the paper and the period-12 value
        (-13 + sqrt(19))/30 at p = 5."""
        sources = [(5, 19, Fraction(-13, 30), Fraction(1, 30))]
        for p in (3, 5, 7):
            for t in range(2, 7):
                sources.append((p, 1 - p ** (t + 2), Fraction(0), Fraction(1, 2 * p)))
                if p >= 5 and t >= 3:
                    sources.append((p, p**t + 1, Fraction(0), Fraction(1, 2)))
        tails = []
        for p, D, u, v in sources:
            for branch in ref.roots_mod_p(D, p):
                _, states, j = ref.surd_expand(u, v, D, branch, p, BROWKIN, 60, True)
                if j is None:
                    continue
                for su, sv in states[j:]:
                    tails.append((p, D, *ref.quad_params(su, sv, p), branch))
        return tails

    def round(self):
        rng, H = self.rng, self.HORIZON
        ops = []
        for _ in range(2):
            ops.append(("tail", rng.choice(self.tails), BROWKIN, H))
            ops.append(("galois",))
        for flavor in (BROWKIN, BROWKIN, RUBAN, RUBAN):
            ops.append(("quad", _random_quad(rng, self.PRIMES, self.used), flavor, H))
        for flavor in (BROWKIN, BROWKIN, RUBAN, RUBAN):
            x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 9999))
            ops.append(("rational", (rng.choice(self.PRIMES), x), flavor, H))
        for _ in range(2):
            ops.append(("trace0", self._trace_zero(), BROWKIN, H))
        for _ in range(2):
            ops.append(("regular", _random_quad(rng, self.PRIMES, self.used), BROWKIN, H))
        return ops

    def _trace_zero(self):
        rng = self.rng
        while True:
            p = rng.choice(self.PRIMES)
            m = rng.randint(2, 3000)
            roots = ref.roots_mod_p(m, p) if m % p else []
            if roots and not ref.is_square(m):
                spec = (p, m, 0, 1, rng.choice((-1, 0, 1, 2)), rng.choice(roots))
                if spec not in self.used:
                    self.used.add(spec)
                    return spec

    def run(self, op):
        kind = op[0]
        if kind == "galois":
            alpha, exp = self.last_tail
            return analysis.galois_check(alpha, exp)
        _, spec, flavor, H = op
        if kind == "rational":
            return engine.expand_rational(spec[1], spec[0], flavor, max_steps=H)
        alpha = _quad(spec)
        if kind == "trace0":
            return analysis.trace_zero_classify(alpha, max_steps=H)
        if kind == "regular":
            return analysis.is_regular(alpha, max_steps=H)
        exp = engine.expand(alpha, flavor, max_steps=H)
        if kind == "tail":
            self.last_tail = (alpha, exp)
        return exp

    def record(self, op, out):
        kind = op[0]
        if kind in ("galois", "regular"):
            rec = {"kind": kind, "regular": out.regular,
                   "first": out.first_regular_index,
                   "ok": getattr(out, "ok", None),
                   "pre": getattr(out, "preperiod_length", None),
                   "v": (out.v_alpha, out.v_conj)}
            rec["digest"] = _digest(*sorted(rec.items()))
            return rec
        if kind == "trace0":
            rec = exp_record(out.expansion, self.PREFIX)
            rec.update(kind=kind, klass=out.klass, valuation=out.valuation)
            rec["digest"] = _digest(rec["digest"], out.klass, out.valuation)
            return rec
        rec = exp_record(out, self.PREFIX)
        rec["kind"] = kind
        if kind == "rational":
            rec["digits"] = [_qfrac(q) for q in out.preperiod + out.period]
        return rec

    def check(self, op, rec):
        kind = op[0]
        if kind == "galois":
            # the states fed to galois_check are purely periodic, so regular
            if not (rec["ok"] and rec["regular"] and rec["pre"] == 0 and rec["first"] == 0):
                return f"galois_check on a purely periodic state gave {rec}"
            return None
        _, spec, flavor, H = op
        if kind == "rational":
            return self._check_rational(spec, flavor, H, rec)
        p, D, branch = spec[0], spec[1], spec[5]
        u, v = _surd(spec)
        if kind == "regular":
            return self._check_regular(u, v, D, branch, p, H, rec)
        if kind == "tail" and (rec["status"] != engine.PERIODIC or rec["pre"]):
            return "a state taken from a cycle must be purely periodic"
        if kind == "trace0":
            w = ref.surd_val(u, v, D, branch, p)
            klass = "preperiod_1" if w < 0 else "preperiod_2"
            if (rec["klass"], rec["valuation"]) != (klass, w):
                return f"trace-zero class {rec['klass']}/{rec['valuation']}, reference {klass}/{w}"
        return check_surd(rec, u, v, D, branch, p, flavor, H)

    @staticmethod
    def _check_rational(spec, flavor, H, rec):
        p, x = spec
        digits, status, j = ref.rational_expand(x, p, flavor, H)
        if rec["status"] != status:
            return f"rational status {rec['status']}, reference {status}"
        if rec["digits"] != digits:
            return "rational digits differ from the reference"
        if status == "periodic" and rec["pre"] != j:
            return f"preperiod {rec['pre']}, reference {j}"
        if status == "finite" and ref.eval_cf(digits) != x:
            return "finite digits do not evaluate back to the input"
        return None

    @staticmethod
    def _check_regular(u, v, D, branch, p, H, rec):
        va = ref.surd_val(u, v, D, branch, p)
        vc = ref.surd_val(u, -v, D, branch, p)
        if rec["v"] != (va, vc) or rec["regular"] != (va < 0 < vc):
            return f"valuations {rec['v']}, reference {(va, vc)}"
        first = ref.first_regular(u, v, D, branch, p, H)
        if rec["first"] != first:
            return f"first regular index {rec['first']}, reference {first}"
        return None

    @staticmethod
    def tamper(rec):
        if rec["kind"] in ("galois", "regular"):
            bad = dict(rec)
            bad["regular"] = not rec["regular"]
            return bad
        if rec["kind"] == "rational":
            bad = dict(rec)
            bad["digits"] = [rec["digits"][0] + 1] + rec["digits"][1:]
            return bad
        return tamper_stream(rec)


# -- search --------------------------------------------------------------------


class Search(Workload):
    """is_nice over the p = 5, t = 3, both-signs, numerators <= 8,
    exponents <= 2 space (21,952 candidates), in a seeded order."""

    name = "search"
    P, T, NUM_BOUND, EXP_BOUND = 5, 3, 8, 2

    def __init__(self, seed: int):
        super().__init__(seed)
        p = self.P
        # the digit pool of `pcf search --pool all`: exponent, then numerator, then sign
        self.pool = [(s * t, e) for e in range(1, self.EXP_BOUND + 1)
                     for t in range(1, self.NUM_BOUND + 1)
                     if t % p and 2 * t < p ** (e + 1) for s in (1, -1)]
        self.size = len(self.pool) ** self.T
        self.order = sorted(range(self.size), key=self._cost_key)
        # a full-cycle stride near size/golden ratio spreads every prefix of
        # the walk evenly over the order above
        stride = round(self.size * (math.sqrt(5) - 1) / 2)
        while math.gcd(stride, self.size) != 1:
            stride += 1
        self.stride = stride
        self.pos = self.rng.randrange(self.size)

    def unrank(self, index: int) -> tuple:
        n, digits = len(self.pool), []
        for _ in range(self.T):
            index, r = divmod(index, n)
            digits.append(self.pool[r])
        return tuple(reversed(digits))

    def _cost_key(self, index: int):
        """|Atilde_{t-1}|: condition (c) runs discrete logs modulo its
        square, so the cost of a candidate grows with it."""
        cf = self.unrank(index)
        p, At = self.P, [1, cf[0][0]]
        for n in range(1, len(cf)):
            At.append(cf[n][0] * At[-1] + p ** (cf[n][1] + cf[n - 1][1]) * At[-2])
        return abs(At[-1]), index

    def round(self):
        index = self.order[self.pos]
        self.pos = (self.pos + self.stride) % self.size
        cf = self.unrank(index)
        return [("candidate", index, cf, tuple(core.LaurentInt(self.P, t, e) for t, e in cf))]

    def run(self, op):
        return construct.is_nice(op[3])

    def record(self, op, out):
        rec = {"nice": out.nice, "a": out.cond_a, "b": out.cond_b, "c": out.cond_c,
               "q": out.q, "omega0": out.omega0, "A1": out.Atilde_last, "B1": out.Btilde_last}
        rec["digest"] = _digest(*sorted(rec.items()))
        return rec

    def check(self, op, rec):
        return check_certificate(op[2], self.P, rec)

    @staticmethod
    def tamper(rec):
        bad = dict(rec)
        if rec["nice"] and abs(rec["A1"]) > 1:
            bad["omega0"] = rec["omega0"] + 1
        else:
            bad["a"] = not rec["a"]
        return bad


def check_certificate(cf, p: int, rec: dict):
    """Niceness record against reference tilde rows and the coset law."""
    cfp = [(t, e, p) for t, e in cf]
    At, Bt = ref.tilde_rows(cfp)
    t = len(cf)
    A1, B1 = At[t], Bt[t]
    if (rec["A1"], rec["B1"]) != (A1, B1):
        return f"Atilde/Btilde {rec['A1']}/{rec['B1']}, reference {A1}/{B1}"
    a, b = ref.cond_ab(cfp, At)
    if (rec["a"], rec["b"]) != (a, b):
        return f"conditions (a), (b) = {rec['a']}, {rec['b']}, reference {a}, {b}"
    if rec["c"] is None:
        return "condition (c) indeterminate"
    if rec["nice"] != bool(a and b and rec["c"]):
        return "nice flag disagrees with its conditions"
    if rec["nice"]:
        q, M = rec["q"], A1 * A1
        if q % B1 or (B1 * B1) % q or math.gcd(q, M) != 1:
            return f"q = {q} is not admissible for Btilde = {B1}"
        if pow(p, rec["omega0"], M) != q % M:
            return f"p**{rec['omega0']} != q mod Atilde**2"
    return None


# -- construct -----------------------------------------------------------------


class Construct(Workload):
    """is_nice then construct(h=0) on p = 3 seeds: the paper's l = 353
    instance, seeded mirror pairs of two-digit seeds at fixed omega targets,
    and a seeded beta seed."""

    name = "construct"
    P = 3
    # mirror pairs drawn per round near each omega target. A round then has
    # three operations cheaper than the 7000 class (a beta seed and the 2000
    # pair) and three dearer (the 11000 pair and l = 353), so the median and
    # the tail of whole rounds fall inside the 7000 class
    PAIRS = {2000: 1, 7000: 2, 11000: 1}

    def __init__(self, seed: int):
        super().__init__(seed)
        found = pool.scan()
        self.ell353, self.betas, self.near = found["ell353"], found["betas"], found["near"]
        self.bags = {t: [] for t in self.near}

    def _draw(self, target):
        bag = self.bags[target]
        if not bag:
            bag.extend(self.near[target])
            self.rng.shuffle(bag)
        return bag.pop()

    def round(self):
        seeds = [("ell353", self.ell353), ("beta", self.rng.choice(self.betas))]
        for target, count in self.PAIRS.items():
            for _ in range(count):
                seeds.extend((f"omega{target}", entry) for entry in self._draw(target))
        return [(kind, cf, q, omega, tuple(core.LaurentInt(self.P, t, e) for t, e in cf))
                for kind, (cf, q, omega) in seeds]

    def run(self, op):
        cert = construct.is_nice(op[4])
        return cert, construct.construct(cert, h=0)

    def record(self, op, out):
        cert, res = out
        rec = {"nice": cert.nice, "a": cert.cond_a, "b": cert.cond_b, "c": cert.cond_c,
               "q": cert.q, "omega0": cert.omega0, "A1": cert.Atilde_last,
               "B1": cert.Btilde_last, "verified": res.verified, "omega": res.omega,
               "res_q": res.q, "b_int": res.b, "m": res.m,
               "pre": [(a.tilde, a.e) for a in res.preperiod],
               "period": [(a.tilde, a.e) for a in res.period]}
        states = getattr(res.expansion, "states", ())
        rec["peak_bits"], rec["states"] = _state_bits(states), len(states)
        rec["digest"] = _digest(res.omega, res.q, format(res.b, "x"), format(res.m, "x"),
                                rec["period"], res.verified)
        return rec

    def check(self, op, rec):
        cf, q, omega = op[1:4]
        err = check_certificate(cf, self.P, rec)
        if err:
            return err
        if not rec["verified"]:
            return "construction came back with verified=False"
        if (rec["res_q"], rec["omega"]) != (q, omega):
            return f"q, omega = {rec['res_q']}, {rec['omega']}, reference {q}, {omega}"
        A1, B1 = rec["A1"], rec["B1"]
        b, rem = divmod(self.P**omega - q, A1 * A1)
        if rem or rec["b_int"] != b:
            return "b != (p**omega - q) / Atilde**2"
        if rec["m"] != -b * (B1 * B1 // q):
            return "m != -b * Btilde**2 / q"
        a0, mid = cf[0], [tuple(d) for d in cf[1:]]
        a_t = rec["period"][len(mid)] if len(rec["period"]) > len(mid) else None
        want = mid + [a_t] + mid[::-1] + [(2 * a0[0], a0[1])]
        if rec["pre"] != [tuple(a0)] or rec["period"] != want:
            return "period is not [a_1..a_{t-1}, a_t, a_{t-1}..a_1, 2 a_0]"
        return None

    @staticmethod
    def tamper(rec):
        bad = dict(rec)
        bad["b_int"] = rec["b_int"] + 1
        return bad


WORKLOADS = {w.name: w for w in (ExpandDeep, ExpandMany, Search, Construct)}
