"""Command-line front end.

Four subcommands: expand (digit stream of a rational or quadratic
irrational), construct (niceness check plus the period-2t square-root
construction), verify-paper (the named check registry), and search
(enumerate digit lists, stream niceness certificates as JSONL). construct
walks the coset once for all its --h offsets; only search has --jobs.

Every command accepts --out FILE; each run appends self-describing JSON
records, one per line, so an experiment log re-parses without context.
Exit codes: 0 success, 1 parse or value error, 2 expansion left open,
3 niceness violation, 4 construction infeasible at the requested size.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from fractions import Fraction
from itertools import islice
from multiprocessing import Pool

import click

from . import __version__
from .construct import (
    DEFAULT_MAX_DIGITS,
    ConstructionInfeasible,
    _members,
    _verified,
    is_nice,
    nice_search,
    search_space_size,
)
from .core import _check_odd_prime
from .engine import (
    BROWKIN,
    DEFAULT_MAX_STEPS,
    FINITE,
    FLAVORS,
    OPEN,
    PERIODIC,
    expand,
    expand_rational,
    normalize,
    parse_quotient_list,
)
from .refchecks import DEFAULT_CASES, DEFAULT_SEED, check_names, run_checks

MAX_DIGITS_CEILING = 10**6  # one construct at a million digits takes minutes
# expand holds four states, so memory is linear in the step count; states grow
# by ~0.7 bits a step and a step is linear in the state, so time is quadratic.
# Lehmer blocks, a residue mode of the step kernel's loop (engine._chain), cut
# the part that grows with the state about fourfold: 50,000 steps of
# (8+sqrt(89))/5 take ~1.0 s, not ~1.5 s
MAX_STEPS_CEILING = 50_000
# a parallel search hands out blocks of at most this many candidates, so a
# huge space still reports hits, honours --limit and saves its cursor as it goes
SEARCH_BLOCK_CAP = 10_000


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _need_odd_prime(p: int):
    try:
        _check_odd_prime(p)
    except ValueError as exc:
        _fail(str(exc))


def _need_dlog_budget(budget):
    """--dlog-budget must be >= 1 when given, checked before any scan."""
    if budget is not None and budget < 1:
        _fail(f"--dlog-budget must be >= 1, got {budget}")


def _append_record(out_file, command: str, inputs: dict, outputs, elapsed: float):
    if out_file is None:
        return
    record = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timings": {"elapsed": round(elapsed, 6)},
        "version": __version__,
    }
    with open(out_file, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


_DLOG_BUDGET_HELP = ("cap on the baby-step table of a discrete log (about the square root of "
                     "the largest prime factor of the order); moduli below 10**6 are never "
                     "capped, and a blown cap leaves that q undecided, never failed")


def _io_options(fn):
    fn = click.option(
        "--out", "out_file", default=None, metavar="FILE",
        type=click.Path(dir_okay=False, writable=True),
        help="append result records to FILE as JSON lines",
    )(fn)
    fn = click.option(
        "--json", "as_json", is_flag=True,
        help="print machine-readable JSON instead of text",
    )(fn)
    return fn


def _shorten(n: int) -> str:
    """str(n), or past 32 characters its first 12, "...", its last 12 digits
    and its length, read off powers of 10 so that no big number is converted."""
    sign, a = "-" * (n < 0), abs(n)
    if a < 10 ** (32 - len(sign)):
        return str(n)
    d = int(a.bit_length() * math.log10(2)) - 2  # at most a's digit count
    p10 = 10**d
    while p10 <= a:
        d, p10 = d + 1, 10 * p10
    return f"{sign}{a * 10 ** (12 - len(sign)) // p10}...{a % 10**12:012d} ({len(sign) + d} digits)"


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="pcf")
def main():
    """Exact p-adic continued fractions: expand, construct, search, verify."""
    # Constructed values routinely exceed CPython's 4300-digit print guard.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# -- expand --------------------------------------------------------------------


@main.command("expand")
@click.option("--p", "p", type=int, required=True, help="odd prime")
@click.option(
    "--quad", "quad_spec", default=None, metavar="D,B,C,K,BR",
    help="quadratic irrational (B + sqrt(D))/(p**K * C), branch residue BR",
)
@click.option("--rational", "rational_spec", default=None, metavar="N[/D]")
@click.option("--flavor", type=click.Choice(FLAVORS), default=BROWKIN, show_default=True)
@click.option("--max-steps", type=int, default=DEFAULT_MAX_STEPS, show_default=True,
              help=f"report the expansion open after this many digits, 1..{MAX_STEPS_CEILING}")
@_io_options
def cmd_expand(p, quad_spec, rational_spec, flavor, max_steps, as_json, out_file):
    """Expand one value and report its digit stream and periodicity status."""
    start = time.perf_counter()
    _need_odd_prime(p)
    if not 1 <= max_steps <= MAX_STEPS_CEILING:
        _fail(f"--max-steps must lie in 1..{MAX_STEPS_CEILING}, got {max_steps}")
    if (quad_spec is None) == (rational_spec is None):
        _fail("exactly one of --quad or --rational is required")
    try:
        if quad_spec is not None:
            parts = [int(s.strip()) for s in quad_spec.split(",")]
            if len(parts) != 5:
                raise ValueError("--quad needs five integers: Delta,b,c,k,branch")
            if abs(parts[3]) * math.log10(p) > DEFAULT_MAX_DIGITS:
                raise ValueError(
                    f"k={parts[3]}: p**|k| would exceed {DEFAULT_MAX_DIGITS} decimal digits"
                )
            alpha = normalize(p, *parts)
            exp = expand(alpha, flavor, max_steps=max_steps)
            subject = {"quad": alpha.to_json(), "value": str(alpha)}
        else:
            try:
                x = Fraction(rational_spec.replace(" ", ""))
            except ZeroDivisionError:
                raise ValueError(f"--rational {rational_spec}: the denominator is zero") from None
            exp = expand_rational(x, p, flavor, max_steps=max_steps)
            subject = {"rational": str(x)}
    except (ValueError, ZeroDivisionError) as exc:
        _fail(str(exc))
    payload = {
        "p": p,
        "flavor": flavor,
        "subject": subject,
        "expansion": exp.to_json(),
        "text": exp.text(),
    }
    if as_json:
        click.echo(json.dumps(payload, indent=2))
    else:
        label = subject.get("value") or subject.get("rational")
        if exp.status == PERIODIC:
            shape = f"preperiod {len(exp.preperiod)}, period {len(exp.period)}"
        elif exp.status == FINITE:
            shape = f"terminates after {len(exp.preperiod)} digits"
        else:
            shape = f"no repeat within {len(exp.preperiod)} digits"
        click.echo(f"p = {p}  flavor = {flavor}")
        click.echo(f"value  {label}")
        click.echo(f"status {exp.status} ({shape})")
        click.echo(exp.text())
    inputs = {
        "p": p, "quad": quad_spec, "rational": rational_spec,
        "flavor": flavor, "max_steps": max_steps,
    }
    _append_record(out_file, "expand", inputs, payload, time.perf_counter() - start)
    if exp.status == OPEN:
        sys.exit(2)


# -- construct -------------------------------------------------------------------


def _parse_h_spec(spec: str, p: int, max_digits: int) -> dict:
    """Offsets like "0", "1,3" or "0..4" (inclusive), deduplicated in order
    as the keys of a dict whose values are None.

    Every range is bounded before it is expanded: the h-th valid omega is
    at least h, so an offset with h * log10(p) > max_digits is infeasible.
    """
    spans = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        lo, dots, hi = piece.partition("..")
        try:
            spans.append((int(lo), int(hi if dots else lo)))
        except ValueError:
            raise ValueError(f"--h: {piece!r} is not an offset n or a range a..b") from None
    spans = [(lo, hi) for lo, hi in spans if lo <= hi]
    if not spans:
        raise ValueError(f"empty h range {spec!r}")
    if any(lo < 0 for lo, _ in spans):
        raise ValueError("h offsets must be nonnegative")
    # the division keeps a huge h from overflowing a float
    top = max(hi for _, hi in spans)
    if top > max_digits / math.log10(p):
        raise ValueError(
            f"h offset {top} needs p**omega with omega >= {top}, "
            f"more than --max-digits {max_digits} decimal digits")
    return dict.fromkeys(h for lo, hi in spans for h in range(lo, hi + 1))


def _not_nice_message(cert) -> str:
    """The exit-3 text naming the first failed condition and its witness."""
    p, t, cf = cert.p, len(cert.cf), cert.cf
    if cert.failure == "a":
        witness = f"|a_0|_p = {p}^{cf[0].e}, a_0 = {cf[0]}"
    elif cert.failure == "b":
        # Atilde_{t-2} != 0 here: with Atilde_{t-2} = 0, (b) fails only if
        # Atilde_{t-1} = 0 as well, and the determinant identity forbids that
        ratio = Fraction(cert.Atilde_last, cert.Atilde_prev * p ** cert.ks[-1])
        witness = f"|A_{t - 1}/A_{t - 2}| = {abs(ratio)} vs 4/{p}"
    elif cert.failure == "c":
        witness = "no admissible q in the p-coset"
    else:
        witness = "discrete-log budget exceeded before any q decided"
    verb = "indeterminate" if cert.failure == "c-indeterminate" else "violated"
    return f"not nice: condition ({cert.failure[0]}) {verb}: {witness}"


@main.command("construct")
@click.option("--p", "p", type=int, required=True, help="odd prime")
@click.option("--cf", "cf_text", default=None, help='inline digit list, e.g. "6/5" or "1/3, 110/81"')
@click.option(
    "--cf-file", "cf_file", default=None,
    type=click.Path(exists=True, dir_okay=False),
    help="file holding the digit list (commas or newlines)",
)
@click.option("--h", "h_spec", default="0", show_default=True, metavar="SPEC",
              help='exponent offsets: "0", "1,3" or "0..2"')
@click.option("--dlog-budget", type=int, default=None, help=_DLOG_BUDGET_HELP)
@click.option("--max-digits", type=int, default=DEFAULT_MAX_DIGITS, show_default=True,
              help="give up when p**omega would exceed this many decimal digits")
@_io_options
def cmd_construct(p, cf_text, cf_file, h_spec, dlog_budget, max_digits, as_json, out_file):
    """Run the even-period square-root construction seeded by a digit list.

    The list must pass the niceness test; a violation exits with code 3 and
    names the failed condition. Each h offset yields one constructed m whose
    square root expands with the predicted preperiod and period; one walk of
    the coset up to the largest h finds them all.
    """
    start = time.perf_counter()
    _need_odd_prime(p)
    _need_dlog_budget(dlog_budget)
    if not 1 <= max_digits <= MAX_DIGITS_CEILING:  # before --h is read
        _fail(f"--max-digits must lie in 1..{MAX_DIGITS_CEILING}, got {max_digits}")
    if (cf_text is None) == (cf_file is None):
        _fail("exactly one of --cf or --cf-file is required")
    if cf_file is not None:
        with open(cf_file, encoding="utf-8") as fh:
            cf_text = fh.read().replace("\n", ",")
    try:
        cf = parse_quotient_list(cf_text, p)
        rows = _parse_h_spec(h_spec, p, max_digits)  # h -> its result, once built
        cert = is_nice(cf, dlog_budget)
    except ValueError as exc:
        _fail(str(exc))
    if not cert.nice:
        click.echo(_not_nice_message(cert), err=True)
        sys.exit(3)
    note = None
    try:
        for h, member in enumerate(islice(_members(cert, max_digits), max(rows) + 1)):
            if h in rows:
                rows[h] = _verified(cert, member)
    except ConstructionInfeasible as exc:  # every h not yet reached needs this omega
        note = (f"infeasible: needs omega={exc.omega}"
                f" (~{exc.digits_estimate} digits, cap {max_digits})")
    # a record formats every digit of every m, the table a few
    outputs = {
        "certificate": cert.to_json(),
        "results": [r.to_json() for r in rows.values() if r is not None],
        "errors": {str(h): note for h, r in rows.items() if r is None},
    } if as_json or out_file else None
    if as_json:
        click.echo(json.dumps(outputs, indent=2))
    else:
        cf_str = ", ".join(str(a) for a in cf)
        click.echo(f"nice: [{cf_str}]  p={p} t={len(cf)} q={cert.q} omega0={cert.omega0}")
        click.echo(f"{'h':<4} {'omega':<10} {'kt':<10} {'verified':<9} m")
        for h, r in rows.items():
            if r is None:
                click.echo(f"{h:<4} {note}")
            else:
                ok = "yes" if r.verified else "NO"
                click.echo(f"{h:<4} {r.omega:<10} {r.kt:<10} {ok:<9} {_shorten(r.m)}")
    inputs = {
        "p": p, "cf": [str(a) for a in cf], "h": h_spec,
        "dlog_budget": dlog_budget, "max_digits": max_digits,
    }
    _append_record(out_file, "construct", inputs, outputs, time.perf_counter() - start)
    if note:
        sys.exit(4)


# -- verify-paper -----------------------------------------------------------------


@main.command("verify-paper")
@click.option("--only", default=None, metavar="GROUP",
              help="run one check or group prefix, e.g. section6 or beta")
@click.option("--n", "beta_n", type=int, default=3, show_default=True,
              help="largest n for the period-2**n realization suite")
@click.option("--cases", type=int, default=DEFAULT_CASES, show_default=True,
              help="randomized cases per suite")
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--list", "list_only", is_flag=True, help="list check names and exit")
@_io_options
def cmd_verify_paper(only, beta_n, cases, seed, list_only, as_json, out_file):
    """Run the pinned-value and randomized verification suites."""
    start = time.perf_counter()
    if list_only:
        for name in check_names():
            click.echo(name)
        return
    try:
        results = run_checks(only=only, beta_n=beta_n, cases=cases, seed=seed)
    except ValueError as exc:
        _fail(str(exc))
    n_ok = sum(r.ok for r in results)
    outputs = {
        "passed": n_ok,
        "total": len(results),
        "results": [r.to_json() for r in results],
    }
    if as_json:
        click.echo(json.dumps(outputs, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            click.echo(f"{mark}  {r.name:<{width}}  {r.elapsed:7.2f}s  {r.detail}")
        click.echo(f"{n_ok}/{len(results)} checks passed")
    inputs = {"only": only, "n": beta_n, "cases": cases, "seed": seed}
    _append_record(out_file, "verify-paper", inputs, outputs, time.perf_counter() - start)
    if n_ok != len(results):
        sys.exit(1)


# -- search -----------------------------------------------------------------------


def _read_cursor(path: str) -> dict:
    """The cursor a previous run left, {} if there is none. One that is not
    a JSON object with an integer next_index exits 1."""
    try:
        with open(path, encoding="utf-8") as fh:
            cursor = json.load(fh)
    except FileNotFoundError:
        return {}
    except ValueError:  # not JSON, or not UTF-8
        cursor = None
    if not isinstance(cursor, dict) or type(cursor.get("next_index", 0)) is not int:
        _fail(f"{path} is not a search cursor; remove it, then resume")
    return cursor


def _write_cursor(path: str, next_index: int, total: int, exhausted: bool):
    """Replace the cursor atomically: a kill mid-write leaves the old one."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"next_index": next_index, "total": total, "exhausted": exhausted}, fh)
    os.replace(tmp, path)


def _recorded_indices(out_file: str, inputs: dict) -> set:
    """Indices already in out_file from a search over the same space.

    A line that is not JSON (a run killed mid-write) exits 1: appending
    after it would glue the next record onto the fragment.
    """
    space = ("p", "t", "pool", "num_bound", "exp_bound")
    records = []
    try:
        with open(out_file, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    _fail(f"{out_file} line {lineno} is not a JSON record; "
                          "remove it, then resume")
    except FileNotFoundError:
        return set()
    return {rec["outputs"]["index"] for rec in records
            if rec.get("command") == "search"
            and all(rec["inputs"].get(k) == inputs[k] for k in space)}


def _search_worker(args):
    """Pool worker: niceness over one contiguous slice of candidate indices."""
    p, t, pool_kind, num_bound, exp_bound, dlog_budget, lo, hi = args
    hits = nice_search(p, t, pool_kind, num_bound, exp_bound, lo, dlog_budget, hi)
    return [(idx, cert.to_json()) for idx, cert in hits]


def _block_results(workers, space: tuple, start: int, total: int, jobs: int):
    """Yields (hi, hits) for the blocks [lo, hi) of [start, total), in order.

    The blocks split the range 4 * jobs ways, capped at SEARCH_BLOCK_CAP
    candidates each, and are made lazily. Pool.imap drains whatever it is
    given into its task queue, so each call gets at most 4 * jobs blocks.
    """
    block = min(max(1, -(-(total - start) // (jobs * 4))), SEARCH_BLOCK_CAP)
    bounds = ((lo, min(lo + block, total)) for lo in range(start, total, block))
    while window := list(islice(bounds, 4 * jobs)):
        hits = workers.imap(_search_worker, [space + bound for bound in window])
        yield from zip((hi for _, hi in window), hits)


@main.command("search")
@click.option("--p", "p", type=int, required=True, help="odd prime")
@click.option("--t", "t", type=int, required=True, help="digit-list length")
@click.option("--pool", "pool_kind", type=click.Choice(["pos", "all"]),
              default="pos", show_default=True, help="positive numerators only, or both signs")
@click.option("--num-bound", type=int, default=6, show_default=True)
@click.option("--exp-bound", type=int, default=2, show_default=True)
@click.option("--limit", type=int, default=None, help="stop after this many certificates")
@click.option("--dlog-budget", type=int, default=None, help=_DLOG_BUDGET_HELP)
@click.option("--resume", is_flag=True, help="continue from the cursor persisted next to --out")
@click.option("--jobs", type=int, default=1, show_default=True)
@_io_options
def cmd_search(p, t, pool_kind, num_bound, exp_bound, limit, dlog_budget,
               resume, jobs, as_json, out_file):
    """Enumerate bounded digit lists and stream the nice ones as certificates.

    Enumeration order is deterministic, so a run interrupted mid-stream picks
    up where it stopped: the cursor file next to --out is replaced after each
    hit and on an interrupt, and --resume skips hits --out already holds. An
    empty stream is a valid outcome.
    """
    start = time.perf_counter()
    _need_odd_prime(p)
    cap = 4 * (os.cpu_count() or 1)
    if not 1 <= jobs <= cap:  # before any worker starts
        _fail(f"--jobs must lie in 1..{cap}, got {jobs}")
    _need_dlog_budget(dlog_budget)
    try:
        total = search_space_size(p, t, pool_kind, num_bound, exp_bound)
    except ValueError as exc:
        _fail(str(exc))
    if limit is not None and limit < 1:
        _fail(f"--limit must be >= 1, got {limit}")
    cursor_path = f"{out_file}.cursor" if out_file else None
    start_index = 0
    if resume:
        if out_file is None:
            _fail("--resume needs --out")
        cursor = _read_cursor(cursor_path)
        if cursor.get("exhausted"):
            click.echo("search space already exhausted; nothing to resume")
            return
        start_index = cursor.get("next_index", 0)
        if not 0 <= start_index <= total:
            _fail(f"cursor next_index {start_index} lies outside 0..{total}")
    inputs = {
        "p": p, "t": t, "pool": pool_kind, "num_bound": num_bound,
        "exp_bound": exp_bound, "limit": limit, "start_index": start_index,
    }

    recorded = _recorded_indices(out_file, inputs) if resume else set()
    found = 0
    last_scanned = start_index

    def save_cursor():
        if cursor_path:
            _write_cursor(cursor_path, last_scanned, total, False)

    def emit(idx, cert_json) -> bool:
        """Report one hit, skipping one a previous run already recorded, and
        move the cursor past it; True once --limit hits are out."""
        nonlocal found, last_scanned
        if idx not in recorded:
            if as_json:
                click.echo(json.dumps({"index": idx, "certificate": cert_json}))
            else:
                cf_str = ", ".join(cert_json["cf"])
                click.echo(f"#{idx}  [{cf_str}]  q={cert_json['q']}  omega0={cert_json['omega0']}")
            _append_record(out_file, "search", inputs,
                           {"index": idx, "certificate": cert_json},
                           time.perf_counter() - start)
            found += 1
        last_scanned = idx + 1
        save_cursor()
        return limit is not None and found >= limit

    try:
        if jobs > 1:
            space = (p, t, pool_kind, num_bound, exp_bound, dlog_budget)
            with Pool(jobs) as workers:
                for hi, hits in _block_results(workers, space, start_index, total, jobs):
                    if any(emit(idx, cert_json) for idx, cert_json in hits):
                        break
                    last_scanned = hi
                    save_cursor()
        else:
            for idx, cert in nice_search(p, t, pool_kind, num_bound, exp_bound,
                                         start_index, dlog_budget):
                if emit(idx, cert.to_json()):
                    break
    except KeyboardInterrupt:
        save_cursor()
        raise
    exhausted = limit is None or found < limit
    if exhausted:
        last_scanned = total
    if cursor_path:
        _write_cursor(cursor_path, last_scanned, total, exhausted)
    if not as_json:
        scanned = last_scanned - start_index
        click.echo(f"{found} nice / {scanned} scanned (space {total})")


if __name__ == "__main__":
    main()
