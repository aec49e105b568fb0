"""padiccf benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

--trace 0 measures the end-to-end metrics: set-up time of a fresh
``import padiccf.cli``, then whole rounds of the workload until S seconds
have passed (and at least 11 operations ran), then every result is checked
against the independent reference outside the timed region.

--trace 1 runs a fixed number of rounds three times, each in a fresh
interpreter: once plain and twice with spans around the package's public
functions. It requires identical outputs from all three and identical call
counts from the two traced runs, and reports call counts, self time and the
tracing overhead. Spans and details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
MIN_OPS = 11  # the tail needs ten samples beyond it
TAIL_BLOCK = 500  # the tail is taken per block of at least this many operations
# rounds per traced run: enough work to see every layer, few enough that the
# three runs of --trace 1 stay well inside the time limit
TRACE_ROUNDS = {"expand-deep": 1, "expand-many": 150, "search": 600, "construct": 1}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter running `import padiccf.cli`."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import padiccf.cli"], env=_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds() -> dict:
    """Median cumulative import time of sympy and click, from -X importtime."""
    found = {"sympy": [], "click": []}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$")
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import padiccf.cli"],
                              env=_env(), cwd=ROOT, check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            m = pattern.match(line.strip())
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def measure(wl, seconds=None, rounds=None, tracer=None):
    """Run whole rounds, for `seconds` or for a fixed number of `rounds`.

    Right after each operation, outside its timing, the result is recorded
    and checked against the reference; only its digest and a few counts are
    kept, so no backlog of results inflates the peak memory.
    """
    run = {"lat": [], "kinds": [], "units": 0, "sizes": [], "errors": [], "digests": [],
           "samples": {},
           "peak_bits": 0, "states": 0, "nice": 0, "certs": 0, "indeterminate": 0}
    lat = run["lat"]
    start = time.perf_counter()
    while True:
        if rounds is not None and len(run["sizes"]) >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds and len(lat) >= MIN_OPS:
            break
        ops = wl.round()
        run["sizes"].append(len(ops))
        for op in ops:
            if tracer is not None:
                tracer.op = len(lat)
            run["kinds"].append(op[0])
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # a raising operation counts as failed
                lat.append(time.perf_counter() - t0)
                err = f"raised {type(exc).__name__}: {exc}"
                run["errors"].append(f"{op[0]}: {err}")
                run["digests"].append(err)
                continue
            lat.append(time.perf_counter() - t0)
            rec = wl.record(op, out)
            del out
            err = wl.check(op, rec)
            if err is None:
                key = op[0] if rec.get("nice") is None else f"{op[0]}, nice={rec['nice']}"
                run["samples"].setdefault(key, (op, rec))
            else:
                run["errors"].append(f"{op[0]}: {err}")
            run["digests"].append(rec["digest"])
            run["units"] += wl.units(rec)
            run["peak_bits"] = max(run["peak_bits"], rec.get("peak_bits", 0))
            run["states"] = max(run["states"], rec.get("states", 0))
            if "nice" in rec:
                run["certs"] += 1
                run["nice"] += rec["nice"]
                run["indeterminate"] += rec["c"] is None
    return run


def selftest(wl, run) -> list:
    """Each checker must reject a tampered copy of a result it accepted."""
    return [f"checker for {kind} accepted a tampered result"
            for kind, (op, rec) in run["samples"].items()
            if wl.check(op, wl.tamper(rec)) is None]


def tail(lat, sizes):
    """Latency at the highest percentile with ten samples beyond it.

    The run is cut into blocks of whole rounds holding at least TAIL_BLOCK
    operations (a shorter remainder is left out); the value is the median
    over blocks. A run shorter than one block is one block. Returns
    (value, block sizes, percentile within the first block).
    """
    blocks, cur, i = [], [], 0
    for n in sizes:
        cur.extend(lat[i:i + n])
        i += n
        if len(cur) >= TAIL_BLOCK:
            blocks.append(cur)
            cur = []
    blocks = blocks or [lat]
    values = []
    for block in blocks:
        ranked = sorted(block)
        values.append(ranked[max(0, len(ranked) - MIN_OPS)])
    first = len(blocks[0])
    return statistics.median(values), [len(b) for b in blocks], 100.0 * max(1, first - 10) / first


def digest(run) -> str:
    h = hashlib.sha256()
    for d in run["digests"]:
        h.update(d.encode())
    return h.hexdigest()


def load_workload(name, seed):
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)
    import workloads
    return workloads.WORKLOADS[name](seed)


def emit(correct, attempted, failed, metrics, detail, path):
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
        fh.write("\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end(args):
    setup = setup_seconds()
    wl = load_workload(args.workload, args.seed)
    run = measure(wl, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat, errors, failed_selftest = run["lat"], run["errors"], selftest(wl, run)
    tail_s, tail_blocks, tail_pct = tail(lat, run["sizes"])
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (run["units"] / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    by_kind = {}
    for kind, t in zip(run["kinds"], lat):
        by_kind.setdefault(kind, []).append(t)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "kind_median_ms": {k: [len(v), statistics.median(v) * 1e3]
                                 for k, v in by_kind.items()},
              "rounds": len(run["sizes"]), "samples": len(lat), "units": run["units"],
              "tail_percentile": tail_pct, "tail_blocks": tail_blocks,
              "setup_repeats": SETUP_REPEATS,
              "errors": errors[:50], "selftest": failed_selftest, "metrics": metrics}
    print(f"{args.workload} seed {args.seed}: {len(run['sizes'])} rounds, {len(lat)} ops, "
          f"tail at p{tail_pct:.2f} in {len(tail_blocks)} block(s) of "
          f"{min(tail_blocks)}+ ops, {len(errors)} failed")
    for line in errors[:5] + failed_selftest:
        print(f"  {line}", file=sys.stderr)
    emit(not errors and not failed_selftest, len(lat), len(errors), metrics, detail,
         OUT / f"{args.workload}-{args.seed}-e2e.json")


def child(args):
    """One pass of TRACE_ROUNDS rounds, plain or traced; prints a JSON line."""
    wl = load_workload(args.workload, args.seed)
    tracer = None
    if args.child == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    run = measure(wl, rounds=TRACE_ROUNDS[args.workload], tracer=tracer)
    if tracer is not None:
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps({
        "busy_s": sum(run["lat"]), "attempted": len(run["lat"]), "failed": len(run["errors"]),
        "errors": run["errors"][:20], "selftest": selftest(wl, run), "digest": digest(run),
        "calls": dict(tracer.calls) if tracer else {},
        "self_s": dict(tracer.self_s) if tracer else {},
        "missing": tracer.missing if tracer else [],
        "dropped": tracer.dropped if tracer else 0,
        **{k: run[k] for k in ("peak_bits", "states", "nice", "certs", "indeterminate")},
    }))


def per_layer(args):
    import tracing
    imports = import_seconds()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-{args.seed}-spans.json"
    passes = []
    for mode, extra in (("plain", []), ("traced", ["--spans", str(spans)]), ("traced", [])):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--child", mode, *extra],
            cwd=ROOT, check=True, capture_output=True, text=True)
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    plain, traced, again = passes
    problems = [e for p in passes for e in p["errors"] + p["selftest"]]
    if len({p["digest"] for p in passes}) != 1:
        problems.append("traced and untraced runs produced different outputs")
    if traced["calls"] != again["calls"]:
        problems.append("call counts differ between two traced runs")
    calls, self_s = traced["calls"], traced["self_s"]
    metrics = {}
    for mod, fn in tracing.FUNCTIONS:
        label = f"{mod}.{fn}"
        metrics[f"{label}.calls"] = (calls.get(label, 0), "count")
        metrics[f"{label}.self_s"] = (self_s.get(label, 0.0), "s")
    nice_calls = calls.get("construct.is_nice", 0)
    metrics.update({
        "engine.step.peak_state_bits": (traced["peak_bits"], "bits"),
        "engine.expand.states_stored": (traced["states"], "count"),
        "construct.is_nice.dlog_per_call": (
            calls.get("core.discrete_log", 0) / nice_calls if nice_calls else 0.0, "ratio"),
        "construct.is_nice.nice_ratio": (
            traced["nice"] / traced["certs"] if traced["certs"] else 0.0, "ratio"),
        "construct.is_nice.indeterminate": (traced["indeterminate"], "count"),
        "setup.sympy_import_s": (imports["sympy"], "s"),
        "setup.click_import_s": (imports["click"], "s"),
        "trace.overhead_s": (traced["busy_s"] - plain["busy_s"], "s"),
        "trace.missing": (len(traced["missing"]), "count"),
    })
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {"workload": args.workload, "seed": args.seed,
              "rounds": TRACE_ROUNDS[args.workload], "passes": passes,
              "missing": traced["missing"], "problems": problems, "spans": spans.name}
    print(f"{args.workload} seed {args.seed} traced: {plain['attempted']} ops, "
          f"busy {plain['busy_s']:.3f} s plain, {traced['busy_s']:.3f} s traced")
    for line in problems[:10]:
        print(f"  {line}", file=sys.stderr)
    if traced["missing"]:
        print(f"  not found, not traced: {', '.join(traced['missing'])}", file=sys.stderr)
    emit(not problems, plain["attempted"], plain["failed"], metrics, detail,
         OUT / f"{args.workload}-{args.seed}-trace.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--spans", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "padiccf" / "__init__.py").is_file():
        print(f"error: no padiccf package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        child(args)
    elif args.trace:
        per_layer(args)
    else:
        end_to_end(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
