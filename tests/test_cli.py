"""End-to-end tests for the `pcf` command line.

Each command is driven through click's CliRunner; the long-form text
outputs are compared against golden files under tests/golden/, and the
JSONL record log is parsed back to check its shape.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import padiccf
from padiccf import __version__, cli
from padiccf.cli import main

construct_module = importlib.import_module("padiccf.construct")

GOLDEN = Path(__file__).parent / "golden"

RECORD_KEYS = {"command", "inputs", "outputs", "timings", "version"}


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), catch_exceptions=False, **kwargs)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def read_records(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- expand ------------------------------------------------------------------


def test_expand_periodic_matches_golden():
    res = run("expand", "--p", "5", "--quad", "19,-13,6,1,2")
    assert res.exit_code == 0
    assert res.stdout == golden("expand_quad19.txt")


def test_expand_open_exits_2():
    res = run("expand", "--p", "5", "--quad", "89,8,1,1,3", "--max-steps", "14")
    assert res.exit_code == 2
    assert res.stdout == golden("expand_sqrt89_open.txt")


def test_expand_ruban_rational_matches_golden():
    res = run("expand", "--p", "5", "--rational", "-1", "--flavor", "ruban")
    assert res.exit_code == 0
    assert res.stdout == golden("expand_ruban_minus_one.txt")


def test_expand_rationals_match_golden():
    # a centered expansion in text and JSON, and a Ruban cycle in JSON
    cases = [
        (("--p", "5", "--rational", "1234567/89"), "expand_rational_1234567_89.txt"),
        (("--p", "5", "--rational", "1234567/89", "--json"), "expand_rational_1234567_89.json"),
        (("--p", "7", "--rational", "-1234/45", "--flavor", "ruban", "--json"),
         "expand_ruban_rational_periodic.json"),
    ]
    for args, name in cases:
        res = run("expand", *args)
        assert res.exit_code == 0
        assert res.stdout == golden(name), name


def test_expand_rational_on_a_short_budget_reports_open():
    # the expansion needs 12 digits; cut at 2 it is open, not an error
    res = run("expand", "--p", "5", "--rational", "1234567/89", "--max-steps", "2")
    assert res.exit_code == 2
    assert res.stdout.splitlines() == [
        "p = 5  flavor = browkin",
        "value  1234567/89",
        "status open (no repeat within 2 digits)",
        "[-2, 11/5, ...]",
    ]


def test_expand_finite_rational_json():
    res = run("expand", "--p", "3", "--rational", "10/3", "--json")
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["p"] == 3
    assert payload["flavor"] == "browkin"
    assert payload["subject"] == {"rational": "10/3"}
    assert payload["text"] == "[1/3, 1/3]"
    assert payload["expansion"]["status"] == "finite"


def test_expand_needs_exactly_one_subject():
    neither = run("expand", "--p", "5")
    both = run("expand", "--p", "5", "--quad", "19,-13,6,1,2", "--rational", "1")
    for res in (neither, both):
        assert res.exit_code == 1
        assert "exactly one of --quad or --rational" in res.stderr


def test_expand_rejects_bad_prime():
    res = run("expand", "--p", "4", "--rational", "1/2")
    assert res.exit_code == 1
    assert res.stderr.startswith("error:")
    assert "odd prime" in res.stderr


def test_expand_rejects_malformed_quad():
    short = run("expand", "--p", "5", "--quad", "19,-13,6,1")
    assert short.exit_code == 1
    assert "five integers" in short.stderr
    # 7 is not a square mod 5, so normalize refuses the state outright.
    nonresidue = run("expand", "--p", "5", "--quad", "7,0,1,0,1")
    assert nonresidue.exit_code == 1
    assert nonresidue.stderr.startswith("error:")


def test_expand_rejects_a_zero_denominator():
    for spec in ("1/0", "0/0", "-3 / 0"):
        res = run("expand", "--p", "5", "--rational", spec)
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr == f"error: --rational {spec}: the denominator is zero\n"


def test_expand_rejects_max_steps_outside_its_bounds(monkeypatch):
    # checked before any state is built or stepped
    def refuse(*args, **kwargs):
        raise AssertionError("a value was normalized or expanded")

    for name in ("normalize", "expand", "expand_rational"):
        monkeypatch.setattr(cli, name, refuse)
    ceiling = cli.MAX_STEPS_CEILING
    for steps in ("0", "-3", str(ceiling + 1), "10000000000000"):
        for subject in (("--quad", "89,8,1,1,3"), ("--rational", "1/3")):
            res = run("expand", "--p", "5", *subject, "--max-steps", steps)
            assert res.exit_code == 1
            assert res.stdout == ""
            assert f"--max-steps must lie in 1..{ceiling}, got {steps}" in res.stderr
    monkeypatch.undo()
    top = run("expand", "--p", "3", "--rational", "10/3", "--max-steps", str(ceiling))
    assert top.exit_code == 0
    assert top.stdout.splitlines()[-1] == "[1/3, 1/3]"


def test_expand_rejects_huge_k():
    # 5**286136 has 200,001 decimal digits, one past the digit cap; 286135
    # would still be admitted.
    res = run("expand", "--p", "5", "--quad", "19,-13,6,286136,2")
    assert res.exit_code == 1
    assert "exceed 200000 decimal digits" in res.stderr


def test_expand_appends_result_record(tmp_path):
    out = tmp_path / "log.jsonl"
    res = run("expand", "--p", "5", "--quad", "19,-13,6,1,2", "--out", str(out))
    assert res.exit_code == 0
    records = read_records(out)
    assert len(records) == 1
    rec = records[0]
    assert set(rec) == RECORD_KEYS
    assert rec["command"] == "expand"
    assert rec["version"] == __version__
    assert rec["inputs"]["quad"] == "19,-13,6,1,2"
    assert rec["outputs"]["expansion"]["status"] == "periodic"
    assert rec["timings"]["elapsed"] >= 0
    # A second run appends rather than truncates.
    run("expand", "--p", "3", "--rational", "10/3", "--out", str(out))
    assert len(read_records(out)) == 2


# -- construct ----------------------------------------------------------------


def test_construct_table_matches_golden():
    res = run("construct", "--p", "5", "--cf", "6/5", "--h", "0..2")
    assert res.exit_code == 0
    assert res.stdout == golden("construct_6_5.txt")


def test_construct_json_pins():
    res = run("construct", "--p", "5", "--cf", "6/5", "--h", "0..2", "--json")
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["certificate"]["q"] == 1
    assert out["errors"] == {}
    assert [r["m"] for r in out["results"]] == [-434, -6781684, -105963812934]
    assert all(r["verified"] for r in out["results"])
    assert [r["kt"] for r in out["results"]] == [5, 11, 17]


def test_construct_niceness_violation_exits_3():
    # the full stderr line for each condition, (b) at t = 2 and at t = 1
    cases = (
        (("--p", "5", "--cf", "7/5, 1/5"),
         "condition (a) violated: |a_0|_p = 5^1, a_0 = 7/5"),
        (("--p", "5", "--cf", "3/5, -6/5"),
         "condition (b) violated: |A_1/A_0| = 7/15 vs 4/5"),
        (("--p", "3", "--cf", "1/3"),
         "condition (b) violated: |A_0/A_-1| = 1/3 vs 4/3"),
        (("--p", "5", "--cf", "1/5, -4/5"),
         "condition (c) violated: no admissible q in the p-coset"),
        (("--p", "3", "--cf", "1/3, 2000/2187", "--dlog-budget", "1"),
         "condition (c) indeterminate: discrete-log budget exceeded before any q decided"),
        # a leading 0 puts p into Atilde_7, so (c) takes no log to base p
        (("--p", "3", "--cf", "0, -7/9, -10/9, 10/9, -14/27, -38/27, -4/3, 10/9"),
         "condition (a) violated: |a_0|_p = 3^0, a_0 = 0"),
    )
    for args, message in cases:
        res = run("construct", *args)
        assert res.exit_code == 3, args
        assert res.stderr == f"not nice: {message}\n"


def test_construct_infeasible_exits_4(tmp_path):
    out = tmp_path / "log.jsonl"
    res = run("construct", "--p", "5", "--cf", "6/5", "--max-digits", "3",
              "--out", str(out))
    assert res.exit_code == 4
    assert "omega=6" in res.stdout
    rec = read_records(out)[0]
    assert rec["outputs"]["results"] == []
    assert set(rec["outputs"]["errors"]) == {"0"}


def test_construct_reads_cf_file(tmp_path):
    cf_file = tmp_path / "seed.txt"
    cf_file.write_text("1/3\n1/3\n", encoding="utf-8")
    res = run("construct", "--p", "3", "--cf-file", str(cf_file), "--json")
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert [r["m"] for r in out["results"]] == [-34867844]


def test_construct_parallel_matches_serial():
    serial = run("construct", "--p", "5", "--cf", "6/5", "--h", "0..2", "--json")
    parallel = run("construct", "--p", "5", "--cf", "6/5", "--h", "0..2",
                   "--json", "--jobs", "3")
    assert parallel.exit_code == 0
    assert parallel.stdout == serial.stdout


def test_construct_rejects_bad_h_spec():
    negative = run("construct", "--p", "5", "--cf", "6/5", "--h", "-1")
    assert negative.exit_code == 1
    assert "nonnegative" in negative.stderr
    empty = run("construct", "--p", "5", "--cf", "6/5", "--h", " ")
    assert empty.exit_code == 1
    assert "empty h range" in empty.stderr


def test_construct_rejects_h_beyond_max_digits(monkeypatch):
    # the h-th valid omega is at least h, so the spec is refused from its
    # endpoints; a range over more than a few offsets is never built
    def small_range(lo, hi):
        assert hi - lo <= 10, f"expanded range({lo}, {hi})"
        return range(lo, hi)

    monkeypatch.setattr(cli, "range", small_range, raising=False)
    huge = run("construct", "--p", "5", "--cf", "6/5", "--h", "0..1000000000000")
    assert huge.exit_code == 1
    assert huge.stdout == ""
    assert "h offset 1000000000000 needs p**omega" in huge.stderr
    assert "--max-digits 200000" in huge.stderr
    # past the float range, still refused cleanly
    vast = run("construct", "--p", "5", "--cf", "6/5", "--h", "1" + "0" * 400)
    assert vast.exit_code == 1
    assert "needs p**omega" in vast.stderr
    # 4 * log10(5) < 3 < 5 * log10(5): h = 4 reaches construct, h = 5 does not
    edge = run("construct", "--p", "5", "--cf", "6/5", "--max-digits", "3", "--h", "4")
    assert edge.exit_code == 4
    over = run("construct", "--p", "5", "--cf", "6/5", "--max-digits", "3", "--h", "2,5")
    assert over.exit_code == 1
    assert "h offset 5 needs p**omega" in over.stderr


def test_construct_rejects_max_digits_beyond_its_ceiling(monkeypatch):
    # checked before the --h spec is read, so not even its endpoints are used
    def no_h_spec(*args):
        raise AssertionError("the --h spec was parsed")

    def no_range(*args):
        raise AssertionError("a range was built")

    monkeypatch.setattr(cli, "_parse_h_spec", no_h_spec)
    monkeypatch.setattr(cli, "range", no_range, raising=False)
    ceiling = cli.MAX_DIGITS_CEILING
    for digits in ("10000000000000", str(ceiling + 1), "0", "-5"):
        res = run("construct", "--p", "5", "--cf", "6/5", "--max-digits", digits,
                  "--h", "0..1000000000000")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert f"--max-digits must lie in 1..{ceiling}, got {digits}" in res.stderr
    monkeypatch.undo()
    top = run("construct", "--p", "5", "--cf", "6/5", "--max-digits", str(ceiling), "--json")
    assert top.exit_code == 0
    assert [r["m"] for r in json.loads(top.stdout)["results"]] == [-434]


def test_construct_needs_exactly_one_source(tmp_path):
    cf_file = tmp_path / "seed.txt"
    cf_file.write_text("6/5", encoding="utf-8")
    neither = run("construct", "--p", "5")
    both = run("construct", "--p", "5", "--cf", "6/5", "--cf-file", str(cf_file))
    for res in (neither, both):
        assert res.exit_code == 1
        assert "exactly one of --cf or --cf-file" in res.stderr


# -- verify-paper ---------------------------------------------------------------


def test_verify_paper_section6_passes():
    res = run("verify-paper", "--only", "section6")
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[-1] == "3/3 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_paper_lists_names():
    res = run("verify-paper", "--list")
    assert res.exit_code == 0
    names = res.stdout.split()
    assert "section6.variant1" in names
    assert "dlog.trio" in names
    assert "palindrome.identities" in names
    assert len(names) == len(set(names)) == 28


def test_verify_paper_unknown_group_exits_1():
    res = run("verify-paper", "--only", "nosuchgroup")
    assert res.exit_code == 1
    assert "no checks match" in res.stderr


def test_verify_paper_rejects_no_cases():
    # a suite of no cases checks nothing, so it must not read PASS
    for cases in ("-3", "0"):
        res = run("verify-paper", "--only", "rational", "--cases", cases)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert f"need --cases >= 1 and --n >= 1, got {cases} and 3" in res.stderr


def test_verify_paper_rejects_no_periods():
    # --n 0 asks for no period 2**n, so nothing would be realized
    res = run("verify-paper", "--only", "beta.period2n", "--n", "0")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert "need --cases >= 1 and --n >= 1, got 150 and 0" in res.stderr


def test_verify_paper_json_record(tmp_path):
    out = tmp_path / "log.jsonl"
    res = run("verify-paper", "--only", "dlog", "--json", "--out", str(out))
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] == payload["total"] >= 1
    rec = read_records(out)[0]
    assert rec["command"] == "verify-paper"
    assert rec["inputs"]["only"] == "dlog"


def test_verify_paper_check_fails_under_python_O():
    # python -O strips assert statements; a sabotaged pin must still fail.
    code = (
        "import sys\n"
        "import padiccf.refchecks as rc\n"
        "rc._PERIOD12 = tuple(reversed(rc._PERIOD12))\n"
        "(res,) = rc.run_checks(only='expand.quad19.period12')\n"
        "print(sys.flags.optimize, 'PASS' if res.ok else 'FAIL')\n"
    )
    src = str(Path(padiccf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.split() == ["1", "FAIL"]


def test_verify_paper_reports_honest_failure():
    # The period-16 realization needs a 3.2-billion-digit power of 5; the
    # check must say so and fail rather than silently shrink the target.
    res = run("verify-paper", "--only", "beta.period2n", "--n", "4")
    assert res.exit_code == 1
    assert "FAIL" in res.stdout
    assert "infeasible" in res.stdout


# -- search ---------------------------------------------------------------------


def test_search_finds_pinned_seed():
    res = run("search", "--p", "5", "--t", "1", "--num-bound", "10")
    assert res.exit_code == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "#4  [6/5]  q=1  omega0=0"
    assert lines[-1] == "1 nice / 16 scanned (space 16)"


def test_search_empty_stream_is_ok():
    res = run("search", "--p", "3", "--t", "1")
    assert res.exit_code == 0
    assert res.stdout.strip() == "0 nice / 7 scanned (space 7)"


def test_search_limit_then_resume_covers_space(tmp_path):
    out = tmp_path / "hits.jsonl"
    cursor = tmp_path / "hits.jsonl.cursor"

    first = run("search", "--p", "5", "--t", "2", "--limit", "1", "--out", str(out))
    assert first.exit_code == 0
    state = json.loads(cursor.read_text(encoding="utf-8"))
    assert state == {"next_index": 1, "total": 100, "exhausted": False}

    rest = run("search", "--p", "5", "--t", "2", "--resume", "--out", str(out))
    assert rest.exit_code == 0
    state = json.loads(cursor.read_text(encoding="utf-8"))
    assert state == {"next_index": 100, "total": 100, "exhausted": True}

    records = read_records(out)
    indexes = [rec["outputs"]["index"] for rec in records]
    assert indexes == sorted(set(indexes))
    assert len(records) == 87
    assert all(rec["command"] == "search" for rec in records)
    assert records[1]["inputs"]["start_index"] == 1

    again = run("search", "--p", "5", "--t", "2", "--resume", "--out", str(out))
    assert again.exit_code == 0
    assert "already exhausted" in again.stdout
    assert len(read_records(out)) == 87


def test_search_resume_rejects_corrupt_cursor(tmp_path):
    out = tmp_path / "hits.jsonl"
    cursor = tmp_path / "hits.jsonl.cursor"
    cursor.write_text('{"next_index": -3, "total": 16, "exhausted": false}',
                      encoding="utf-8")
    res = run("search", "--p", "5", "--t", "1", "--num-bound", "10",
              "--resume", "--out", str(out))
    assert res.exit_code == 1
    assert "lies outside 0..16" in res.stderr
    assert not out.exists()


def test_search_resume_requires_out():
    res = run("search", "--p", "5", "--t", "1", "--resume")
    assert res.exit_code == 1
    assert "--resume needs --out" in res.stderr


def _interrupt_after(hits: int, real_search):
    """A nice_search stand-in raising KeyboardInterrupt after `hits` hits."""

    def search(*args, **kwargs):
        gen = real_search(*args, **kwargs)
        for _ in range(hits):
            yield next(gen)
        raise KeyboardInterrupt

    return search


def test_interrupted_search_resumes_without_duplicates(tmp_path, monkeypatch):
    out = tmp_path / "hits.jsonl"
    cursor = tmp_path / "hits.jsonl.cursor"
    full = [json.loads(line)["index"]
            for line in run("search", "--p", "5", "--t", "2", "--json").stdout.splitlines()]

    monkeypatch.setattr(cli, "nice_search", _interrupt_after(2, cli.nice_search))
    cut = run("search", "--p", "5", "--t", "2", "--out", str(out))
    monkeypatch.undo()
    assert cut.exit_code == 1  # click reports the interrupt as Aborted!
    indexes = [rec["outputs"]["index"] for rec in read_records(out)]
    assert indexes == full[:2]
    state = json.loads(cursor.read_text(encoding="utf-8"))
    assert state == {"next_index": indexes[-1] + 1, "total": 100, "exhausted": False}
    assert not (tmp_path / "hits.jsonl.cursor.tmp").exists()

    # a kill between appending a record and moving the cursor leaves a stale
    # cursor: resuming from it must not append that record again
    cursor.write_text(json.dumps({**state, "next_index": indexes[0]}), encoding="utf-8")
    rest = run("search", "--p", "5", "--t", "2", "--resume", "--out", str(out))
    assert rest.exit_code == 0
    assert [rec["outputs"]["index"] for rec in read_records(out)] == full
    assert json.loads(cursor.read_text(encoding="utf-8"))["exhausted"] is True


def test_resume_after_a_truncated_record_exits_1(tmp_path):
    out = tmp_path / "hits.jsonl"
    cut = run("search", "--p", "5", "--t", "2", "--limit", "2", "--out", str(out))
    assert cut.exit_code == 0
    whole = out.read_text(encoding="utf-8")
    torn = whole + whole.splitlines()[-1][:40]  # a kill mid-write, no newline
    out.write_text(torn, encoding="utf-8")
    res = run("search", "--p", "5", "--t", "2", "--resume", "--out", str(out))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "line 3 is not a JSON record" in res.stderr
    assert out.read_text(encoding="utf-8") == torn


def test_search_parallel_matches_serial():
    serial = run("search", "--p", "5", "--t", "2", "--json")
    parallel = run("search", "--p", "5", "--t", "2", "--json", "--jobs", "3")
    assert parallel.exit_code == 0
    assert parallel.stdout == serial.stdout


def test_parallel_search_hands_out_bounded_blocks(tmp_path, monkeypatch):
    # 28**12 candidates: the blocks stay under the cap, each imap call gets
    # at most 4 * jobs of them, and --limit 1 stops after the block that
    # holds the first hit, with the cursor just past it
    windows, blocks = [], []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, iterable):
            tasks = list(iterable)
            windows.append(len(tasks))
            return map(fn, tasks)

    def worker(args):
        lo, hi = args[-2:]
        blocks.append((lo, hi))
        return [(lo + 7, {"cf": [], "q": 1, "omega0": 0})] if len(blocks) == 11 else []

    monkeypatch.setattr(cli, "Pool", FakePool)
    monkeypatch.setattr(cli, "_search_worker", worker)
    out = tmp_path / "hits.jsonl"
    res = run("search", "--p", "5", "--t", "12", "--pool", "all", "--jobs", "2",
              "--limit", "1", "--json", "--out", str(out))
    assert res.exit_code == 0
    assert max(hi - lo for lo, hi in blocks) <= 10_000
    assert cli.SEARCH_BLOCK_CAP == 10_000
    assert windows == [8, 8]
    assert len(blocks) == 11
    assert blocks[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    hit = blocks[-1][0] + 7
    assert [json.loads(line)["index"] for line in res.stdout.splitlines()] == [hit]
    cursor = json.loads((tmp_path / "hits.jsonl.cursor").read_text(encoding="utf-8"))
    assert cursor["next_index"] == hit + 1 and not cursor["exhausted"]


def test_search_rejects_huge_spaces_before_building_the_pool(monkeypatch):
    # the pool and the space are counted arithmetically, so neither the
    # pool nor len(pool) ** t is ever built for a refused spec
    def refuse(*args, **kwargs):
        raise AssertionError("the digit pool was built or scanned")

    monkeypatch.setattr(construct_module, "_digit_pool", refuse)
    monkeypatch.setattr(cli, "nice_search", refuse)
    cases = (
        (("--t", "1000000000"), "t must lie in 1..60, got 1000000000"),
        (("--t", "0"), "t must lie in 1..60, got 0"),
        (("--t", "1", "--num-bound", "1000000000000", "--exp-bound", "30"),
         "digit pool would hold"),
        (("--t", "1", "--exp-bound", "1000000000000"), "digit pool would hold"),
        (("--t", "16", "--pool", "all", "--num-bound", "8"),
         "search space would hold 28**16 candidates, more than 1000000000000000000"),
    )
    for args, message in cases:
        res = run("search", "--p", "5", *args)
        assert res.exit_code == 1, args
        assert res.stdout == ""
        assert message in res.stderr


def test_search_json_lines_parse():
    res = run("search", "--p", "5", "--t", "1", "--num-bound", "10", "--json")
    hits = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(hits) == 1
    assert hits[0]["index"] == 4
    assert hits[0]["certificate"]["cf"] == ["6/5"]
    assert hits[0]["certificate"]["nice"] is True


# -- group-level plumbing ----------------------------------------------------------


def test_jobs_out_of_range_exits_1_before_any_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "Pool", no_pool)
    cap = 4 * (os.cpu_count() or 1)
    for jobs in ("0", "-1", str(cap + 1)):
        for cmd in (("construct", "--p", "5", "--cf", "6/5"),
                    ("search", "--p", "5", "--t", "1")):
            res = run(*cmd, "--jobs", jobs)
            assert res.exit_code == 1
            assert f"--jobs must lie in 1..{cap}" in res.stderr


def test_search_limit_below_one_exits_1_before_scanning(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search space was scanned")

    monkeypatch.setattr(cli, "nice_search", no_search)
    for limit in ("0", "-3"):
        res = run("search", "--p", "5", "--t", "2", "--limit", limit)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert f"--limit must be >= 1, got {limit}" in res.stderr


def test_dlog_budget_below_one_exits_1_before_any_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate was computed")

    monkeypatch.setattr(cli, "is_nice", refuse)
    monkeypatch.setattr(cli, "nice_search", refuse)
    for budget in ("0", "-3"):
        for cmd in (("construct", "--p", "5", "--cf", "6/5"),
                    ("search", "--p", "5", "--t", "1", "--num-bound", "10")):
            res = run(*cmd, "--dlog-budget", budget)
            assert res.exit_code == 1, cmd
            assert res.stdout == ""
            assert f"--dlog-budget must be >= 1, got {budget}" in res.stderr


def test_cli_never_imports_sympy():
    code = "import sys, padiccf.cli; print('sympy' in sys.modules)"
    src = str(Path(padiccf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.stdout.split() == ["False"]


def test_version_flag():
    res = run("--version")
    assert res.exit_code == 0
    assert __version__ in res.stdout


def test_help_lists_subcommands():
    res = run("--help")
    assert res.exit_code == 0
    for name in ("expand", "construct", "verify-paper", "search"):
        assert name in res.stdout
