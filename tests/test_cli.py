import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from srgcert import SrgParams, cli, decide
from srgcert.cli import main
from srgcert.serialize import certificate_json, certificate_to_text
from test_serialize import _dict_certificate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_check_exit_codes(capsys):
    assert main(["check", "460", "153", "32", "60"]) == 10
    assert main(["check", "16", "6", "2", "2"]) == 0
    assert main(["check", "10", "3", "1", "1"]) == 11
    assert main(["check", "5", "2", "0", "1"]) == 12
    assert main(["check", "10", "12", "1", "1"]) == 2
    capsys.readouterr()


def test_check_rejects_malformed_integers():
    with pytest.raises(SystemExit) as exc:
        main(["check", "460", "153", "32", "sixty"])
    assert exc.value.code == 2


def test_check_rejects_bad_degree(capsys):
    """The 4-clique bound's Gegenbauer degree is fixed at 4, and check has no
    option for it: --max-gegenbauer-degree is unrecognized at any value."""
    for degree in ("3", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "460", "153", "32", "60", "--max-gegenbauer-degree", degree])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-gegenbauer-degree" in capsys.readouterr().err


def test_check_transcript_contents(capsys):
    main(["check", "460", "153", "32", "60"])
    out = capsys.readouterr().out
    assert "K4 >= 228111" in out
    assert "39 <= m <= 39" in out
    assert "verdict: Nonexistent" in out


def test_check_json_round_trips(capsys):
    code = main(["check", "460", "153", "32", "60", "--json"])
    assert code == 10
    cert = decide(SrgParams(460, 153, 32, 60))
    out = capsys.readouterr().out
    assert out == certificate_json(cert) + "\n"
    assert json.loads(out) == _dict_certificate(cert)


# SHA-256 of `srgcert check --json` stdout, frozen: refactors must keep the
# certificate bytes, which a value comparison alone does not pin
GOLDEN_CERTIFICATE_SHA256 = {
    (460, 153, 32, 60): "2f6aaf863d9146daf0f6cb5cf8f9e65a367f4d196a7692add6236202a25d670a",
    (6205, 858, 47, 130): "ba90a0702acd1840b356afb7bc5f54ea2b43f710659d73ae4a8365344cf80ba0",
    (2950, 891, 204, 297): "d3dd0b2add20e62e4661a6897a1882fb2c5970ce45d47da8cd1a8795e8824194",
    (5929, 1482, 275, 402): "11c424caf9d46d1d1fbe0b78f5c15d89eebb209a0c13cc0119bad09d38659d1b",
    (16, 6, 2, 2): "1b367c013e2b4a6f10ba3b8a86df192d90d0662101182a79cfd96ae62a83df41",
    (10, 3, 1, 1): "4114b6369e052f90b6bc770c9f239c938fc8efa55589d61f62fbbbf53b3669a8",
    (5, 2, 0, 1): "986ca97c86726c15d61923d56abd7f03a391bfdd13120323d9520bd791615b7e",
    (6, 4, 2, 4): "88309da1cc11b887f6cfd2d9ca3b9e6053947c8bc5edecdde9e0a23b924696a5",
}


def test_check_json_golden_bytes(capsys):
    for tup, digest in GOLDEN_CERTIFICATE_SHA256.items():
        main(["check", *map(str, tup), "--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, tup


# SHA-256 of `srgcert check` stdout, the text transcript, frozen as for
# GOLDEN_CERTIFICATE_SHA256, over the same tuples
GOLDEN_TRANSCRIPT_SHA256 = {
    (460, 153, 32, 60): "86bd647fd75c185fb761ce1ba7e531005b02860cc7aa4ed42ebf1c794a41848f",
    (6205, 858, 47, 130): "6e63f6474f1b7a1da9c68d678e54d3cf85aa27847f6540bf56a0766ad3f2666b",
    (2950, 891, 204, 297): "77ce2d4d2a176ec173669f954a306658a65c5a252ded87b08d6853b8c90ac291",
    (5929, 1482, 275, 402): "55cdd514950b07aff5733f90cc008ae17e81dd0cce17edf08eb3b28e2229357d",
    (16, 6, 2, 2): "da5664fee7325b9fbb05e46d1f457429e83ee34d95b8825e9d5f68b65a621e45",
    (10, 3, 1, 1): "c0e29bee84964bf683f6f489a3d524c619a959bb59c04f2d42524eae08368664",
    (5, 2, 0, 1): "69d8ba0b4a21a3e312e5a62bef610579da4f3cd036e9ab1524266bd0f4a9aca0",
    (6, 4, 2, 4): "6a767e19e4aebfda7b74a0a1976da0845501baebff886e5efc0d09e6ca10867b",
}


def test_check_transcript_golden_bytes(capsys):
    for tup, digest in GOLDEN_TRANSCRIPT_SHA256.items():
        main(["check", *map(str, tup)])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, tup


def test_check_no_clique_bound(capsys):
    """The triangular graph T(7) has 105 4-cliques, but the 4-clique bound
    of its parameters is 0, so the m window starts at 0 and stays open."""
    assert main(["check", "21", "10", "5", "4"]) == 0
    out = capsys.readouterr().out
    assert "4-cliques: K4 >= 0 (" in out
    assert "0 <= m <= 7" in out
    assert "note:" not in out
    assert "verdict: Inconclusive" in out


SCAN_CSV = """\
v,k,lambda,mu
# a comment line
460,153,32,60
16,6,2,2
10,3,1,1
not,a,row
5,2,0,1
2950,891,204,297
"""


def test_scan_json_lines(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 6  # input order preserved, error rows included
    first = json.loads(lines[0])
    assert first["verdict"] == "Nonexistent"
    assert first["params"] == {"v": 460, "k": 153, "lambda": 32, "mu": 60}
    assert json.loads(lines[1])["verdict"] == "Inconclusive"
    assert json.loads(lines[2])["verdict"] == "InfeasibleClassical"
    assert "error" in json.loads(lines[3])
    assert json.loads(lines[4])["verdict"] == "NotApplicable"
    boundary = json.loads(lines[5])
    assert boundary["krein_q22_zero"] is True
    assert boundary["verdict"] == "Nonexistent"
    assert "scanned 6 rows" in captured.err


def test_readme_json_lines_row_is_scan_output(tmp_path, capsys):
    """README's quoted --json-lines row for (460,153,32,60) is the line a
    scan writes for that tuple, byte for byte."""
    quoted = re.findall(r'`(\{"params":\{"v":460,"k":153,"lambda":32,"mu":60\}[^`]*)`', README.read_text("utf-8"))
    assert len(quoted) == 1
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n460,153,32,60\n", encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == quoted[0] + "\n"


def test_readme_table_row_is_scan_output(tmp_path, capsys):
    """README's table-row example for (16,6,2,2) is the line a scan writes
    for that tuple, but for the row's wall time."""
    quoted = re.findall(r"`(\(16,6,2,2\): [^`]*)`", README.read_text("utf-8"))
    assert quoted == ["(16,6,2,2): Inconclusive k4>=0 m=[0,1] w=- [0ms]"]
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    assert main(["scan", str(path), "--jobs", "1"]) == 0
    assert re.fullmatch(re.escape(quoted[0].removesuffix(" [0ms]")) + r" \[\d+ms\]\n", capsys.readouterr().out)


def _readme_block(heading, lang):
    """The first ```lang block of README's section `## heading`."""
    section = README.read_text("utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_comments(capsys):
    """README's Library block runs and prints the values its comments give."""
    block = _readme_block("Library", "python")
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    comments = re.findall(r"# (.*)", block)
    assert comments[:4] == ['"Nonexistent"', "228111", "1437323820/6301", "MRange(lower=39, upper=39)"]
    assert out[:4] == [comment.strip('"') for comment in comments[:4]]
    assert len(out) == 5 and out[4].startswith("WSplitWitness(w=13, m=39, ")


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    """Each srgcert line of README's CLI block runs, in a directory that
    holds its tuples.csv and gets its --output, with its documented exit
    code: 10 for a Nonexistent check, 0 for the others."""
    argvs = [shlex.split(line)[1:] for line in _readme_block("CLI", "sh").splitlines() if line.startswith("srgcert ")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tuples.csv").write_text("v,k,lambda,mu\n16,6,2,2\n460,153,32,60\n", encoding="utf-8")
    codes = [(argv[0], main(argv)) for argv in argvs]
    capsys.readouterr()
    assert codes == [("check", 10), ("check", 10), ("scan", 0), ("subscan", 0), ("self-check", 0)]
    assert (tmp_path / "results.jsonl").read_text("utf-8").count("\n") == 2


# each argv form that README's argument list quotes, in a command that uses
# it, and how README says main ends: it returns the exit code, or raises
# SystemExit(0) for help and SystemExit(2) for a usage error
README_ARGV_FORMS = [
    ("`--jobs 2`", ["scan", "--jobs", "2", "tuples.csv"], ("return", 0)),
    ("`--jobs=2`", ["scan", "tuples.csv", "--jobs=2"], ("return", 0)),
    ("`scan … --out`", ["scan", "tuples.csv", "--out", "out.jsonl", "--json-lines"], ("return", 0)),
    ("`scan … --json`", ["scan", "tuples.csv", "--json"], ("return", 0)),
    ("`scan … --j`", ["scan", "tuples.csv", "--j", "1"], ("exit", 2)),
    ("`--`", ["check", "460", "153", "--", "32", "60"], ("return", 10)),
    ("`check -5 …`", ["check", "-5", "153", "32", "60"], ("return", 2)),
    ("`scan … --jobs -1`", ["scan", "tuples.csv", "--jobs", "-1"], ("return", 2)),
    ("4300 digits", ["check", "1" * 4301, "2", "0", "1"], ("exit", 2)),
    ("`-h`", ["-h"], ("exit", 0)),
    ("`-h`", ["scan", "tuples.csv", "-h"], ("exit", 0)),
    ("`--help`", ["check", "--help"], ("exit", 0)),
]


def test_readme_argv_forms_exit_as_documented(tmp_path, monkeypatch, capsys):
    """Each argv form of README's argument list, run through main, ends as
    README says: help on standard output, a usage error on standard error,
    and --out and --json read as --output and --json-lines."""
    argv_list = README.read_text("utf-8").split("Arguments are read from one table", 1)[1].split("Exit codes for", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SRG_CERTIFY_JOBS", raising=False)
    (tmp_path / "tuples.csv").write_text("v,k,lambda,mu\n16,6,2,2\n460,153,32,60\n", encoding="utf-8")
    for form, argv, want in README_ARGV_FORMS:
        assert form in argv_list, form
        try:
            got = "return", main(argv)
        except SystemExit as exc:
            got = "exit", exc.code
        out = capsys.readouterr()
        assert got == want, form
        if got[0] == "exit":
            assert (out.out if got[1] == 0 else out.err).startswith("usage: srgcert"), form
        if form == "`scan … --json`":
            assert [json.loads(line)["verdict"] for line in out.out.splitlines()] == ["Inconclusive", "Nonexistent"]
    assert [json.loads(line)["verdict"] for line in (tmp_path / "out.jsonl").read_text("utf-8").splitlines()] == [
        "Inconclusive", "Nonexistent"]


def test_scan_isolates_decide_errors(tmp_path, capsys, monkeypatch):
    def failing_decide(params):
        if params == SrgParams(16, 6, 2, 2):
            raise ZeroDivisionError("injected")
        return decide(params)

    monkeypatch.setattr("srgcert.cli.decide", failing_decide)
    path = tmp_path / "rows.csv"
    path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert rows[1] == {"line": 4, "error": "ZeroDivisionError: injected"}
    assert [row.get("verdict") for row in rows] == [
        "Nonexistent", None, "InfeasibleClassical", None, "NotApplicable", "Nonexistent",
    ]
    assert captured.err.startswith("line 4: decide failed\nTraceback")
    assert captured.err.endswith(
        "ZeroDivisionError: injected\n"
        "scanned 6 rows (Error: 2, InfeasibleClassical: 1, Nonexistent: 2, NotApplicable: 1)\n"
    )


def test_scan_human_table(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(path), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(460,153,32,60): Nonexistent" in out


def test_scan_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("v,k,lambda,mu\n", encoding="utf-8")
    assert main(["scan", str(path), "--json-lines"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scanned 0 rows" in captured.err


def test_scan_without_header_line(tmp_path, capsys):
    """A file with no header line at all, empty or only comments and blank
    lines, is rejected before --output is opened."""
    path, out = tmp_path / "rows.csv", tmp_path / "out.jsonl"
    for text in ("", "# no rows yet\n\n  \n# v,k,lambda,mu\n"):
        path.write_text(text, encoding="utf-8")
        assert main(["scan", str(path), "--output", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == f"no header in {path}: expected v,k,lambda,mu\n"


def test_scan_missing_file(capsys):
    assert main(["scan", "/nonexistent/rows.csv"]) == 3
    capsys.readouterr()


def test_scan_non_utf8_input(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + b"v,k,lambda,mu\n16,6,2,2\xff\n")
        assert main(["scan", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"cannot read {path}: ")


def test_scan_accepts_utf8_bom(tmp_path, capsys):
    """Spreadsheet exports often start with a byte-order mark."""
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(SCAN_CSV, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + SCAN_CSV.encode())
    assert main(["scan", str(plain), "--json-lines", "--jobs", "1"]) == 0
    want = capsys.readouterr().out
    assert main(["scan", str(bom), "--json-lines", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == want


def test_scan_bad_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["scan", str(path), "--output", str(out)]) == 3
    assert not out.exists()
    capsys.readouterr()


def test_scan_checks_output_before_deciding(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_decide(params):
        calls.append(params)
        return decide(params)

    monkeypatch.setattr("srgcert.cli.decide", counting_decide)
    path = tmp_path / "rows.csv"
    path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(path), "--output", str(tmp_path / "no" / "dir"), "--jobs", "1"]) == 3
    assert calls == []
    assert capsys.readouterr().err.startswith("cannot write ")


def test_scan_output_file_deterministic(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV, encoding="utf-8")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["scan", str(csv_path), "--json-lines", "--output", str(out1), "--jobs", "2"]) == 0
    assert main(["scan", str(csv_path), "--json-lines", "--output", str(out2), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_writes_rows_as_they_are_decided(tmp_path, capsys, monkeypatch):
    """The output file holds the first row before the last row is decided.
    The handle is buffered, so the rows written before it must fill more
    than a buffer (8 KiB) for any to reach the file."""
    out, sizes = tmp_path / "rows.jsonl", []

    def recording_decide(params):
        sizes.append(out.stat().st_size)
        return decide(params)

    monkeypatch.setattr(cli, "decide", recording_decide)
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n" + "10,3,1,1\n" * 200, encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1", "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(sizes) == 200
    assert len(lines[0]) <= sizes[-1] < sum(map(len, lines))


@pytest.mark.parametrize("serial_rows", [0, 1, 2])
def test_scan_pool_matches_serial(tmp_path, capsys, monkeypatch, serial_rows):
    # a fake clock that each decided row moves on by one second, with a
    # budget of serial_rows - 0.5 seconds (none for 0).  The clock is read
    # between serial batches of 1, 2, 4, ... rows, so the pool takes the rows
    # after the first batch boundary past the budget: after 0, 1 or 3 decided
    # rows, as SCAN_CSV's first batches are its rows [1] and [2, 3]
    clock = [0.0]
    real_decide = cli.decide

    def slow_decide(params):
        clock[0] += 1
        return real_decide(params)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(cli, "decide", slow_decide)
    monkeypatch.setattr(cli, "SERIAL_SECONDS", max(0, serial_rows - 0.5))
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV, encoding="utf-8")
    pooled, serial = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["scan", str(csv_path), "--json-lines", "--output", str(pooled), "--jobs", "2"]) == 0
    # workers decide with their own copy of the clock, so this counts the rows decided here
    assert clock[0] == {0: 0, 1: 1, 2: 3}[serial_rows] or os.cpu_count() == 1
    assert main(["scan", str(csv_path), "--json-lines", "--output", str(serial), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.fixture
def fake_pool(monkeypatch):
    """ProcessPoolExecutor replaced by a pool that maps in-process, so that
    no process starts: the list of each pool's (workers, batch sizes)."""
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            batches = list(batches)
            pools.append((self.max_workers, [len(batch) for batch in batches]))
            return map(fn, batches)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return pools


def test_small_scan_starts_no_pool(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan with few Gram rows started worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(csv_path), "--json-lines", "--jobs", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_scan_pool_capped_at_rows_and_cpus(tmp_path, capsys, monkeypatch, fake_pool):
    """A huge --jobs or SRG_CERTIFY_JOBS starts no more workers than rows
    left or CPUs, and a cap of one worker starts no pool.  The pool gets one
    task per batch of ceil(rows / (4 workers)) rows."""
    monkeypatch.setattr(cli, "SERIAL_SECONDS", 0)  # the pool takes every row
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV + SCAN_CSV.split("\n", 1)[1] * 4, encoding="utf-8")  # its 6 rows, 5 times
    assert main(["scan", str(csv_path), "--json-lines", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert len(serial.splitlines()) == 30 and fake_pool == []
    for cpus, jobs, env, pool in [
        (3, "100000", None, (3, [3] * 10)),
        (3, None, "100000", (3, [3] * 10)),
        (64, "100000", None, (30, [1] * 30)),
        (8, "2", None, (2, [4] * 7 + [2])),
        (None, "100000", None, None),
        (1, "2", None, None),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if env is None:
            monkeypatch.delenv("SRG_CERTIFY_JOBS", raising=False)
        else:
            monkeypatch.setenv("SRG_CERTIFY_JOBS", env)
        argv = ["scan", str(csv_path), "--json-lines"] + (["--jobs", jobs] if jobs else [])
        fake_pool.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        assert fake_pool == ([] if pool is None else [pool]), (cpus, jobs, env)


@pytest.mark.parametrize("rows, pool", [(13, None), (14, (2, [1] * 7))])
def test_scan_pool_only_for_rows_that_outlast_the_budget(tmp_path, capsys, monkeypatch, fake_pool, rows, pool):
    """A fake clock moves on by one second per decided row, and the serial
    budget is 6 s, so the serial batches of 1, 2 and 4 rows end at 7 s,
    1 s a row.  The 6 rows left of 13 would take 6 s, within the budget:
    they are decided here, in one batch, and no pool starts.  The 7 left of
    14 would take 7 s, past it: the pool takes them.  Either way the bytes
    are those of --jobs 1."""
    clock = [0.0]
    real_decide = cli.decide

    def slow_decide(params):
        clock[0] += 1
        return real_decide(params)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(cli, "decide", slow_decide)
    monkeypatch.setattr(cli, "SERIAL_SECONDS", 6)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n" + "".join(["10,3,1,1\n", "16,6,2,2\n"] * 7)[:9 * rows], encoding="utf-8")
    runs = []
    for jobs in ("2", "1"):
        assert main(["scan", str(path), "--json-lines", "--jobs", jobs]) == 0
        runs.append(capsys.readouterr().out)
    assert fake_pool == ([] if pool is None else [pool])
    assert runs[0] == runs[1] and len(runs[0].splitlines()) == rows


def test_scan_batch_mixes_errors_and_rows(tmp_path, capsys, monkeypatch, fake_pool):
    """Batches that each hold a malformed row, a row whose decide raises and
    good rows write the same bytes at --jobs 1 as through the pool, in input
    order, with the same Error count and tracebacks on stderr."""

    def failing_decide(params):
        if params == SrgParams(16, 6, 2, 2):
            raise ZeroDivisionError("injected")
        return decide(params)

    monkeypatch.setattr(cli, "decide", failing_decide)
    monkeypatch.setattr(cli, "SERIAL_SECONDS", 0)  # the pool takes every row
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n" + "10,3,1,1\nnot,a,row\n16,6,2,2\n5,2,0,1\n" * 8, encoding="utf-8")
    runs = []
    for jobs in ("1", "2"):  # serial batches 1, 2, 4, 8, 16, 1; pool batches 4 x 8
        assert main(["scan", str(path), "--json-lines", "--jobs", jobs]) == 0
        runs.append(capsys.readouterr())
    assert fake_pool == [(2, [4] * 8)]
    serial, pooled = runs
    assert pooled.out == serial.out and pooled.err == serial.err
    rows = serial.out.splitlines()
    assert [json.loads(row)["verdict"] for row in rows[::4]] == ["InfeasibleClassical"] * 8
    assert rows[1::4] == ['{"line":%d,"error":"expected 4 fields, got 3"}' % line for line in range(3, 34, 4)]
    assert rows[2::4] == ['{"line":%d,"error":"ZeroDivisionError: injected"}' % line for line in range(4, 34, 4)]
    assert [json.loads(row)["verdict"] for row in rows[3::4]] == ["NotApplicable"] * 8
    err = serial.err.splitlines()
    assert [line for line in err if "decide failed" in line] == [f"line {n}: decide failed" for n in range(4, 34, 4)]
    assert err.count("Traceback (most recent call last):") == 8
    assert err.count("ZeroDivisionError: injected") == 8
    assert err[-1] == "scanned 32 rows (Error: 16, InfeasibleClassical: 8, NotApplicable: 8)"


def test_scan_reads_clock_and_writes_once_per_batch(tmp_path, capsys, monkeypatch):
    """Below the serial budget a --jobs 2 scan reads the clock once to start
    and once per batch, and hands each batch of 1, 2, 4, ... up to
    SERIAL_BATCH_CAP rows to one write call; --jobs 1 reads no clock."""
    writes, reads = [], []
    clock = cli.time.perf_counter
    monkeypatch.setattr(cli.time, "perf_counter", lambda: reads.append(1) or clock())
    monkeypatch.setattr(cli, "SERIAL_BATCH_CAP", 4)
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n" + "10,3,1,1\n" * 20, encoding="utf-8")
    for jobs, clock_reads in (("2", 8), ("1", 0)):
        writes.clear()
        reads.clear()
        assert main(["scan", str(path), "--json-lines", "--jobs", jobs]) == 0
        assert [text.count("\n") for text in writes] == [1, 2, 4, 4, 4, 4, 1]
        assert len(reads) == clock_reads
    assert "scanned 20 rows (InfeasibleClassical: 20)" in capsys.readouterr().err


def _lifted_int_digit_limit(fn, *args):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def test_scan_writes_rows_past_the_int_digit_limit(tmp_path, capsys):
    """The complement of the Latin square graph L3(n), n = 10^551 + 7, has a
    1103-digit v, and its 4-clique bound has more than the 4300 digits that
    Python converts between int and str by default.  Its row is written
    exactly and the scan goes on, while an input field past the limit is
    still an error record."""
    n = 10**551 + 7
    v = n * n
    big = (v, v - 3 * (n - 1) - 1, v - 6 * (n - 1) + 4, v - 6 * (n - 1) + n)
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n" + ",".join(map(str, big)) + "\n10,3,1,1\n" + "1" * 4301 + ",2,0,1\n",
                    encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    k4 = decide(SrgParams(*big)).k4_bound.lower
    assert _lifted_int_digit_limit(lambda: len(str(k4))) > limit
    for json_lines in (True, False):
        assert main(["scan", str(path), "--jobs", "1"] + ["--json-lines"] * json_lines) == 0
        captured = capsys.readouterr()
        assert sys.get_int_max_str_digits() == limit
        rows = captured.out.splitlines()
        assert len(rows) == 4 and captured.err == "scanned 4 rows (Error: 1, Inconclusive: 2, InfeasibleClassical: 1)\n"
        if json_lines:
            row = _lifted_int_digit_limit(json.loads, rows[1])
            assert row["params"] == dict(zip(("v", "k", "lambda", "mu"), big))
            assert (row["verdict"], row["k4_lower"]) == ("Inconclusive", k4)
            assert rows[3].startswith('{"line":5,"error":"Exceeds the limit (4300 digits) for integer string conversion')
        else:
            assert rows[1].startswith(f"({big[0]},{big[1]},{big[2]},{big[3]}): Inconclusive k4>=")
            assert _lifted_int_digit_limit(lambda: f" k4>={k4} m=") in rows[1]
            assert rows[3].startswith("line 5: error: Exceeds the limit (4300 digits)")


def test_check_json_past_the_int_digit_limit(capsys):
    """check --json writes a certificate whose ints pass the 4300-digit
    limit exactly, and leaves the limit as it found it; an argument past the
    limit is a usage error."""
    n = 10**300 + 7
    params = SrgParams(n * n, 3 * (n - 1), n, 6)
    limit = sys.get_int_max_str_digits()
    assert main(["check", *map(str, params), "--json"]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    assert _lifted_int_digit_limit(lambda: json.loads(out) == _dict_certificate(decide(params)))
    assert main(["check", *map(str, params)]) == 0
    assert capsys.readouterr().out.endswith("verdict: Inconclusive\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", "1" * 4301, "2", "0", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_scan_strips_fields_for_error_records(tmp_path, capsys):
    """Spaces around a field are ignored, and an error record quotes a bad
    field without them: the same records as when every field was stripped
    before int().  A unit separator (\\x1f) is a space to strip too."""
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16, x ,2,2\n 16 , 6 ,2,\t2\n16,\x1f6,2,2\x1f\n16,6,2\n16,6,2,2,1\n16,,2,2\n1,2,3,4\n",
                    encoding="utf-8")
    assert main(["scan", str(path), "--jobs", "1"]) == 0
    assert re.sub(r" \[\d+ms\]\n", "\n", capsys.readouterr().out) == (
        "line 2: error: invalid literal for int() with base 10: 'x'\n"
        "(16,6,2,2): Inconclusive k4>=0 m=[0,1] w=-\n"
        "(16,6,2,2): Inconclusive k4>=0 m=[0,1] w=-\n"
        "line 5: error: expected 4 fields, got 3\n"
        "line 6: error: expected 4 fields, got 5\n"
        "line 7: error: invalid literal for int() with base 10: ''\n"
        "line 8: error: need 0 < k < v, got k=2, v=1\n"
    )


CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

# SHA-256 of scan stdout, table rows less their " [Nms]" wall times, and of
# the stderr summary, at --jobs 1: (input, --json-lines) -> (stdout, stderr)
GOLDEN_SCAN_SHA256 = {
    ("feasible.csv", True): ("5bccd7b27d729d30ea9e3f9ead30ea1a27657b9cf96bba3cfd5a4d9a0decd348",
                             "4bbe7115ba3c1823ba798d5e2066d54d7ce1ef279ad78bd3a5515561638445cd"),
    ("feasible.csv", False): ("544117650bcb76d076388b6551e91edc46fc509bd6d0875fd93aac59a02e2e6d",
                              "4bbe7115ba3c1823ba798d5e2066d54d7ce1ef279ad78bd3a5515561638445cd"),
    ("screen.csv", True): ("b1c03927294d11247f60f6d40f43e048e9ac479fadf5ebb75a9550626259c57e",
                           "d59d402b38603212cb843fcc18383d3ec5b8d738b91b1b34b185e90e600f21b3"),
    ("screen.csv", False): ("6b67811da3ced862b00d9ab4a5ab6047470212edb64219c8bc569ee1bd9e2121",
                            "d59d402b38603212cb843fcc18383d3ec5b8d738b91b1b34b185e90e600f21b3"),
    ("SCAN_CSV", True): ("7a94244e30631cbbffe774275dd080dacb11cf674f576880fc3faedf0541c6eb",
                         "527e0011df90b4f12dfa83855db3e9abf5f93bdd55ce7cd337106b32932a2d94"),
    ("SCAN_CSV", False): ("53b573ae630162a778dc91ce1aa6dd92227cdb230f7e4d30273c1bbc7d169119",
                          "527e0011df90b4f12dfa83855db3e9abf5f93bdd55ce7cd337106b32932a2d94"),
}


def test_json_lines_rows_read_no_clock(tmp_path, capsys, monkeypatch):
    """scan --json-lines --jobs 1 reads the clock as often for 10 rows as
    for all of feasible.csv: a JSON line prints no time, so its row reads
    no clock.  The table still ends every row in its wall time."""
    lines = (CORPUS / "feasible.csv").read_text(encoding="utf-8").splitlines()
    head = [line for line in lines if line[:1].isalpha() or line[:1].isdigit()][:11]
    short = tmp_path / "short.csv"
    short.write_text("\n".join(head) + "\n", encoding="utf-8")
    clock, calls = cli.time.perf_counter, []
    monkeypatch.setattr(cli.time, "perf_counter", lambda: calls.append(1) or clock())
    counts = []
    for path in (short, CORPUS / "feasible.csv"):
        calls.clear()
        assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
        counts.append(len(calls))
        assert "[" not in capsys.readouterr().out
    assert counts[0] == counts[1]
    assert main(["scan", str(CORPUS / "feasible.csv"), "--jobs", "1"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 210 and all(re.search(r" \[\d+ms\]$", line) for line in table)
    assert len(calls) > counts[1] + 210


@pytest.mark.parametrize("name, json_lines", list(GOLDEN_SCAN_SHA256))
def test_scan_golden_bytes(tmp_path, capsys, name, json_lines):
    path = CORPUS / name
    if name == "SCAN_CSV":
        path = tmp_path / "rows.csv"
        path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(path), "--jobs", "1"] + ["--json-lines"] * json_lines) == 0
    captured = capsys.readouterr()
    out = re.sub(r" \[\d+ms\]\n", "\n", captured.out)
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, captured.err))
    assert digests == GOLDEN_SCAN_SHA256[name, json_lines]


def test_scan_error_records_escape_input(tmp_path, capsys):
    """An error message that echoes a quote or a non-ASCII character is
    JSON-escaped in a JSON line and written as is in the table."""
    path = tmp_path / "rows.csv"
    path.write_text('v,k,lambda,mu\n"5",2,0,1\né,2,0,1\n', encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == (
        '{"line":2,"error":"invalid literal for int() with base 10: \'\\"5\\"\'"}\n'
        '{"line":3,"error":"invalid literal for int() with base 10: \'\\u00e9\'"}\n'
    )
    assert main(["scan", str(path), "--jobs", "1"]) == 0
    assert capsys.readouterr().out == (
        "line 2: error: invalid literal for int() with base 10: '\"5\"'\n"
        "line 3: error: invalid literal for int() with base 10: 'é'\n"
    )


def test_scan_numbers_rows_by_newline_only(tmp_path, capsys):
    """A row is one \\n-terminated line: a vertical tab, form feed, file,
    group or record separator, NEL, or line or paragraph separator inside it
    splits nothing, so every later row keeps its true line number."""
    breaks = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    path = tmp_path / "rows.csv"
    rows = "".join(f"16,6{c},2,2\n" for c in breaks)
    path.write_text(f"v,k,lambda,mu\n{rows}\r\n16,6,2,x\r5,2,0,1\n", encoding="utf-8")
    assert main(["scan", str(path), "--json-lines", "--jobs", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.split("\n")[:-1]]
    assert [r["params"]["v"] for r in records[: len(breaks)]] == [16] * len(breaks)
    # \r\n and \r end a line too: the blank line is len(breaks) + 2
    assert records[len(breaks)] == {"line": len(breaks) + 3, "error": "invalid literal for int() with base 10: 'x'"}
    assert records[len(breaks) + 1]["params"] == {"v": 5, "k": 2, "lambda": 0, "mu": 1}
    assert len(records) == len(breaks) + 2


def test_scan_into_closed_pipe_exits_without_traceback(tmp_path):
    """`srgcert scan ... | head -1`: the reader closes the pipe after one
    line, while the scan still has far more than a pipe buffer to write."""
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n" + "10,3,1,1\n" * 20000, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.Popen(
        [sys.executable, "-c", "from srgcert.cli import run; run()",
         "scan", str(path), "--jobs", "1", "--json-lines"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["verdict"] == "InfeasibleClassical"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""

def test_scan_jobs_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SRG_CERTIFY_JOBS", "1")
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    assert main(["scan", str(path), "--json-lines"]) == 0
    capsys.readouterr()


def test_scan_rejects_jobs_below_one(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    for jobs in ("0", "-1"):
        assert main(["scan", str(path), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--jobs must be at least 1" in captured.err


def test_scan_rejects_bad_jobs_env(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    for value in ("0", "-1", "two"):
        monkeypatch.setenv("SRG_CERTIFY_JOBS", value)
        assert main(["scan", str(path), "--json-lines"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"SRG_CERTIFY_JOBS must be a positive integer, got {value!r}" in captured.err
    # unset or empty: the CPU count
    for value in (None, ""):
        if value is None:
            monkeypatch.delenv("SRG_CERTIFY_JOBS", raising=False)
        else:
            monkeypatch.setenv("SRG_CERTIFY_JOBS", value)
        assert main(["scan", str(path), "--json-lines"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1


def test_subscan_outputs(capsys):
    assert main(["subscan", "891", "204"]) == 0
    assert capsys.readouterr().out.strip() == "NONE"
    assert main(["subscan", "5", "2"]) == 0
    assert "(0, 1)" in capsys.readouterr().out
    assert main(["subscan", "16", "6"]) == 0
    assert "(2, 2)" in capsys.readouterr().out


def test_subscan_invalid(capsys):
    assert main(["subscan", "5", "5"]) == 2
    capsys.readouterr()


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    tup, params = ["460", "153", "32", "60"], SrgParams(460, 153, 32, 60)

    assert main(["check", *tup, "--json"]) == 10
    assert json.loads(capsys.readouterr().out) == _dict_certificate(decide(params))
    for argv, status in ((["check", "1"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        capsys.readouterr()
    # --json does not carry over: the transcript is text
    assert main(["check", *tup]) == 10
    assert capsys.readouterr().out == certificate_to_text(decide(params)) + "\n"

    path, out = tmp_path / "rows.csv", tmp_path / "rows.out"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    assert main(["scan", str(path), "--jobs", "1", "--output", str(out), "--json-lines"]) == 0
    assert capsys.readouterr().out == ""
    # --output and --json-lines do not carry over: the table goes to stdout
    assert main(["scan", str(path), "--jobs", "1"]) == 0
    assert capsys.readouterr().out.startswith("(16,6,2,2): Inconclusive")
    assert out.read_text(encoding="utf-8").startswith('{"params":{"v":16')
    monkeypatch.setenv("SRG_CERTIFY_JOBS", "0")
    assert main(["scan", str(path), "--jobs", "3"]) == 0
    capsys.readouterr()
    # without --jobs the scan reads SRG_CERTIFY_JOBS again, not the last --jobs
    assert main(["scan", str(path)]) == 2
    assert "SRG_CERTIFY_JOBS must be a positive integer, got '0'" in capsys.readouterr().err


def _argparse_reference():
    """The argparse parser that cli.parse_args replaced, built from the same
    command table."""
    parser = argparse.ArgumentParser(prog="srgcert", description=cli.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positionals, options) in cli.COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for attr, kind, metavar, help_ in positionals:
            command.add_argument(attr, type=kind, metavar=metavar, help=help_ or None)
        for flag, (attr, kind, default, metavar, help_) in options.items():
            if kind is None:
                command.add_argument(flag, action="store_true", help=help_)
            else:
                command.add_argument(flag, type=kind, default=default, metavar=metavar, help=help_)
    return parser


CHECK = ["check", "460", "153", "32", "60"]
# argv that argparse reads alike on Python 3.10 to 3.13
ARGV_CASES = [
    # options before, between and after the positionals; --opt value and --opt=value
    CHECK,
    [*CHECK, "--json"],
    ["check", "--json", "460", "153", "32", "60"],
    ["check", "460", "153", "--json", "32", "60"],
    ["scan", "--jobs", "3", "rows.csv"],
    ["scan", "rows.csv", "--jobs=0"],
    ["scan", "--jobs=3", "rows.csv", "--output", "out.jsonl", "--json-lines"],
    ["scan", "rows.csv", "--output="],
    # unique prefixes, and a flag that is a prefix of another command's flag
    [*CHECK, "--j"],
    ["scan", "--out", "x", "rows.csv"],
    ["scan", "rows.csv", "--jo=2"],
    ["scan", "rows.csv", "--jo", "2", "--o=x", "--json"],
    # the last of a repeated option wins
    [*CHECK, "--json", "--json"],
    ["scan", "rows.csv", "--output", "a", "--output=b", "--json-lines", "--json-lines"],
    ["scan", "rows.csv", "--jobs", "2", "--jobs", "3"],
    # negative numbers, int() spaces and the 4300-digit limit
    ["check", "-5", "2", "0", "-1"],
    ["scan", "rows.csv", "--jobs", "-1"],
    ["scan", "rows.csv", "--jobs=-2"],
    ["scan", "rows.csv", "--output", "-2"],
    ["check", " 460 ", "153\n", "\t32", "6_0"],
    ["check", "1" * 4300, "2", "0", "1"],
    # "--" ends the options; "-" and an argument with a space are positionals
    ["check", "460", "153", "--", "-32", "60"],
    ["scan", "-"],
    ["scan", "-x y"],
    ["subscan", "891", "204"],
    ["self-check"],
    # help, at the top level and per command, wherever it stands
    ["-h"],
    ["--help"],
    ["--he", "check"],
    ["check", "-h"],
    ["check", "460", "--help", "x"],
    ["scan", "rows.csv", "--h"],
    ["subscan", "--help"],
    ["self-check", "-h"],
    ["--bogus", "-h"],
    # usage errors
    [],
    ["bogus"],
    ["chec", "460", "153", "32", "60"],
    ["check", "460"],
    [*CHECK, "61"],
    ["subscan", "1", "2", "3"],
    ["scan"],
    ["self-check", "x"],
    ["check", "460", "153", "32", "sixty"],
    ["check", "460", "x", "32", "60", "--help"],
    ["check", "1" * 4301, "2", "0", "1"],
    ["scan", "rows.csv", "--jobs", "4.0"],
    ["scan", "rows.csv", "--jobs"],
    [*CHECK, "--max-gegenbauer-degree", "4"],
    [*CHECK, "--max", "4"],
    [*CHECK, "--bogus"],
    [*CHECK, "-j"],
    ["--json", *CHECK],
    [*CHECK, "--json=x"],
    [*CHECK, "--json="],
    ["--help=x"],
    ["scan", "rows.csv", "--jobs", "x"],
    ["scan", "rows.csv", "--jobs=", "2"],
    ["scan", "rows.csv", "--j", "2"],
    ["scan", "rows.csv", "--output", "--json-lines"],
    ["scan", "rows.csv", "--output"],
    # at the edge of the plain form that parse_args reads without argparse
    ["check", "", "1", "2", "3"],
    ["scan", ""],
    ["scan", "a=b.csv", "--output", ""],
    ["check", "0x10", "1", "0", "1"],
    ["check", "-0", "1", "0", "1"],
    ["scan", "r.csv", "--json-lines", "--jobs", "2", "--jobs", "-3"],
    ["scan", "r.csv", "--output", "--jobs"],
    [*CHECK, "--json", "x"],
]


def _outcome(parse, argv, capsys):
    """The fields parse(argv) reads, or its exit code and what it printed."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, bool(out.err)


def test_parse_args_reads_argv_as_argparse_did(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width cli lays its help out for
    reference = _argparse_reference()
    assert len(ARGV_CASES) >= 30
    for argv in ARGV_CASES:
        expected = _outcome(reference.parse_args, argv, capsys)
        assert _outcome(cli.parse_args, argv, capsys) == expected, argv
    codes = [_outcome(cli.parse_args, argv, capsys) for argv in ARGV_CASES]
    assert sum(isinstance(c, dict) for c in codes) >= 20
    assert sum(c[0] == 0 for c in codes if isinstance(c, tuple)) >= 8


def test_plain_argv_never_reaches_argparse(monkeypatch):
    """Every plain argv that the repo itself runs, the bench's, CI's smoke
    test's and README's CLI block's, is read without building the argparse
    parser, into the fields argparse reads from it."""
    def no_parser():
        raise AssertionError("the argparse parser was built")

    reference = _argparse_reference()
    monkeypatch.setattr(cli, "_build_parser", no_parser)
    bench = [["check", *map(str, tup), "--json"] for tup in ((460, 153, 32, 60), (6205, 858, 47, 130),
                                                           (5929, 1482, 275, 402))]
    bench += [["scan", f"work/chunk{i}.csv", "--json-lines", "--jobs", jobs, "--output", f"work/chunk{i}.jsonl"]
              for i, jobs in ((0, "1"), (19, "2"))]
    ci = [CHECK, [*CHECK, "--json"], ["self-check"], ["scan", "rows.csv", "--json-lines"]]
    readme = [shlex.split(line)[1:] for line in _readme_block("CLI", "sh").splitlines() if line.startswith("srgcert ")]
    readme += [argv for form, argv, _ in README_ARGV_FORMS if form == "`--jobs 2`"]
    assert len(readme) == 6
    for argv in bench + ci + readme:
        assert vars(cli.parse_args(argv)) == vars(reference.parse_args(argv)), argv


def test_help_is_laid_out_for_80_columns_at_any_terminal_width(monkeypatch, capsys):
    for argv in (["--help"], ["scan", "-h"]):
        screens = set()
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            screens.add(capsys.readouterr().out)
        assert len(screens) == 1, argv
        assert max(map(len, screens.pop().splitlines())) <= 80


def test_main_runs_command_patched_after_parser_is_built(monkeypatch, capsys):
    main(["check", "16", "6", "2", "2"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_check", lambda args: 99)
    assert main(["check", "16", "6", "2", "2"]) == 99


def _in_fresh_interpreter(code):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_modules_unloaded(tmp_path):
    # every command pays for what `import srgcert.cli` loads
    heavy = ["srgcert.oracle", "numpy", "multiprocessing", "concurrent.futures.process", "dataclasses", "inspect",
             "argparse", "fractions", "decimal", "numbers"]
    assert _in_fresh_interpreter(f"import sys, srgcert.cli; print([m for m in {heavy!r} if m in sys.modules])") == "[]"
    # nor does parsing a plain argv load argparse: the text check, and the bench's scan
    rows, out = tmp_path / "rows.csv", tmp_path / "rows.jsonl"
    rows.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    for argv in (["check", "460", "153", "32", "60"],
                 ["scan", str(rows), "--json-lines", "--jobs", "2", "--output", str(out)]):
        code = "import io, sys, contextlib, srgcert.cli as c\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        code += f"    c.main({argv!r})\nprint('argparse' in sys.modules)"
        assert _in_fresh_interpreter(code) == "False", argv


def test_self_check(capsys):
    assert main(["self-check"]) == 0
    out = capsys.readouterr().out
    assert "all self-checks passed" in out


def test_commands_leave_fractions_unloaded(tmp_path):
    """`check --json`, the text `check` and a two-row `scan` write every
    rational from integer pairs: none of them imports fractions, or the
    decimal and numbers modules that come with it."""
    rows = tmp_path / "rows.csv"
    rows.write_text("v,k,lambda,mu\n16,6,2,2\n460,153,32,60\n", encoding="utf-8")
    for argv in (["check", "460", "153", "32", "60", "--json"], ["check", "5929", "1482", "275", "402"],
                 ["scan", str(rows), "--jobs", "1"]):
        code = "import io, sys, contextlib, srgcert.cli as c\nwith contextlib.redirect_stdout(io.StringIO()):\n"
        code += f"    c.main({argv!r})\nprint([m for m in ('fractions', 'decimal', 'numbers') if m in sys.modules])"
        assert _in_fresh_interpreter(code) == "[]", argv
