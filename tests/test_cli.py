import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from srgcert import SrgParams, cli, decide
from srgcert.cli import main
from srgcert.serialize import certificate_json, certificate_to_text
from test_serialize import _dict_certificate


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
    assert main(["check", "460", "153", "32", "60", "--max-gegenbauer-degree", "3"]) == 2
    capsys.readouterr()


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


def test_check_no_clique_bound(capsys):
    """At degree 0 the 4-clique bound is 0, and the paper's tuple stays open."""
    assert main(["check", "460", "153", "32", "60", "--max-gegenbauer-degree", "0"]) == 0
    out = capsys.readouterr().out
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
    # a fake clock that each decided row moves on by one second: with a
    # budget of serial_rows - 0.5 seconds (none for 0), the pool takes the
    # rows after the first 0, 1 or 2 decided ones, error rows included
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
    assert clock[0] == serial_rows or os.cpu_count() == 1
    assert main(["scan", str(csv_path), "--json-lines", "--output", str(serial), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert pooled.read_bytes() == serial.read_bytes()


def test_small_scan_starts_no_pool(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a scan with few Gram rows started worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(csv_path), "--json-lines", "--jobs", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_scan_pool_capped_at_rows_and_cpus(tmp_path, capsys, monkeypatch):
    """A huge --jobs or SRG_CERTIFY_JOBS starts no more workers than rows
    left or CPUs, and a cap of one worker starts no pool.  The pool is a
    fake that maps in-process: no process is started here."""
    import concurrent.futures

    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            pools.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli, "SERIAL_SECONDS", 0)  # the pool takes every row of SCAN_CSV
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text(SCAN_CSV, encoding="utf-8")
    assert main(["scan", str(csv_path), "--json-lines", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    rows = len(serial.splitlines())
    assert rows == 6 and pools == []
    for cpus, jobs, env, workers in [
        (3, "100000", None, 3),
        (3, None, "100000", 3),
        (64, "100000", None, rows),
        (8, "2", None, 2),
        (None, "100000", None, None),
        (1, "2", None, None),
    ]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if env is None:
            monkeypatch.delenv("SRG_CERTIFY_JOBS", raising=False)
        else:
            monkeypatch.setenv("SRG_CERTIFY_JOBS", env)
        argv = ["scan", str(csv_path), "--json-lines"] + (["--jobs", jobs] if jobs else [])
        pools.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        assert pools == ([] if workers is None else [(workers, -(-rows // (4 * workers)))]), (cpus, jobs, env)


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
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    builds, tup, params = [], ["460", "153", "32", "60"], SrgParams(460, 153, 32, 60)

    assert main(["check", *tup, "--json", "--max-gegenbauer-degree", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == _dict_certificate(decide(params, gegenbauer_degree=6))
    builds.append(len(built))
    for argv, status in ((["check", "1"], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == status
        capsys.readouterr()
        builds.append(len(built))
    # --json and degree 6 do not carry over: degree 4 decides Nonexistent
    assert main(["check", *tup]) == 10
    assert capsys.readouterr().out == certificate_to_text(decide(params)) + "\n"
    builds.append(len(built))

    path = tmp_path / "rows.csv"
    path.write_text("v,k,lambda,mu\n16,6,2,2\n", encoding="utf-8")
    monkeypatch.setenv("SRG_CERTIFY_JOBS", "0")
    assert main(["scan", str(path), "--jobs", "3"]) == 0
    capsys.readouterr()
    builds.append(len(built))
    # without --jobs the scan reads SRG_CERTIFY_JOBS again, not the last --jobs
    assert main(["scan", str(path)]) == 2
    assert "SRG_CERTIFY_JOBS must be a positive integer, got '0'" in capsys.readouterr().err
    builds.append(len(built))
    assert builds == [5] * 6  # the top parser and four subcommands, built by the first call only


def test_main_runs_command_patched_after_parser_is_built(monkeypatch, capsys):
    main(["check", "16", "6", "2", "2"])
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_check", lambda args: 99)
    assert main(["check", "16", "6", "2", "2"]) == 99


def _in_fresh_interpreter(code):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_leaves_heavy_modules_unloaded():
    # every command pays for what `import srgcert.cli` loads
    heavy = ["srgcert.oracle", "numpy", "multiprocessing", "concurrent.futures.process"]
    assert _in_fresh_interpreter(f"import sys, srgcert.cli; print([m for m in {heavy!r} if m in sys.modules])") == "[]"


def test_cli_import_builds_no_parser():
    # a fresh command and every pool worker import cli; only main builds the parser
    assert _in_fresh_interpreter("import srgcert.cli as c; print(c._build_parser.cache_info().currsize)") == "0"


def test_self_check(capsys):
    assert main(["self-check"]) == 0
    out = capsys.readouterr().out
    assert "all self-checks passed" in out
