"""Command-line surface: single checks, batch scans, subconstituent scans,
and the oracle self-check."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from collections import Counter

from .cliquebound import MAX_DEGREE
from .gramtest import Verdict, decide
from .params import InvalidParamsError, SrgParams, subconstituent_scan
from .serialize import certificate_json, certificate_to_text, dumps, exact_digits, scan_row

EXIT_BY_VERDICT = {
    Verdict.INCONCLUSIVE: 0,
    Verdict.NONEXISTENT: 10,
    Verdict.INFEASIBLE_CLASSICAL: 11,
    Verdict.NOT_APPLICABLE: 12,
}
EXIT_BAD_INPUT = 2
EXIT_IO_ERROR = 3

JOBS_ENV_VAR = "SRG_CERTIFY_JOBS"
SERIAL_SECONDS = 0.3
# a serial batch costs about 1.5 us besides its rows (worker call, clock read,
# write): 64 rows make that under 0.5% of a 6 us screened row, and 64 of the
# slowest corpus rows (0.13 ms) overrun the budget by under 3%
SERIAL_BATCH_CAP = 64


# built on the first main call, not at import, which every pool worker pays
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgcert",
        description="Exact non-existence certificates for strongly regular graph parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the full pipeline on one tuple")
    check.add_argument("v", type=int)
    check.add_argument("k", type=int)
    check.add_argument("lam", type=int, metavar="lambda")
    check.add_argument("mu", type=int)
    check.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    check.add_argument(
        "--max-gegenbauer-degree",
        type=int,
        default=4,
        metavar="T",
        help="even polynomial degree for the 4-clique bound (default 4)",
    )

    scan = sub.add_parser("scan", help="run the pipeline over a CSV of tuples")
    scan.add_argument("input", help="CSV with header v,k,lambda,mu; # starts a comment")
    scan.add_argument("--jobs", type=int, default=None, help=f"worker processes (default: ${JOBS_ENV_VAR} or CPU count)")
    scan.add_argument("--output", default=None, help="write rows here instead of stdout")
    scan.add_argument("--json-lines", action="store_true", help="one JSON object per row")

    subscan = sub.add_parser("subscan", help="classically feasible (lambda', mu') for fixed (v1, k1)")
    subscan.add_argument("v1", type=int)
    subscan.add_argument("k1", type=int)

    sub.add_parser("self-check", help="validate derived counts against brute-force censuses")
    return parser


def _cmd_check(args) -> int:
    try:
        params = SrgParams(args.v, args.k, args.lam, args.mu)
    except InvalidParamsError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    degree = args.max_gegenbauer_degree
    if degree % 2 != 0 or not 0 <= degree <= MAX_DEGREE:
        print(f"--max-gegenbauer-degree must be even and at most {MAX_DEGREE}", file=sys.stderr)
        return EXIT_BAD_INPUT
    cert = decide(params, gegenbauer_degree=degree)
    write = certificate_json if args.json else certificate_to_text
    try:
        text = write(cert)
    except ValueError:  # an int longer than sys.get_int_max_str_digits()
        text = exact_digits(write, cert)
    print(text)
    return EXIT_BY_VERDICT[cert.verdict]


def _scan_worker(json_lines, tasks):
    """A batch of CSV rows, (line number, text) each, to their verdict names
    ("Error" for a row that fails) and their output lines joined."""
    names, lines = [], []
    for line_no, text in tasks:
        t0 = 0 if json_lines else time.perf_counter()  # only the table line prints the row's time
        try:
            try:
                v, k, lam, mu = map(int, text.split(","))  # int() skips the spaces around a field
            except ValueError:  # but not \x1f, and its message quotes them: strip each field
                parts = [p.strip() for p in text.split(",")]
                if len(parts) != 4:
                    raise ValueError(f"expected 4 fields, got {len(parts)}")
                v, k, lam, mu = map(int, parts)
            params = SrgParams(v, k, lam, mu)
        except ValueError as exc:  # InvalidParamsError is one
            error = str(exc)
        else:
            try:
                cert = decide(params)
            except Exception as exc:  # deliberate: one failing row must not abort the scan
                import traceback

                print(f"line {line_no}: decide failed", file=sys.stderr)
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            else:
                ms = 0 if json_lines else int((time.perf_counter() - t0) * 1000)
                try:
                    name, line = scan_row(cert, json_lines, ms)
                except ValueError:  # an int longer than sys.get_int_max_str_digits()
                    name, line = exact_digits(scan_row, cert, json_lines, ms)
                names.append(name)
                lines.append(line)
                continue
        names.append("Error")
        # the message echoes input, so it needs the JSON encoder's escaping
        lines.append((dumps({"line": line_no, "error": error}) if json_lines else f"line {line_no}: error: {error}") + "\n")
    return names, "".join(lines)


def _decided_rows(worker, tasks, jobs):
    """worker's (names, lines) of each batch of tasks, in input order, as each
    is decided.  Rows take from microseconds to seconds, and a pool costs tens
    of ms to start: batches of 1, 2, 4, ... up to SERIAL_BATCH_CAP rows are
    decided here until they have taken SERIAL_SECONDS of wall time, read
    between batches (never at --jobs 1), the rest in a pool, which can pickle
    a partial of a module function."""
    done, size, start = 0, 1, 0 if jobs == 1 else time.perf_counter()
    while done < len(tasks) and (jobs == 1 or time.perf_counter() - start < SERIAL_SECONDS):
        yield worker(tasks[done:done + size])
        done += size
        size = min(2 * size, SERIAL_BATCH_CAP)
    rest = tasks[done:]
    # the pool starts all its workers at once: no more than rows left or CPUs
    workers = min(jobs, len(rest), os.cpu_count() or 1)
    # a few batches per worker: one pickled round trip per row costs more
    # than most rows take to decide
    size = math.ceil(len(rest) / (4 * workers)) if workers > 1 else SERIAL_BATCH_CAP
    batches = [rest[i:i + size] for i in range(0, len(rest), size)]
    if workers > 1:
        # imported here: multiprocessing slows every command's start, only this path uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, batches)
    else:
        yield from map(worker, batches)


def _cmd_scan(args) -> int:
    jobs = args.jobs
    if jobs is not None and jobs < 1:
        print(f"--jobs must be at least 1, got {jobs}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "")
        if env and not (env.isdecimal() and int(env) > 0):
            print(f"{JOBS_ENV_VAR} must be a positive integer, got {env!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
        jobs = int(env) if env else os.cpu_count() or 1
    try:
        with open(args.input, encoding="utf-8-sig") as handle:
            raw_lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR

    # every line that is neither blank nor a comment: the header, then the rows
    tasks = [(idx, text) for idx, line in enumerate(raw_lines, start=1) if (text := line.strip()) and text[0] != "#"]
    if not tasks:
        print(f"no header in {args.input}: expected v,k,lambda,mu", file=sys.stderr)
        return EXIT_IO_ERROR
    header = tasks.pop(0)[1]
    if [f.strip().lower() for f in header.split(",")] != ["v", "k", "lambda", "mu"]:
        print(f"bad header {header!r}: expected v,k,lambda,mu", file=sys.stderr)
        return EXIT_IO_ERROR

    try:
        out_handle = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    counts = Counter()
    try:
        for names, lines in _decided_rows(functools.partial(_scan_worker, args.json_lines), tasks, jobs):
            counts.update(names)
            out_handle.write(lines)
    finally:
        if out_handle is not sys.stdout:
            out_handle.close()
    summary = ", ".join(f"{name}: {n}" for name, n in sorted(counts.items())) or "no rows"
    print(f"scanned {counts.total()} rows ({summary})", file=sys.stderr)
    return 0


def _cmd_subscan(args) -> int:
    try:
        pairs = subconstituent_scan(args.v1, args.k1)
    except InvalidParamsError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not pairs:
        print("NONE")
    else:
        for lam, mu in pairs:
            print(f"({lam}, {mu})")
    return 0


def _cmd_self_check(args) -> int:
    # imported here: the brute-force oracle serves this command only
    from .oracle import REFERENCE_GRAPHS, construct, validate

    failures = 0
    for name, order in REFERENCE_GRAPHS:
        label = f"{name}({order})" if order is not None else name
        try:
            detail = validate(construct(name, order))
        except Exception as exc:  # deliberate: report and keep checking
            print(f"FAIL {label}: {exc}")
            failures += 1
            continue
        print(f"ok   {label}: {detail}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    print("all self-checks passed")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up by name on each call, so a patched `_cmd_*` attribute is the one that runs
    return globals()["_cmd_" + args.command.replace("-", "_")](args)


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # e.g. `srgcert scan ... | head -1`
        # as the Python docs' note on SIGPIPE: the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
