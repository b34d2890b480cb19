"""Command-line surface: single checks, batch scans, subconstituent scans,
and the oracle self-check."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from .cliquebound import MAX_DEGREE
from .gramtest import Verdict, decide
from .params import InvalidParamsError, SrgParams, subconstituent_scan
from .serialize import certificate_json, certificate_to_text, dumps, scan_row

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
    print(certificate_json(cert) if args.json else certificate_to_text(cert))
    return EXIT_BY_VERDICT[cert.verdict]


def _scan_worker(json_lines, task):
    """One CSV row to (verdict name or "Error", its finished output line)."""
    line_no, text = task
    parts = [p.strip() for p in text.split(",")]
    t0 = 0 if json_lines else time.perf_counter()  # only the table line prints the row's time
    try:
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields, got {len(parts)}")
        params = SrgParams(*map(int, parts))
    except (ValueError, InvalidParamsError) as exc:
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
            return scan_row(cert, json_lines, 0 if json_lines else int((time.perf_counter() - t0) * 1000))
    # the message echoes input, so it needs the JSON encoder's escaping
    return "Error", (dumps({"line": line_no, "error": error}) if json_lines else f"line {line_no}: error: {error}") + "\n"


def _decided_rows(worker, tasks, jobs):
    """worker's (name, line) of each task in input order, as each is decided.
    Rows take from microseconds to seconds, and a pool costs tens of ms to
    start: rows are decided here until they have taken SERIAL_SECONDS of wall
    time, the rest in a pool, which can pickle a partial of a module function."""
    done, start = 0, time.perf_counter()
    while done < len(tasks) and (jobs == 1 or time.perf_counter() - start < SERIAL_SECONDS):
        yield worker(tasks[done])
        done += 1
    rest = tasks[done:]
    # the pool starts all its workers at once: no more than rows left or CPUs
    workers = min(jobs, len(rest), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing slows every command's start, only this path uses it
        from concurrent.futures import ProcessPoolExecutor

        # a few chunks per worker: one pickled round trip per row costs more
        # than most rows take to decide
        chunksize = math.ceil(len(rest) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(worker, rest, chunksize=chunksize)
    else:
        yield from map(worker, rest)


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

    tasks: list[tuple[int, str]] = []
    header = None
    for idx, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            header = [f.strip().lower() for f in stripped.split(",")]
            if header != ["v", "k", "lambda", "mu"]:
                print(f"bad header {stripped!r}: expected v,k,lambda,mu", file=sys.stderr)
                return EXIT_IO_ERROR
            continue
        tasks.append((idx, stripped))
    if header is None:
        print(f"no header in {args.input}: expected v,k,lambda,mu", file=sys.stderr)
        return EXIT_IO_ERROR

    try:
        out_handle = sys.stdout if args.output is None else open(args.output, "w", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    try:
        # every name a row can have, in a plain dict: its += takes under half of a Counter's
        counts, write = dict.fromkeys([*(v.value for v in Verdict), "Error"], 0), out_handle.write
        for name, line in _decided_rows(functools.partial(_scan_worker, args.json_lines), tasks, jobs):
            counts[name] += 1
            write(line)
    finally:
        if out_handle is not sys.stdout:
            out_handle.close()
    summary = ", ".join(f"{name}: {n}" for name, n in sorted(counts.items()) if n) or "no rows"
    print(f"scanned {sum(counts.values())} rows ({summary})", file=sys.stderr)
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
