"""Command-line surface: single checks, batch scans, subconstituent scans,
and the oracle self-check."""

from __future__ import annotations

import functools
import math
import os
import re
import sys
import time
import types
from collections import Counter

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


DESCRIPTION = "Exact non-existence certificates for strongly regular graph parameters."
# each command: its help, its positionals as (attribute, type, metavar, help),
# and its options as flag -> (attribute, type or None for a switch, default, metavar, help)
COMMANDS = {
    "check": (
        "run the full pipeline on one tuple",
        (("v", int, "v", ""), ("k", int, "k", ""), ("lam", int, "lambda", ""), ("mu", int, "mu", "")),
        {
            "--json": ("json", None, False, "", "emit the certificate as JSON"),
        },
    ),
    "scan": (
        "run the pipeline over a CSV of tuples",
        (("input", str, "input", "CSV with header v,k,lambda,mu; # starts a comment"),),
        {
            "--jobs": ("jobs", int, None, "JOBS", f"worker processes (default: ${JOBS_ENV_VAR} or CPU count)"),
            "--output": ("output", str, None, "OUTPUT", "write rows here instead of stdout"),
            "--json-lines": ("json_lines", None, False, "", "one JSON object per row"),
        },
    ),
    "subscan": (
        "classically feasible (lambda', mu') for fixed (v1, k1)", (("v1", int, "v1", ""), ("k1", int, "k1", "")), {}
    ),
    "self-check": ("validate derived counts against brute-force censuses", (), {}),
}
HELP = "show this help message and exit"
# an argument that starts with "-" but reads as a negative number is a positional
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command):
    if command is None:
        return "usage: srgcert [-h] {%s} ..." % ",".join(COMMANDS)
    _, positionals, options = COMMANDS[command]
    flags = [f"[{flag} {spec[3]}]" if spec[1] else f"[{flag}]" for flag, spec in options.items()]
    return " ".join(["usage: srgcert", command, "[-h]", *flags, *(p[2] for p in positionals)])


def _help(command) -> str:
    """The help screen, laid out as argparse lays it out at 80 columns."""
    import textwrap  # only a help screen wraps text

    if command is None:
        head = [_usage(None), "", DESCRIPTION, ""]
        rows = [(2, "{%s}" % ",".join(COMMANDS), "")] + [(4, name, spec[0]) for name, spec in COMMANDS.items()]
        sections = {"positional arguments": rows, "options": [(2, "-h, --help", HELP)]}
    else:
        _, positionals, options = COMMANDS[command]
        head = [_usage(command), ""]
        flags = [(2, f"{flag} {spec[3]}" if spec[1] else flag, spec[4]) for flag, spec in options.items()]
        sections = {
            "positional arguments": [(2, p[2], p[3]) for p in positionals],
            "options": [(2, "-h, --help", HELP), *flags],
        }
    # help text starts in this column, or on the next line after a longer invocation
    column = min(24, 2 + max(indent + len(name) for rows in sections.values() for indent, name, _ in rows))
    lines = head
    for title, rows in sections.items():
        if rows:
            lines.append(title + ":")
            for indent, name, text in rows:
                wrapped = [" " * column + line for line in textwrap.wrap(text, 78 - column)]
                if wrapped and len(name) <= column - indent - 2:
                    wrapped[0] = (" " * indent + name).ljust(column) + wrapped[0][column:]
                else:
                    lines.append(" " * indent + name)
                lines += wrapped
            lines.append("")
    return "\n".join(lines)


def _fail(command, message):
    prog = "srgcert" if command is None else "srgcert " + command
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_BAD_INPUT)


def _read(command, kind, name, text):
    try:
        return kind(text)  # int() skips the spaces around a number, as argparse let it
    except ValueError:
        _fail(command, f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _parse(args, command=None):
    """args read as argparse read them, for command or else for the top
    level: (fields, unrecognized arguments).  Options may come before,
    between or after the positionals, as --opt value or --opt=value, or
    abbreviated to a unique prefix; the last of a repeated option wins, and
    every argument after "--" is a positional.  -h or --help prints the help
    and exits 0; any other usage error exits 2 with a message on stderr."""
    _, positionals, options = COMMANDS[command] if command else ("", (), {})
    options = {"-h": None, "--help": None, **options}
    fields = {spec[0]: spec[2] for spec in options.values() if spec}
    extras, filled, i, dashes = [], 0, 0, False
    while i < len(args):
        arg, i = args[i], i + 1
        option = None if dashes or arg == "--" else _option(command, arg, options)
        if option is None:
            if arg == "--" and not dashes:
                dashes = True
            elif command is None:  # the command: its own arguments are all the rest
                if arg not in COMMANDS:
                    choices = ", ".join(map(repr, COMMANDS))
                    _fail(None, f"argument command: invalid choice: {arg!r} (choose from {choices})")
                sub, sub_extras = _parse(args[i:], arg)
                return {"command": arg, **sub}, extras + sub_extras
            elif filled < len(positionals):
                attr, kind, name, _ = positionals[filled]
                fields[attr], filled = _read(command, kind, name, arg), filled + 1
            else:
                extras.append(arg)
            continue
        flag, value = option
        if flag not in options:  # an option that this parser does not have
            extras.append(arg)
            continue
        spec = options[flag]
        if value is not None and (spec is None or spec[1] is None):
            _fail(command, f"argument {flag}: ignored explicit argument {value!r}")
        if spec is None:
            print(_help(command), end="")
            raise SystemExit(0)
        if spec[1] is None:  # a switch
            fields[spec[0]] = True
            continue
        if value is None:
            if i == len(args) or args[i] == "--" or _option(command, args[i], options) is not None:
                _fail(command, f"argument {flag}: expected one argument")
            value, i = args[i], i + 1
        fields[spec[0]] = _read(command, spec[1], flag, value)
    if command is None:
        _fail(None, "the following arguments are required: command")
    if filled < len(positionals):
        _fail(command, "the following arguments are required: " + ", ".join(p[2] for p in positionals[filled:]))
    return fields, extras


def _option(command, arg, options):
    """None if arg is a positional, else (its flag, or arg itself if options
    has no such flag; the value after "=", or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    matches = [name] if name in options else [f for f in options if name[:2] == "--" and f.startswith(name)]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if NEGATIVE_NUMBER.match(arg) or " " in arg else (arg, None)


def _cmd_check(args) -> int:
    try:
        params = SrgParams(args.v, args.k, args.lam, args.mu)
    except InvalidParamsError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    cert = decide(params)
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
            # text mode reads \r\n and \r as \n; splitlines() would also split rows at \v, \f, \x85, ...
            raw_lines = handle.read().split("\n")
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
    print("\n".join(f"({lam}, {mu})" for lam, mu in pairs) or "NONE")
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


def parse_args(argv):
    """argv as a namespace of its command and the command's fields."""
    fields, extras = _parse(list(argv))
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(**fields)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
