"""srgcert benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the src/ directory next to bench/.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics (README.md maps one to the other).  The last line of
standard output is the result as one JSON object; the same object, with
more detail, is written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

import checks  # noqa: E402
import corpus  # noqa: E402
from meter import POOL_SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S, Meter, Tracer  # noqa: E402

SETUP_STARTS = 11
MIN_ROUNDS = 3

# (module, attribute the caller looks up, span name)
SPANS = [
    ("srgcert.cli", "main", "cli.main"),
    ("srgcert.cli", "decide", "gramtest.decide"),
    ("srgcert.gramtest", "classical_feasibility", "params.classical_feasibility"),
    ("srgcert.gramtest", "k4_lower_bound", "cliquebound.k4_lower_bound"),
    ("srgcert.cliquebound", "pair_profile", "cliquebound.pair_profile"),
    ("srgcert.gramtest", "gram2", "representation.gram2"),
    ("srgcert.gramtest", "wsplit_contradiction", "gramtest.wsplit_contradiction"),
    ("srgcert.gramtest", "alpha_min", "gramtest.alpha_min"),
    ("srgcert.gramtest", "gram3_det", "representation.gram3_det"),
    ("srgcert.cli", "certificate_to_json", "serialize.certificate_to_json"),
    ("srgcert.cli", "scan_row_to_json", "serialize.scan_row_to_json"),
    ("srgcert.cli", "dumps", "serialize.dumps"),
]
SERIALIZE_SPANS = ("serialize.certificate_to_json", "serialize.scan_row_to_json", "serialize.dumps")

# per-layer metric, what it sums per pass (calls, ms or self_ms), over which spans
LAYER_METRICS = [
    ("gramtest.decide.self_ms", "self_ms", ("gramtest.decide",)),
    ("gramtest.wsplit_contradiction.calls", "calls", ("gramtest.wsplit_contradiction",)),
    ("gramtest.wsplit_contradiction.self_ms", "self_ms", ("gramtest.wsplit_contradiction",)),
    ("gramtest.alpha_min.ms", "ms", ("gramtest.alpha_min",)),
    ("representation.gram3_det.calls", "calls", ("representation.gram3_det",)),
    ("representation.gram3_det.ms", "ms", ("representation.gram3_det",)),
    ("representation.gram2.calls", "calls", ("representation.gram2",)),
    ("cliquebound.k4_lower_bound.ms", "ms", ("cliquebound.k4_lower_bound",)),
    ("cliquebound.pair_profile.ms", "ms", ("cliquebound.pair_profile",)),
    ("params.classical_feasibility.calls", "calls", ("params.classical_feasibility",)),
    ("params.classical_feasibility.ms", "ms", ("params.classical_feasibility",)),
    ("serialize.ms", "ms", SERIALIZE_SPANS),
    ("cli.main.self_ms", "self_ms", ("cli.main",)),
]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(args):
    """Run a fresh interpreter to its end.  Returns its exit code and the
    peak RSS in MB of it or of any process it waited for."""
    proc = subprocess.Popen([sys.executable, *args], env=_child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as out:
        out.write("v,k,lambda,mu\n" + "".join(",".join(map(str, t)) + "\n" for t in rows))


def _percentile(sorted_xs, share):
    return sorted_xs[max(0, math.ceil(share * len(sorted_xs)) - 1)]


class Paper:
    """decide plus the certificate JSON, as `srgcert check --json` runs them
    after start-up, on fixed tuples of the paper.  One tuple is one
    operation and one timed unit; a round is one operation per tuple, in an
    order drawn from the seed."""

    jobs = 1

    def __init__(self, tuples):
        self.tuples = tuples
        self.rows_per_round = len(tuples)

    def prepare(self, run):
        self.run = run
        self.first = {}
        self.csv = os.path.join(run.workdir, "paper.csv")
        _write_csv(self.csv, self.tuples)

    def keys(self):
        order = list(self.tuples)
        self.run.rng.shuffle(order)
        return order

    def execute(self, t, jobs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.run.cli.main(["check", *map(str, t), "--json"])
        return code, buf.getvalue()

    def check(self, t, result):
        """The first output of each tuple is checked from scratch; later
        ones must repeat it byte for byte."""
        run = self.run
        run.attempted += 1
        if t not in self.first:
            code, out = result
            cert = json.loads(out)
            problems = [f"exit code {code}, expected 10"] * (code != 10) + checks.check_certificate(cert)
            run.info.setdefault("certificate_problems", {})["-".join(map(str, t))] = problems
            run.problems += checks.self_test_certificate(cert)
            self.first[t] = (result, not problems)
        first, ok = self.first[t]
        run.failed += not (ok and result == first)

    def end_pass(self):
        pass

    def check_whole_scan(self, out_lines):
        failed, whole = checks.check_rows(self.tuples, out_lines)
        return whole + [f"{failed} rows of the scan over the paper tuples failed"] * bool(failed)

    def details(self, medians):
        return {"cert_ms": {"-".join(map(str, t)): medians[t] * 1e3 for t in self.tuples}}


class Scan:
    """`srgcert scan --json-lines` over a corpus in an order drawn from the
    seed, split into chunks that are scanned one `srgcert.cli.main` call
    each; a chunk is a timed unit and a round is one pass over the corpus."""

    def __init__(self, name, jobs, chunks):
        self.name, self.jobs, self.chunks = name, jobs, chunks

    def prepare(self, run):
        self.run = run
        rows = corpus.read_csv(corpus.corpus_path(self.name))
        run.rng.shuffle(rows)
        self.inputs = rows
        self.rows_per_round = len(rows)
        bounds = [len(rows) * i // self.chunks for i in range(self.chunks + 1)]
        self.csv = os.path.join(run.workdir, "all.csv")
        _write_csv(self.csv, rows)
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            _write_csv(self._path(i, "csv"), rows[a:b])
        self.reference = None  # chunk outputs of the first pass, at --jobs 1
        self.outputs = {}

    def _path(self, i, ext):
        return os.path.join(self.run.workdir, f"chunk{i}.{ext}")

    def keys(self):
        return range(self.chunks)

    def execute(self, i, jobs):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.run.cli.main(["scan", self._path(i, "csv"), "--json-lines",
                                      "--jobs", str(jobs), "--output", self._path(i, "jsonl")])

    def check(self, i, code):
        if code != 0:
            self.run.problems.append(f"srgcert scan exited with {code}")
        with open(self._path(i, "jsonl"), encoding="utf-8") as handle:
            self.outputs[i] = handle.read()

    def end_pass(self):
        run = self.run
        outs = [self.outputs[i] for i in range(self.chunks)]
        if self.reference is None:
            self.reference = outs
            run.problems += checks.self_test_rows(self.inputs, "".join(outs).splitlines())
        elif outs != self.reference:
            run.problems.append("scan output differs from the first pass (made at --jobs 1)")
        failed, whole = checks.check_rows(self.inputs, "".join(outs).splitlines())
        run.problems += whole
        run.attempted += len(self.inputs)
        run.failed += failed

    def check_whole_scan(self, out_lines):
        if out_lines != "".join(self.reference).splitlines():
            return ["one scan over the whole input differs from the chunked scans"]
        return []

    def details(self, medians):
        return {}


WORKLOADS = {
    "paper_gram": Paper([(460, 153, 32, 60), (6205, 858, 47, 130)]),
    "paper_wsplit": Paper([(5929, 1482, 275, 402)]),
    "feasible_scan": Scan("feasible", jobs=1, chunks=1),
    "screen_scan": Scan("screen", jobs=2, chunks=20),
}


class Run:
    """One run of one workload: its meter, seeded order, counts and problems."""

    def __init__(self, workload, seed, seconds, workdir, cli):
        self.workload, self.seconds, self.workdir, self.cli = workload, seconds, workdir, cli
        self.rng = random.Random(seed)
        self.meter = Meter()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def one_pass(self, jobs, after_unit=None):
        """Run every unit of one round; return {key: Unit}."""
        units = {}
        wl = self.workload
        for key in wl.keys():
            with self.meter.unit(SAMPLE_INTERVAL_S if jobs == 1 else POOL_SAMPLE_INTERVAL_S) as u:
                result = wl.execute(key, jobs)
            if after_unit is not None:
                after_unit(u)
            wl.check(key, result)
            units[key] = u
        wl.end_pass()
        return units

    def rounds(self, one_round):
        """Call one_round() until the run's seconds are spent, finishing
        whole rounds only and never fewer than MIN_ROUNDS."""
        start = time.perf_counter()
        done, last = 0, 0.0
        while done < MIN_ROUNDS or time.perf_counter() - start + last <= self.seconds:
            began = time.perf_counter()
            one_round()
            last = time.perf_counter() - began
            done += 1
        return done

    def setup_s(self):
        """Median time, at reference speed, for a fresh interpreter to
        import srgcert.cli, which every srgcert command pays first."""
        times = []
        for _ in range(SETUP_STARTS):
            with self.meter.unit() as u:
                code, _ = _run_child(["-c", "import srgcert.cli"])
            if code != 0:
                raise RuntimeError("a fresh interpreter could not import srgcert.cli")
            times.append(u.ref)
        self.info["setup_s_samples"] = times
        return statistics.median(times)

    def peak_rss_mb(self):
        """Peak RSS of one `srgcert scan` process over the workload's whole
        input at its job count; its output is checked too."""
        out = os.path.join(self.workdir, "whole.jsonl")
        code, rss = _run_child(["-c", "from srgcert.cli import run; run()", "scan", self.workload.csv,
                                "--json-lines", "--jobs", str(self.workload.jobs), "--output", out])
        if code != 0:
            self.problems.append(f"srgcert scan exited with {code}")
        with open(out, encoding="utf-8") as handle:
            self.problems += self.workload.check_whole_scan(handle.read().splitlines())
        return rss

    def end_to_end(self):
        wl = self.workload
        self.one_pass(jobs=1)  # warm-up; for scans also the --jobs 1 reference output
        metrics = {"setup_s": (self.setup_s(), "s"), "peak_rss_mb": (self.peak_rss_mb(), "MB")}
        per_key = defaultdict(list)
        n = self.rounds(lambda: [per_key[k].append(u) for k, u in self.one_pass(wl.jobs).items()])
        ref = {k: statistics.median(u.ref for u in us) for k, us in per_key.items()}
        cpu = {k: statistics.median(u.cpu_ref for u in us) for k, us in per_key.items()}
        metrics["tuples_per_s"] = (wl.rows_per_round / sum(ref.values()), "1/s")
        metrics["cpu_s"] = (sum(cpu.values()), "s")
        self.info.update(rounds=n, round_s=sum(ref.values()), **wl.details(ref),
                         round_s_each=[sum(us[i].ref for us in per_key.values()) for i in range(n)],
                         raw_round_s=sum(statistics.median(u.raw for u in us) for us in per_key.values()))
        return metrics

    def per_layer(self):
        """Rounds of one untraced and one traced pass, in an order drawn
        from the seed; scans run at --jobs 1 so that every span is seen."""
        self.one_pass(jobs=1)
        tracer = Tracer(self.meter, "gramtest.decide")
        passes = {False: defaultdict(list), True: defaultdict(list)}

        def one_round():
            modes = [False, True]
            self.rng.shuffle(modes)
            for traced in modes:
                if traced:
                    for module, attr, name in SPANS:
                        tracer.install(importlib.import_module(module), attr, name)
                try:
                    units = self.one_pass(1, (lambda u: tracer.fold(u.factor)) if traced else None)
                finally:
                    tracer.restore()
                for k, u in units.items():
                    passes[traced][k].append(u.ref)

        n = self.rounds(one_round)
        plain, traced = (sum(statistics.median(v) for v in passes[m].values()) for m in (False, True))
        per_pass = {"calls": tracer.calls, "ms": tracer.total, "self_ms": tracer.self_time}
        metrics = {}
        for metric, kind, spans in LAYER_METRICS:
            value = sum(per_pass[kind][s] for s in spans) / n
            metrics[metric] = (round(value, 6), "count") if kind == "calls" else (value * 1e3, "ms")
        lat = sorted(tracer.latencies, key=lambda x: x[0]) or [(0.0, None)]
        for label, share in (("p50", 0.5), ("p95", 0.95), ("max", 1.0)):
            metrics[f"gramtest.decide.ms.{label}"] = (_percentile(lat, share)[0] * 1e3, "ms")
        metrics["trace.overhead_pct"] = ((traced - plain) / plain * 100, "%")
        slowest = lat[-1][1]
        self.info.update(
            rounds=n,
            untraced_round_s=plain,
            traced_round_s=traced,
            slowest_decide=None if slowest is None else [slowest.v, slowest.k, slowest.lam, slowest.mu],
            spans_missing=tracer.missing,
            **{f"{s}.ms": tracer.total[s] * 1e3 / n for s in SERIALIZE_SPANS},
        )
        return metrics


def _load_program():
    """Import srgcert from SRC and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "srgcert", "cli.py")):
        raise SystemExit(f"no srgcert sources under {SRC}")
    sys.path.insert(0, SRC)
    import srgcert.cli

    if not os.path.abspath(srgcert.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"srgcert was imported from {srgcert.cli.__file__}, not {SRC}")
    return srgcert.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = _load_program()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload]
        run = Run(workload, args.seed, args.seconds, workdir, cli)
        workload.prepare(run)
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w", encoding="utf-8") as out:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "problems": run.problems, "info": run.info}, out, indent=2)
    print(f"{name}: {run.attempted} attempted, {run.failed} failed, correct={result['correct']}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    for key, value in run.info.items():
        print(f"  {key}: {value}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
