"""Output checks that share no code with srgcert's pipeline.

Certificates are re-derived from (v, k, lambda, mu) with the benchmark's own
arithmetic; scan rows are held against the benchmark's own classical
screens (corpus.py).  Every check returns a list of problems, empty when
the output is right.  The self_test_* functions feed each check corrupted
copies of real outputs and require every copy to be refused.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction

import corpus

ENUMERATE_MAX_POINTS = 1_000_000  # whole-region re-check only up to this size


def _rat(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _alpha_min(n: int, m: int, w: int) -> int:
    """Degree-sum bound of the w largest degrees among n vertices with m
    edges: the best over every threshold t = 1..n of min(t*w, 2m - (t-1)(n-w))."""
    if w == n:
        return 2 * m
    return max(0, max(min(t * w, 2 * m - (t - 1) * (n - w)) for t in range(1, n + 1)))


def _det3(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


class _Split:
    """The 3x3 Gram of Y1 (the lam-w low vertices of a common neighbourhood),
    Y2 (its w top-degree vertices) and Y3 = x_u + x_w, given the top degree
    sum alpha and the edge count beta inside the top part.  Entries are
    scaled by D, the common denominator of p and q, so that determinants
    are integers; det = det_scaled / D^3."""

    def __init__(self, lam: int, p: Fraction, q: Fraction, w: int, m: int):
        self.d = p.denominator * q.denominator // math.gcd(p.denominator, q.denominator)
        self.P, self.Q = int(p * self.d), int(q * self.d)
        self.n1, self.w, self.m = lam - w, w, m

    def det(self, alpha: int, beta: int) -> Fraction:
        return Fraction(self.det_scaled(alpha, beta), self.d ** 3)

    def det_scaled(self, alpha: int, beta: int) -> int:
        D, P, Q, n1, w = self.d, self.P, self.Q, self.n1, self.w
        cross = alpha - 2 * beta
        low = self.m + beta - alpha
        gram = [
            [n1 * D + 2 * low * P + (n1 * (n1 - 1) - 2 * low) * Q,
             cross * P + (n1 * w - cross) * Q,
             2 * n1 * P],
            [0, w * D + 2 * beta * P + (w * (w - 1) - 2 * beta) * Q, 2 * w * P],
            [0, 0, 2 * D + 2 * P],
        ]
        for i in range(3):
            for j in range(i):
                gram[i][j] = gram[j][i]
        return _det3(gram)


def _beta_range(lam: int, w: int, m: int, alpha: int) -> range:
    """beta a w-split can have for a top degree sum alpha: beta top edges,
    alpha - 2beta crossing edges (between 0 and w(lam-w)), m + beta - alpha
    low edges (at least 0), beta <= C(w, 2)."""
    lo = max(0, alpha - m, _ceil_div(alpha - w * (lam - w), 2))
    return range(lo, min(w * (w - 1) // 2, alpha // 2) + 1)


def _alpha_range(lam: int, w: int, m: int, alpha_lo: int) -> range:
    return range(alpha_lo, min(2 * m, w * (lam - 1)) + 1)


def check_certificate(cert: dict) -> list[str]:
    """Problems with a Nonexistent certificate, re-derived independently."""
    try:
        return _check_certificate(cert)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed certificate: {exc!r}"]


def _check_certificate(cert: dict) -> list[str]:
    par = cert["params"]
    t = (par["v"], par["k"], par["lambda"], par["mu"])
    v, k, lam, mu = t
    bad: list[str] = []
    if cert["verdict"] != "Nonexistent":
        bad.append(f"verdict {cert['verdict']}, expected Nonexistent")
    spec = corpus.spectrum(t)
    if spec is None or corpus.classify(t) != corpus.FEASIBLE:
        return bad + ["tuple is not classically feasible with an integral spectrum"]
    r, s, f, g = spec
    if cert["spectrum"] != {"r": r, "s": s, "f": f, "g": g}:
        bad.append(f"spectrum {cert['spectrum']}, expected r={r} s={s} f={f} g={g}")
    p, q = Fraction(s, k), Fraction(-(1 + s), v - k - 1)
    rep = cert["representation"]
    if (_rat(rep["p"]), _rat(rep["q"]), rep["d"]) != (p, q, g):
        bad.append("representation constants differ from p = s/k, q = -(1+s)/(v-k-1), d = g")

    k4 = cert["k4_bound"]
    a0, a1, a2 = (_rat(c) for c in k4["a_quadratic"])
    b2 = _rat(k4["k4_quadratic"][2])
    if k4["lower"] > math.comb(v, 4):
        bad.append(f"K4 >= {k4['lower']} exceeds C(v,4) = {math.comb(v, 4)}")
    if b2 <= 0 or a0 <= 0:
        bad.append("4-clique quadratic form has no positive K4 or constant coefficient")
    else:
        raw = ((a1 / 2) ** 2 / a0 - a2) / b2
        if k4["raw_bound"] is None or _rat(k4["raw_bound"]) != raw or k4["lower"] != max(0, math.ceil(raw)):
            bad.append("K4 bound differs from the optimum of its own quadratic form")

    # 2x2 Gram of X1 (sum of the lam common neighbours, m edges among them)
    # and X2 = x_u + x_w: det(m) = <X1,X1>(2+2p) - (2 lam p)^2, linear in m.
    root = ((2 * lam * p) ** 2 / (2 + 2 * p) - lam - lam * (lam - 1) * q) / (2 * (p - q))
    lower = _ceil_div(12 * k4["lower"], v * k)
    upper = min(math.floor(root), lam * (lam - 1) // 2)
    if cert["m_upper_exact"] is None or _rat(cert["m_upper_exact"]) != root:
        bad.append(f"2x2 Gram root is {root}, certificate says {cert['m_upper_exact']}")
    if cert["m_range"] != {"lower": lower, "upper": upper}:
        bad.append(f"m window {cert['m_range']}, expected [{lower}, {upper}]")

    wits = cert["witnesses"]
    if lower <= upper and [w_["m"] for w_ in wits] != list(range(lower, upper + 1)):
        bad.append("witnesses do not cover the m window in order")
    for wit in wits:
        bad += _check_witness(lam, p, q, wit)
    return bad


def _check_witness(lam: int, p: Fraction, q: Fraction, wit: dict) -> list[str]:
    w, m = wit["w"], wit["m"]
    tag = f"witness m={m} w={w}"
    if not (1 <= w < lam and 0 <= m <= lam * (lam - 1) // 2):
        return [f"{tag}: w or m out of range"]
    a_lo = _alpha_min(lam, m, w)
    bad = []
    if wit["alpha_min"] != a_lo:
        bad.append(f"{tag}: alpha_min {wit['alpha_min']}, brute force gives {a_lo}")
    split = _Split(lam, p, q, w, m)
    at = tuple(wit["region_max_at"])
    claimed = _rat(wit["region_max_det"])
    if at[0] not in _alpha_range(lam, w, m, a_lo) or at[1] not in _beta_range(lam, w, m, at[0]):
        bad.append(f"{tag}: region_max_at {at} lies outside the region")
    if split.det(*at) != claimed or claimed >= 0:
        bad.append(f"{tag}: det at {at} is {split.det(*at)}, certificate says {claimed} (< 0 required)")
    alphas = _alpha_range(lam, w, m, a_lo)
    if sum(len(_beta_range(lam, w, m, a)) for a in alphas) <= ENUMERATE_MAX_POINTS:
        best = Fraction(max(split.det_scaled(a, b) for a in alphas for b in _beta_range(lam, w, m, a)), split.d ** 3)
        if best != claimed:
            bad.append(f"{tag}: region maximum is {best}, certificate says {claimed}")
    return bad


def check_rows(inputs, lines) -> tuple[int, list[str]]:
    """Check scan JSON-lines output against its input tuples.

    Returns (number of failed rows, problems with the output as a whole).
    A row fails when its verdict disagrees with the benchmark's screens, when
    it calls a graph known to exist Nonexistent, or when its fields are
    inconsistent.  Missing, extra or reordered rows are whole-output problems.
    """
    if len(lines) != len(inputs):
        return len(inputs), [f"{len(lines)} output rows for {len(inputs)} input rows"]
    failed = 0
    for t, line in zip(inputs, lines):
        try:
            row = json.loads(line)
            par = row["params"]
            if (par["v"], par["k"], par["lambda"], par["mu"]) != t:
                return len(inputs), [f"row for {t} carries params {par}: rows out of order"]
            ok = not row_problems(t, row)
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed, []


def row_problems(t, row: dict) -> list[str]:
    cls = corpus.classify(t)
    verdict = row["verdict"]
    expected = {
        corpus.INFEASIBLE: {"InfeasibleClassical"},
        corpus.CONFERENCE: {"NotApplicable"},
        corpus.FEASIBLE: {"Inconclusive", "Nonexistent"},
    }[cls]
    bad = []
    if verdict not in expected:
        bad.append(f"{t}: verdict {verdict}, screens say {cls}")
    if verdict == "Nonexistent" and corpus.exists(t):
        bad.append(f"{t}: a graph with these parameters exists, verdict Nonexistent")
    if verdict in ("InfeasibleClassical", "NotApplicable") and (
        row["k4_lower"], row["m_range"], row["witness_w"]) != (None, None, None):
        bad.append(f"{t}: {verdict} row carries Gram-test results")
    if verdict == "Nonexistent":
        rng = row["m_range"]
        if rng is None or (rng["lower"] <= rng["upper"] and row["witness_w"] is None):
            bad.append(f"{t}: Nonexistent without an empty window or a witness")
    if row["k4_lower"] is not None and row["k4_lower"] > math.comb(t[0], 4):
        bad.append(f"{t}: K4 >= {row['k4_lower']} exceeds C(v,4)")
    spec = corpus.spectrum(t)
    v, k, lam, mu = t
    q22 = spec is not None and mu < k and (
        (spec[1] + 1) * (k + spec[1] + 2 * spec[0] * spec[1]) == (k + spec[1]) * (spec[0] + 1) ** 2)
    if row["krein_q22_zero"] != q22:
        bad.append(f"{t}: krein_q22_zero {row['krein_q22_zero']}, expected {q22}")
    return bad


def _corrupted_certificates(cert: dict):
    def edit(fn):
        c = copy.deepcopy(cert)
        fn(c)
        return c

    wit = lambda c: c["witnesses"][0]  # noqa: E731
    yield "verdict", edit(lambda c: c.update(verdict="Inconclusive"))
    yield "spectrum", edit(lambda c: c["spectrum"].update(f=c["spectrum"]["f"] + 1))
    yield "p", edit(lambda c: c["representation"]["p"].update(num=str(int(c["representation"]["p"]["num"]) + 1)))
    yield "K4", edit(lambda c: c["k4_bound"].update(lower=c["k4_bound"]["lower"] + 1))
    yield "m root", edit(lambda c: c["m_upper_exact"].update(den=str(int(c["m_upper_exact"]["den"]) + 1)))
    yield "m window", edit(lambda c: c["m_range"].update(upper=c["m_range"]["upper"] + 1))
    yield "alpha_min", edit(lambda c: wit(c).update(alpha_min=wit(c)["alpha_min"] + 1))
    yield "region_max_det", edit(lambda c: wit(c).update(region_max_det={"num": "-1", "den": "1"}))
    yield "region_max_at", edit(lambda c: wit(c).update(
        region_max_at=[wit(c)["region_max_at"][0], wit(c)["region_max_at"][1] + 1]))
    yield "missing witness", edit(lambda c: c.update(witnesses=[]))


def self_test_certificate(cert: dict) -> list[str]:
    """Problems with the certificate checks: a real certificate must pass
    and every corrupted copy must be refused."""
    bad = [f"real certificate refused: {p}" for p in check_certificate(cert)]
    for what, corrupted in _corrupted_certificates(cert):
        if not check_certificate(corrupted):
            bad.append(f"certificate with a corrupted {what} passed")
    return bad


def self_test_rows(inputs, lines) -> list[str]:
    """Problems with the row checks: corrupted copies of real scan output
    must fail more rows, or be refused as a whole."""
    base_failed, base_bad = check_rows(inputs, lines)
    bad = [f"real output refused: {p}" for p in base_bad]
    rows = [json.loads(line) for line in lines]
    corruptions = (
        ("feasible row marked infeasible", "Inconclusive", {"verdict": "InfeasibleClassical"}),
        ("infeasible row marked feasible", "InfeasibleClassical", {"verdict": "Inconclusive"}),
        ("conference row marked feasible", "NotApplicable", {"verdict": "Inconclusive"}),
        ("existing graph marked Nonexistent", "exists", {"verdict": "Nonexistent", "witness_w": 1}),
    )
    for what, verdict, fields in corruptions:
        i = next((i for i, (t, r) in enumerate(zip(inputs, rows)) if r["verdict"] == verdict
                  or (verdict == "exists" and r["verdict"] == "Inconclusive" and corpus.exists(t))), None)
        if i is None:
            continue
        out = list(lines)
        out[i] = json.dumps({**rows[i], **fields})
        if check_rows(inputs, out) == (base_failed, []):
            bad.append(f"scan output with a {what} passed")
    for what, out in (("missing row", lines[:-1]), ("swapped rows", [lines[1], lines[0]] + lines[2:])):
        if not check_rows(inputs, out)[1]:
            bad.append(f"scan output with a {what} passed")
    return bad
