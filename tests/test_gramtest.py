import collections
import json
import math
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from srgcert import gramtest
from srgcert.gramtest import (
    MRange,
    Verdict,
    WSplitWitness,
    _alpha_range,
    _nonneg_runs,
    _region_max_scaled,
    _survivors,
    _unrefuted,
    alpha_min,
    decide,
    m_lower,
    scaled_value,
    wsplit_contradiction,
)
from srgcert.oracle import PairClass, census, construct, lambda_subgraph_edge_counts, pair_profile, srg_parameters
from srgcert.params import SrgParams, derive_spectrum, repr_constants
from srgcert.serialize import certificate_json, certificate_to_text, scan_row
from conftest import complement, complement_params
from support import rep_fractions
from test_acceptance import _gram3_det, _primitive_feasible_tuples
from test_families import PRIME_POWERS, _family_tuples, _gq
from test_serialize import _dict_certificate
from wsplit_oracle import Gram3PerM, gram3_per_m, gram3_per_w, kernel_coefficients, kernel_left
from wsplit_oracle import nonneg_on as _nonneg_on, pieces as _pieces, piece_bounds
from wsplit_oracle import unrefuted as oracle_unrefuted, wsplit as oracle_wsplit

PAPER_TUPLES = [(460, 153, 32, 60), (6205, 858, 47, 130), (5929, 1482, 275, 402)]
ORACLE_TUPLES = PAPER_TUPLES + [(121, 100, 81, 90)]
FEASIBLE_CSV = Path(__file__).resolve().parent.parent / "bench" / "corpus" / "feasible.csv"


def _rep(tup):
    params = SrgParams(*tup)
    return params, repr_constants(params, derive_spectrum(params))


def _m_upper(params, rep):
    """The root of the 2x2 Gram determinant as a Fraction, None for lam = 0."""
    root = gramtest._gram2_root(params, rep)
    return None if root is None else Fraction(*root)


def _over_lcm(det):
    """Four Fraction coefficients as integers over their least common denominator."""
    den = math.lcm(*(c.denominator for c in det))
    return [int(c * den) for c in det], den


def _region_max(det, n, m, w, alpha_lo):
    """_region_max_scaled on four Fraction coefficients (c00, c10, c01, c20),
    with the maximum as an exact rational."""
    nums, den = _over_lcm(det)
    result = _region_max_scaled(*nums, n, m, w, alpha_lo)
    return None if result is None else (Fraction(result[0], den), result[1])


def _tuple_windows():
    """(params, rep, ms, past) for each of ORACLE_TUPLES: five edge counts
    from 0 up to the window top floor(_m_upper), where c01 <= 0 < -c20,
    and past = top + 1 <= C(lam, 2), the first m beyond the 2x2 root."""
    for tup in ORACLE_TUPLES:
        params, rep = _rep(tup)
        n = params.lam
        top = math.floor(_m_upper(params, rep))
        assert top < n * (n - 1) // 2, tup
        yield params, rep, sorted({0, 1, n, top // 4, top}), top + 1


def test_m_upper_target_tuple():
    params, rep = _rep((460, 153, 32, 60))
    assert _m_upper(params, rep) == Fraction(2416, 61)
    assert decide(params).m_range.upper == 39


def test_m_upper_lambda_zero():
    params, rep = _rep((10, 3, 0, 1))
    assert _m_upper(params, rep) is None
    assert decide(params).m_range.upper == 0


def test_m_upper_covers_measured_maximum(reference_graphs):
    for label, (g, params) in reference_graphs.items():
        spectrum = derive_spectrum(params)
        if spectrum is None:
            continue
        rep = repr_constants(params, spectrum)
        measured = max(lambda_subgraph_edge_counts(g), default=0)
        root = _m_upper(params, rep)
        assert (measured == 0) if root is None else (root >= measured), label


def test_m_lower_examples():
    params = SrgParams(460, 153, 32, 60)
    assert m_lower(params, 228111) == 39
    assert m_lower(params, 0) == 0
    rook = SrgParams(16, 6, 2, 2)
    assert m_lower(rook, 8) == 1


def test_alpha_min_reference_case():
    assert alpha_min(32, 39, 14) == 42


def test_alpha_min_whole_set():
    for n, m in [(10, 17), (5, 0), (20, 190)]:
        assert alpha_min(n, m, n) == 2 * m


def test_alpha_range_never_empty():
    """The degree-sum bound never exceeds the region's top alpha, for every
    n <= 30, m <= C(n,2) and 1 <= w < n: the w-split region is never empty."""
    cases = 0
    for n in range(2, 31):
        for m in range(n * (n - 1) // 2 + 1):
            for w in range(1, n):
                lo, hi = _alpha_range(n, m, w, alpha_min(n, m, w))
                assert lo <= hi, (n, m, w)
                cases += 1
    assert cases == 99325


def test_alpha_min_bad_input():
    with pytest.raises(ValueError):
        alpha_min(10, 46, 3)
    with pytest.raises(ValueError):
        alpha_min(10, 5, 0)


def _random_graph(rng, n):
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = [e for e in edges if rng.random() < rng.choice([0.2, 0.5, 0.8])]
    return n, keep


def test_alpha_min_sound_on_random_graphs():
    rng = random.Random(1105)
    for _ in range(200):
        n = rng.randint(2, 20)
        n, edges = _random_graph(rng, n)
        degs = [0] * n
        for a, b in edges:
            degs[a] += 1
            degs[b] += 1
        degs.sort(reverse=True)
        m = len(edges)
        prefix = 0
        for w in range(1, n + 1):
            prefix += degs[w - 1]
            assert prefix >= alpha_min(n, m, w), (n, m, w)


def test_wsplit_witness_target_tuple():
    params, rep = _rep((460, 153, 32, 60))
    wit = wsplit_contradiction(params, rep, 39)
    assert wit is not None
    assert wit.w == 13
    assert wit.alpha_min == 39
    assert Fraction(wit.region_max, wit.den) == Fraction(-440128, 1193859)
    assert wit.region_max_at == (39, 0)


def test_wsplit_corner_value_at_w14():
    """The w=14 region maximum sits exactly at the corner (42, 3)."""
    params, rep = _rep((460, 153, 32, 60))
    det = _gram3_det(params, rep, 14, 39)
    max_det, max_at = _region_max(det, params.lam, 39, 14, alpha_min(32, 39, 14))
    assert max_det == Fraction(-270848, 132651)
    assert max_at == (42, 3)


def test_wsplit_none_for_existing_rook(reference_graphs):
    g, params = reference_graphs["rook(4)"]
    rep = repr_constants(params, derive_spectrum(params))
    m = max(lambda_subgraph_edge_counts(g))
    assert wsplit_contradiction(params, rep, m) is None


def test_wsplit_witness_region_sampling():
    """Every feasible integer point sampled inside a witnessed region must
    evaluate negative."""
    params, rep = _rep((460, 153, 32, 60))
    m = 39
    wit = wsplit_contradiction(params, rep, m)
    det = _gram3_det(params, rep, wit.w, m)
    n, w = params.lam, wit.w
    rng = random.Random(4)
    hits = 0
    alpha_hi = min(2 * m, w * (n - 1))
    while hits < 1000:
        alpha = rng.randint(wit.alpha_min, alpha_hi)
        blo = max(0, alpha - m, -((w * (n - w) - alpha) // 2))
        bhi = min(w * (w - 1) // 2, alpha // 2)
        if blo > bhi:
            continue
        beta = rng.randint(blo, bhi)
        assert scaled_value(*det, alpha, beta) < 0, (alpha, beta)
        hits += 1


def test_corner_dominance_finite_differences():
    """At w=14 the determinant strictly decreases in alpha on [42, 78] at
    beta=3, and strictly decreases in beta at alpha=42."""
    params, rep = _rep((460, 153, 32, 60))
    det = _gram3_det(params, rep, 14, 39)
    for alpha in range(42, 78):
        assert scaled_value(*det, alpha + 1, 3) - scaled_value(*det, alpha, 3) < 0
    for beta in range(3, 21):
        assert scaled_value(*det, 42, beta + 1) - scaled_value(*det, 42, beta) < 0


def test_region_max_agrees_with_full_enumeration():
    """The per-alpha endpoint evaluation must equal literal enumeration of
    every integer point, in value and position, on random quadratics and on
    every split of the main tuple."""
    rng = random.Random(99)

    def brute(det, n, m, w, alo):
        best = None
        for alpha in range(alo, min(2 * m, w * (n - 1)) + 1):
            blo = max(0, alpha - m, -((w * (n - w) - alpha) // 2))
            bhi = min(w * (w - 1) // 2, alpha // 2)
            for beta in range(blo, bhi + 1):
                val = scaled_value(*det, alpha, beta)
                if best is None or val > best[0]:
                    best = (val, (alpha, beta))
        return best

    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 7))

    cases = []
    for _ in range(150):
        q = frac(-9, 9), frac(-9, 9), frac(-9, 0), frac(-9, -1)  # c01 <= 0 < -c20
        n = rng.randint(3, 10)
        m = rng.randint(0, n * (n - 1) // 2)
        cases.append((q, n, m, rng.randint(1, n - 1)))
    params, rep = _rep((460, 153, 32, 60))
    cases += [(_gram3_det(params, rep, w, 39), params.lam, 39, w) for w in range(1, params.lam)]
    for q, n, m, w in cases:
        alo = alpha_min(n, m, w)
        assert _region_max(q, n, m, w, alo) == brute(q, n, m, w, alo), (n, m, w)
    for c01, c20 in ((1, -1), (0, 0), (-1, 1)):  # outside the contract
        with pytest.raises(ValueError):
            _region_max((Fraction(0), Fraction(0), Fraction(c01), Fraction(c20)), 5, 3, 2, 0)


def _loop_region_max(det, n, m, w, alpha_lo):
    """The per-alpha scan the closed form replaced: one step per alpha, one
    beta endpoint each, kept as the oracle."""
    alpha_hi = min(2 * m, w * (n - 1))
    cross_cap = w * (n - w)
    beta_cap = w * (w - 1) // 2
    (c00, c10, c01, c20), lcm = _over_lcm(det)
    best_val = best_at = None
    for alpha in range(alpha_lo, alpha_hi + 1):
        blo = max(0, alpha - m, -((cross_cap - alpha) // 2))
        bhi = min(beta_cap, alpha // 2)
        if blo > bhi:
            continue
        b = bhi if c01 > 0 else blo
        val = (c20 * alpha + c10) * alpha + c01 * b + c00
        if best_val is None or val > best_val:
            best_val, best_at = val, (alpha, b)
    if best_val is None:
        return None
    return Fraction(best_val, lcm), best_at


def _loop_alpha_min(n, m, w):
    """The threshold scan the closed form replaced, kept as the oracle."""
    if w == n:
        return 2 * m
    best = 0
    t = 1
    while True:
        rest = 2 * m - (t - 1) * (n - w)
        if rest <= 0:
            break
        best = max(best, min(t * w, rest))
        t += 1
    return best


def test_region_max_closed_form_matches_loop_on_tuples():
    """Every split of four tuples at five edge counts of the window, from
    the degree-sum bound and from alpha = 0; one m past the window, a
    ValueError."""
    cases = 0
    for params, rep, ms, past in _tuple_windows():
        n = params.lam
        for m in ms:
            for w in range(1, n):
                det = _gram3_det(params, rep, w, m)
                for alo in {alpha_min(n, m, w), 0}:
                    got = _region_max(det, n, m, w, alo)
                    assert got == _loop_region_max(det, n, m, w, alo), (params, m, w, alo)
                    cases += 1
        with pytest.raises(ValueError):
            _region_max(_gram3_det(params, rep, 1, past), n, past, 1, 0)
    assert cases > 3000


def _fraction_gram3_det(params, rep, w, m):
    """The Fraction coefficients (c00, c10, c01, c20) the D-scaled integers
    replaced, kept as the oracle."""
    lam = params.lam
    p, q = rep_fractions(rep)
    d = p - q
    n1 = lam - w
    A1 = n1 + n1 * (n1 - 1) * q + 2 * d * m
    A2 = w + w * (w - 1) * q
    A12 = n1 * w * q
    a13, a23, a33 = 2 * n1 * p, 2 * w * p, 2 + 2 * p
    return (
        a33 * (A1 * A2 - A12 * A12) - a23 * a23 * A1 - a13 * a13 * A2 + 2 * a13 * a23 * A12,
        2 * d * (2 * lam * p * a23 - a33 * (A2 + A12)),
        2 * d * (a33 * (A1 + A2 + 2 * A12) - (2 * lam * p) ** 2),
        -a33 * d * d,
    )


def test_gram3_det_scaled_matches_fraction_coefficients():
    """Every split of four tuples at five edge counts of the window, one
    past it and C(lam, 2): the integer numerators over D^3 are the Fraction
    coefficients, and inside the window the region maximum is the same from
    either form."""
    for params, rep, ms, past in _tuple_windows():
        n = params.lam
        for m in ms + [past, n * (n - 1) // 2]:
            h = gram3_per_m(params, rep, m)
            for w in range(1, n):
                want = _fraction_gram3_det(params, rep, w, m)
                nums = (*gram3_per_w(h, w), h.n01, h.n20)
                assert all(type(x) is int for x in nums) and h.den == rep.D**3
                assert tuple(Fraction(x, h.den) for x in nums) == want, (params, m, w)
                alo = alpha_min(n, m, w)
                if m >= past:
                    with pytest.raises(ValueError):
                        _region_max_scaled(*nums, n, m, w, alo)
                    continue
                got = _region_max_scaled(*nums, n, m, w, alo)
                assert _region_max(want, n, m, w, alo) == (Fraction(got[0], h.den), got[1]), (params, m, w)


def _random_region_cases():
    """20,000 seeded (q, n, m, w, alpha_lo): small integer and rational
    coefficients with c01 <= 0 < -c20, zeros included, on random regions."""
    rng = random.Random(5)
    for _ in range(20000):
        scale = rng.choice([1, 3, 20])

        def coeff(lo, hi):
            if lo <= 0 <= hi and rng.random() < 0.15:
                return Fraction(0)
            return Fraction(rng.randint(lo, hi), rng.choice([1, 1, 2, 3, 7]))

        q = coeff(-scale, scale), coeff(-scale, scale), coeff(-scale, 0), coeff(-scale, -1)
        n = rng.randint(2, rng.choice([6, 12, 30]))
        m = rng.randint(0, n * (n - 1) // 2)
        w = rng.randint(1, n - 1)
        yield q, n, m, w, rng.choice([alpha_min(n, m, w), 0, rng.randint(-2, 2 * m + 2)])


def test_region_max_closed_form_matches_loop_on_random_quadratics():
    """Zeros among the coefficients make ties and c01 = 0 occur; a convex,
    linear or beta-increasing quadratic is a ValueError."""
    c01_negative = set()
    for q, n, m, w, alo in _random_region_cases():
        c01_negative.add(q[2] < 0)
        assert _region_max(q, n, m, w, alo) == _loop_region_max(q, n, m, w, alo), (q, n, m, w, alo)
    assert c01_negative == {True, False}
    for c01, c20 in ((1, -1), (0, 0), (-1, 1)):
        with pytest.raises(ValueError):
            _region_max(q[:2] + (Fraction(c01), Fraction(c20)), n, m, w, alo)
    for w in (0, 5):
        with pytest.raises(ValueError):
            _region_max(q, 5, 3, w, 0)


def _endpoint_value(q, n, m, w, r, t):
    """V(t): the value at alpha = 2t + r and its lower beta endpoint
    max(0, alpha - m, t - c), c = floor((w(n-w) - r)/2), at real t too."""
    c00, c10, c01, c20 = q
    alpha = 2 * t + r
    return c00 + c10 * alpha + c01 * max(0, alpha - m, t - (w * (n - w) - r) // 2) + c20 * alpha * alpha


def _real_peak(q, n, m, w, r):
    """The real maximizer of V (see _endpoint_value): V is concave and
    quadratic between the crossings of the three lines of the beta
    endpoint, so it peaks at one of those crossings or at the vertex of a
    piece, whichever is best."""
    c00, c10, c01, c20 = map(Fraction, q)
    lines = (0, 0), (2, r - m), (1, -((w * (n - w) - r) // 2))  # (slope, intercept) in t
    points = [-(2 * c10 + 4 * c20 * r + s * c01) / (8 * c20) for s, _ in lines]
    points += [Fraction(b2 - b1, s1 - s2) for i, (s1, b1) in enumerate(lines) for s2, b2 in lines[i + 1 :]]
    return max(points, key=lambda t: _endpoint_value(q, n, m, w, r, t))


def _peak_corners(q, n, m, w, alpha_lo, r):
    """The corners of _region_max_scaled's rule that parity r of the
    region shows, read from the real peak T of V and the three lines."""
    lo, hi = _alpha_range(n, m, w, alpha_lo)
    t_lo, t_hi = (lo - r + 1) // 2, (hi - r) // 2
    T, c, mr = _real_peak(q, n, m, w, r), (w * (n - w) - r) // 2, m - r
    corners = {"a single alpha"} if lo == hi else set()
    if T < t_lo or T > t_hi:
        corners.add("T clamped to t_lo" if T < t_lo else "T clamped to t_hi")
    else:
        if q[2] == 0:
            corners.add("c01 = 0")
        if T.denominator == 1:
            corners.add("T an integer")
        if 2 * c >= mr:
            corners.add("two lines, T where they cross" if 2 * T == mr else "two lines, T at a vertex")
        elif c < T < mr - c:
            corners.add("three lines, T at the slope-1 vertex")
        else:
            corners.add({c: "three lines, T at b_a", mr - c: "three lines, T at b_b"}.get(T, "three lines, T at a vertex"))
    return corners


# (the corner it shows, evaluations of V on parity r, coefficients
# (c00, c10, c01, c20), n, m, w, alpha_lo, parity r)
REGION_EDGE_CASES = [
    ("c01 = 0", 2, (-9, 9, 0, -2), 6, 5, 1, 2, 0),
    ("T an integer", 1, (-4, 8, -1, -1), 8, 6, 1, 2, 0),
    ("two lines, T at a vertex", 2, (0, 5, -3, -1), 7, 4, 1, 2, 0),
    ("two lines, T where they cross", 2, (8, 7, -5, -1), 6, 3, 2, 2, 0),
    # on odd alphas, and the floor of T = 7/2 wins: past the crossing V falls faster
    ("two lines, T where they cross", 2, (9, 18, -13, -1), 8, 8, 3, 6, 1),
    ("three lines, T at the slope-1 vertex", 2, (0, 41, -8, -1), 8, 20, 7, 0, 0),
    ("three lines, T at b_a", 1, (0, 14, -8, -1), 8, 20, 7, 0, 0),
    ("three lines, T at b_b", 1, (0, 74, -8, -1), 8, 20, 7, 0, 0),
    ("T clamped to t_lo", 1, (3, -3, -3, -1), 6, 7, 4, 10, 0),
    ("T clamped to t_hi", 1, (2, 8, -3, -1), 8, 4, 1, 1, 1),
    ("a single alpha", 1, (-5, 9, 0, -2), 2, 1, 1, 1, 1),
]


def _evaluated_alphas(monkeypatch):
    """The list to which each gramtest.scaled_value call appends its alpha."""
    alphas, real = [], gramtest.scaled_value
    monkeypatch.setattr(gramtest, "scaled_value", lambda *args: alphas.append(args[4]) or real(*args))
    return alphas


def test_region_max_edge_cases_match_loop(monkeypatch):
    """The kernel against the loop oracle at each corner of its rule, each
    case shown to have its corner, with the evaluations it takes on that
    parity: one where T is an integer or clamped.  On (n, m, w) = (4, 4, 1)
    from alpha = 2, where alpha = 2 and 3 tie at the maximum, the smaller
    alpha wins."""
    alphas = _evaluated_alphas(monkeypatch)
    for corner, evaluations, q, n, m, w, alo, r in REGION_EDGE_CASES:
        assert corner in _peak_corners(q, n, m, w, alo, r), (corner, _peak_corners(q, n, m, w, alo, r))
        alphas.clear()
        assert _region_max(q, n, m, w, alo) == _loop_region_max(q, n, m, w, alo), corner
        assert sum(a % 2 == r for a in alphas) == evaluations, corner
    q = (-4, 5, -5, -1)
    assert [_endpoint_value(q, 4, 4, 1, alpha % 2, alpha // 2) for alpha in (2, 3)] == [2, 2]
    assert _region_max(q, 4, 4, 1, 2) == _loop_region_max(q, 4, 4, 1, 2) == (2, (2, 0))


def test_region_max_evaluates_at_most_two_points_per_parity(monkeypatch):
    """scaled_value runs at most twice per parity of alpha, on the random
    region cases; once per parity on each paper tuple's one exact scan, its
    witness, where the candidate set it replaced evaluated four alphas."""
    alphas = _evaluated_alphas(monkeypatch)
    for q, n, m, w, alo in _random_region_cases():
        alphas.clear()
        _region_max(q, n, m, w, alo)
        assert all(sum(a % 2 == r for a in alphas) <= 2 for r in (0, 1)), (q, n, m, w, alo)
    for tup, want in zip(PAPER_TUPLES, ([40, 39], [146, 145], [8890, 8891])):
        alphas.clear()
        assert decide(SrgParams(*tup)).verdict is Verdict.NONEXISTENT
        assert alphas == want, tup


def test_region_value_per_parity_is_concave_in_t():
    """The premise of _region_max_scaled's floor/ceil rule: on each parity
    r, the value at the lower beta endpoint of alpha = 2t + r is concave in
    t, so it rises to its peak and falls after it.  On every random region
    its second differences are <= 0, and in fact < 0: the alpha^2 term gives
    8*c20 < 0 and the beta endpoint adds c01 <= 0 times a convex term, so
    at most two adjacent t share the maximum."""
    for q, n, m, w, alo in _random_region_cases():
        (c00, c10, c01, c20), _ = _over_lcm(q)
        lo, hi = _alpha_range(n, m, w, alo)
        for r in (0, 1):
            values = []
            for alpha in range(lo + (lo - r) % 2, hi + 1, 2):
                beta = max(0, alpha - m, -((w * (n - w) - alpha) // 2))  # as _loop_region_max reads it
                values.append(c00 + c10 * alpha + c01 * beta + c20 * alpha * alpha)
            assert all(a - 2 * b + c < 0 for a, b, c in zip(values, values[1:], values[2:])), (q, n, m, w, alo, r)


def _every_w_to_the_scan(monkeypatch):
    """Hand every 1 <= w < lam to the exact region scan: the two tests below
    shift c00 inside the scan, which the pieces do not read."""
    monkeypatch.setattr(gramtest, "_unrefuted", lambda lam, m, x, *coefficients: (list(range(x, lam)), lam))


def _shifted_scan(shift):
    """_region_max_scaled with c00 raised by shift(n00, n10, n01, n20, n, m,
    w, alpha_lo), and the w of each call, in order."""
    calls = []

    def scan(*args):
        calls.append(args[6])
        return _region_max_scaled(args[0] + shift(*args), *args[1:])

    return scan, calls


def test_wsplit_region_max_zero_at_every_w_is_no_witness(monkeypatch):
    """With c00 shifted so that the exact region maximum is 0 at every w,
    every w goes through the exact scan and none is a witness; shifted to a
    maximum of -1, the first w scanned, w = 1, is the witness, with that
    maximum."""
    params, rep = _rep((460, 153, 32, 60))
    lam, m = params.lam, 39
    _every_w_to_the_scan(monkeypatch)
    for offset in (0, -1):
        scan, calls = _shifted_scan(lambda *args: offset - _region_max_scaled(*args)[0])
        monkeypatch.setattr(gramtest, "_region_max_scaled", scan)
        wit = wsplit_contradiction(params, rep, m)
        if offset == 0:
            assert calls == list(range(1, lam)) and wit is None
        else:
            h = gram3_per_m(params, rep, m)
            assert calls == [1] and (wit.w, wit.region_max, wit.den) == (1, -1, h.den)
            assert Fraction(wit.region_max, wit.den) == Fraction(-1, h.den)


def test_region_max_zero_is_not_a_witness(monkeypatch):
    """A w whose exact region maximum is 0 is not refuted; one whose maximum
    is -1 is.  On T(6) = (15,8,4,4) at m = 2 the region maximum at w = 2 is
    5400 over den, so c00 at w = 2 is shifted by the maximum less the
    offset."""
    params, rep = _rep((15, 8, 4, 4))
    lam, m, w = params.lam, 2, 2
    h = gram3_per_m(params, rep, m)
    det = (*gram3_per_w(h, w), h.n01, h.n20)
    alpha_lo = alpha_min(lam, m, w)
    assert _region_max_scaled(*det, lam, m, w, alpha_lo)[0] == 5400
    _every_w_to_the_scan(monkeypatch)
    for offset in (0, -1):
        scan, calls = _shifted_scan(lambda *args: offset - 5400 if args[6] == w else 0)
        monkeypatch.setattr(gramtest, "_region_max_scaled", scan)
        wit = wsplit_contradiction(params, rep, m)
        assert calls == list(range(1, w + 1 if offset else lam))
        if offset == 0:
            assert wit is None
        else:
            assert (wit.w, Fraction(wit.region_max, wit.den)) == (w, Fraction(-1, h.den))


def _work_counts(monkeypatch, tuples):
    """(exact region scans, w the pieces hand to the per-w loop) over one
    decide of each tuple: a w is handed on when the loop takes it."""
    scans, left = [], []

    def counting_unrefuted(*args):
        got, x = _unrefuted(*args)
        return (left.append(w) or w for w in got), x

    monkeypatch.setattr(gramtest, "_region_max_scaled", lambda *args: scans.append(args) or _region_max_scaled(*args))
    monkeypatch.setattr(gramtest, "_unrefuted", counting_unrefuted)
    for params in tuples:
        decide(params)
    return len(scans), len(left)


def _feasible_rows():
    lines = FEASIBLE_CSV.read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if line and not line.startswith("#")][1:]
    assert len(rows) == 210
    return [SrgParams(*map(int, row.split(","))) for row in rows]


def test_exact_region_scans_are_pinned(monkeypatch):
    """Exactly one w per paper tuple reaches the exact region scan, its
    witness, and none over the rows of bench/corpus/feasible.csv.  The
    pieces hand the per-w stage only each witness w, and not one w of
    feasible.csv: a change that sends more w on fails here."""
    for tup in PAPER_TUPLES:
        assert _work_counts(monkeypatch, [SrgParams(*tup)]) == (1, 1), tup
    assert _work_counts(monkeypatch, _feasible_rows()) == (0, 0)


def test_nonneg_runs_isqrt_calls_are_pinned(monkeypatch):
    """Deciding the rows of bench/corpus/feasible.csv and the paper tuples
    takes 4 isqrt calls in gramtest: 5 before _unrefuted handed _survivors
    only the bounds that its O(1) per-quadratic test does not show >= 0 on
    the whole piece,
    257 before it skipped a piece whole where all three are, and 695
    before _nonneg_runs returned a run whole where a concave or linear
    polynomial is >= 0 at both of its ends.  A change that takes more
    square roots fails here."""
    calls = []

    def counting_isqrt(n):
        calls.append(n)
        return math.isqrt(n)

    monkeypatch.setattr(gramtest, "math", types.SimpleNamespace(**{**vars(math), "isqrt": counting_isqrt}))
    for params in _feasible_rows() + [SrgParams(*t) for t in PAPER_TUPLES]:
        decide(params)
    assert len(calls) == 4


def test_scan_rows_build_no_fraction(monkeypatch):
    """Deciding and writing the scan rows, the JSON certificates and the
    text transcripts of bench/corpus/feasible.csv and of the paper tuples,
    which are Nonexistent with witnesses, builds no Fraction: decisions run
    on integers and the writers read integer pairs.  The JSON has the bytes
    of the oracle, which reads each integer pair as a Fraction."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    certs, written = [], []
    for params in _feasible_rows() + [SrgParams(*t) for t in PAPER_TUPLES]:
        certs.append(decide(params))
        scan_row(certs[-1], True, 0), scan_row(certs[-1], False, 0)
        written.append(certificate_json(certs[-1]))
        certificate_to_text(certs[-1])
    assert built == []
    assert all(cert.verdict is Verdict.NONEXISTENT and cert.witnesses for cert in certs[-3:])
    for cert, text in zip(certs, written, strict=True):
        assert text == json.dumps(_dict_certificate(cert), indent=2), cert.params
    assert built  # the oracle did read the pairs as Fractions


def test_decide_builds_no_pair_class(monkeypatch):
    """Deciding the rows of bench/corpus/feasible.csv and the paper tuples
    builds no PairClass: the 4-clique bound sums the census's integer rows,
    and only pair_profile names them, as its 15 classes."""
    built = []
    new = PairClass.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(PairClass, "__new__", counting_new)
    certs = [decide(params) for params in _feasible_rows() + [SrgParams(*t) for t in PAPER_TUPLES]]
    assert built == []
    assert all(cert.k4_bound.lower > 0 for cert in certs[-3:])
    classes = pair_profile(certs[-1].params, certs[-1].rep)
    assert len(built) == len(classes) == len({c.name for c in classes}) == 15


def test_co_gq_first_m_leaves_no_w_to_the_loop():
    """The complement of the GQ(37, 1369) collinearity graph has lam =
    1824840: at the first m of its window the pieces refute every w, so the
    per-w loop, which took 20 s there, runs no step."""
    co = complement_params(_gq(37, 37 * 37)[0])
    cert = decide(co)
    assert co.lam == 1824840 and cert.verdict is Verdict.INCONCLUSIVE
    m = cert.m_range.lower
    coefficients = kernel_coefficients(co, cert.rep, m)
    assert coefficients == gram3_per_m(co, cert.rep, m)[:5]
    assert _unrefuted(co.lam, m, 1, *coefficients) == ([], co.lam)


def _per_w_wsplit(params, rep, m):
    """wsplit_contradiction without the pieces: the exact region scan at
    every 1 <= w < lam in turn, kept as the oracle."""
    lam = params.lam
    h = gram3_per_m(params, rep, m)
    for w in range(1, lam):
        alpha_lo = alpha_min(lam, m, w)
        result = _region_max_scaled(*gram3_per_w(h, w), h.n01, h.n20, lam, m, w, alpha_lo)
        if result[0] < 0:
            return WSplitWitness(w, m, alpha_lo, result[0], h.den, result[1])
    return None


def test_wsplit_pieces_match_per_w_oracle():
    """The same witness, w, region maximum and its point, or None, as the
    per-w loop: every m of the paper windows, the first and last m of each
    of the 648 primitive feasible tuples with v <= 300, every GQ(q, q^2) at
    its zero-slack m, and every m of the windows of the rows of
    bench/corpus/feasible.csv with lam < 64."""
    cases = [(SrgParams(*t), m) for t in PAPER_TUPLES for lo, hi in [decide(SrgParams(*t)).m_range]
             for m in range(lo, hi + 1)]
    for params in _primitive_feasible_tuples(300):
        rng = decide(params).m_range
        if rng is not None and not rng.is_empty:
            cases += [(params, rng.lower), (params, rng.upper)]
    cases += [(params, m) for params, _, m in (_gq(q, q * q) for q in PRIME_POWERS if q >= 3)]
    feasible = [(params, m) for params in _feasible_rows() if params.lam < 64
                for rng in [decide(params).m_range] if rng is not None for m in range(rng.lower, rng.upper + 1)]
    for group, n_cases, n_witnesses in ((cases, 1325, 109), (feasible, 10002, 20)):
        reps = {params: repr_constants(params, derive_spectrum(params)) for params, _ in group}
        want = [_per_w_wsplit(params, reps[params], m) for params, m in group]
        assert [wsplit_contradiction(params, reps[params], m) for params, m in group] == want
        assert (len(group), sum(wit is not None for wit in want)) == (n_cases, n_witnesses)


def _window_cases(tuples, ends):
    """(params, rep, m): the first and last `ends` m of each tuple's window
    and every 50th m between them."""
    cases = []
    for params in tuples:
        cert = decide(params)
        if cert.m_range is not None:
            ms = range(cert.m_range.lower, cert.m_range.upper + 1)
            cases += [(params, cert.rep, m) for m in sorted({*ms[:ends], *ms[ends:-ends:50], *ms[-ends:]})]
    return cases


def test_wsplit_kernel_matches_pre_kernel_path():
    """The integer kernel gives the witness, or None, of the pre-kernel
    w-split (gram3_per_m, the generator walk over the pieces and the same
    exact scan), and leaves the same w on the same pieces: the first and
    last 20 m of the window of each of the 648 primitive feasible tuples
    with v <= 300 and of the paper tuples, and every 50th m between."""
    tuples = list(_primitive_feasible_tuples(300)) + [SrgParams(*t) for t in PAPER_TUPLES]
    cases = _window_cases(tuples, 20)
    witnesses = left = 0
    for params, rep, m in cases:
        want = oracle_wsplit(params, rep, m)
        assert wsplit_contradiction(params, rep, m) == want, (params, m)
        h = gram3_per_m(params, rep, m)
        assert kernel_coefficients(params, rep, m) == (h[:5] if params.lam >= 2 else None), (params, m)
        ws = kernel_left(params.lam, m, *h[:5])
        assert ws == list(oracle_unrefuted(params.lam, m, h)), (params, m)
        witnesses += want is not None
        left += len(ws)
    assert (len(tuples), len(cases), witnesses, left) == (651, 22344, 109, 3140)


def _piece_kinds(n, m, h):
    """Per piece of the pre-kernel walk: (its kind, the _survivors call it
    takes or None, what _unrefuted returns for it)."""
    out = []
    for x, end, q, a0 in _pieces(n, m):
        bounds = piece_bounds(n, m, h, q, a0)
        failing = [c for c in bounds if not _nonneg_on(c, x, end)]
        left = [w for y, z in _survivors(failing, x, end) for w in range(y, z + 1)] if failing else []
        cut = "skipped whole" if not left else "some w cut off" if len(left) < end - x + 1 else "every w left"
        if bounds[0][2] > 0:
            kind = "v2 > 0, " + cut
        elif all(_poly_at(c, w) >= 0 for c in bounds for w in (x, end)):
            kind = "v2 <= 0, ends >= 0"
        else:
            kind = "v2 <= 0, an end < 0, " + cut
        out.append((kind, (failing, x, end) if failing else None, (left, end + 1)))
    return out


def test_unrefuted_matches_generator_walk_on_random_coefficients(monkeypatch):
    """On random coefficients with n01 <= 0 < -n20, each call of _unrefuted
    from x returns the w that the generator walk leaves on the first piece
    at or after x that leaves any, with the start of the next piece, and
    the kernel hands _survivors exactly the quadratics that _nonneg_on
    finds not >= 0 on a piece.  In most cases n00_w is set so that one of
    the three bounds (times 2) at one end w of one piece lies in [0, 2w) or
    [-2w, 0), as a step of n00_w moves it by 2w: there a bound off by a
    little changes which pieces are skipped.  Drawn: pieces with v2 <= 0
    whose six end values are >= 0, and ones where they are not and the
    quadratics cut some w off, and pieces with v2 > 0, skipped whole or
    cut."""
    cuts = []
    monkeypatch.setattr(gramtest, "_survivors", lambda *args: cuts.append(args) or _survivors(*args))
    rng = random.Random(39)
    drawn = collections.Counter()
    for _ in range(4000):
        n = rng.randint(2, 40)
        m = rng.randint(0, n * (n - 1) // 2)
        s = rng.choice([3, 30, 1000])
        n00_ww, n10_w = (rng.randint(-s, s) * rng.choice([1, 10, 100]) for _ in range(2))
        h = Gram3PerM(0, n00_ww, n10_w, rng.choice([0, -rng.randint(0, s)]), -rng.randint(1, s), 1)
        if rng.random() < 0.8:  # shifting n00_w by 1 moves each bound at w by 2w
            x, end, q, a0 = rng.choice(list(_pieces(n, m)))
            w = rng.choice([x, end])
            bound = _poly_at(rng.choice(piece_bounds(n, m, h, q, a0)), w)
            h = h._replace(n00_w=-(bound // (2 * w)) - rng.randint(0, 1))
        else:
            h = h._replace(n00_w=rng.randint(-s, s) * rng.choice([1, 10, 100]))
        pieces = _piece_kinds(n, m, h)
        got, x = [], 1
        cuts.clear()
        while x < n:
            left, x = _unrefuted(n, m, x, *h[:5])
            assert left or x >= n, (h, n, m)
            got += [(left, x)] if left else []
        assert got == [ret for _, _, ret in pieces if ret[0]], (h, n, m)
        assert cuts == [cut for _, cut, _ in pieces if cut], (h, n, m)
        drawn.update(kind for kind, _, _ in pieces)
    assert {kind for kind, k in drawn.items() if k >= 50} >= {
        "v2 <= 0, ends >= 0", "v2 <= 0, an end < 0, some w cut off", "v2 > 0, skipped whole",
        "v2 > 0, some w cut off"}, drawn


def _poly_at(c, w):
    return c[0] + c[1] * w + c[2] * w * w


def _brute_runs(c, a, b):
    runs = []
    for w in range(a, b + 1):
        if _poly_at(c, w) >= 0:
            if runs and runs[-1][1] == w - 1:
                runs[-1] = runs[-1][0], w
            else:
                runs.append((w, w))
    return runs


def test_nonneg_runs_match_brute_force():
    """Random integer polynomials c0 + c1 w + c2 w^2 of degree 0 to 2 on
    random intervals: products of (w - r) over roots drawn at and just past
    the interval ends, with double roots, shifted by -1, 0 or 1, and
    polynomials with random coefficients around 10^40; intervals include
    empty ones.  Then concave and linear polynomials that are >= 0 at both
    ends of the interval, which _nonneg_runs returns whole before any
    square root: vertex inside, at an end or outside, leading coefficient
    up to about 10^40, and c0 lifted just enough, or a little more."""
    rng = random.Random(16)
    degrees = set()
    for _ in range(6000):
        deg = rng.randint(0, 2)
        a = rng.randint(-40, 40)
        b = a + rng.randint(-2, 50)
        if rng.random() < 0.6:
            roots = [rng.choice([a, b, a - 1, b + 1, rng.randint(a - 3, b + 3)]) for _ in range(deg)]
            if deg == 2 and rng.random() < 0.5:
                roots[1] = roots[0]
            lead, shift = rng.choice([-3, -1, 1, 2]), rng.choice([0, 0, 1, -1])
            c = [lead, 0, 0]
            for r in roots:  # times (w - r)
                c = [-r * c[0], c[0] - r * c[1], c[1] - r * c[2]]
            c[0] += shift
            assert all(_poly_at(c, w) == lead * math.prod(w - r for r in roots) + shift for w in range(3))
        else:
            c = [rng.randint(-(10**40), 10**40) if j <= deg else 0 for j in range(3)]
        degrees.add(max((j for j in (1, 2) if c[j]), default=0))
        assert _nonneg_runs(c, a, b) == _brute_runs(c, a, b), (c, a, b)
    assert degrees == {0, 1, 2}
    drawn = set()
    for _ in range(3000):
        a = rng.randint(-40, 40)
        b = a + rng.randint(0, 50)
        lead = rng.choice([0, 1, 3, rng.randint(10**39, 10**40)])
        place, vertex = rng.choice([("inside", rng.randint(a, b)), ("end", rng.choice([a, b])),
                                    ("outside", rng.choice([a - rng.randint(1, 9), b + rng.randint(1, 9)]))])
        if lead == 0:
            place, c1 = "linear", rng.choice([-1, 1]) * rng.choice([0, 1, 7, rng.randint(10**39, 10**40)])
        else:  # vertex 2*lead*vertex/(2*lead), or half a step past it
            c1 = 2 * lead * vertex + rng.choice([0, 0, -lead, lead])
        c = [0, c1, -lead]
        c[0] = rng.choice([0, 0, 1, rng.randint(0, 10**40)]) - min(_poly_at(c, a), _poly_at(c, b))
        assert min(_poly_at(c, a), _poly_at(c, b)) >= 0
        drawn.add((place, lead > 10**30 or abs(c1) > 10**30))
        assert _nonneg_runs(c, a, b) == _brute_runs(c, a, b) == [(a, b)], (c, a, b)
    assert drawn == {(place, big) for place in ("inside", "end", "outside", "linear") for big in (False, True)}


def test_piece_check_matches_survivors_and_brute_force():
    """_nonneg_on, the O(1) per-quadratic test that _unrefuted writes inline,
    finds a polynomial c0 + c1 w + c2 w^2 >= 0 on a whole interval exactly
    where every integer of it is >= 0 and _survivors finds no run of it
    < 0: random concave, linear and convex polynomials, the vertex inside
    the interval, left or right of it, at an integer or between two,
    leading coefficient up to about 10^40, and c0 set so that the least
    value on the interval is -1, 0, 1 or larger."""
    rng = random.Random(29)
    drawn = set()
    for _ in range(6000):
        a = rng.randint(-40, 40)
        b = a + rng.randint(0, 50)
        lead = rng.choice([1, 2, 7, rng.randint(10**39, 10**40)])
        shape, place = rng.choice(["concave", "convex", "linear"]), "linear"
        if shape == "linear":
            c2, c1 = 0, rng.choice([-1, 1]) * rng.choice([0, 1, 7, lead])
        else:
            place, vertex = rng.choice([("inside", rng.randint(a, b)), ("left", a - rng.randint(1, 9)),
                                        ("right", b + rng.randint(1, 9))])
            c2 = lead if shape == "convex" else -lead
            # the vertex -c1/(2 c2) is vertex + r/(2 lead), 0 <= r < 2 lead
            c1 = -2 * c2 * vertex - (c2 // lead) * rng.choice([0, rng.randint(0, 2 * lead - 1)])
        c = [0, c1, c2]
        c[0] = rng.choice([-1, 0, 1, rng.randint(2, 10**40)]) - min(_poly_at(c, w) for w in range(a, b + 1))
        nonneg = all(_poly_at(c, w) >= 0 for w in range(a, b + 1))
        assert _nonneg_on(c, a, b) == nonneg == (_survivors([c], a, b) == []), (c, a, b)
        drawn.add((shape, place, nonneg))
    assert drawn == {(shape, place, nonneg) for shape in ("concave", "convex") for place in ("inside", "left", "right")
                     for nonneg in (False, True)} | {("linear", "linear", False), ("linear", "linear", True)}


def test_pieces_tile_the_split_sizes_with_alpha_min_one_line():
    """For every 2 <= n < 60 and 0 <= m <= C(n,2), the pieces tile
    [1, n-1] in at most two, and alpha_min is a0 + q*w at every w of each:
    the property the piece walk of _unrefuted, which writes the same
    pieces inline, rests on."""
    for n in range(2, 60):
        for m in range(n * (n - 1) // 2 + 1):
            pieces = list(_pieces(n, m))
            assert 1 <= len(pieces) <= 2, (n, m)
            assert pieces[0][0] == 1 and pieces[-1][1] == n - 1, (n, m)
            for (_, end, _, _), (x, _, _, _) in zip(pieces, pieces[1:]):
                assert x == end + 1, (n, m)
            for x, end, q, a0 in pieces:
                assert x <= end, (n, m)
                for w in range(x, end + 1):
                    assert alpha_min(n, m, w) == a0 + q * w, (n, m, w)


def _alpha_min_end_bound(n, m, h, w):
    """The lower bound on the region maximum at w that _unrefuted takes,
    over h.den, written out per w with Fractions: the value at the
    alpha_min end, with beta at most max(0, alpha - m,
    (alpha - w(n-w) + 1)/2)."""
    n00, n10 = gram3_per_w(h, w)
    alpha = alpha_min(n, m, w)
    beta = max(0, alpha - m, Fraction(alpha - w * (n - w) + 1, 2))
    return (h.n20 * alpha + n10) * alpha + h.n01 * beta + n00


def test_pieces_skip_exactly_the_w_a_bound_refutes():
    """On random coefficients with n01 <= 0 < -n20, _unrefuted leaves out
    exactly the w where the alpha_min-end bound is >= 0, and each such w
    has an exact region maximum >= 0.  In most cases n00_w is shifted so
    that the bound at one w lies in [0, w) or in [-w, 0), where a bound off
    by a little changes which w are left."""
    rng = random.Random(17)
    skipped = kept = 0
    for _ in range(2500):
        n = rng.randint(2, 40)
        m = rng.randint(0, n * (n - 1) // 2)
        s = rng.choice([3, 30, 1000])
        n00_w, n00_ww, n10_w = (rng.randint(-s, s) * rng.choice([1, 10, 100]) for _ in range(3))
        h = Gram3PerM(n00_w, n00_ww, n10_w, rng.choice([0, -rng.randint(0, s)]), -rng.randint(1, s), 1)
        w0 = rng.randint(1, n - 1)
        if rng.random() < 0.8:  # shifting n00_w by 1 moves the bound at w0 by w0
            bound = _alpha_min_end_bound(n, m, h, w0)
            h = h._replace(n00_w=n00_w + math.ceil(-bound / w0) - rng.randint(0, 1))
        left = set(kernel_left(n, m, *h[:5]))
        for w in range(1, n):
            assert (w not in left) == (_alpha_min_end_bound(n, m, h, w) >= 0), (h, n, m, w)
            if w in left:
                kept += 1
                continue
            n00, n10 = gram3_per_w(h, w)
            assert _region_max_scaled(n00, n10, h.n01, h.n20, n, m, w, alpha_min(n, m, w))[0] >= 0, (h, n, m, w)
            skipped += 1
    assert skipped > 2000 and kept > 2000


def test_wsplit_coefficient_signs_on_every_window():
    """c01 <= 0 < -c20 on the window of each of the 648 primitive feasible
    tuples with v <= 300 and of each family tuple: the sign proof in
    gram3_per_m's docstring, which lets the w-split take the lower beta
    endpoint.  Every m of a window up to 1000 wide is checked; of a wider
    one (GQ(50653, 1369) has 1.3e9 m), the 500 m at each end,
    since c01 is affine in m and c20 does not depend on it.  c01 = 0 where
    the window top is the 2x2 root itself, as on every zero-slack
    GQ(q, q^2)."""
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    families = {label: params for label, params, _, _ in _family_tuples()}
    zero_at, checked = set(), 0
    for params in tuples + list(families.values()):
        cert = decide(params)
        if cert.m_range is None:
            continue
        window = range(cert.m_range.lower, cert.m_range.upper + 1)
        for m in [*window[:500], *window[500:][-500:]]:
            h = gram3_per_m(params, cert.rep, m)
            assert h.n01 <= 0 < -h.n20, (params, m)
            if h.n01 == 0:
                zero_at.add(params)
            checked += 1
    gq = {families[f"GQ({q},{q * q})"] for q in PRIME_POWERS if 3 <= q < 40}
    assert gq <= zero_at and checked > 200000


def test_wsplit_rejects_m_past_the_2x2_root():
    """One step past floor(_m_upper), below C(lam, 2), is a ValueError;
    the window top itself is searched, also where it is the root exactly,
    2592 for (121, 100, 81, 90)."""
    for params, rep, _, past in _tuple_windows():
        assert (_m_upper(params, rep) == past - 1) == (params.v == 121)
        wsplit_contradiction(params, rep, past - 1)
        with pytest.raises(ValueError):
            wsplit_contradiction(params, rep, past)


def test_gram3_hoisted_coefficients_match_fraction_formula():
    """The per-m part and the per-w part give the Fraction coefficients of
    the literal entries at every w: every m of the paper windows, and the
    first m of each primitive feasible tuple with v <= 120."""
    cases = []
    for tup in PAPER_TUPLES:
        cert = decide(SrgParams(*tup))
        cases += [(cert.params, cert.rep, m) for m in range(cert.m_range.lower, cert.m_range.upper + 1)]
    for params in _primitive_feasible_tuples(120):
        cert = decide(params)
        if cert.m_range is not None and not cert.m_range.is_empty:
            cases.append((params, cert.rep, cert.m_range.lower))
    splits = 0
    for params, rep, m in cases:
        h = gram3_per_m(params, rep, m)
        for w in range(1, params.lam):
            n00, n10 = gram3_per_w(h, w)
            want = _fraction_gram3_det(params, rep, w, m)
            assert tuple(Fraction(x, h.den) for x in (n00, n10, h.n01, h.n20)) == want, (params, m, w)
            splits += 1
    assert len(cases) > 100 and splits > 3000
    with pytest.raises(ValueError):
        gram3_per_m(params, rep, -1)
    with pytest.raises(ValueError):
        wsplit_contradiction(params, rep, -1)


def test_alpha_min_closed_form_matches_loop():
    for n in range(1, 41):
        for w in range(1, n + 1):
            for m in range(n * (n - 1) // 2 + 1):
                assert alpha_min(n, m, w) == _loop_alpha_min(n, m, w), (n, m, w)
    rng = random.Random(400)
    for _ in range(2000):
        n = rng.randint(41, 400)
        w = rng.randint(1, n)
        m = rng.randint(0, n * (n - 1) // 2)
        assert alpha_min(n, m, w) == _loop_alpha_min(n, m, w), (n, m, w)


def test_decide_target_tuple():
    cert = decide(SrgParams(460, 153, 32, 60))
    assert cert.verdict is Verdict.NONEXISTENT
    assert cert.k4_bound.lower == 228111
    assert (cert.m_range.lower, cert.m_range.upper) == (39, 39)
    assert len(cert.witnesses) == 1
    assert cert.witnesses[0].w == 13


def test_decide_q22_zero_tuple_closes_by_empty_window():
    cert = decide(SrgParams(2950, 891, 204, 297))
    assert cert.verdict is Verdict.NONEXISTENT
    assert cert.feasibility.krein_q22_zero
    assert cert.m_range.is_empty
    assert (cert.m_range.lower, cert.m_range.upper) == (3214, 3213)
    assert cert.witnesses == ()


def test_m_range_ms_walks_the_window():
    """Iterating the named tuple gives its two ends, lower and upper, so
    range(lower, upper + 1) walks the window's ms."""
    lower, upper = MRange(3, 5)
    assert list(range(lower, upper + 1)) == [3, 4, 5]
    assert tuple(MRange(3, 5)) == (3, 5)
    lower, upper = MRange(4, 3)
    assert MRange(4, 3).is_empty and list(range(lower, upper + 1)) == []


VALUE_PARTS = ["params", "feasibility", "spectrum", "rep", "k4_bound", "m_range", "witness", "certificate",
               "adjacency", "census"]


@pytest.mark.parametrize("part", VALUE_PARTS)
def test_value_types_are_immutable(part):
    cert = decide(SrgParams(460, 153, 32, 60))
    petersen = construct("petersen")
    value = {
        **{name: getattr(cert, name) for name in ("params", "feasibility", "spectrum", "rep", "k4_bound", "m_range")},
        "witness": cert.witnesses[0],
        "certificate": cert,
        "adjacency": petersen,
        "census": census(petersen),
    }[part]
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_decide_sound_on_reference_tuples(reference_graphs):
    for label, (_, params) in reference_graphs.items():
        cert = decide(params)
        assert cert.verdict is not Verdict.NONEXISTENT, label
        expected = (
            Verdict.NOT_APPLICABLE
            if derive_spectrum(params) is None
            else Verdict.INCONCLUSIVE
        )
        assert cert.verdict is expected, label


def test_decide_sound_across_configurations():
    """Every graph the oracle can build, at every order it supports, and the
    complement of each exist: decide calls none of their parameters
    Nonexistent."""
    paley = (5, 9, 13, 17, 25, 29, 37, 41, 49, 53, 61, 73, 81, 89, 97, 101)  # prime powers = 1 mod 4
    builds = [("petersen", None), *(("paley", q) for q in paley)]
    builds += [("triangular", n) for n in range(5, 11)] + [("rook", n) for n in range(3, 9)]
    for name, order in builds:
        g = construct(name, order)
        for h in (g, complement(g)):
            params = srg_parameters(h)
            assert decide(params).verdict is not Verdict.NONEXISTENT, (name, order, params)


def test_decide_infeasible_and_not_applicable():
    assert decide(SrgParams(10, 3, 1, 1)).verdict is Verdict.INFEASIBLE_CLASSICAL
    assert decide(SrgParams(5, 2, 0, 1)).verdict is Verdict.NOT_APPLICABLE


def test_decide_flags_complete_multipartite():
    cert = decide(SrgParams(6, 4, 2, 4))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.m_range is None
    assert any("multipartite" in note for note in cert.notes)


def test_decide_without_clique_bound():
    """A 4-clique bound of 0, as on T(7)'s parameters, starts the m window at
    0 and adds no note."""
    cert = decide(SrgParams(21, 10, 5, 4))
    assert cert.k4_bound.lower == 0 and Fraction(*cert.k4_bound.raw_bound_pair()) < 0
    assert tuple(cert.m_range) == (0, 7)
    assert cert.notes == ()
    assert cert.verdict is Verdict.INCONCLUSIVE
