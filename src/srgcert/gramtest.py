"""The contradiction engine: edge-count window for the densest
common-neighborhood subgraph, the degree-sum threshold lemma, the w-split
determinant search, and the overall verdict.

Both Gram determinants of summed representation vectors live here, as
polynomials in unknown subgraph statistics: the 2x2 one bounds the window
for m, and the 3x3 w-split one refutes each m in it.  1 <= w < lam splits
into at most two pieces, one for each q = (2m + lam - w) // lam, and on
each alpha_min = q*w + max(0, 2m - q*lam) is one line.  Split sizes w are
ruled out a piece at a time where the value at the alpha_min end of their
region, bounded below by quadratics in w, is >= 0, and the rest by the
exact region scan.  Decisions run on integers; a certificate's rational
fields are built when read, from integer pairs that the writers read."""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import NamedTuple

from .cliquebound import K4Bound, k4_lower_bound
from .params import (
    FeasibilityReport,
    ReprConstants,
    Spectrum,
    SrgParams,
    as_fraction,
    classical_feasibility,
    repr_constants,
)


class Verdict(enum.Enum):
    NONEXISTENT = "Nonexistent"
    INCONCLUSIVE = "Inconclusive"
    INFEASIBLE_CLASSICAL = "InfeasibleClassical"
    NOT_APPLICABLE = "NotApplicable"


# the verdicts in definition order: a global read, not a class attribute lookup per row
_NONEXISTENT, _INCONCLUSIVE, _INFEASIBLE, _NOT_APPLICABLE = Verdict


class MRange(NamedTuple):
    """Window for the maximal common-neighborhood edge count m: lower from
    4-clique averaging, upper from the 2x2 Gram determinant.  An empty
    window is an immediate contradiction.  Iterating the named tuple gives
    (lower, upper); ms walks the window."""

    lower: int
    upper: int

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    @property
    def ms(self) -> range:
        return range(self.lower, self.upper + 1)


class WSplitWitness(NamedTuple):
    """Certifies that for the given m every feasible (alpha, beta) of the
    w-split makes the 3x3 Gram determinant negative: at most region_max/den."""

    w: int
    m: int
    alpha_min: int
    region_max: int
    den: int
    region_max_at: tuple[int, int]

    @property
    def region_max_det(self):  # a Fraction
        return as_fraction((self.region_max, self.den))


class Certificate(NamedTuple):
    """Machine-checkable transcript of every bound and the contradiction;
    the parts a decision stopped before are None."""

    params: SrgParams
    feasibility: FeasibilityReport
    verdict: Verdict
    spectrum: Spectrum | None = None
    rep: ReprConstants | None = None
    k4_bound: K4Bound | None = None
    m_range: MRange | None = None
    witnesses: tuple[WSplitWitness, ...] = ()
    notes: tuple[str, ...] = ()

    def m_upper_pair(self) -> tuple[int, int] | None:  # m_upper_bound as (numerator, denominator > 0)
        return None if self.rep is None else _gram2_root(self.params, self.rep)

    @property
    def m_upper_bound(self):  # a Fraction, or None
        return as_fraction(self.m_upper_pair())


def _gram_entries(params: SrgParams, rep: ReprConstants, m: int) -> tuple[int, int, int]:
    """|X|^2, <X, Y3> and |Y3|^2 scaled by D, where X sums the lam common
    neighbors of an edge uw (m edges among them) and Y3 = x_u + x_w:
    lam + lam(lam-1)q + 2(p-q)m, 2 lam p and 2 + 2p.  Both Gram
    determinants are built on these entries."""
    lam, P, Q = params.lam, rep.P, rep.Q
    return lam * rep.D + lam * (lam - 1) * Q + 2 * (P - Q) * m, 2 * lam * P, rep.S


def _gram2_root(params: SrgParams, rep: ReprConstants) -> tuple[int, int] | None:
    """The root of the 2x2 Gram determinant |X|^2 |Y3|^2 - <X, Y3>^2 (see
    _gram_entries), linear in m, as (numerator, denominator > 0), or None
    for lam = 0."""
    if params.lam == 0:
        return None
    xx0, x3, y3 = _gram_entries(params, rep, 0)
    slope = 2 * (rep.P - rep.Q) * y3
    # negative for primitive parameters
    if slope >= 0:
        raise ValueError("2x2 Gram determinant is not decreasing in m")
    return xx0 * y3 - x3 * x3, -slope


def m_upper_exact(params: SrgParams, rep: ReprConstants):
    """_gram2_root as a Fraction: no edge's common-neighborhood subgraph has more edges."""
    return as_fraction(_gram2_root(params, rep))


def m_lower(params: SrgParams, k4_lower: int) -> int:
    """ceil(6 * k4_lower / |E|): each 4-clique contributes one edge to six
    common-neighborhood subgraphs, so the maximum m is at least the mean."""
    if k4_lower <= 0:
        return 0
    return -(-12 * k4_lower // (params.v * params.k))


def alpha_min(n: int, m: int, w: int) -> int:
    """Lower bound for the degree sum of the w largest-degree vertices of any
    graph with n vertices and m edges: q*w + max(0, 2m - q*n), with
    q = (2m + n - w) // n.

    For every threshold t >= 1, either all top-w degrees reach t (sum >= tw)
    or some top degree is below t, hence every degree outside the top w is
    at most t - 1 and the top sum is at least 2m - (t-1)(n-w).  The best
    threshold gives max(0, max_t min(tw, 2m - (t-1)(n-w))).  The first term
    rises in t and the second falls; they cross at t = (2m + n - w)/n, so
    the integer maximum sits at t = q or q + 1.  For q >= 1, w <= 2m - (q-1)n
    makes qw the smaller term at q, and w > 2m - qn makes
    2m - q(n-w) = qw + 2m - qn the smaller term at q + 1.  For q = 0,
    w > 2m, so every vertex of positive degree is among the top w and the
    bound is 2m.
    """
    if not 1 <= w <= n:
        raise ValueError(f"need 1 <= w <= n, got w={w}, n={n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"need 0 <= m <= C(n,2), got m={m}, n={n}")
    q = (2 * m + n - w) // n
    return q * w + max(0, 2 * m - q * n)


def scaled_value(n00: int, n10: int, n01: int, n20: int, alpha: int, beta: int) -> int:
    """n00 + n10*alpha + n01*beta + n20*alpha^2: the w-split determinant times den."""
    return (n20 * alpha + n10) * alpha + n01 * beta + n00


# The D-scaled parts of the w-split determinant fixed by (tuple, m): see gram3_per_m.
Gram3PerM = namedtuple("Gram3PerM", "n00_w n00_ww n10_w n01 n20 den")


def gram3_per_m(params: SrgParams, rep: ReprConstants, m: int) -> Gram3PerM:
    """The w-free parts, at edge count m, of the exact determinant of the
    3x3 w-split Gram matrix as a polynomial in (alpha, beta).

    Y1 sums the n1 = lam - w low-degree common neighbors of an edge, Y2 the
    w top-degree ones, Y3 = x_u + x_w.  With alpha the top-w degree sum and
    beta the edges inside the top part, the low part has m + beta - alpha
    edges and alpha - 2*beta edges cross.  The determinant is unchanged
    when Y1 becomes X = Y1 + Y2, whose entries with X and Y3 are those of
    _gram_entries, and with d = p - q the others are

        <X, Y2> = w(1 + (lam-1)q) + d*alpha,  <Y2, Y3> = 2wp,
        |Y2|^2 = w + w(w-1)q + 2d*beta

    so the determinant is c00 + c10*alpha + c01*beta + c20*alpha^2: beta
    enters only |Y2|^2 and alpha only <X, Y2>.  c20 = -(2+2p)d^2 and
    c01 = 2d*g(m), g = |X|^2 |Y3|^2 - <X, Y3>^2 the 2x2 determinant, do not
    depend on w, c10 = w*c10_w, and c00 = w(c00_w + w*c00_ww) vanishes with
    Y2 at w = 0.  With every entry and d scaled by D, the coefficients are
    integers n00, n10, n01, n20 over den = D^3: this computes the w-free
    parts once per m and gram3_per_w the rest, for 1 <= w < lam.

    On decide's window, for a primitive tuple with an integer spectrum,
    c01 <= 0 and c20 < 0: d < 0, as p - q = (s(v-1) + k)/(k(v-k-1)) with
    s <= -1 and k < v - 1; 2 + 2p > 0, as x^2 - (lam-mu)x - (k-mu) is
    positive at -k and negative at 0 for mu < k, so its root s > -k;
    and g(m) >= 0, as g is linear in m with slope 2d(2+2p) < 0 and root
    m_upper_exact, whose floor bounds the window.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    D, P, Q = rep.D, rep.P, rep.Q
    d = P - Q
    xx, x3, y3 = _gram_entries(params, rep, m)
    x2 = D + (params.lam - 1) * Q  # <X, Y2> less d*alpha, over w
    # det = |Y2|^2 g - |X|^2 <Y2, Y3>^2 - |Y3|^2 <X, Y2>^2 + 2 <X, Y2> <Y2, Y3> <X, Y3>
    g = xx * y3 - x3 * x3  # |X|^2 |Y3|^2 - <X, Y3>^2
    n00_w, n00_ww = (D - Q) * g, Q * g - 4 * P * P * xx - y3 * x2 * x2 + 4 * P * x2 * x3
    n10_w, n01, n20 = 2 * d * (2 * P * x3 - y3 * x2), 2 * d * g, -y3 * d * d
    return tuple.__new__(Gram3PerM, (n00_w, n00_ww, n10_w, n01, n20, D**3))


def gram3_per_w(h: Gram3PerM, w: int) -> tuple[int, int]:
    """The coefficients (n00, n10) of the w-split determinant at w, over h.den."""
    return w * (h.n00_w + w * h.n00_ww), w * h.n10_w


def _alpha_range(n: int, m: int, w: int, alpha_lo: int) -> tuple[int, int]:
    """The feasible alphas lo..hi of the w-split's integer region, 1 <= w < n.

    Region: alpha_lo <= alpha <= min(2m, w(n-1)) and
    max(0, alpha - m, ceil((alpha - w(n-w))/2)) <= beta <= min(C(w,2),
    floor(alpha/2)).  For 0 <= alpha <= min(2m, w(n-1)) the beta range is
    non-empty exactly when alpha <= m + C(w,2), so the feasible alphas form
    one interval.

    With alpha_lo = alpha_min(n, m, w) and m <= C(n,2) the interval is never
    empty: a graph with n vertices and m edges exists, and its top-w degree
    sum alpha is at least alpha_min, at most 2m and w(n-1), and, as
    alpha = 2 beta + x with beta <= C(w,2) inside edges and beta + x <= m,
    at most m + C(w,2).
    """
    if not 1 <= w < n:
        raise ValueError(f"need 1 <= w < n, got w={w}, n={n}")
    return max(0, alpha_lo), min(2 * m, w * (n - 1), m + w * (w - 1) // 2)


def _floor_ceil(num: int, den: int) -> tuple[int, int]:
    return num // den, -(-num // den)


def _region_max_scaled(n00: int, n10: int, n01: int, n20: int, n: int, m: int, w: int,
                       alpha_lo: int) -> tuple[int, tuple[int, int]] | None:
    """Exact maximum of n00 + n10*alpha + n01*beta + n20*alpha^2 (see
    gram3_per_m) over the integer (alpha, beta) region of the w-split (see
    _alpha_range), or None if the region is empty.  Needs n01 <= 0 < -n20,
    which holds on decide's window (see gram3_per_m).

    With n01 <= 0 the maximum at each alpha is at the lower beta endpoint
    (ties: smallest alpha, then beta), which on each parity of alpha is the
    max of three lines in t = alpha // 2.  On each line's integer stretch,
    whose ends are range ends or floor/ceil of a crossing of two lines, the
    value is concave in t and peaks at an end or next to the vertex: O(1)
    candidates per parity give the exact maximum.
    """
    if n01 > 0 or n20 >= 0:
        raise ValueError(f"need n01 <= 0 < -n20, got n01={n01}, n20={n20}")
    alpha_lo, alpha_hi = _alpha_range(n, m, w, alpha_lo)
    if alpha_lo > alpha_hi:
        return None
    candidates = set()
    for r in (0, 1):
        t_lo, t_hi = (alpha_lo - r + 1) // 2, (alpha_hi - r) // 2
        if t_lo > t_hi:
            continue
        ts = [t_lo, t_hi]
        # the lower beta endpoint at alpha = 2t + r is the max of these lines (slope, intercept) in t
        lines_r = (0, 0), (2, r - m), (1, -((w * (n - w) - r) // 2))
        for i, (s1, b1) in enumerate(lines_r):
            for s2, b2 in lines_r[i + 1 :]:
                ts += _floor_ceil(b2 - b1, s1 - s2)
            ts += _floor_ceil(-(2 * n10 + s1 * n01 + 4 * n20 * r), 8 * n20)
        # a t outside [t_lo, t_hi] would clamp to an end, which is in ts already
        candidates.update([2 * t + r for t in ts if t_lo <= t <= t_hi])
    best = None
    for alpha in sorted(candidates):  # ascending, so a tie keeps the smaller alpha
        beta = max(0, alpha - m, -((w * (n - w) - alpha) // 2))  # the lower beta endpoint
        value = scaled_value(n00, n10, n01, n20, alpha, beta)
        if best is None or value > best[0]:
            best = value, (alpha, beta)
    return best


def _nonneg_runs(c, a: int, b: int) -> list[tuple[int, int]]:
    """The maximal runs (x, y), a <= x <= y <= b, of integers where
    p(w) = c0 + c1 w + c2 w^2 is >= 0, ascending: at most two, in closed
    form.

    A convex p is < 0 exactly where the concave -p - 1 is >= 0.  For c2 < 0
    the roots of p = -P w^2 + c1 w + c0 are (c1 -+ sqrt(disc)) / 2P; with
    s = isqrt(disc), the ceiling of the lower one and the floor of the upper
    one are each one of two integers, and the sign of p there decides
    which."""
    if a > b:
        return []
    c0, c1, c2 = c
    if c2 > 0:
        neg = _nonneg_runs([-c0 - 1, -c1, -c2], a, b)
        return [(x, y) for x, y in ((a, neg[0][0] - 1), (neg[0][1] + 1, b)) if x <= y] if neg else [(a, b)]
    if c0 + (c1 + c2 * a) * a >= 0 and c0 + (c1 + c2 * b) * b >= 0:
        return [(a, b)]  # a concave or linear p is >= 0 between two ends where it is
    lo, hi = a, b
    if c2 < 0:
        P = -c2
        disc = c1 * c1 + 4 * P * c0
        if disc < 0:
            return []
        s = math.isqrt(disc)
        lo, hi = -((s + 1 - c1) // (2 * P)), (c1 + s + 1) // (2 * P)
        lo, hi = max(a, lo + (c0 + (c1 + c2 * lo) * lo < 0)), min(b, hi - (c0 + (c1 + c2 * hi) * hi < 0))
    elif c1:
        lo, hi = (max(a, -(c0 // c1)), b) if c1 > 0 else (a, min(b, c0 // -c1))
    elif c0 < 0:
        return []
    return [(lo, hi)] if lo <= hi else []


def _nonneg_on(c, a: int, b: int) -> bool:
    """Whether c0 + c1 w + c2 w^2 >= 0 at every integer a <= w <= b, in O(1):
    a concave or linear one is least at an end, a convex one at the floor of
    its vertex -c1/(2 c2) or the next integer, clamped to [a, b]."""
    c0, c1, c2 = c
    if c2 > 0:
        x = -c1 // (2 * c2)
        a, b = min(b, max(a, x)), min(b, max(a, x + 1))
    return c0 + (c1 + c2 * a) * a >= 0 and c0 + (c1 + c2 * b) * b >= 0


def _survivors(polys, a: int, b: int) -> list[tuple[int, int]]:
    """The maximal runs of [a, b], ascending, where one of the polynomials,
    each given by its coefficients (c0, c1, c2) in powers of w, is < 0."""
    runs, out = [(a, b)], []
    for c in polys:
        if runs:
            runs = [r for x, y in runs for r in _nonneg_runs(c, x, y)]
    for x, y in runs + [(b + 1, b)]:
        if a < x:
            out.append((a, x - 1))
        a = y + 1
    return out


def _pieces(n: int, m: int):
    """The pieces (x, end, q, a0), ascending, that tile 1 <= w < n, one for
    each value of q = (2m + n - w) // n: at most two, as (2m + n - w)/n
    spans less than 1 there.  On each, alpha_min(n, m, w) = a0 + q*w with
    a0 = max(0, 2m - qn)."""
    x = 1
    while x < n:
        q = (2 * m + n - x) // n
        end = min(n - 1, 2 * m + n - n * q)  # the last w with this q; n - 1 for q = 0
        yield x, end, q, max(0, 2 * m - q * n)
        x = end + 1


def _unrefuted(lam: int, m: int, h: Gram3PerM):
    """The split sizes 1 <= w < lam, ascending, except runs of w where a
    lower bound on the region maximum is >= 0.

    Skipping such a w is sound: a w whose region maximum is >= 0 is no
    witness.  The bound is the value at the alpha_min end of the alpha
    range, a point of the region (see _alpha_range), with beta_lo <=
    max(0, alpha - m, (alpha - w(lam-w) + 1)/2), as ceil(x/2) <= (x+1)/2
    for integer x.  As n01 <= 0, n01 times this max is the min of its three
    terms, so the value is >= 0 where all three polynomials in w are.  A
    weaker bound only hands more w to wsplit_contradiction's exact per-w
    stage, never a different witness.

    On each piece of w (_pieces), alpha = a0 + q*w, so with
    V = 2(n00 + n10 alpha + n20 alpha^2) the three polynomials, times 2,
    are V, V + n01(2 alpha - 2m) and V + n01(alpha - w(lam - w) + 1):
    quadratics in w, written here in powers of w."""
    n01, n20 = h.n01, h.n20
    for x, end, q, a0 in _pieces(lam, m):
        v0 = 2 * n20 * a0 * a0
        v1, v2 = 2 * (h.n00_w + (h.n10_w + 2 * n20 * q) * a0), 2 * (h.n00_ww + (h.n10_w + n20 * q) * q)
        bounds = ((v0, v1, v2), (v0 + 2 * n01 * (a0 - m), v1 + 2 * n01 * q, v2),
                  (v0 + n01 * (a0 + 1), v1 + n01 * (q - lam), v2 + n01))
        if _nonneg_on(bounds[0], x, end) and _nonneg_on(bounds[1], x, end) and _nonneg_on(bounds[2], x, end):
            continue  # all three >= 0 on the whole piece, shown in O(1)
        for y, z in _survivors(bounds, x, end):
            yield from range(y, z + 1)


def wsplit_contradiction(params: SrgParams, rep: ReprConstants, m: int) -> WSplitWitness | None:
    """Search all split sizes w for one whose entire (alpha, beta) region
    makes the 3x3 Gram determinant negative; return the smallest such w.
    The region's constraints (see _alpha_range) are necessary conditions only.

    Runs of w whose region maximum the value at the alpha_min end shows to
    be >= 0 are skipped a piece at a time (_unrefuted); each w left, in
    ascending order, gets the exact region scan.
    """
    lam = params.lam
    if m > lam * (lam - 1) // 2:
        raise ValueError(f"m={m} exceeds C(lam,2) for lam={lam}")
    h = gram3_per_m(params, rep, m)
    n01, n20 = h.n01, h.n20
    if n01 > 0:
        raise ValueError(f"m={m} exceeds the root of the 2x2 Gram determinant")
    for w in _unrefuted(lam, m, h):
        alpha_lo = alpha_min(lam, m, w)
        # not None: the region is never empty (see _alpha_range)
        best, at = _region_max_scaled(*gram3_per_w(h, w), n01, n20, lam, m, w, alpha_lo)
        if best < 0:  # h.den > 0: the sign of the numerator is the sign of the maximum
            return WSplitWitness(w, m, alpha_lo, best, h.den, at)
    return None


def decide(params: SrgParams) -> Certificate:
    """Full pipeline: classical screens, 4-clique bound, m window, w-split.

    Nonexistent requires an empty m window or a witness for every m in it;
    anything weaker is Inconclusive.  Conference-type tuples (irrational
    eigenvalues) are NotApplicable: the Gram machinery needs rational inner
    products.
    """
    report = classical_feasibility(params)
    # report.passed, without its call: most scan rows fail it, and their certificate skips the named tuple's __new__
    if not (report.identity_ok and report.integrality_ok and report.krein_ok and report.absolute_bound_ok):
        return tuple.__new__(Certificate, (params, report, _INFEASIBLE, None, None, None, None, (), ()))
    spectrum = report.spectrum
    if spectrum is None:
        return Certificate(params, report, _NOT_APPLICABLE,
                           notes=("irrational eigenvalues: Gram pipeline not applicable",))
    _, k, lam, mu = params
    if mu == k:  # not primitive: r = 0 needs mu = k, as r*s = mu - k
        return Certificate(params, report, _INCONCLUSIVE, spectrum,
                           notes=("complete-multipartite family: Gram tests skipped",))

    rep = repr_constants(params, spectrum)
    k4 = k4_lower_bound(params, rep)
    notes = []
    lower = m_lower(params, k4.lower)
    root = _gram2_root(params, rep)
    upper = 0 if root is None else max(-1, root[0] // root[1])
    cap = lam * (lam - 1) // 2
    if upper > cap:
        notes.append(f"2x2 Gram bound {upper} exceeds C(lam,2)={cap}; capped")
        upper = cap
    rng = tuple.__new__(MRange, (lower, upper))

    # an empty window is itself the contradiction: the loop does not run
    verdict = _NONEXISTENT
    witnesses: list[WSplitWitness] = []
    for m in range(lower, upper + 1):
        wit = wsplit_contradiction(params, rep, m)
        if wit is None:
            verdict = _INCONCLUSIVE
            break
        witnesses.append(wit)
    return tuple.__new__(Certificate, (params, report, verdict, spectrum, rep, k4, rng, tuple(witnesses), tuple(notes)))
