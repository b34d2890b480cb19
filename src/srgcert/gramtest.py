"""The contradiction engine: edge-count window for the densest
common-neighborhood subgraph, the degree-sum threshold lemma, the w-split
determinant search, and the overall verdict."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cliquebound import K4Bound, k4_lower_bound
from .params import (
    FeasibilityReport,
    Spectrum,
    SrgParams,
    classical_feasibility,
)
from .representation import (
    BivariateQuadratic,
    ReprConstants,
    gram2,
    gram3_det,
    repr_constants,
)

__all__ = [
    "Verdict",
    "MRange",
    "WSplitWitness",
    "Certificate",
    "m_upper_exact",
    "m_lower",
    "alpha_min",
    "wsplit_contradiction",
    "decide",
]


class Verdict(enum.Enum):
    NONEXISTENT = "Nonexistent"
    INCONCLUSIVE = "Inconclusive"
    INFEASIBLE_CLASSICAL = "InfeasibleClassical"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class MRange:
    """Window for the maximal common-neighborhood edge count m: lower from
    4-clique averaging, upper from the 2x2 Gram determinant.  An empty
    window is an immediate contradiction."""

    lower: int
    upper: int

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    def __iter__(self):
        return iter(range(self.lower, self.upper + 1))


@dataclass(frozen=True)
class WSplitWitness:
    """Certifies that for the given m every feasible (alpha, beta) of the
    w-split makes the 3x3 Gram determinant negative."""

    w: int
    m: int
    alpha_min: int
    region_max_det: Fraction
    region_max_at: tuple[int, int]


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable transcript of every bound and the contradiction."""

    params: SrgParams
    feasibility: FeasibilityReport
    spectrum: Spectrum | None
    rep: ReprConstants | None
    k4_bound: K4Bound | None
    m_range: MRange | None
    m_upper_bound: Fraction | None
    witnesses: tuple[WSplitWitness, ...]
    verdict: Verdict
    notes: tuple[str, ...] = field(default=())


def m_upper_exact(params: SrgParams, rep: ReprConstants) -> Fraction | None:
    """The exact rational root of the linear-in-m 2x2 Gram determinant,
    or None for lam = 0.

    Every edge's common-neighborhood subgraph, hence the densest one, has
    at most this many edges.
    """
    if params.lam == 0:
        return None
    det = gram2(params, rep).det_poly()
    # slope (2+2p) * 2(p-q) is negative for primitive parameters
    if det.c1 >= 0:
        raise ValueError("2x2 Gram determinant is not decreasing in m")
    return -det.c0 / det.c1


def m_lower(params: SrgParams, k4_lower: int) -> int:
    """ceil(6 * k4_lower / |E|): each 4-clique contributes one edge to six
    common-neighborhood subgraphs, so the maximum m is at least the mean."""
    if k4_lower <= 0:
        return 0
    return math.ceil(Fraction(12 * k4_lower, params.v * params.k))


def alpha_min(n: int, m: int, w: int) -> int:
    """Lower bound for the degree sum of the w largest-degree vertices of any
    graph with n vertices and m edges.

    For every threshold t >= 1, either all top-w degrees reach t (sum >= tw)
    or some top degree is below t, hence every degree outside the top w is
    at most t - 1 and the top sum is at least 2m - (t-1)(n-w).  The best
    threshold gives max_t min(tw, 2m - (t-1)(n-w)).
    """
    if not 1 <= w <= n:
        raise ValueError(f"need 1 <= w <= n, got w={w}, n={n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"need 0 <= m <= C(n,2), got m={m}, n={n}")
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


def _region_max(
    det: BivariateQuadratic, n: int, m: int, w: int, alpha_lo: int
) -> tuple[Fraction, tuple[int, int]] | None:
    """Exact maximum of det over the integer (alpha, beta) region of the
    w-split, or None if the region is empty.

    Region: alpha_lo <= alpha <= min(2m, w(n-1)) and
    max(0, alpha - m, ceil((alpha - w(n-w))/2)) <= beta <= min(C(w,2),
    floor(alpha/2)).  det is linear in beta, so for each alpha the maximum
    sits at the upper beta endpoint if c01 > 0 and at the lower one
    otherwise; ties go to the smallest alpha, then the smallest beta.
    """
    alpha_hi = min(2 * m, w * (n - 1))
    cross_cap = w * (n - w)
    beta_cap = w * (w - 1) // 2

    coeffs = (det.c00, det.c10, det.c01, det.c20)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    c00, c10, c01, c20 = (int(c * lcm) for c in coeffs)

    best_val: int | None = None
    best_at: tuple[int, int] | None = None
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


def wsplit_contradiction(
    params: SrgParams, rep: ReprConstants, m: int
) -> WSplitWitness | None:
    """Search all split sizes w for one whose entire (alpha, beta) region
    makes the 3x3 Gram determinant negative; return the smallest such w.

    The region constraints are necessary conditions only: alpha at least the
    degree-sum bound and at most min(2m, w(lam-1)); beta at least
    max(0, alpha - m) with non-negative low-part edges, at most
    min(C(w,2), alpha/2); crossing edges alpha - 2 beta at most w(lam - w).
    """
    lam = params.lam
    if lam <= 1:
        return None
    if m > lam * (lam - 1) // 2:
        raise ValueError(f"m={m} exceeds C(lam,2) for lam={lam}")
    for w in range(1, lam):
        alpha_lo = alpha_min(lam, m, w)
        det = gram3_det(params, rep, w, m)
        result = _region_max(det, lam, m, w, alpha_lo)
        if result is None:
            continue
        max_det, max_at = result
        if max_det < 0:
            return WSplitWitness(
                w=w, m=m, alpha_min=alpha_lo, region_max_det=max_det, region_max_at=max_at
            )
    return None


def decide(
    params: SrgParams,
    *,
    gegenbauer_degree: int = 4,
    use_clique_bound: bool = True,
) -> Certificate:
    """Full pipeline: classical screens, 4-clique bound, m window, w-split.

    Nonexistent requires an empty m window or a witness for every m in it;
    anything weaker is Inconclusive.  Conference-type tuples (irrational
    eigenvalues) are NotApplicable: the Gram machinery needs rational inner
    products.
    """
    report = classical_feasibility(params)
    notes: list[str] = []

    def cert(verdict, spectrum=None, rep=None, k4=None, rng=None, mu_exact=None, wits=()):
        return Certificate(
            params=params,
            feasibility=report,
            spectrum=spectrum,
            rep=rep,
            k4_bound=k4,
            m_range=rng,
            m_upper_bound=mu_exact,
            witnesses=tuple(wits),
            verdict=verdict,
            notes=tuple(notes),
        )

    if not report.passed:
        return cert(Verdict.INFEASIBLE_CLASSICAL)
    spectrum = report.spectrum
    if spectrum is None:
        notes.append("irrational eigenvalues: Gram pipeline not applicable")
        return cert(Verdict.NOT_APPLICABLE)
    if not params.primitive or spectrum.r == 0:
        notes.append("complete-multipartite family: Gram tests skipped")
        return cert(Verdict.INCONCLUSIVE, spectrum=spectrum)

    rep = repr_constants(params, spectrum)
    k4 = k4_lower_bound(params, rep, degree=gegenbauer_degree) if use_clique_bound else None
    if k4 is not None and not k4.informative:
        notes.append("4-clique quadratic form carries no positive K4 coefficient")
    lo = m_lower(params, k4.lower) if k4 is not None else 0
    mu_exact = m_upper_exact(params, rep)
    up = 0 if mu_exact is None else max(-1, math.floor(mu_exact))
    cap = params.lam * (params.lam - 1) // 2
    if up > cap:
        notes.append(f"2x2 Gram bound {up} exceeds C(lam,2)={cap}; capped")
        up = cap
    rng = MRange(lower=lo, upper=up)

    # an empty window is itself the contradiction: the loop does not run
    verdict = Verdict.NONEXISTENT
    witnesses: list[WSplitWitness] = []
    for m in rng:
        wit = wsplit_contradiction(params, rep, m)
        if wit is None:
            verdict = Verdict.INCONCLUSIVE
            break
        witnesses.append(wit)
    return cert(verdict, spectrum=spectrum, rep=rep, k4=k4, rng=rng, mu_exact=mu_exact, wits=witnesses)
