"""Lower bound on the number of 4-cliques from positive-definite sphere
polynomials.

The unit-vector system is the v vertex vectors together with one normalized
vector y_e = (x_u + x_w)/|x_u + x_w| per edge.  Its inner-product
distribution is determined by (v, k, lam, mu) and the 4-clique count alone;
applying an even Gegenbauer polynomial entrywise to the Gram matrix keeps it
positive semidefinite, and evaluating the quadratic form at weight 1 on
vertex vectors and a on edge vectors yields an inequality affine in the
4-clique count.  Everything is exact: irrational inner products only ever
enter through their rational squares, which even polynomials consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .params import SrgParams
from .representation import ReprConstants

__all__ = [
    "gegenbauer_eval",
    "PairClass",
    "PairProfile",
    "pair_profile",
    "K4Bound",
    "k4_lower_bound",
]

MAX_DEGREE = 8


@lru_cache(maxsize=None)
def _gegenbauer_coeffs(d: int, t: int) -> tuple[Fraction, ...]:
    """Coefficients (constant first) of the degree-t Gegenbauer polynomial
    for the sphere S^{d-1}, normalized to take value 1 at x = 1.

    Built from the classical three-term recurrence
    n C_n = 2(n - 1 + nu) x C_{n-1} - (n - 2 + 2 nu) C_{n-2},  nu = (d-2)/2.
    """
    nu = Fraction(d - 2, 2)
    polys = [(Fraction(1),), (Fraction(0), 2 * nu)]
    for n in range(2, t + 1):
        prev, prev2 = polys[n - 1], polys[n - 2]
        coeffs = [Fraction(0)] * (n + 1)
        for i, c in enumerate(prev):
            coeffs[i + 1] += 2 * (n - 1 + nu) * c
        for i, c in enumerate(prev2):
            coeffs[i] -= (n - 2 + 2 * nu) * c
        polys.append(tuple(c / n for c in coeffs))
    raw = polys[t]
    at_one = sum(raw)
    return tuple(c / at_one for c in raw)


@lru_cache(maxsize=None)
def _gegenbauer_scaled(d: int, t: int) -> tuple[tuple[int, ...], int]:
    """The coefficients of x^0, x^2, ..., x^t of the normalized even
    degree-t Gegenbauer polynomial, as integers over one denominator > 0."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    if t % 2 != 0:
        raise ValueError(f"degree must be even, got {t}")
    if not 0 <= t <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {t}")
    coeffs = _gegenbauer_coeffs(d, t)
    assert all(c == 0 for c in coeffs[1::2])
    den = math.lcm(*(c.denominator for c in coeffs[::2]))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs[::2]), den


def _gegenbauer_ratio(d: int, t: int, a: int, b: int) -> tuple[int, int]:
    """(N, M) with M > 0 and N/M the normalized degree-t Gegenbauer value at
    x^2 = a/b, b > 0, by Horner's rule on integers."""
    nums, den = _gegenbauer_scaled(d, t)
    acc, b_pow = nums[-1], 1
    for c in reversed(nums[:-1]):
        b_pow *= b
        acc = acc * a + c * b_pow
    return acc, den * b_pow


def gegenbauer_eval(d: int, t: int, x_squared: Fraction) -> Fraction:
    """Value of the normalized degree-t Gegenbauer polynomial at x, given x^2.

    Only even t is supported: an even polynomial depends on x^2 alone, which
    keeps the result rational for the square roots occurring in the edge
    vector inner products.
    """
    x_squared = Fraction(x_squared)
    if x_squared < 0:
        raise ValueError("x_squared must be non-negative")
    return Fraction(*_gegenbauer_ratio(d, t, x_squared.numerator, x_squared.denominator))


@dataclass(frozen=True)
class PairClass:
    """One inner-product class of the vertex+edge vector system.

    value_sq is the squared inner product (always rational; the even
    polynomials never need the sign).  count is affine in the unknown
    4-clique count K4: count_const + count_k4 * K4.  Counting conventions:
    vertex-vertex counts are over ordered pairs including self-pairs,
    vertex-edge counts are over (vertex, edge) pairs, edge-edge counts are
    over unordered pairs of distinct edges plus a separate self class.
    """

    name: str
    kind: str
    value_sq: Fraction
    count_const: Fraction
    count_k4: Fraction

    def count_at(self, k4) -> Fraction:
        return self.count_const + self.count_k4 * k4


@dataclass(frozen=True)
class PairProfile:
    """Complete inner-product census of the vertex+edge system, symbolic in K4."""

    params: SrgParams
    rep: ReprConstants
    edge_count: Fraction
    classes: tuple[PairClass, ...]

    def counts_at(self, k4) -> dict[str, Fraction]:
        return {cls.name: cls.count_at(k4) for cls in self.classes}


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def pair_profile(params: SrgParams, rep: ReprConstants) -> PairProfile:
    """All inner-product classes of {x_u} union {y_e} with counts affine in K4.

    The disjoint edge-pair classes n_j (j = 0..4 cross adjacencies) come from
    4-vertex subgraph counts: a disjoint pair with j cross edges spans a
    4-set inducing a subgraph with j + 2 edges that contains the pair as a
    perfect matching.  Matchings per inducing subgraph: 1 for two disjoint
    edges, 1 for a 4-path, 2 for a 4-cycle, 1 for a triangle-plus-pendant,
    2 for a diamond, 3 for a 4-clique.  The diamond/paw/4-cycle counts are
    affine in K4:

      diamond = |E| C(lam,2) - 6 K4            (edges inside a common
                                                neighborhood pair up with
                                                their base edge)
      paw     = 3 T (k - 2 lam) + 12 K4        (T = v k lam / 6 triangles;
                                                inclusion-exclusion on the
                                                pendant's neighborhood)
      4-cycle = (N C(mu,2) - diamond) / 2      (N = non-adjacent pairs)

    and the two low classes follow from the pair total
    C(|E|,2) - v C(k,2) and the cross-adjacency total |E|((k-1)^2 - lam).
    Every coefficient is validated against brute-force censuses of reference
    graphs in the test suite.
    """
    v, k, lam, mu = params.v, params.k, params.lam, params.mu
    D, P, Q = rep.D, rep.P, rep.Q
    S = 2 * D + 2 * P  # |x_u + x_w|^2 scaled by D
    # counts are built as integers over 48, which clears every /2, /4, /6
    # and /8 below; E48 = 48|E| = 24vk
    E48 = 24 * v * k

    classes: list[PairClass] = []

    def add(name, kind, c, den, const, k4=0):
        # squared value c^2/den, counts const/48 + k4/48 * K4
        classes.append(PairClass(name, kind, Fraction(c * c, den), Fraction(const, 48), Fraction(k4, 48)))

    # vertex-vertex, ordered pairs
    add("vv-self", "vertex-vertex", 1, 1, 48 * v)
    add("vv-adjacent", "vertex-vertex", P, D * D, 48 * v * k)
    add("vv-nonadjacent", "vertex-vertex", Q, D * D, 48 * v * (v - 1 - k))

    # vertex-edge, (vertex, edge) pairs; values c/sqrt(2+2p) stored as c^2/(2+2p)
    for name, c, count in (
        ("ve-endpoint", D + P, 2 * E48),
        ("ve-both", 2 * P, E48 * lam),
        ("ve-one", P + Q, 2 * E48 * (k - 1 - lam)),
        ("ve-neither", 2 * Q, E48 * (v - 2 * k + lam)),
    ):
        add(name, "vertex-edge", c, D * S, count)

    # edge-edge: self, sharing a vertex (unordered), disjoint (unordered)
    add("ee-self", "edge-edge-shared", 1, 1, E48)
    shared_adj = 24 * v * k * lam  # 48 vk lam / 2
    shared_total = 48 * v * _comb2(k)
    for name, c, count in (
        ("ee-shared-adjacent", D + 3 * P, shared_adj),
        ("ee-shared-nonadjacent", D + 2 * P + Q, shared_total - shared_adj),
    ):
        add(name, "edge-edge-shared", c, S * S, count)

    # disjoint pairs by number of cross adjacencies, as (const, K4 coefficient)
    triangles = 8 * v * k * lam  # 48 vk lam / 6
    nonadj_pairs = 24 * v * (v - 1 - k)  # 48 v(v-1-k) / 2
    diamond = (E48 * _comb2(lam), -6 * 48)
    paw = (3 * triangles * (k - 2 * lam), 12 * 48)
    c4 = ((nonadj_pairs * _comb2(mu) - diamond[0]) // 2, -diamond[1] // 2)

    n4 = (0, 3 * 48)
    n3 = (2 * diamond[0], 2 * diamond[1])
    n2 = (2 * c4[0] + paw[0], 2 * c4[1] + paw[1])
    cross_total = E48 * ((k - 1) ** 2 - lam)  # sum over disjoint pairs of j
    n1 = (
        cross_total - 2 * n2[0] - 3 * n3[0] - 4 * n4[0],
        -2 * n2[1] - 3 * n3[1] - 4 * n4[1],
    )
    disjoint_total = E48 * (E48 - 48) // 96 - shared_total  # 48 C(|E|,2) = 48|E|(48|E| - 48) / 96
    n0 = (
        disjoint_total - n1[0] - n2[0] - n3[0] - n4[0],
        -n1[1] - n2[1] - n3[1] - n4[1],
    )
    for j, (const, coef) in enumerate((n0, n1, n2, n3, n4)):
        add(f"ee-disjoint-{j}", "edge-edge-disjoint", j * P + (4 - j) * Q, S * S, const, coef)

    return PairProfile(params=params, rep=rep, edge_count=params.edge_count, classes=tuple(classes))


@dataclass(frozen=True)
class K4Bound:
    """Result of optimizing the quadratic form F(a) = A(a) + B(a) * K4.

    A and B are stored lowest-degree-first; positive semidefiniteness forces
    F(a) >= 0 for the true K4, so whenever B(a) > 0 the count satisfies
    K4 >= -A(a)/B(a).  lower is the ceiling of the optimized rational bound
    (clamped at 0), raw_bound the exact optimum, optimal_a its maximizer
    (None when the optimum is only approached as |a| grows).
    """

    lower: int
    optimal_a: Fraction | None
    a_quadratic: tuple[Fraction, Fraction, Fraction]
    k4_quadratic: tuple[Fraction, Fraction, Fraction]
    raw_bound: Fraction | None
    informative: bool


def k4_lower_bound(params: SrgParams, rep: ReprConstants, degree: int = 4) -> K4Bound:
    """Best 4-clique lower bound obtainable from one even Gegenbauer degree.

    With S_vv, S_ve, S_ee the class-weighted polynomial sums over the
    vertex-vertex, vertex-edge and edge-edge blocks,
    F(a) = S_vv + 2a S_ve + a^2 (S_ee0 + B2 K4) >= 0 for all a.  For B2 > 0
    the bound sup_a -A(a)/B(a) is reached at a* = -S_vv/S_ve with value
    (S_ve^2/S_vv - S_ee0)/B2.
    """
    prof = pair_profile(params, rep)
    gval = {
        cls.name: _gegenbauer_ratio(rep.d, degree, cls.value_sq.numerator, cls.value_sq.denominator)
        for cls in prof.classes
    }

    def block_sum(kind: str, count: str) -> Fraction:
        # integers over one denominator; an unordered edge pair sits twice in the Gram matrix
        parts = []
        for cls in prof.classes:
            if cls.kind.startswith(kind):
                weight = 2 if kind == "edge-edge" and cls.name != "ee-self" else 1
                c, (n, m) = getattr(cls, count), gval[cls.name]
                parts.append((weight * c.numerator * n, c.denominator * m))
        den = math.lcm(*(m for _, m in parts))
        return Fraction(sum(n * (den // m) for n, m in parts), den)

    s_vv = block_sum("vertex-vertex", "count_const")
    s_ve = block_sum("vertex-edge", "count_const")
    s_ee0 = block_sum("edge-edge", "count_const")
    b2 = block_sum("edge-edge", "count_k4")
    a_quad = (s_vv, 2 * s_ve, s_ee0)
    k4_quad = (Fraction(0), Fraction(0), b2)

    if b2 <= 0:
        return K4Bound(0, None, a_quad, k4_quad, None, informative=False)
    # The kernel matrix of an existing graph is PSD, so S_vv >= 0, and
    # S_vv = 0 forces S_ve = 0 (vertex vectors forming a spherical design).
    # S_vv = 0 thus takes the |a| -> infinity limit; where S_vv < 0, or
    # S_vv = 0 with S_ve != 0, no graph exists and any bound is sound.
    if s_vv == 0 or s_ve == 0:
        raw = -s_ee0 / b2
        optimal_a = None  # approached as |a| -> infinity
    else:
        raw = (s_ve * s_ve / s_vv - s_ee0) / b2
        optimal_a = -s_vv / s_ve
    lower = max(0, math.ceil(raw))
    return K4Bound(lower, optimal_a, a_quad, k4_quad, raw, informative=True)
