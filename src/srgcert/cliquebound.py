"""Lower bound on the number of 4-cliques from the degree-4 positive-definite
sphere polynomial.

The unit-vector system is the v vertex vectors together with one normalized
vector y_e = (x_u + x_w)/|x_u + x_w| per edge.  Its inner-product
distribution is determined by (v, k, lam, mu) and the 4-clique count alone;
applying the degree-4 Gegenbauer polynomial entrywise to the Gram matrix
keeps it positive semidefinite, and evaluating the quadratic form at weight
1 on vertex vectors and a on edge vectors yields an inequality affine in the
4-clique count.  Everything is exact: irrational inner products only ever
enter through their rational squares, which the even polynomial consumes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .params import ReprConstants, SrgParams, as_fraction


@lru_cache(maxsize=None)
def _gegenbauer_scaled(d: int) -> tuple[tuple[int, int, int], int]:
    """The coefficients of x^0, x^2, x^4 of the degree-4 Gegenbauer
    polynomial for the sphere S^{d-1}, normalized to take value 1 at x = 1,
    as integers over one denominator > 0: (3, -6(d+2), (d+2)(d+4)) over
    (d-1)(d+1), all four divided by their gcd."""
    if d < 3:
        raise ValueError(f"need d >= 3, got {d}")
    nums = (3, -6 * (d + 2), (d + 2) * (d + 4))
    den = (d - 1) * (d + 1)
    g = math.gcd(den, *nums)
    return tuple(n // g for n in nums), den // g


# every class count is an integer over 48, which clears every /2, /4, /6 and /8 in _class_rows
COUNT_DEN = 48

# the K4 coefficients of the class counts of _class_rows, over COUNT_DEN, for
# every tuple: 0 but in the disjoint edge-pair classes n_j, 3 (-1)^j C(4, j) there
K4_COLUMN = ((0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 144, -576, 864, -576, 144))


def _class_rows(params: SrgParams, rep: ReprConstants) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The inner-product classes of {x_u} union {y_e}, one pair (cs, counts)
    of parallel integer tuples per Gram block (vertex-vertex, vertex-edge,
    edge-edge); oracle.pair_profile names them.  A class's inner product is
    c/sqrt of its block's D^2, D*S or S^2 (S = |x_u + x_w|^2 scaled by D),
    and its count (count + k4 * K4) / COUNT_DEN, over ordered vertex pairs,
    (vertex, edge) pairs, or unordered pairs of edges, with k4 its entry of
    K4_COLUMN.  The vertex-vertex and edge-edge blocks open with their self
    class, at inner product 1.

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
    So n_4 = 3 K4, n_3 = 2 diamond, n_2 = 2 4-cycle + paw, and the K4 terms
    carry no parameter: K4_COLUMN.  Every coefficient is validated against
    brute-force censuses of reference graphs in the test suite.
    """
    v, k, lam, mu = params
    D, P, Q, S = rep.D, rep.P, rep.Q, rep.S
    E48 = 24 * v * k  # 48 |E|
    shared_adj = E48 * lam  # 48 vk lam / 2
    shared_total = 24 * v * k * (k - 1)  # 48 v C(k,2)

    # the K4-free parts of the disjoint classes n_3, n_2, n_1, n_0 (n_4 = 3 K4)
    diamond = E48 * lam * (lam - 1) // 2
    c4 = (12 * v * (v - 1 - k) * mu * (mu - 1) - diamond) // 2  # 48 N C(mu,2) = 12 v(v-1-k) mu(mu-1)
    n3 = 2 * diamond
    n2 = 2 * c4 + 24 * v * k * lam * (k - 2 * lam)  # paw = 3 (48 T)(k - 2 lam), 48 T = 8 vk lam
    n1 = E48 * ((k - 1) ** 2 - lam) - 2 * n2 - 3 * n3  # the cross-adjacency total less j n_j, j >= 2
    n0 = E48 * (E48 - 48) // 96 - shared_total - n1 - n2 - n3  # 48 C(|E|,2) = 48|E|(48|E| - 48) / 96
    return (
        # vertex-vertex, ordered pairs
        ((D, P, Q), (48 * v, 48 * v * k, 48 * v * (v - 1 - k))),
        # vertex-edge, (vertex, edge) pairs
        ((D + P, 2 * P, P + Q, 2 * Q), (2 * E48, E48 * lam, 2 * E48 * (k - 1 - lam), E48 * (v - 2 * k + lam))),
        # edge-edge: self, sharing a vertex (unordered), disjoint by cross adjacencies (unordered)
        ((S, D + 3 * P, D + 2 * P + Q, 4 * Q, P + 3 * Q, 2 * P + 2 * Q, 3 * P + Q, 4 * P),
         (E48, shared_adj, shared_total - shared_adj, n0, n1, n2, n3, 0)),
    )


class K4Bound(NamedTuple):
    """Result of optimizing the quadratic form F(a) = A(a) + B(a) * K4.

    A and B are lowest-degree-first; positive semidefiniteness forces
    F(a) >= 0 for the true K4, and B(a) = B2 a^2 with B2 > 0, so the count
    satisfies K4 >= -A(a)/B(a).  lower is the ceiling of the optimized
    rational bound (clamped at 0), raw_bound the exact optimum, optimal_a
    its maximizer (None when the optimum is only approached as |a| grows),
    each a Fraction of the pair its *_pair method gives the writers.
    """

    lower: int
    sums: tuple[int, int, int, int]  # S_vv, S_ve, S_ee0, B2 numerators
    dens: tuple[int, int, int]  # vertex-vertex, vertex-edge, edge-edge denominators

    def quadratic_pairs(self) -> tuple[tuple[int, int], ...]:
        """The coefficients of A(a), then of B(a), as (numerator, denominator > 0)."""
        (s_vv, s_ve, s_ee0, b2), (d_vv, d_ve, d_ee) = self.sums, self.dens
        return (s_vv, d_vv), (2 * s_ve, d_ve), (s_ee0, d_ee), (0, 1), (0, 1), (b2, d_ee)

    def raw_bound_pair(self) -> tuple[int, int]:
        return _raw_bound(self.sums)

    def optimal_a_pair(self) -> tuple[int, int] | None:  # -S_vv/S_ve; None at the |a| -> infinity limit
        (s_vv, s_ve, _, _), (d_vv, d_ve, _) = self.sums, self.dens
        return (-s_vv * d_ve, d_vv * s_ve) if s_vv and s_ve else None

    @property
    def a_quadratic(self):
        return tuple(map(as_fraction, self.quadratic_pairs()[:3]))

    @property
    def k4_quadratic(self):
        return tuple(map(as_fraction, self.quadratic_pairs()[3:]))

    @property
    def raw_bound(self):
        return as_fraction(self.raw_bound_pair())

    @property
    def optimal_a(self):
        return as_fraction(self.optimal_a_pair())


def _raw_bound(sums) -> tuple[int, int]:
    """sup_a -A(a)/B(a) for B2 > 0 as (numerator, denominator > 0), from the
    numerators alone, as d_vv d_ee = d_ve^2 and S_ee0, B2 share d_ee: where
    S_vv or S_ve is 0 the |a| -> infinity limit -S_ee0/B2 = -s_ee0/b2, else
    (S_ve^2/S_vv - S_ee0)/B2 = (s_ve^2 - s_ee0 s_vv)/(s_vv b2).  The kernel
    matrix of an existing graph is PSD, so S_vv >= 0, and S_vv = 0 forces
    S_ve = 0 (vertex vectors forming a spherical design); where S_vv < 0, or
    S_vv = 0 with S_ve != 0, no graph exists and any bound is sound."""
    s_vv, s_ve, s_ee0, b2 = sums
    if s_vv == 0 or s_ve == 0:
        return -s_ee0, b2
    num, den = s_ve * s_ve - s_ee0 * s_vv, s_vv * b2
    return (num, den) if den > 0 else (-num, -den)


def k4_lower_bound(params: SrgParams, rep: ReprConstants) -> K4Bound:
    """Best 4-clique lower bound obtainable from the degree-4 Gegenbauer
    polynomial: with S_vv, S_ve, S_ee the class-weighted polynomial sums of
    the vertex-vertex, vertex-edge and edge-edge blocks, F(a) = S_vv +
    2a S_ve + a^2 (S_ee0 + B2 K4) >= 0 for all a; see _raw_bound.  A
    block's c^2 share the denominator b (D^2, D S or S^2): with the
    coefficients scaled to (n0 b^2, n2 b, n4), a class's value g at x = c^2
    is (n4 x + n2 b) x + n0 b^2 over den b^2, written out for each of the 3,
    4 and 8 classes.  By K4_COLUMN, B2 is 288 times the fourth difference
    sum_j (-1)^j C(4, j) g_j of the disjoint classes, whose c_j = 4Q + j(P - Q)
    make g_j a quartic in j with leading coefficient n4 (P - Q)^4:
    B2 = 6912 n4 (P - Q)^4 > 0, as n4 > 0 and P != Q (gramtest.gram3_per_m)."""
    (n0, n2, n4), den = _gegenbauer_scaled(rep.d)
    [((x0, x1, x2), (u0, u1, u2)), ((y0, y1, y2, y3), (w0, w1, w2, w3)),
     ((z0, z1, z2, z3, z4, z5, z6, z7), (t0, t1, t2, t3, t4, t5, t6, t7))] = _class_rows(params, rep)
    k0, k1, k2, k3, k4, k5, k6, k7 = K4_COLUMN[2]
    b_vv, b_ve, b_ee, unit = rep.D * rep.D, rep.D * rep.S, rep.S * rep.S, COUNT_DEN * den
    x0, x1, x2, mid, low = x0 * x0, x1 * x1, x2 * x2, n2 * b_vv, n0 * b_vv * b_vv
    s_vv = ((n4 * x0 + mid) * x0 + low) * u0 + ((n4 * x1 + mid) * x1 + low) * u1 + ((n4 * x2 + mid) * x2 + low) * u2
    y0, y1, y2, y3, mid, low = y0 * y0, y1 * y1, y2 * y2, y3 * y3, n2 * b_ve, n0 * b_ve * b_ve
    s_ve = (((n4 * y0 + mid) * y0 + low) * w0 + ((n4 * y1 + mid) * y1 + low) * w1
            + ((n4 * y2 + mid) * y2 + low) * w2 + ((n4 * y3 + mid) * y3 + low) * w3)
    z0, z1, z2, z3, z4, z5, z6, z7 = z0 * z0, z1 * z1, z2 * z2, z3 * z3, z4 * z4, z5 * z5, z6 * z6, z7 * z7
    mid, low = n2 * b_ee, n0 * b_ee * b_ee
    g0, g1, g2 = (n4 * z0 + mid) * z0 + low, (n4 * z1 + mid) * z1 + low, (n4 * z2 + mid) * z2 + low
    g3, g4, g5 = (n4 * z3 + mid) * z3 + low, (n4 * z4 + mid) * z4 + low, (n4 * z5 + mid) * z5 + low
    g6, g7 = (n4 * z6 + mid) * z6 + low, (n4 * z7 + mid) * z7 + low
    b2 = 2 * (k0 * g0 + k1 * g1 + k2 * g2 + k3 * g3 + k4 * g4 + k5 * g5 + k6 * g6 + k7 * g7)
    if b2 <= 0:
        raise ValueError("4-clique coefficient B2 is not positive")
    # a pair of distinct edges sits twice in the Gram matrix, the self class once
    sums = (s_vv, s_ve, g0 * t0 + 2 * (g1 * t1 + g2 * t2 + g3 * t3 + g4 * t4 + g5 * t5 + g6 * t6 + g7 * t7), b2)
    num, den = _raw_bound(sums)
    dens = (unit * b_vv * b_vv, unit * b_ve * b_ve, unit * b_ee * b_ee)
    return tuple.__new__(K4Bound, (max(0, -(-num // den)), sums, dens))
