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

from .params import ReprConstants, SrgParams


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


# every class count of oracle._class_rows is an integer over 48, clearing their /2, /4, /6 and /8
COUNT_DEN = 48


class K4Bound(NamedTuple):
    """Result of optimizing the quadratic form F(a) = A(a) + B(a) * K4.

    A and B are lowest-degree-first; positive semidefiniteness forces
    F(a) >= 0 for the true K4, and B(a) = B2 a^2 with B2 > 0, so the count
    satisfies K4 >= -A(a)/B(a).  lower is the ceiling of the optimized
    rational bound (clamped at 0); the *_pair methods give the writers the
    exact optimum, its maximizer (None when the optimum is only approached as
    |a| grows) and the coefficients, each as (numerator, denominator > 0).
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
    polynomial: F(a) = S_vv + 2a S_ve + a^2 (S_ee0 + B2 K4) >= 0 for all a,
    with S_vv, S_ve, S_ee the class-weighted polynomial sums of the
    vertex-vertex, vertex-edge and edge-edge blocks; see _raw_bound.  One
    integer pass writes out the 15 classes of oracle._class_rows, whose
    docstring derives them.  A block's c^2 share the denominator b (D^2, DS
    or S^2), so a class's value at x = c^2 is (n4 x + n2 b) x + n0 b^2 over
    den b^2, and den b^2 at a self class, where x = b.  ee-disjoint-4 counts
    3 K4, so it drops out of S_ee0, and B2 is 288 times the fourth difference
    of the disjoint classes' values, a quartic in j as c_j = 4Q + j(P - Q):
    B2 = 6912 n4 (P - Q)^4 > 0, as n4 > 0 and P != Q
    (gramtest.wsplit_contradiction)."""
    (v, k, lam, mu), (d, D, P, Q, S) = params, rep
    (n0, n2, n4), den = _gegenbauer_scaled(d)
    e48, unit = 24 * v * k, COUNT_DEN * den  # 48 |E|
    # vertex-vertex over D^2, ordered pairs: self, adjacent (c = P), non-adjacent (Q)
    x0, x1, x2 = D * D, P * P, Q * Q
    bb_vv = x0 * x0
    mid, low = n2 * x0, n0 * bb_vv
    s_vv = 48 * v * (den * bb_vv + k * ((n4 * x1 + mid) * x1 + low) + (v - 1 - k) * ((n4 * x2 + mid) * x2 + low))
    # vertex-edge over DS: the vertex an end (D + P), adjacent to both ends (2P), to one (P + Q), to neither (2Q)
    b, y0, y1, y2, y3 = D * S, D + P, 4 * x1, P + Q, 4 * x2
    bb_ve, y0, y2 = b * b, y0 * y0, y2 * y2
    mid, low = n2 * b, n0 * bb_ve
    s_ve = e48 * (2 * ((n4 * y0 + mid) * y0 + low) + lam * ((n4 * y1 + mid) * y1 + low)
                  + 2 * (k - 1 - lam) * ((n4 * y2 + mid) * y2 + low) + (v - 2 * k + lam) * ((n4 * y3 + mid) * y3 + low))
    # edge-edge over S^2: self once, and twice each unordered pair sharing a vertex whose other ends are adjacent
    # (D + 3P) or not (D + 2P + Q), or disjoint with j = 0..3 cross adjacencies ((4 - j)Q + jP), at counts j0..j3
    z0, z1, z2, z3, z4, z5, z6 = S * S, D + 3 * P, D + 2 * P + Q, 4 * y3, P + 3 * Q, 4 * y2, 3 * P + Q
    bb_ee, z1, z2, z4, z6 = z0 * z0, z1 * z1, z2 * z2, z4 * z4, z6 * z6
    mid, low = n2 * z0, n0 * bb_ee
    j3 = e48 * lam * (lam - 1)  # 2 diamond
    j2 = 12 * v * (v - 1 - k) * mu * (mu - 1) - j3 // 2 + e48 * lam * (k - 2 * lam)  # 2 4-cycle + paw
    j1 = e48 * ((k - 1) ** 2 - lam) - 2 * j2 - 3 * j3
    j0 = 6 * v * k * (v * k - 2) - e48 * (k - 1) - j1 - j2 - j3
    s_ee0 = e48 * den * bb_ee + 2 * (
        e48 * (lam * ((n4 * z1 + mid) * z1 + low) + (k - 1 - lam) * ((n4 * z2 + mid) * z2 + low))
        + j0 * ((n4 * z3 + mid) * z3 + low) + j1 * ((n4 * z4 + mid) * z4 + low)
        + j2 * ((n4 * z5 + mid) * z5 + low) + j3 * ((n4 * z6 + mid) * z6 + low))
    b2 = 6912 * n4 * (P - Q) ** 4
    if b2 <= 0:
        raise ValueError("4-clique coefficient B2 is not positive")
    sums = (s_vv, s_ve, s_ee0, b2)
    num, div = _raw_bound(sums)
    return tuple.__new__(K4Bound, (max(0, -(-num // div)), sums, (unit * bb_vv, unit * bb_ve, unit * bb_ee)))
