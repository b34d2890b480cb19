"""Euclidean-representation constants and the w-split Gram determinant.

Vertices map to unit vectors in the eigenspace of the negative eigenvalue s;
adjacent pairs have inner product p = s/k, non-adjacent pairs
q = -(1+s)/(v-k-1).  Vectors are never materialized here: only their exact
rational inner products enter, so sums of representation vectors have Gram
matrices whose entries are polynomials in unknown subgraph statistics.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .params import SrgParams, Spectrum

__all__ = [
    "ReprConstants",
    "repr_constants",
]


@dataclass(frozen=True)
class ReprConstants:
    """Inner products p (adjacent), q (non-adjacent) and the dimension d = g;
    every Gram entry of summed vectors is an integer once scaled by D."""

    p: Fraction
    q: Fraction
    d: int
    D: int = field(init=False, repr=False, compare=False)  # lcm of the denominators of p and q
    P: int = field(init=False, repr=False, compare=False)  # p * D
    Q: int = field(init=False, repr=False, compare=False)  # q * D

    def __post_init__(self):
        D = math.lcm(self.p.denominator, self.q.denominator)
        object.__setattr__(self, "D", D)
        for name, x in (("P", self.p), ("Q", self.q)):
            object.__setattr__(self, name, x.numerator * (D // x.denominator))


def repr_constants(params: SrgParams, spectrum: Spectrum | None) -> ReprConstants:
    """Exact p = s/k, q = -(1+s)/(v-k-1) in lowest terms, d = g."""
    if spectrum is None:
        raise ValueError("representation constants need an integer spectrum")
    p = Fraction(spectrum.s, params.k)
    q = Fraction(-(1 + spectrum.s), params.v - 1 - params.k)
    return ReprConstants(p=p, q=q, d=spectrum.g)


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
    when Y1 becomes X = Y1 + Y2, the sum of all lam common neighbors, and
    with d = p - q the entries are

        |X|^2 = lam + lam(lam-1)q + 2dm,  <X, Y2> = w(1 + (lam-1)q) + d*alpha
        |Y2|^2 = w + w(w-1)q + 2d*beta,   <Y2, Y3> = 2wp
        <X, Y3> = 2*lam*p,                |Y3|^2 = 2 + 2p

    so the determinant is c00 + c10*alpha + c01*beta + c20*alpha^2: beta
    enters only |Y2|^2 and alpha only <X, Y2>.  c20 = -(2+2p)d^2 < 0 makes
    it concave in alpha, c01 = 2d(|X|^2 |Y3|^2 - <X, Y3>^2) does not depend
    on w, c10 = w*c10_w, and c00 = w(c00_w + w*c00_ww) vanishes with Y2 at
    w = 0.  With every entry and d scaled by D, the coefficients are
    integers n00, n10, n01, n20 over den = D^3: this computes the w-free
    parts once per m and gram3_per_w the rest, for 1 <= w < lam.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    lam, D, P, Q = params.lam, rep.D, rep.P, rep.Q
    d = P - Q
    # |X|^2, <X, Y3>, |Y3|^2 and <X, Y2> less d*alpha, over w
    xx, x3, y3, x2 = lam * D + lam * (lam - 1) * Q + 2 * d * m, 2 * lam * P, 2 * D + 2 * P, D + (lam - 1) * Q
    # det = |Y2|^2 g - |X|^2 <Y2, Y3>^2 - |Y3|^2 <X, Y2>^2 + 2 <X, Y2> <Y2, Y3> <X, Y3>
    g = xx * y3 - x3 * x3  # |X|^2 |Y3|^2 - <X, Y3>^2
    return Gram3PerM(
        n00_w=(D - Q) * g,
        n00_ww=Q * g - 4 * P * P * xx - y3 * x2 * x2 + 4 * P * x2 * x3,
        n10_w=2 * d * (2 * P * x3 - y3 * x2),
        n01=2 * d * g,
        n20=-y3 * d * d,
        den=D**3,
    )


def gram3_per_w(h: Gram3PerM, w: int) -> tuple[int, int]:
    """The coefficients (n00, n10) of the w-split determinant at w, over h.den."""
    return w * (h.n00_w + w * h.n00_ww), w * h.n10_w
