"""Euclidean-representation constants and the w-split Gram determinant.

Vertices map to unit vectors in the eigenspace of the negative eigenvalue s;
adjacent pairs have inner product p = s/k, non-adjacent pairs
q = -(1+s)/(v-k-1).  Vectors are never materialized here: only their exact
rational inner products enter, so sums of representation vectors have Gram
matrices whose entries are polynomials in unknown subgraph statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .params import SrgParams, Spectrum

__all__ = [
    "ReprConstants",
    "BivariateQuadratic",
    "repr_constants",
    "gram3_det",
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
        for name, value in (("D", D), ("P", self.p * D), ("Q", self.q * D)):
            object.__setattr__(self, name, int(value))


def repr_constants(params: SrgParams, spectrum: Spectrum | None) -> ReprConstants:
    """Exact p = s/k, q = -(1+s)/(v-k-1) in lowest terms, d = g."""
    if spectrum is None:
        raise ValueError("representation constants need an integer spectrum")
    p = Fraction(spectrum.s, params.k)
    q = Fraction(-(1 + spectrum.s), params.v - 1 - params.k)
    return ReprConstants(p=p, q=q, d=spectrum.g)


@dataclass(frozen=True)
class BivariateQuadratic:
    """Exact polynomial c00 + c10*a + c01*b + c20*a^2 in (alpha, beta): the
    shape of the w-split determinant, whose a*b and b^2 terms cancel.  Held
    as integers n00..n20 over one den > 0; rational coefficients given to
    the constructor are brought over their least common denominator."""

    n00: int
    n10: int
    n01: int
    n20: int
    den: int = 1

    def __post_init__(self):
        if self.den > 0 and type(self.n00) is type(self.n10) is type(self.n01) is type(self.n20) is int:
            return
        coeffs = [Fraction(n) / self.den for n in (self.n00, self.n10, self.n01, self.n20)]
        den = math.lcm(*(c.denominator for c in coeffs))
        for name, c in zip(("n00", "n10", "n01", "n20"), coeffs):
            object.__setattr__(self, name, c.numerator * (den // c.denominator))
        object.__setattr__(self, "den", den)

    c00 = property(lambda self: Fraction(self.n00, self.den))
    c10 = property(lambda self: Fraction(self.n10, self.den))
    c01 = property(lambda self: Fraction(self.n01, self.den))
    c20 = property(lambda self: Fraction(self.n20, self.den))

    def scaled(self, alpha: int, beta: int) -> int:
        """den times the value at integer (alpha, beta): an integer."""
        return (self.n20 * alpha + self.n10) * alpha + self.n01 * beta + self.n00

    def __call__(self, alpha, beta) -> Fraction:
        return Fraction(self.scaled(alpha, beta), self.den)


def gram3_det(params: SrgParams, rep: ReprConstants, w: int, m: int) -> BivariateQuadratic:
    """Exact determinant of the 3x3 w-split Gram matrix as a polynomial in
    (alpha, beta).

    Y1 sums the n1 = lam - w low-degree common neighbors of an edge, Y2 the
    w top-degree ones, Y3 = x_u + x_w.  With alpha the top-w degree sum and
    beta the edges inside the top part, the low part has m + beta - alpha
    edges and alpha - 2*beta edges cross.  With d = p - q the entries are

        a11 = A1 + 2d(beta - alpha),  A1 = n1 + n1(n1-1)q + 2dm
        a22 = A2 + 2d*beta,           A2 = w + w(w-1)q
        a12 = A12 + d(alpha - 2beta), A12 = n1*w*q
        a13 = 2*n1*p,  a23 = 2wp,  a33 = 2 + 2p

    Only the third row is constant, and in a11*a22 - a12^2 the alpha*beta
    and beta^2 terms cancel, so the determinant is c00 + c10*alpha +
    c01*beta + c20*alpha^2 (a13 + a23 = 2*lam*p shortens c10 and c01).
    c20 < 0, so it is concave in alpha, and c01 does not depend on w.
    With every entry and d scaled by D, the coefficients are integers over D^3.
    Requires 1 <= w < lam.
    """
    lam = params.lam
    if not 1 <= w < lam:
        raise ValueError(f"need 1 <= w < lam, got w={w}, lam={lam}")
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    D, P, Q = rep.D, rep.P, rep.Q
    d = P - Q
    n1 = lam - w
    A1 = n1 * D + n1 * (n1 - 1) * Q + 2 * d * m
    A2 = w * D + w * (w - 1) * Q
    A12 = n1 * w * Q
    a13, a23, a33 = 2 * n1 * P, 2 * w * P, 2 * D + 2 * P
    return BivariateQuadratic(
        a33 * (A1 * A2 - A12 * A12) - a23 * a23 * A1 - a13 * a13 * A2 + 2 * a13 * a23 * A12,
        2 * d * (2 * lam * P * a23 - a33 * (A2 + A12)),
        2 * d * (a33 * (A1 + A2 + 2 * A12) - (2 * lam * P) ** 2),
        -a33 * d * d,
        D**3,
    )
