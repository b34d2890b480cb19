"""Euclidean-representation constants and symbolic Gram determinants.

Vertices map to unit vectors in the eigenspace of the negative eigenvalue s;
adjacent pairs have inner product p = s/k, non-adjacent pairs
q = -(1+s)/(v-k-1).  Vectors are never materialized here: only their exact
rational inner products enter, so sums of representation vectors have Gram
matrices whose entries are polynomials in unknown subgraph statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import SrgParams, Spectrum

__all__ = [
    "ReprConstants",
    "LinPoly",
    "SymbolicGram2",
    "BivariateQuadratic",
    "repr_constants",
    "gram2",
    "gram3_det",
]


@dataclass(frozen=True)
class ReprConstants:
    """Inner products p (adjacent), q (non-adjacent) and the dimension d = g."""

    p: Fraction
    q: Fraction
    d: int


def repr_constants(params: SrgParams, spectrum: Spectrum | None) -> ReprConstants:
    """Exact p = s/k, q = -(1+s)/(v-k-1) in lowest terms, d = g."""
    if spectrum is None:
        raise ValueError("representation constants need an integer spectrum")
    p = Fraction(spectrum.s, params.k)
    q = Fraction(-(1 + spectrum.s), params.v - 1 - params.k)
    return ReprConstants(p=p, q=q, d=spectrum.g)


@dataclass(frozen=True)
class LinPoly:
    """c0 + c1*m with exact rational coefficients."""

    c0: Fraction
    c1: Fraction

    def __call__(self, m) -> Fraction:
        return self.c0 + self.c1 * m


@dataclass(frozen=True)
class SymbolicGram2:
    """Gram matrix of (X1, X2) with X1 the sum of the lam common-neighbor
    vectors of an edge (m = edges among them, kept symbolic) and
    X2 = x_u + x_w the endpoint sum."""

    a11: LinPoly
    a12: Fraction
    a22: Fraction

    def det_poly(self) -> LinPoly:
        """det = a11*a22 - a12^2, linear in m."""
        return LinPoly(self.a11.c0 * self.a22 - self.a12 * self.a12, self.a11.c1 * self.a22)

    def det(self, m) -> Fraction:
        return self.det_poly()(m)


def gram2(params: SrgParams, rep: ReprConstants) -> SymbolicGram2:
    """Entries of the 2x2 Gram matrix, symbolic in the common-neighborhood
    edge count m.

    <X1,X1> = lam + 2mp + (lam^2 - lam - 2m)q, <X1,X2> = 2*lam*p,
    <X2,X2> = 2 + 2p.
    """
    lam = params.lam
    p, q = rep.p, rep.q
    a11 = LinPoly(lam + lam * (lam - 1) * q, 2 * (p - q))
    return SymbolicGram2(a11=a11, a12=2 * lam * p, a22=2 + 2 * p)


@dataclass(frozen=True)
class BivariateQuadratic:
    """Exact polynomial c00 + c10*a + c01*b + c20*a^2 in (alpha, beta): the
    shape of the w-split determinant, whose a*b and b^2 terms cancel."""

    c00: Fraction
    c10: Fraction
    c01: Fraction
    c20: Fraction

    def __call__(self, alpha, beta) -> Fraction:
        return self.c00 + self.c10 * alpha + self.c01 * beta + self.c20 * alpha * alpha


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
    Requires 1 <= w < lam.
    """
    lam = params.lam
    if not 1 <= w < lam:
        raise ValueError(f"need 1 <= w < lam, got w={w}, lam={lam}")
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    p, q = rep.p, rep.q
    d = p - q
    n1 = lam - w
    A1 = n1 + n1 * (n1 - 1) * q + 2 * d * m
    A2 = w + w * (w - 1) * q
    A12 = n1 * w * q
    a13, a23, a33 = 2 * n1 * p, 2 * w * p, 2 + 2 * p
    return BivariateQuadratic(
        c00=a33 * (A1 * A2 - A12 * A12) - a23 * a23 * A1 - a13 * a13 * A2 + 2 * a13 * a23 * A12,
        c10=2 * d * (2 * lam * p * a23 - a33 * (A2 + A12)),
        c01=2 * d * (a33 * (A1 + A2 + 2 * A12) - (2 * lam * p) ** 2),
        c20=-a33 * d * d,
    )
