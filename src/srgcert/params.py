"""Parameter tuples, spectra, the representation constants derived from
them, and the classical feasibility screens.

Everything on the decision path is exact integer arithmetic; a Fraction is
built, and fractions imported, only when a certificate's rational field is read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


def as_fraction(pair: tuple[int, int] | None) -> Fraction | None:
    """The rational (numerator, denominator) as a Fraction, None as None."""
    from fractions import Fraction  # imported on first use: the commands write rationals from integer pairs

    return None if pair is None else Fraction(*pair)


class InvalidParamsError(ValueError):
    """Raised for tuples outside the admissible (v, k, lam, mu) ranges."""


class _SrgFields(NamedTuple):
    v: int
    k: int
    lam: int
    mu: int


class SrgParams(_SrgFields):
    """A candidate strongly-regular-graph parameter tuple (v, k, lam, mu).

    Every way of building one (the constructor, _make, _replace, unpickling)
    enforces the connected, non-complete ranges: 0 < k < v - 1,
    0 <= lam < k, 0 < mu <= k.  The counting identity
    k(k - lam - 1) = (v - k - 1) mu is deliberately *not* a construction
    invariant; tuples violating it are classically infeasible, which is a
    verdict, not a type error (see classical_feasibility).
    """

    __slots__ = ()

    def __new__(cls, v: int, k: int, lam: int, mu: int):
        if 0 < k < v - 1 and 0 <= lam < k and 0 < mu <= k:
            return tuple.__new__(cls, (v, k, lam, mu))
        # the first range the tuple breaks names the error
        if not (0 < k < v):
            raise InvalidParamsError(f"need 0 < k < v, got k={k}, v={v}")
        if k == v - 1:
            raise InvalidParamsError("k = v - 1 (complete graph) is degenerate")
        if not (0 <= lam < k):
            raise InvalidParamsError(f"need 0 <= lam < k, got lam={lam}, k={k}")
        if mu == 0:
            raise InvalidParamsError("mu = 0 (disconnected case) is degenerate")
        raise InvalidParamsError(f"need 0 < mu <= k, got mu={mu}, k={k}")

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def primitive(self) -> bool:
        """True unless the tuple belongs to the complete-multipartite family."""
        return self.mu < self.k

    def identity_holds(self) -> bool:
        """Counting identity k(k - lam - 1) = (v - k - 1) mu."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu


class Spectrum(NamedTuple):
    """Integer non-principal eigenvalues r >= 0 > s with multiplicities f, g."""

    r: int
    s: int
    f: int
    g: int


def derive_spectrum(params: SrgParams) -> Spectrum | None:
    """Integer eigenvalues of x^2 - (lam - mu)x - (k - mu) and multiplicities.

    Returns None when no integer spectrum exists, i.e. when the discriminant
    (lam - mu)^2 + 4(k - mu) is not a perfect square (the conference-type
    case, eigenvalues irrational) or when the multiplicity equations have no
    non-negative integer solution.
    """
    v, k, lam, mu = params
    c = lam - mu
    disc = c * c + 4 * (k - mu)
    e = math.isqrt(disc)
    # disc = c^2 mod 4 makes e = c mod 2, so r and s are integers; e = 0
    # would need c = 0 and k = mu, so lam = k, which SrgParams rejects
    if e * e != disc:
        return None
    r = (c + e) // 2
    s = (c - e) // 2
    # 1 + f + g = v and k + f*r + g*s = 0
    num_f = -(k + s * (v - 1))
    if num_f % (r - s) != 0:
        return None
    f = num_f // (r - s)
    g = v - 1 - f
    if f < 0 or g < 0:
        return None
    return tuple.__new__(Spectrum, (r, s, f, g))


class ReprConstants(NamedTuple):
    """Inner products of the vertices' unit vectors in the eigenspace of s:
    p (adjacent), q (non-adjacent), and the dimension d = g.  Every Gram
    entry of summed vectors is an integer once scaled by D."""

    d: int
    D: int  # lcm of the denominators of p and q in lowest terms
    P: int  # p * D
    Q: int  # q * D
    S: int  # |x_u + x_w|^2 = 2 + 2p, times D

    @property
    def p(self) -> Fraction:
        return as_fraction((self.P, self.D))

    @property
    def q(self) -> Fraction:
        return as_fraction((self.Q, self.D))


def repr_constants(params: SrgParams, spectrum: Spectrum | None) -> ReprConstants:
    """p = s/k, q = -(1+s)/(v-k-1) over D, the lcm of their reduced
    denominators, and d = g."""
    if spectrum is None:
        raise ValueError("representation constants need an integer spectrum")
    s, k, c = spectrum.s, params.k, params.v - 1 - params.k
    den_p, den_q = k // math.gcd(s, k), c // math.gcd(1 + s, c)
    D = math.lcm(den_p, den_q)
    P = s * D // k  # exact, as den_p divides D; so is Q's division, as den_q does
    Q, S = -(1 + s) * D // c, 2 * D + 2 * P
    return tuple.__new__(ReprConstants, (spectrum.g, D, P, Q, S))


def _krein_numerators(params: SrgParams, spectrum: Spectrum) -> tuple[int, int]:
    """q^1_11 and q^2_22 times v k^2 c^2, c = v - 1 - k: integers with the
    signs of the Krein parameters.  For eigenvalue e with multiplicity mult,
    q = (mult^2/v)(1 + (e/k)^2 e - ((1+e)/c)^2 (1+e)), which is
    mult^2 (k^2 c^2 + e^3 c^2 - k^2 (1+e)^3) / (v k^2 c^2)."""
    k, c = params.k, params.v - 1 - params.k
    r, s, f, g = spectrum
    kc, cc, kk = (k * c) ** 2, c * c, k * k
    return f * f * (kc + r**3 * cc - kk * (1 + r) ** 3), g * g * (kc + s**3 * cc - kk * (1 + s) ** 3)


class FeasibilityReport(NamedTuple):
    """Outcome of the classical necessary conditions.

    Field semantics: each *_ok flag is "this check did not reject".  Checks
    that do not apply (Krein/absolute bound for imprimitive mu = k tuples,
    or for tuples whose multiplicities are already non-integral) report True
    and leave the rejection to the applicable flag.
    """

    identity_ok: bool
    spectrum: Spectrum | None
    integrality_ok: bool
    krein_ok: bool
    absolute_bound_ok: bool
    krein_q22_zero: bool

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.integrality_ok and self.krein_ok and self.absolute_bound_ok


# the reports of the tuples with no integer spectrum, one per key identity_ok + conference-type:
# a conference tuple keeps the counting identity, so the key says both, and only it is integral
_NO_SPECTRUM = tuple(tuple.__new__(FeasibilityReport, (i > 0, None, i == 2, True, True, False)) for i in range(3))


def classical_feasibility(params: SrgParams) -> FeasibilityReport:
    """Counting identity, spectrum integrality, Krein and absolute bounds.

    All arithmetic is exact.  Conference-type tuples (4mu+1, 2mu, mu-1, mu),
    the ones with irrational eigenvalues and integral multiplicities
    f = g = (v-1)/2, count as integral, and pass the Krein and absolute
    bounds identically: each eigenvalue e satisfies e^2 + e = mu, so
    (1+e)^3 - e^3 = 1 + 3mu and both Krein expressions equal
    (mu-1)(4mu+1)/(4mu^2) >= 0, while the absolute bound with f = 2mu reads
    (mu-1)(4mu+2) >= 0.  Conference tuples with a square discriminant have
    an integer spectrum and take the general path.
    """
    v, k, lam, mu = params
    spectrum = derive_spectrum(params)
    identity_ok = k * (k - lam - 1) == (v - k - 1) * mu
    if spectrum is None:  # most scan rows: a report built at import, keyed as _NO_SPECTRUM says
        return _NO_SPECTRUM[identity_ok + (v == 2 * k + 1 == 4 * mu + 1 and lam == mu - 1)]
    if mu == k:  # the bounds do not apply to the complete-multipartite family
        return tuple.__new__(FeasibilityReport, (identity_ok, spectrum, True, True, True, False))
    f, g = spectrum.f, spectrum.g
    num111, num222 = _krein_numerators(params, spectrum)
    return tuple.__new__(FeasibilityReport, (identity_ok, spectrum, True, num111 >= 0 and num222 >= 0,
                                             2 * v <= f * (f + 3) and 2 * v <= g * (g + 3), num222 == 0))


def subconstituent_scan(v1: int, k1: int) -> list[tuple[int, int]]:
    """All (lam', mu') making (v1, k1, lam', mu') classically feasible.

    The counting identity, which classical feasibility requires, fixes
    mu' = k1(k1 - lam' - 1)/(v1 - k1 - 1).  With g = gcd(k1, v1 - k1 - 1)
    that is an integer exactly when (v1 - k1 - 1)/g divides k1 - lam' - 1,
    so this steps through those 0 <= lam' < k1 in order, keeps mu' if
    0 < mu' <= k1, and keeps the tuples passing classical_feasibility
    (conference-type tuples included when the multiplicity conditions
    permit).
    """
    if not v1 > k1 > 0:
        raise InvalidParamsError(f"need v1 > k1 > 0, got v1={v1}, k1={k1}")
    if k1 == v1 - 1:
        return []  # SrgParams rejects the complete graph
    found = []
    step = (v1 - k1 - 1) // math.gcd(k1, v1 - k1 - 1)
    for lam in range((k1 - 1) % step, k1, step):
        mu = k1 * (k1 - lam - 1) // (v1 - k1 - 1)
        if 0 < mu <= k1 and classical_feasibility(SrgParams(v1, k1, lam, mu)).passed:
            found.append((lam, mu))
    return found
