"""Soundness on infinite families of existing graphs, at parameter level.

Each family has closed-form parameters, 4-clique count K4 and true maximum
m of the edges inside an edge's common neighborhood, so no graph needs to
be built.  The collinearity graph of a generalized quadrangle GQ(s, t) has
every clique on a line of s + 1 points: K4 = (t+1)(st+1) C(s+1, 4), and an
edge's common neighborhood is the rest of its line, a clique with
m = C(s-1, 2).  For GQ(q, q^2) the 4-clique bound and the 2x2 Gram bound
are both attained, so these graphs have no slack at all.
"""

from fractions import Fraction
from math import comb

from srgcert.gramtest import (
    Verdict,
    _region_max_scaled,
    _unrefuted,
    alpha_min,
    decide,
    gram3_per_m,
    gram3_per_w,
    scaled_value,
)
from srgcert.oracle import _factorize_prime_power
from srgcert.params import SrgParams
from conftest import complement_params

PRIME_POWERS = [q for q in range(2, 65) if _factorize_prime_power(q) is not None]


def _gq(s, t):
    """(params, K4, m) of the collinearity graph of GQ(s, t)."""
    params = SrgParams((s + 1) * (s * t + 1), s * (t + 1), s - 1, t + 1)
    return params, (t + 1) * (s * t + 1) * comb(s + 1, 4), comb(s - 1, 2)


def _family_tuples():
    for q in (q for q in PRIME_POWERS if q < 40):
        for s, t in ((q, q), (q, q * q), (q * q, q), (q * q, q**3), (q**3, q * q), (q - 1, q + 1), (q + 1, q - 1)):
            yield f"GQ({s},{t})", *_gq(s, t)
    for n in range(4, 200):  # triangular T(n): pairs of an n-set meeting in a point
        yield f"T({n})", SrgParams(comb(n, 2), 2 * (n - 2), n - 2, 4), n * comb(n - 1, 4), comb(n - 3, 2)
    for n in range(2, 200):  # rook L2(n): cells of an n x n board sharing a row or column
        yield f"L2({n})", SrgParams(n * n, 2 * (n - 1), n - 2, 2), 2 * n * comb(n, 4), comb(n - 2, 2)


def test_families_are_never_refuted():
    """Every family tuple passes the classical screens, its 4-clique bound is
    at most K4 and its m window holds the true maximum m."""
    checked = 0
    for label, params, k4, m in _family_tuples():
        cert = decide(params)
        assert cert.verdict is Verdict.INCONCLUSIVE, label
        if cert.m_range is None:  # complete multipartite: no Gram tests
            assert params.mu == params.k, label
            continue
        assert cert.k4_bound.lower <= k4, label
        assert cert.m_range.lower <= m <= cert.m_range.upper, label
        checked += 1
    assert checked == 524


def test_family_complements_are_never_refuted():
    """The complement of every primitive family tuple is Inconclusive: 524
    tuples, up to lam = 3.5e12 for the complement of GQ(50653, 1369), each
    in milliseconds.  (The complement of a complete multipartite tuple has
    mu = 0.)"""
    complements = [complement_params(params) for _, params, _, _ in _family_tuples() if params.mu < params.k]
    assert len(complements) == 524
    for params in complements:
        assert decide(params).verdict is Verdict.INCONCLUSIVE, params


def test_gq_q_q2_has_zero_slack():
    """GQ(q, q^2), 3 <= q <= 64: the 4-clique bound is exactly K4, the m
    window is exactly {m}, and at that m every split size w has its
    w-split region maximum exactly 0, reached where the common
    neighborhood, a clique on lam = q - 1 vertices, has its top-w part.
    The alpha_min end bound of the pieces is exactly that 0 at every w, so
    they refute every w without a margin."""
    cases = 0
    for q in (q for q in PRIME_POWERS if q >= 3):
        params, k4, m = _gq(q, q * q)
        lam = params.lam
        cert = decide(params)
        assert Fraction(*cert.k4_bound.raw_bound_pair()) == k4, q
        assert Fraction(*cert.m_upper_pair()) == m, q
        assert (cert.m_range.lower, cert.m_range.upper) == (m, m), q
        h = gram3_per_m(params, cert.rep, m)
        for w in range(1, lam):
            alpha, beta = w * (q - 2), comb(w, 2)
            assert alpha_min(lam, m, w) == alpha, (q, w)
            n00, n10 = gram3_per_w(h, w)
            assert scaled_value(n00, n10, h.n01, h.n20, alpha, beta) == 0, (q, w)
            best = _region_max_scaled(n00, n10, h.n01, h.n20, lam, m, w, alpha)
            assert best is not None and best[0] == 0, (q, w)
            cases += 1
        assert list(_unrefuted(lam, m, h)) == [], q
    assert cases == 681
