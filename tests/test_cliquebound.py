from fractions import Fraction

import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from srgcert import cliquebound, oracle
from srgcert.cliquebound import _gegenbauer_scaled, k4_lower_bound
from srgcert.oracle import census, pair_profile, srg_parameters, validate
from srgcert.params import ReprConstants, SrgParams, derive_spectrum, repr_constants
from conftest import complement
from support import rep_fractions, rep_from_fractions
from test_acceptance import _primitive_feasible_tuples


def _rep(tup):
    params = SrgParams(*tup)
    return params, repr_constants(params, derive_spectrum(params))


def _by_name(classes, name):
    (cls,) = [cls for cls in classes if cls.name == name]
    return cls


def _count_const(cls):
    return Fraction(cls.const, cliquebound.COUNT_DEN)


def _count_k4(cls):
    return Fraction(cls.k4, cliquebound.COUNT_DEN)


def _count_at(cls, k4):
    return _count_const(cls) + _count_k4(cls) * k4


def _block_den(rep, block):
    """The D-scaled squared norms whose product a class's c^2 is over."""
    D, S = rep.D, 2 * rep.D + 2 * rep.P
    return {"vertex-vertex": D * D, "vertex-edge": D * S, "edge-edge": S * S}[block]


def _form_value(bound, a, k4):
    """F(a) = A(a) + B(a) K4 from the stored lowest-degree-first quadratics."""
    coeffs = [Fraction(*pair) for pair in bound.quadratic_pairs()]
    return sum((c + b * k4) * a**i for i, (c, b) in enumerate(zip(coeffs[:3], coeffs[3:])))


@functools.lru_cache(maxsize=None)
def _fraction_gegenbauer_coeffs(d, t):
    """Coefficients (constant first) of the degree-t Gegenbauer polynomial
    for the sphere S^{d-1}, normalized to take value 1 at x = 1, from the
    classical three-term recurrence
    n C_n = 2(n - 1 + nu) x C_{n-1} - (n - 2 + 2 nu) C_{n-2},  nu = (d-2)/2.
    The Fraction recurrence the integer closed form replaced, kept as the
    oracle."""
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


def _even_coeffs(d):
    """The code's coefficients of x^0, x^2, x^4 as Fractions."""
    nums, den = _gegenbauer_scaled(d)
    return tuple(Fraction(n, den) for n in nums)


def _gegenbauer_value(d, x2):
    """The normalized degree-4 Gegenbauer value at x^2 = x2 >= 0, from the
    code's integer coefficients (n0, n2, n4) over den, in k4_lower_bound's
    order: (n4 x2 + n2) x2 + n0, over den."""
    (n0, n2, n4), den = _gegenbauer_scaled(d)
    return ((n4 * x2 + n2) * x2 + n0) / den


def test_gegenbauer_normalization_at_one():
    for d in (3, 5, 45, 342):
        assert _gegenbauer_value(d, Fraction(1)) == 1


def test_gegenbauer_degree_four_closed_form():
    """((d+2)(d+4) x^4 - (6d+12) x^2 + 3) / (d^2 - 1), in the code and in the
    recurrence."""
    for d in range(3, 11):
        den = d * d - 1
        expected = (Fraction(3, den), Fraction(-(6 * d + 12), den), Fraction((d + 2) * (d + 4), den))
        assert _even_coeffs(d) == expected
        assert _fraction_gegenbauer_coeffs(d, 4) == (expected[0], 0, expected[1], 0, expected[2])


def test_gegenbauer_closed_form_matches_recurrence():
    """Every d in 3..500: the integer closed form equals the Fraction
    recurrence at degree 4, odd coefficients zero, over the smallest common
    denominator."""
    for d in range(3, 501):
        coeffs = _fraction_gegenbauer_coeffs(d, 4)
        assert all(c == 0 for c in coeffs[1::2]), d
        assert _even_coeffs(d) == coeffs[::2], d
        assert _gegenbauer_scaled(d)[1] == math.lcm(*(c.denominator for c in coeffs[::2])), d


def test_gegenbauer_is_orthogonal_for_the_sphere_weight():
    """The defining property, independent of any formula for the
    coefficients c_j of x^(2j): the polynomial is 1 at x = 1 and orthogonal
    to 1 and x^2 under the weight (1 - x^2)^((d-3)/2) on [-1, 1], whose even
    moments are M_a = prod_{i<a} (2i+1)/(2i+d) exactly.  Together these fix
    the even polynomial of degree 4."""
    for d in range(3, 301):
        moments = [Fraction(1)]  # M_0..M_3, since j + k < 4
        for i in range(3):
            moments.append(moments[-1] * Fraction(2 * i + 1, 2 * i + d))
        coeffs = _even_coeffs(d)
        assert len(coeffs) == 3 and sum(coeffs) == 1, d
        for k in range(2):
            assert sum(c * moments[j + k] for j, c in enumerate(coeffs)) == 0, (d, k)


def test_gegenbauer_rejects_small_dimension():
    for d in (0, 1, 2):
        with pytest.raises(ValueError):
            _gegenbauer_scaled(d)
        with pytest.raises(ValueError):
            _gegenbauer_value(d, Fraction(1, 4))


def test_profile_counts_for_target_tuple():
    params, rep = _rep((460, 153, 32, 60))
    prof = pair_profile(params, rep)
    assert _count_const(_by_name(prof, "vv-self")) == 460
    assert _count_const(_by_name(prof, "ve-endpoint")) == 2 * 35190
    assert _count_const(_by_name(prof, "ee-self")) == 35190


def test_profile_petersen_triangle_free():
    params, rep = _rep((10, 3, 0, 1))
    prof = pair_profile(params, rep)
    assert _count_at(_by_name(prof, "ve-both"), 0) == 0
    assert _count_at(_by_name(prof, "ee-disjoint-4"), 0) == 0


def test_profile_requires_integer_spectrum():
    params = SrgParams(13, 6, 2, 3)
    with pytest.raises(ValueError):
        repr_constants(params, derive_spectrum(params))


def test_profile_k4_coefficients():
    """The 4-clique enters the disjoint classes as 3 * (-1)^j C(4, j)."""
    for tup in [(460, 153, 32, 60), (16, 6, 2, 2), (21, 10, 5, 4)]:
        params, rep = _rep(tup)
        prof = pair_profile(params, rep)
        got = [_count_k4(_by_name(prof, f"ee-disjoint-{j}")) for j in range(5)]
        assert got == [3, -12, 18, -12, 3]
        for cls in prof:
            if not cls.name.startswith("ee-disjoint-"):
                assert _count_k4(cls) == 0


def test_profile_disjoint_total_identity():
    """Disjoint class counts sum to C(|E|,2) minus sharing pairs, with the
    4-clique dependence cancelling."""
    for tup in [(460, 153, 32, 60), (16, 6, 2, 2), (25, 12, 5, 6), (9, 4, 1, 2)]:
        params, rep = _rep(tup)
        prof = pair_profile(params, rep)
        disjoint = [c for c in prof if c.name.startswith("ee-disjoint-")]
        e = Fraction(params.v * params.k, 2)
        sharing = params.v * Fraction(params.k * (params.k - 1), 2)
        assert sum(_count_const(c) for c in disjoint) == e * (e - 1) / 2 - sharing
        assert sum(_count_k4(c) for c in disjoint) == 0


def test_profile_matches_census_on_reference_graphs(reference_graphs):
    """Build gate: every derived class count must equal the brute-force
    census at the true 4-clique count, on every integer-spectrum reference."""
    validated = sum("profile-ok" in validate(g) for g, _ in reference_graphs.values())
    assert validated >= 3


def test_profile_counts_nonnegative_at_true_k4(reference_censuses):
    for label, (g, params, report) in reference_censuses.items():
        spectrum = derive_spectrum(params)
        if spectrum is None:
            continue
        rep = repr_constants(params, spectrum)
        prof = pair_profile(params, rep)
        for cls in prof:
            assert _count_at(cls, report.k4_count) >= 0, (label, cls.name)


def test_k4_bound_target_tuples():
    params, rep = _rep((460, 153, 32, 60))
    bound = k4_lower_bound(params, rep)
    assert bound.lower == 228111
    assert Fraction(*bound.raw_bound_pair()) == Fraction(1437323820, 6301)
    assert Fraction(*bound.quadratic_pairs()[5]) > 0

    params, rep = _rep((5929, 1482, 275, 402))
    assert k4_lower_bound(params, rep).lower == 3517648488

    params, rep = _rep((6205, 858, 47, 130))
    assert k4_lower_bound(params, rep).lower == 49836574


def test_k4_bound_sound_on_reference_graphs(reference_censuses):
    for label, (g, params, report) in reference_censuses.items():
        spectrum = derive_spectrum(params)
        if spectrum is None:
            continue
        rep = repr_constants(params, spectrum)
        bound = k4_lower_bound(params, rep)
        assert bound.lower <= report.k4_count, (label, bound.lower, report.k4_count)


def test_k4_bound_sound_on_the_r_eigenspace(reference_graphs):
    """k4_lower_bound is written in D, P, Q and S, so the bound also runs on the
    representation in the eigenspace of r: p = r/k, q = -(1+r)/(v-k-1),
    d = f and S = 2D + 2P.  On every reference graph and complement that is
    primitive with an integer spectrum, 10 in all, that bound is at most the
    census K4; it is exact on T(7), (21,10,5,4), whose s-eigenspace bound
    is 0, and on the Petersen complement, (10,6,3,4)."""
    got = {}
    for label, (g, _) in reference_graphs.items():
        for name, h in ((label, g), (f"co-{label}", complement(g))):
            params = srg_parameters(h)
            spectrum = derive_spectrum(params)
            if spectrum is None or params.mu == params.k:
                continue
            v, k, r = params.v, params.k, spectrum.r
            rep = rep_from_fractions(Fraction(r, k), Fraction(-(1 + r), v - k - 1), spectrum.f)
            got[name] = k4_lower_bound(params, rep).lower, census(h).k4_count
            assert got[name][0] <= got[name][1], (name, got[name])
    assert len(got) == 10
    assert got["triangular(7)"] == (105, 105) and got["co-petersen"] == (5, 5)


def test_form_nonnegative_at_true_k4_on_rational_grid(reference_censuses):
    """F(a, true K4) >= 0 for every reference graph on a grid of rational a."""
    grid = [Fraction(n, 4) for n in range(-12, 13)]
    for label, (g, params, report) in reference_censuses.items():
        spectrum = derive_spectrum(params)
        if spectrum is None:
            continue
        rep = repr_constants(params, spectrum)
        bound = k4_lower_bound(params, rep)
        for a in grid:
            assert _form_value(bound, a, report.k4_count) >= 0, (label, a)


def _fraction_gegenbauer(d, x_squared):
    """The recurrence's degree-4 polynomial at x^2, one power of x^2 at a time."""
    coeffs = _fraction_gegenbauer_coeffs(d, 4)
    total, power = Fraction(0), Fraction(1)
    for i in range(0, 5, 2):
        total += coeffs[i] * power
        power *= x_squared
    return total


K4_FIELDS = ("lower", "optimal_a", "a_quadratic", "k4_quadratic", "raw_bound")


def _k4_fields(bound):
    """The five fields of a K4Bound that a certificate writes, by their JSON
    names, with each integer pair read as a Fraction."""
    coeffs, optimal_a = tuple(Fraction(*pair) for pair in bound.quadratic_pairs()), bound.optimal_a_pair()
    return dict(zip(K4_FIELDS, (bound.lower, None if optimal_a is None else Fraction(*optimal_a), coeffs[:3],
                                coeffs[3:], Fraction(*bound.raw_bound_pair()))))


def _fraction_k4_lower_bound(classes, rep):
    """The per-class Fraction sums the integer block sums replaced, kept as
    the oracle: the five fields _k4_fields gives, by name."""
    gval = {cls.name: _fraction_gegenbauer(rep.d, Fraction(cls.c**2, _block_den(rep, cls.block))) for cls in classes}
    s_vv = sum(_count_const(cls) * gval[cls.name] for cls in classes if cls.block == "vertex-vertex")
    s_ve = sum(_count_const(cls) * gval[cls.name] for cls in classes if cls.block == "vertex-edge")
    s_ee0 = Fraction(0)
    b2 = Fraction(0)
    for cls in classes:
        if cls.block == "edge-edge":
            weight = 1 if cls.name == "ee-self" else 2
            s_ee0 += weight * _count_const(cls) * gval[cls.name]
            b2 += weight * _count_k4(cls) * gval[cls.name]
    a_quad = (s_vv, 2 * s_ve, s_ee0)
    k4_quad = (Fraction(0), Fraction(0), b2)
    assert b2 > 0
    if s_vv == 0 or s_ve == 0:
        raw, optimal_a = -s_ee0 / b2, None
    else:
        raw, optimal_a = (s_ve * s_ve / s_vv - s_ee0) / b2, -s_vv / s_ve
    return dict(zip(K4_FIELDS, (max(0, math.ceil(raw)), optimal_a, a_quad, k4_quad, raw)))


def test_gegenbauer_eval_matches_fraction_horner():
    grid = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(2, 3), Fraction(961, 23409), Fraction(9, 4), Fraction(5)]
    for d in (3, 4, 7, 45, 276, 1000):
        for x2 in grid:
            assert _gegenbauer_value(d, x2) == _fraction_gegenbauer(d, x2), (d, x2)


def test_k4_bound_matches_fraction_sums(reference_graphs):
    """On every reference graph with an integer spectrum and on the
    primitive feasible tuples with v <= 120."""
    tuples = [params for _, params in reference_graphs.values() if derive_spectrum(params) is not None]
    tuples += _primitive_feasible_tuples(120)
    for params in tuples:
        rep = repr_constants(params, derive_spectrum(params))
        want = _fraction_k4_lower_bound(pair_profile(params, rep), rep)
        assert _k4_fields(k4_lower_bound(params, rep)) == want, params


def test_k4_bound_matches_fraction_sums_on_random_inputs():
    """On 2000 seeded random (params, rep) pairs that no tuple has: params in
    SrgParams' ranges and off the counting identity, ints up to 30, 10**6
    and past 2**64, d up to 1000, and P and Q of either sign with P != Q.
    S = 2D + 2P != 0, as the Fraction sums read the block denominators from
    D and P.  Every count formula and inner product of the kernel enters
    here, as a polynomial in free integers."""
    rng = random.Random(20240537)
    checked, off_identity, past_64, signs = 0, 0, 0, set()
    while checked < 2000:
        top = rng.choice((30, 10**6, 2**70))
        v = rng.randint(4, top)
        k = rng.randint(1, v - 2)
        lam, mu, D = rng.randint(0, k - 1), rng.randint(1, k), rng.randint(1, top)
        P, Q = rng.randint(-top, top), rng.randint(-top, top)
        if P == -D or P == Q:
            continue
        checked += 1
        params, rep = SrgParams(v, k, lam, mu), ReprConstants(d=rng.randint(3, 1000), D=D, P=P, Q=Q, S=2 * D + 2 * P)
        want = _fraction_k4_lower_bound(pair_profile(params, rep), rep)
        assert _k4_fields(k4_lower_bound(params, rep)) == want, (params, rep)
        off_identity += k * (k - lam - 1) != (v - k - 1) * mu
        past_64 += max(v, D, abs(P), abs(Q)) >= 2**64
        signs.add((P > 0, Q > 0))
    assert off_identity > 1900 and past_64 > 600 and len(signs) == 4


def test_pair_profile_reads_scaled_rows(monkeypatch):
    """On class rows whose counts are divided by 6 or 4, since no
    integer-spectrum tuple with v < 400 has a non-integral class count:
    pair_profile names the rows and column it is given, and each class's
    count reads as the scaled rational."""
    for tup in [(460, 153, 32, 60), (16, 6, 2, 2), (27, 16, 10, 8)]:
        params, rep = _rep(tup)
        prof = pair_profile(params, rep)
        counts = [(_count_const(c), _count_k4(c)) for c in prof]
        for div in (6, 4):
            # const/div and K4/(div + 1) over the count denominator times
            # div(div + 1): the counts of _class_rows and the constant K4 column
            rows = tuple((cs, tuple(n * (div + 1) for n in counts)) for cs, counts in oracle._class_rows(params, rep))
            column = tuple(tuple(k4 * div for k4 in block) for block in oracle.K4_COLUMN)
            with monkeypatch.context() as mp:
                mp.setattr(cliquebound, "COUNT_DEN", cliquebound.COUNT_DEN * div * (div + 1))
                mp.setattr(oracle, "_class_rows", lambda *_: rows)
                mp.setattr(oracle, "K4_COLUMN", column)
                scaled = pair_profile(params, rep)
                assert scaled == tuple(c._replace(const=c.const * (div + 1), k4=c.k4 * div) for c in prof)
                for c, (const, k4) in zip(scaled, counts):
                    assert (_count_const(c), _count_k4(c)) == (const / div, k4 / (div + 1))


def test_k4_column_is_constant_and_b2_a_fourth_difference(reference_censuses):
    """The disjoint classes' K4 coefficients are 3 (-1)^j C(4, j) through
    pair_profile, and at the census K4 each reference graph's class counts
    are its census n_j; then B2 is 288 times the fourth difference
    sum_j (-1)^j C(4, j) g_j of the disjoint classes' Gegenbauer values over
    the edge-edge denominator: 6 times that of the normalized values."""
    steps = [(-1) ** j * math.comb(4, j) for j in range(5)]
    tuples = 0
    for label, (g, params, report) in reference_censuses.items():
        if derive_spectrum(params) is None:
            continue
        tuples += 1
        params, rep = _rep(tuple(params))
        disjoint = [_by_name(pair_profile(params, rep), f"ee-disjoint-{j}") for j in range(5)]
        assert [_count_k4(cls) for cls in disjoint] == [3 * step for step in steps], label
        assert [_count_at(cls, report.k4_count) for cls in disjoint] == list(report.n_j_disjoint), label
        p, q = rep_fractions(rep)
        x2s = [((j * p + (4 - j) * q) / (2 + 2 * p)) ** 2 for j in range(5)]
        bound = k4_lower_bound(params, rep)
        fourth = sum(step * _fraction_gegenbauer(rep.d, x2) for step, x2 in zip(steps, x2s))
        assert Fraction(bound.sums[3], bound.dens[2]) == 6 * fourth, label
    assert tuples >= 3


def test_b2_is_a_fourth_power_of_p_minus_q():
    """The disjoint classes' scaled values are the quartic
    g_j = n4 c_j^4 + ... in c_j = 4Q + j(P - Q), so their fourth difference
    is 24 n4 (P - Q)^4 and B2 = 2 * 144 * 24 n4 (P - Q)^4, with n4 > 0 the
    scaled x^4 coefficient: positive on the 648 primitive feasible tuples
    with v <= 300, where P != Q."""
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    for params in tuples:
        rep = repr_constants(params, derive_spectrum(params))
        n4 = _gegenbauer_scaled(rep.d)[0][2]
        assert n4 > 0 and rep.P != rep.Q, params
        assert k4_lower_bound(params, rep).sums[3] == 6912 * n4 * (rep.P - rep.Q) ** 4, params


def test_b2_closed_form_on_a_polynomial_grid(monkeypatch):
    """B2 = 6912 n4 (P - Q)^4 as a polynomial identity, for free Gegenbauer
    coefficients (n0, n2, n4) and free D, P, Q, S.  The class table's B2 is
    2 sum_i K4_COLUMN[2][i] g(c_i) over oracle._class_rows, with
    g(c) = n4 c^4 + n2 S^2 c^2 + n0 S^4 and each c_i linear in D, P, Q and
    S; so it, the closed form and their difference have degree at most 1 in
    each of n0, n2 and n4, and at most 4 in each of D, P, Q and S.  A
    polynomial with those degree bounds that vanishes on a product grid of 2
    values for each of n0, n2 and n4 and 5 for each of D, P, Q and S is
    zero; B2 does not depend on the counts of params.  k4_lower_bound's
    sums[3] is the closed form at every point: P and Q take disjoint values
    and n4 > 0, so B2 > 0 there and the kernel returns it."""
    params = SrgParams(16, 6, 2, 2)
    points = 0
    for n0, n2, n4 in itertools.product((-3, 2), (-5, 7), (1, 4)):
        monkeypatch.setattr(cliquebound, "_gegenbauer_scaled", lambda d, n=(n0, n2, n4): (n, 1))
        for D, P, Q, S in itertools.product(range(1, 6), range(-2, 3), range(3, 8), range(-4, 6, 2)):
            rep = ReprConstants(d=5, D=D, P=P, Q=Q, S=S)
            cs = oracle._class_rows(params, rep)[2][0]
            table = 2 * sum(k4 * (n4 * c**4 + n2 * S**2 * c**2 + n0 * S**4) for k4, c in zip(oracle.K4_COLUMN[2], cs))
            assert table == 6912 * n4 * (P - Q) ** 4 == k4_lower_bound(params, rep).sums[3], (n0, n2, n4, D, P, Q, S)
            points += 1
    assert points == 2**3 * 5**4


def _old_raw_bound_pair(sums, dens):
    """The bound pair over the block denominators, before d_vv d_ee = d_ve^2
    cancelled them, kept as the oracle."""
    (s_vv, s_ve, s_ee0, b2), (d_vv, d_ve, d_ee) = sums, dens
    if s_vv == 0 or s_ve == 0:
        return -s_ee0, b2
    num, den = s_ve * s_ve * d_vv * d_ee - s_ee0 * s_vv * d_ve * d_ve, s_vv * d_ve * d_ve * b2
    return (num, den) if den > 0 else (-num, -den)


def test_raw_bound_pair_drops_the_block_denominators(reference_graphs):
    """On every integer-spectrum reference graph and the 648 primitive
    feasible tuples with v <= 300: the block denominators satisfy
    d_vv d_ee = d_ve^2, and the pair from the numerators alone is the old
    pair over the denominators, as a rational, with a positive denominator."""
    tuples = [params for _, params in reference_graphs.values() if derive_spectrum(params) is not None]
    tuples += _primitive_feasible_tuples(300)
    assert len(tuples) > 648
    for params in tuples:
        rep = repr_constants(params, derive_spectrum(params))
        bound = k4_lower_bound(params, rep)
        assert bound.dens[0] * bound.dens[2] == bound.dens[1] ** 2, params
        (num, den), (old_num, old_den) = bound.raw_bound_pair(), _old_raw_bound_pair(bound.sums, bound.dens)
        assert den > 0 and num * old_den == old_num * den, params


def test_class_rows_have_the_shape_of_the_class_names():
    """Each block of oracle._class_rows and of its K4_COLUMN has the length
    of its _CLASS_NAMES row, 3, 4 and 8: the 15 classes k4_lower_bound
    writes out inline."""
    params, rep = _rep((460, 153, 32, 60))
    rows = oracle._class_rows(params, rep)
    assert [len(names) for _, names in oracle._CLASS_NAMES] == [3, 4, 8]
    assert len(rows) == len(oracle.K4_COLUMN) == len(oracle._CLASS_NAMES)
    for (block, names), (cs, counts), k4s in zip(oracle._CLASS_NAMES, rows, oracle.K4_COLUMN):
        assert len(cs) == len(counts) == len(k4s) == len(names), block


def test_k4_lower_bound_refuses_b2_of_zero():
    """At p = q, which no tuple's representation has, B2 = 0 and the form
    bounds nothing: k4_lower_bound raises rather than report a bound."""
    with pytest.raises(ValueError, match="B2"):
        k4_lower_bound(SrgParams(16, 6, 2, 2), rep_from_fractions(Fraction(1, 3), Fraction(1, 3), 5))


# SHA-256 of repr((v, k, lam, mu), lower, sums, dens) of k4_lower_bound, one
# line each, over the 648 primitive feasible tuples with v <= 300; taken at
# degree 4 from the any-degree Horner pass that the degree-4 form replaced
GOLDEN_K4_SHA256 = "d9f255ae275b3e4018d260746a5a643f37d5093e43603783bc88ce645158ff62"


def test_k4_bound_integers_golden():
    digest = hashlib.sha256()
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    for params in tuples:
        rep = repr_constants(params, derive_spectrum(params))
        b = k4_lower_bound(params, rep)
        digest.update(repr((tuple(params), b.lower, b.sums, b.dens)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_K4_SHA256


def _fraction_view(classes, rep):
    """A profile as its rational values, the form _fraction_pair_profile
    gives."""
    return tuple(
        (c.name, c.block, Fraction(c.c**2, _block_den(rep, c.block)), _count_const(c), _count_k4(c)) for c in classes
    )


def _fraction_pair_profile(params, rep):
    """The Fraction census the D-scaled integers replaced, kept as the oracle,
    in the form _fraction_view gives."""
    v, k, lam, mu = params.v, params.k, params.lam, params.mu
    p, q = rep_fractions(rep)
    E = Fraction(v * k, 2)
    denom = 2 + 2 * p

    def comb2(x):
        return Fraction(x * (x - 1), 2)

    classes = []

    def add(name, block, value_sq, const, k4=Fraction(0)):
        classes.append((name, block, Fraction(value_sq), Fraction(const), Fraction(k4)))

    add("vv-self", "vertex-vertex", 1, v)
    add("vv-adjacent", "vertex-vertex", p * p, v * k)
    add("vv-nonadjacent", "vertex-vertex", q * q, v * (v - 1 - k))
    for name, c, count in (
        ("ve-endpoint", 1 + p, 2 * E),
        ("ve-both", 2 * p, E * lam),
        ("ve-one", p + q, 2 * E * (k - 1 - lam)),
        ("ve-neither", 2 * q, E * (v - 2 * k + lam)),
    ):
        add(name, "vertex-edge", c * c / denom, count)
    add("ee-self", "edge-edge", 1, E)
    shared_adj = Fraction(v * k * lam, 2)
    shared_total = v * comb2(k)
    for name, c, count in (
        ("ee-shared-adjacent", 1 + 3 * p, shared_adj),
        ("ee-shared-nonadjacent", 1 + 2 * p + q, shared_total - shared_adj),
    ):
        add(name, "edge-edge", c * c / (denom * denom), count)
    triangles = Fraction(v * k * lam, 6)
    nonadj_pairs = Fraction(v * (v - 1 - k), 2)
    diamond = (E * comb2(lam), Fraction(-6))
    paw = (3 * triangles * (k - 2 * lam), Fraction(12))
    c4 = ((nonadj_pairs * comb2(mu) - diamond[0]) / 2, -diamond[1] / 2)
    n4 = (Fraction(0), Fraction(3))
    n3 = (2 * diamond[0], 2 * diamond[1])
    n2 = (2 * c4[0] + paw[0], 2 * c4[1] + paw[1])
    cross_total = E * ((k - 1) ** 2 - lam)
    n1 = (cross_total - 2 * n2[0] - 3 * n3[0] - 4 * n4[0], -2 * n2[1] - 3 * n3[1] - 4 * n4[1])
    disjoint_total = comb2(E) - shared_total
    n0 = (disjoint_total - n1[0] - n2[0] - n3[0] - n4[0], -n1[1] - n2[1] - n3[1] - n4[1])
    for j, (const, coef) in enumerate((n0, n1, n2, n3, n4)):
        c = (j * p + (4 - j) * q) / denom
        add(f"ee-disjoint-{j}", "edge-edge", c * c, const, coef)
    return tuple(classes)


def _check_profile(params, rep):
    assert _fraction_view(pair_profile(params, rep), rep) == _fraction_pair_profile(params, rep), params


def test_pair_profile_matches_fraction_census(reference_graphs):
    """Every class, on every integer-spectrum reference graph and the 648
    primitive feasible tuples with v <= 300; then on every counting-identity
    tuple with v <= 60 under made-up constants, where v k lam / 6,
    v(v-1-k)/2 and C(|E|,2) need not be integers."""
    tuples = [params for _, params in reference_graphs.values() if derive_spectrum(params) is not None]
    tuples += _primitive_feasible_tuples(300)
    for params in tuples:
        _check_profile(params, repr_constants(params, derive_spectrum(params)))
    rep = rep_from_fractions(Fraction(-1, 3), Fraction(1, 7), 5)
    fractional = set()
    for v in range(5, 61):
        for k in range(2, v - 1):
            for lam in range(k):
                num, den = k * (k - lam - 1), v - k - 1
                if num % den != 0 or not 0 < num // den <= k:
                    continue
                params = SrgParams(v, k, lam, num // den)
                _check_profile(params, rep)
                e = Fraction(v * k, 2)
                for name, x in (
                    ("triangles", Fraction(v * k * lam, 6)),
                    ("nonadj", Fraction(v * (v - 1 - k), 2)),
                    ("pairs", e * (e - 1) / 2),
                ):
                    if x.denominator != 1:
                        fractional.add(name)
    assert fractional == {"triangles", "nonadj", "pairs"}


def _gegenbauer_float(d, x):
    """The code's coefficients, as used by k4_lower_bound, in floats."""
    return sum(float(c) * x ** (2 * j) for j, c in enumerate(_even_coeffs(d)))


def test_positive_definiteness_sanity():
    """Entrywise degree-4 evaluation of random unit-vector Gram matrices
    stays positive semidefinite (numerical check, test-only floats)."""
    rng = np.random.default_rng(20240517)
    configs = 0
    while configs < 50:
        d = int(rng.integers(3, 7))
        n = int(rng.integers(4, 16))
        z = rng.normal(size=(n, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        gram = np.clip(z @ z.T, -1.0, 1.0)
        m = np.vectorize(lambda x: _gegenbauer_float(d, x))(gram)
        for _ in range(4):
            weights = rng.normal(size=n)
            assert weights @ m @ weights >= -1e-9
        configs += 1
