import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from srgcert import gramtest
from srgcert.gramtest import scaled_value
from srgcert.oracle import construct, srg_parameters
from srgcert.params import ReprConstants, SrgParams, derive_spectrum, repr_constants
from support import rep_fractions, rep_from_fractions
from numeric import realize_representation, to_numpy
from test_acceptance import _gram3_det, _primitive_feasible_tuples
from wsplit_oracle import gram3_per_m, gram3_per_w, kernel_coefficients


def _rep(tup):
    params = SrgParams(*tup)
    return params, repr_constants(params, derive_spectrum(params))


def test_repr_constants_target_tuple():
    _, rep = _rep((460, 153, 32, 60))
    assert rep_fractions(rep) == (Fraction(-31, 153), Fraction(5, 51))
    assert rep.d == 45


def test_repr_constants_petersen_and_rook():
    _, rep = _rep((10, 3, 0, 1))
    assert (*rep_fractions(rep), rep.d) == (Fraction(-2, 3), Fraction(1, 6), 4)
    _, rep = _rep((16, 6, 2, 2))
    # dimension is the multiplicity of s = -2, which is 9 for the rook graph
    assert (*rep_fractions(rep), rep.d) == (Fraction(-1, 3), Fraction(1, 9), 9)


def test_repr_constants_match_fraction_lcm(reference_graphs):
    """The gcd-built D, P, Q, S, and p = P/D and q = Q/D, equal those
    taken from Fraction(s, k) and Fraction(-(1+s), v-k-1) over the lcm of
    their denominators, on every reference graph with an integer spectrum
    and the 648 primitive feasible tuples with v <= 300."""
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    tuples += [params for _, params in reference_graphs.values() if derive_spectrum(params) is not None]
    for params in tuples:
        spectrum = derive_spectrum(params)
        p, q = Fraction(spectrum.s, params.k), Fraction(-(1 + spectrum.s), params.v - 1 - params.k)
        rep, want = repr_constants(params, spectrum), rep_from_fractions(p, q, spectrum.g)
        assert (rep.D, rep.P, rep.Q, rep.S, rep.d) == (want.D, want.P, want.Q, want.S, want.d), params
        assert rep.D == math.lcm(p.denominator, q.denominator) and rep_fractions(rep) == (p, q), params


def test_repr_constants_requires_integer_spectrum():
    params = SrgParams(5, 2, 0, 1)
    with pytest.raises(ValueError):
        repr_constants(params, derive_spectrum(params))


def test_gram_matrix_of_constants_is_psd_with_rank_g():
    """I + pA + q(J-I-A) must be PSD of rank g on actual graphs."""
    for name, order in [("petersen", None), ("rook", 4)]:
        g = construct(name, order)
        params = srg_parameters(g)
        rep = repr_constants(params, derive_spectrum(params))
        a = to_numpy(g).astype(float)
        j = np.ones_like(a)
        i = np.eye(params.v)
        p, q = rep_fractions(rep)
        gram = i + float(p) * a + float(q) * (j - i - a)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-9
        assert int((eigs > 1e-9).sum()) == rep.d


def test_row_sum_identity():
    """1 + k p + (v - 1 - k) q = 0 exactly for every integer-spectrum tuple."""
    tuples = [
        (460, 153, 32, 60),
        (10, 3, 0, 1),
        (16, 6, 2, 2),
        (21, 10, 5, 4),
        (25, 12, 5, 6),
        (5929, 1482, 275, 402),
        (6205, 858, 47, 130),
        (2950, 891, 204, 297),
    ]
    for tup in tuples:
        params, rep = _rep(tup)
        p, q = rep_fractions(rep)
        assert 1 + params.k * p + (params.v - 1 - params.k) * q == 0
        assert -1 < p < q < 1


def _gram2_literal(params, rep):
    """The 2x2 Gram of X1 (the lam common neighbors of an edge, m edges
    among them) and X2 = x_u + x_w, entry by entry: <X1,X1> as a function
    of m, then <X1,X2> and <X2,X2>."""
    lam, (p, q) = params.lam, rep_fractions(rep)

    def a11(m):
        return lam + 2 * m * p + (lam * (lam - 1) - 2 * m) * q

    return a11, 2 * lam * p, 2 + 2 * p


def _gram2_root(params, rep):
    """The m at which the literal 2x2 determinant, linear in m, vanishes."""
    a11, a12, a22 = _gram2_literal(params, rep)
    det0 = a11(0) * a22 - a12 * a12
    slope = a11(1) * a22 - a12 * a12 - det0
    return -det0 / slope


def test_gram2_target_entries():
    """Entries reduce to integer numerators over 153."""
    params, rep = _rep((460, 153, 32, 60))
    a11, a12, a22 = _gram2_literal(params, rep)
    assert a11(0) == Fraction(19776, 153)
    assert a11(1) - a11(0) == Fraction(-92, 153)
    assert a12 == Fraction(-1984, 153)
    assert a22 == Fraction(244, 153)
    assert a11(39) == Fraction(19776 - 92 * 39, 153)


def test_gram2_lambda_zero_is_vacuous():
    params, rep = _rep((10, 3, 0, 1))
    a11, a12, _ = _gram2_literal(params, rep)
    assert a11(0) == 0
    assert a12 == 0


def test_gram2_a22_is_squared_edge_vector_norm():
    for tup in [(460, 153, 32, 60), (16, 6, 2, 2), (21, 10, 5, 4)]:
        params, rep = _rep(tup)
        assert _gram2_literal(params, rep)[2] == 2 + 2 * rep_fractions(rep)[0]


def test_m_upper_exact_is_literal_gram2_root(reference_graphs):
    """The closed-form root equals the root of the entry-by-entry 2x2
    determinant on every reference graph and on the 648 primitive feasible
    tuples with v <= 300."""
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    tuples += [params for _, params in reference_graphs.values() if derive_spectrum(params) is not None]
    for params in tuples:
        rep = repr_constants(params, derive_spectrum(params))
        want = None if params.lam == 0 else _gram2_root(params, rep)
        root = gramtest._gram2_root(params, rep)
        assert (None if root is None else Fraction(*root)) == want, params
    params, rep = _rep((460, 153, 32, 60))
    p, q = rep_fractions(rep)
    with pytest.raises(ValueError):  # p > q: the determinant grows with m
        gramtest._gram2_root(params, rep_from_fractions(q, p, rep.d))


def test_gram3_det_exact_coefficients():
    params, rep = _rep((460, 153, 32, 60))
    c00, c10, c01, c20 = _gram3_det(params, rep, w=14, m=39)
    assert c20 == Fraction(-516304, 3581577)
    assert c10 == Fraction(35785792, 3581577)
    assert c01 == Fraction(-1252672, 3581577)
    assert c00 == Fraction(-198599296, 1193859)


def test_gram3_det_value_at_corner():
    params, rep = _rep((460, 153, 32, 60))
    det = _gram3_det(params, rep, w=14, m=39)
    assert scaled_value(*det, 42, 3) == Fraction(-270848, 132651)


def _split_stats(g, members, w):
    """(alpha, beta) of the top-w split by degree inside the induced subgraph."""
    deg = {
        t: sum(1 for z in members if z != t and g.adjacent(t, z))
        for t in members
    }
    ordered = sorted(members, key=lambda t: (-deg[t], t))
    top = ordered[:w]
    alpha = sum(deg[t] for t in top)
    beta = sum(1 for a, b in itertools.combinations(top, 2) if g.adjacent(a, b))
    return alpha, beta


def test_gram_determinants_nonnegative_on_measured_statistics(reference_graphs):
    """Instantiating the symbolic matrices with statistics measured on real
    graphs must give Gram determinants >= 0."""
    for label, (g, params) in reference_graphs.items():
        spectrum = derive_spectrum(params)
        if spectrum is None or params.lam < 1:
            continue
        rep = repr_constants(params, spectrum)
        a11, a12, a22 = _gram2_literal(params, rep)
        for u, w in g.edges():
            common = g.rows[u] & g.rows[w]
            members = [t for t in range(g.n) if common >> t & 1]
            m = sum(
                1 for a, b in itertools.combinations(members, 2) if g.adjacent(a, b)
            )
            assert a11(m) * a22 - a12 * a12 >= 0, (label, (u, w), m)
            for split in range(1, params.lam):
                alpha, beta = _split_stats(g, members, split)
                det = _gram3_det(params, rep, split, m)
                assert scaled_value(*det, alpha, beta) >= 0, (label, (u, w), split, alpha, beta)


def test_gram3_matches_materialized_vectors(reference_graphs):
    """The symbolic 3x3 determinant must agree with the numeric determinant
    of actual summed representation vectors, for real splits on real graphs."""
    for label in ("rook(4)", "triangular(7)"):
        g, params = reference_graphs[label]
        rep = repr_constants(params, derive_spectrum(params))
        vectors = realize_representation(g)
        for u, w in g.edges()[:8]:
            common = g.rows[u] & g.rows[w]
            members = [t for t in range(g.n) if common >> t & 1]
            m = sum(
                1 for a, b in itertools.combinations(members, 2) if g.adjacent(a, b)
            )
            deg = {
                t: sum(1 for z in members if z != t and g.adjacent(t, z))
                for t in members
            }
            ordered = sorted(members, key=lambda t: (-deg[t], t))
            for split in range(1, params.lam):
                top, low = ordered[:split], ordered[split:]
                alpha = sum(deg[t] for t in top)
                beta = sum(
                    1 for a, b in itertools.combinations(top, 2) if g.adjacent(a, b)
                )
                y1 = vectors[low].sum(axis=0)
                y2 = vectors[top].sum(axis=0)
                y3 = vectors[u] + vectors[w]
                gram = np.array([[y @ z for z in (y1, y2, y3)] for y in (y1, y2, y3)])
                numeric = np.linalg.det(gram)
                symbolic = float(scaled_value(*_gram3_det(params, rep, split, m), alpha, beta))
                assert abs(numeric - symbolic) < 1e-6, (label, (u, w), split)


def _gram3_literal(lam, unit, w, m, alpha, beta):
    """The 3x3 Gram of (Y1, Y2, Y3) at one (alpha, beta), entry by entry:
    Y1 sums the lam - w low vertices (m + beta - alpha edges inside), Y2 the
    w top vertices (beta edges inside), alpha - 2*beta edges cross, and
    Y3 = x_u + x_w is adjacent to every vertex of both parts.  unit is
    (1, p, q), the inner products of a vertex with itself, an adjacent and a
    non-adjacent vertex; every entry is linear in them, so (D, P, Q) gives
    the Gram times D."""
    one, p, q = unit
    n1 = lam - w

    def block(size, edges):
        return size * one + 2 * edges * p + (size * (size - 1) - 2 * edges) * q

    cross = alpha - 2 * beta
    a11 = block(n1, m + beta - alpha)
    a22 = block(w, beta)
    a12 = cross * p + (n1 * w - cross) * q
    a13, a23, a33 = 2 * n1 * p, 2 * w * p, 2 * one + 2 * p
    return [[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]]


def _det3(g):
    return (
        g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
        - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
        + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
    )


def test_gram3_det_matches_literal_determinant():
    """The closed-form coefficients equal the cofactor expansion of the
    literal Gram entries at random integer points, for every split w."""
    rng = random.Random(7)
    for tup in [
        (460, 153, 32, 60),
        (6205, 858, 47, 130),
        (16, 6, 2, 2),
        (21, 10, 5, 4),
        (275, 112, 30, 56),
    ]:
        params, rep = _rep(tup)
        lam = params.lam
        for w in range(1, lam):
            for _ in range(5):
                m = rng.randint(0, lam * (lam - 1) // 2)
                alpha, beta = rng.randint(-50, 2 * m + 50), rng.randint(-50, 2 * m + 50)
                literal = _det3(_gram3_literal(lam, (1, *rep_fractions(rep)), w, m, alpha, beta))
                assert scaled_value(*_gram3_det(params, rep, w, m), alpha, beta) == literal, (tup, w, m, alpha, beta)


def test_gram3_det_matches_literal_determinant_on_a_grid():
    """gram3_per_m and gram3_per_w equal the cofactor expansion of the
    D-scaled literal Gram entries as polynomials, on free integers D, P, Q
    (S = 2D + 2P) and lam, not only on SRG tuples.

    Both sides are division-free integer polynomials.  Each literal entry
    is linear in (D, P, Q); a11 is quadratic in lam and in w (through
    n1 = lam - w) and linear in m, alpha and beta; a12 is linear in lam,
    alpha and beta and quadratic in w; a22 is quadratic in w and linear in
    beta; a13 and a23 are linear in lam and w.  Every term of the expansion
    is a product of three entries, at most one of them a11: so its degree
    is at most 3 in D, P and Q, 2 in lam, alpha and beta, 1 in m and 4 in w.
    gram3_per_m's parts are products of three entries too (its 2x2
    determinant g has degree 2 in D, P, Q and lam, 1 in m), and
    gram3_per_w adds at most w^2, alpha^2 and beta: within the same bounds.
    A polynomial of degree at most d_i in variable i that vanishes on a
    product grid of more than d_i points per variable is zero (iterated
    interpolation), and this grid has 4 values of D, P and Q, 5 of lam,
    3 of m, alpha and beta, and 8 of w: the identity holds for all
    integers.  On the same grid, n01 = 2d g(m) and n20 = -S d^2, with
    d = P - Q, whose signs decide's window relies on.  Wherever
    wsplit_contradiction takes the point (m <= C(lam, 2) and n01 <= 0) with
    a split size to search (lam >= 2), the coefficients it computes are
    gram3_per_m's, and where n01 > 0 it refuses m."""
    points = kernel_points = 0
    for D, P, Q, lam, m in itertools.product(range(1, 5), range(-2, 2), range(-1, 3), range(5), range(3)):
        rep = ReprConstants(1, D, P, Q, 2 * D + 2 * P)
        # an admissible tuple with this lam: gram3_per_m reads no other field of it
        params = SrgParams(lam + 3, lam + 1, lam, 1)
        h = gram3_per_m(params, rep, m)
        if m <= lam * (lam - 1) // 2 and h.n01 > 0:
            with pytest.raises(ValueError):
                gramtest.wsplit_contradiction(params, rep, m)
        elif m <= lam * (lam - 1) // 2 and lam >= 2:  # lam < 2 has no split size
            assert kernel_coefficients(params, rep, m) == h[:5], (D, P, Q, lam, m)
            kernel_points += 1
        d, gram2 = P - Q, _gram3_literal(lam, (D, P, Q), 0, m, 0, 0)  # w = 0: the 2x2 Gram of X and Y3
        assert h.n01 == 2 * d * (gram2[0][0] * gram2[2][2] - gram2[0][2] ** 2)
        assert h.n20 == -rep.S * d * d and h.den == D**3
        for w in range(-3, 5):
            n00, n10 = gram3_per_w(h, w)
            for alpha, beta in itertools.product(range(3), repeat=2):
                literal = _det3(_gram3_literal(lam, (D, P, Q), w, m, alpha, beta))
                assert scaled_value(n00, n10, h.n01, h.n20, alpha, beta) == literal, (D, P, Q, lam, m, w, alpha, beta)
                points += 1
    assert points == 69_120 and kernel_points == 278


def test_gram3_full_split_degenerates_to_zero_row():
    """Taking the whole common neighborhood as the top part empties Y1: at
    (alpha, beta) = (2m, m) its diagonal entry and cross entries vanish."""
    params, rep = _rep((460, 153, 32, 60))
    m = 17
    gram = _gram3_literal(params.lam, (1, *rep_fractions(rep)), params.lam, m, 2 * m, m)
    assert gram[0] == [0, 0, 0]
    assert _det3(gram) == 0
