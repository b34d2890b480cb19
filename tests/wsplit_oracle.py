"""The w-split as it ran before its first pass became one integer kernel:
the per-m coefficients as a named tuple, the per-w part, and the piece walk
over generators, kept as the oracle of gramtest.wsplit_contradiction and
gramtest._unrefuted; and two readers of the kernel, for the tests that
compare it with them: the coefficients it computes, and every w it
leaves."""

from collections import namedtuple

from srgcert import gramtest
from srgcert.gramtest import WSplitWitness, _region_max_scaled, _survivors, alpha_min

# The D-scaled parts of the w-split determinant fixed by (tuple, m).
Gram3PerM = namedtuple("Gram3PerM", "n00_w n00_ww n10_w n01 n20 den")


def gram3_per_m(params, rep, m):
    """The w-free parts, at edge count m, of the exact determinant of the
    3x3 w-split Gram matrix as a polynomial in (alpha, beta), written from
    the entries of gramtest.wsplit_contradiction's docstring."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    D, P, Q, lam = rep.D, rep.P, rep.Q, params.lam
    d = P - Q
    xx, x3, y3 = lam * D + lam * (lam - 1) * Q + 2 * d * m, 2 * lam * P, rep.S
    x2 = D + (lam - 1) * Q  # <X, Y2> less d*alpha, over w
    g = xx * y3 - x3 * x3  # |X|^2 |Y3|^2 - <X, Y3>^2
    n00_w, n00_ww = (D - Q) * g, Q * g - 4 * P * P * xx - y3 * x2 * x2 + 4 * P * x2 * x3
    n10_w, n01, n20 = 2 * d * (2 * P * x3 - y3 * x2), 2 * d * g, -y3 * d * d
    return Gram3PerM(n00_w, n00_ww, n10_w, n01, n20, D**3)


def kernel_coefficients(params, rep, m):
    """The (n00_w, n00_ww, n10_w, n01, n20) that gramtest.wsplit_contradiction
    computes at m and hands to _unrefuted, read by a stand-in that leaves
    no w; None for lam < 2, which has no split size and makes no call."""
    seen, real = [], gramtest._unrefuted
    gramtest._unrefuted = lambda lam, m, x, *coefficients: seen.append(coefficients) or ([], lam)
    try:
        gramtest.wsplit_contradiction(params, rep, m)
    finally:
        gramtest._unrefuted = real
    return seen[0] if seen else None


def kernel_left(lam, m, *coefficients):
    """Every w that gramtest._unrefuted leaves, on all pieces in turn."""
    left, x = [], 1
    while x < lam:
        got, x = gramtest._unrefuted(lam, m, x, *coefficients)
        left += got
    return left


def gram3_per_w(h, w):
    """The coefficients (n00, n10) of the w-split determinant at w, over h.den."""
    return w * (h.n00_w + w * h.n00_ww), w * h.n10_w


def pieces(n, m):
    """The pieces (x, end, q, a0), ascending, that tile 1 <= w < n, one for
    each value of q = (2m + n - w) // n: at most two, as (2m + n - w)/n
    spans less than 1 there.  On each, alpha_min(n, m, w) = a0 + q*w with
    a0 = max(0, 2m - qn)."""
    x = 1
    while x < n:
        q = (2 * m + n - x) // n
        end = min(n - 1, 2 * m + n - n * q)  # the last w with this q; n - 1 for q = 0
        yield x, end, q, max(0, 2 * m - q * n)
        x = end + 1


def nonneg_on(c, a, b):
    """Whether c0 + c1 w + c2 w^2 >= 0 at every integer a <= w <= b, in O(1):
    a concave or linear one is least at an end, a convex one at the floor of
    its vertex -c1/(2 c2) or the next integer, clamped to [a, b]."""
    c0, c1, c2 = c
    if c2 > 0:
        x = -c1 // (2 * c2)
        a, b = min(b, max(a, x)), min(b, max(a, x + 1))
    return c0 + (c1 + c2 * a) * a >= 0 and c0 + (c1 + c2 * b) * b >= 0


def piece_bounds(lam, m, h, q, a0):
    """The three lower bounds of one piece, times 2, in powers of w."""
    n01, n20 = h.n01, h.n20
    v0 = 2 * n20 * a0 * a0
    v1, v2 = 2 * (h.n00_w + (h.n10_w + 2 * n20 * q) * a0), 2 * (h.n00_ww + (h.n10_w + n20 * q) * q)
    return ((v0, v1, v2), (v0 + 2 * n01 * (a0 - m), v1 + 2 * n01 * q, v2),
            (v0 + n01 * (a0 + 1), v1 + n01 * (q - lam), v2 + n01))


def unrefuted(lam, m, h):
    """The piece walk over generators: each piece tested per quadratic with
    nonneg_on, and cut by the quadratics not >= 0 on all of it."""
    for x, end, q, a0 in pieces(lam, m):
        bounds = piece_bounds(lam, m, h, q, a0)
        failing = [c for c in bounds if not nonneg_on(c, x, end)]
        if not failing:
            continue  # all three >= 0 on the whole piece, shown in O(1)
        for y, z in _survivors(failing, x, end):
            yield from range(y, z + 1)


def wsplit(params, rep, m):
    """gramtest.wsplit_contradiction before the kernel: gram3_per_m, the
    generator walk, and the exact region scan at each w it leaves."""
    lam = params.lam
    if m > lam * (lam - 1) // 2:
        raise ValueError(f"m={m} exceeds C(lam,2) for lam={lam}")
    h = gram3_per_m(params, rep, m)
    if h.n01 > 0:
        raise ValueError(f"m={m} exceeds the root of the 2x2 Gram determinant")
    for w in unrefuted(lam, m, h):
        alpha_lo = alpha_min(lam, m, w)
        best, at = _region_max_scaled(*gram3_per_w(h, w), h.n01, h.n20, lam, m, w, alpha_lo)
        if best < 0:
            return WSplitWitness(w, m, alpha_lo, best, h.den, at)
    return None
