"""Reference graphs and brute-force censuses.

These constructions and enumerations are the ground truth that every derived
count and bound is validated against.  Censuses are exact integer
enumeration, with no floating point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .cliquebound import COUNT_DEN
from .gramtest import Verdict, decide
from .params import ReprConstants, SrgParams


class AdjacencyMatrix(NamedTuple):
    """Symmetric, irreflexive boolean matrix stored as per-row bitmasks."""

    n: int
    rows: tuple[int, ...]

    def adjacent(self, u: int, w: int) -> bool:
        return bool(self.rows[u] >> w & 1)

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, w) for u in range(self.n) for w in range(u + 1, self.n) if self.adjacent(u, w)]


def _from_pairs(n: int, pairs) -> AdjacencyMatrix:
    rows = [0] * n
    for u, w in pairs:
        if u == w:
            raise ValueError("loops are not allowed")
        rows[u] |= 1 << w
        rows[w] |= 1 << u
    return AdjacencyMatrix(n=n, rows=tuple(rows))


def srg_parameters(g: AdjacencyMatrix) -> SrgParams:
    """Measure (v, k, lam, mu) and verify the defining regularity: constant
    degree and constant common-neighbor counts on adjacent and non-adjacent
    pairs (the entrywise form of A^2 + (mu-lam)A - (k-mu)I = mu J)."""
    n = g.n
    degrees = {g.degree(u) for u in range(n)}
    if len(degrees) != 1:
        raise ValueError(f"graph is not regular: degrees {sorted(degrees)}")
    k = degrees.pop()
    lam_set, mu_set = set(), set()
    for u in range(n):
        for w in range(u + 1, n):
            common = (g.rows[u] & g.rows[w]).bit_count()
            (lam_set if g.adjacent(u, w) else mu_set).add(common)
    if len(lam_set) > 1 or len(mu_set) > 1:
        raise ValueError(f"not strongly regular: lam {sorted(lam_set)}, mu {sorted(mu_set)}")
    return SrgParams(v=n, k=k, lam=lam_set.pop() if lam_set else 0, mu=mu_set.pop() if mu_set else 0)


# ---------------------------------------------------------------------------
# constructions


def _pair_graph(n: int, meet: bool) -> AdjacencyMatrix:
    """The 2-subsets of an n-set, joined when they meet (if meet) or when
    they are disjoint."""
    verts = list(combinations(range(n), 2))
    pairs = [(i, j) for (i, a), (j, b) in combinations(enumerate(verts), 2) if bool(set(a) & set(b)) == meet]
    return _from_pairs(len(verts), pairs)


def _petersen() -> AdjacencyMatrix:
    return _pair_graph(5, meet=False)


def _factorize_prime_power(q: int) -> tuple[int, int] | None:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return None


def _paley(q: int) -> AdjacencyMatrix:
    """Paley graph on GF(q): x ~ y when x - y is a nonzero square.

    Elements are e-tuples over GF(p), constant coefficient first.  For each
    monic degree-e modulus x^e + tail in turn, 1 is multiplied by x q - 1
    times; the first modulus under which these powers are q - 1 distinct
    elements and return to 1 is taken.  Then x is a unit of order q - 1, so every
    nonzero residue is a unit: the modulus is irreducible and x generates
    GF(q)*.  The squares are the even powers of x.
    """
    if q > 101:
        raise ValueError(f"paley order limited to 101, got {q}")
    pp = _factorize_prime_power(q)
    if pp is None or q % 4 != 1:
        raise ValueError(f"paley order must be a prime power = 1 mod 4, got {q}")
    p, e = pp
    one = (1,) + (0,) * (e - 1)
    for tail in product(range(p), repeat=e):
        powers, x = [], one
        for _ in range(q - 1):
            powers.append(x)
            # times x: shift up, then replace lead * x^e by -lead * tail
            x = tuple((c - x[-1] * t) % p for c, t in zip((0,) + x[:-1], tail))
        if x == one and len(set(powers)) == q - 1:
            break
    squares = set(powers[::2])
    elements = list(product(range(p), repeat=e))
    pairs = [
        (i, j)
        for (i, a), (j, b) in combinations(enumerate(elements), 2)
        if tuple((u - w) % p for u, w in zip(a, b)) in squares
    ]
    return _from_pairs(q, pairs)


def _triangular(n: int) -> AdjacencyMatrix:
    if not 5 <= n <= 10:
        raise ValueError(f"triangular order limited to 5..10, got {n}")
    return _pair_graph(n, meet=True)


def _rook(n: int) -> AdjacencyMatrix:
    if not 3 <= n <= 8:
        raise ValueError(f"rook order limited to 3..8, got {n}")
    # cells a = row * n + column, joined when they share exactly one of the two
    pairs = [(a, b) for a, b in combinations(range(n * n), 2) if (a // n == b // n) != (a % n == b % n)]
    return _from_pairs(n * n, pairs)


# (family, order) of every graph that self-check and the test suite validate
REFERENCE_GRAPHS = [("petersen", None), ("paley", 9), ("paley", 13), ("paley", 17), ("paley", 25),
                    ("triangular", 7), ("rook", 4)]


# family: (builder, whether it takes an order)
_FAMILIES = {
    "petersen": (_petersen, False),
    "paley": (_paley, True),
    "triangular": (_triangular, True),
    "rook": (_rook, True),
}


def construct(name: str, order: int | None = None) -> AdjacencyMatrix:
    """Build a reference strongly regular graph and verify its regularity.

    Families: "petersen"; "paley" (prime power order = 1 mod 4, <= 101);
    "triangular" (5 <= order <= 10); "rook" (3 <= order <= 8).
    """
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    build, takes_order = _FAMILIES[name]
    if takes_order != (order is not None):
        raise ValueError(f"{name} needs an order" if takes_order else f"{name} takes no order")
    g = build(order) if takes_order else build()
    srg_parameters(g)  # raises if the construction is broken
    return g


# ---------------------------------------------------------------------------
# censuses


# the K4 coefficients of _class_rows's counts, over COUNT_DEN, for every tuple:
# 0 but in the disjoint edge-pair classes n_j, 3 (-1)^j C(4, j) there
K4_COLUMN = ((0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 144, -576, 864, -576, 144))


def _class_rows(params: SrgParams, rep: ReprConstants) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The inner-product classes of {x_u} union {y_e}, one pair (cs, counts)
    of parallel integer tuples per Gram block (vertex-vertex, vertex-edge,
    edge-edge): the named reference table, by pair_profile, of the classes
    that cliquebound.k4_lower_bound writes out inline.  A class's inner
    product is c/sqrt of its block's D^2, D*S or S^2 (S = |x_u + x_w|^2
    scaled by D), and its count (count + k4 * K4) / COUNT_DEN, over ordered
    vertex pairs, (vertex, edge) pairs, or unordered pairs of edges, with k4
    its entry of K4_COLUMN.  The vertex-vertex and edge-edge blocks open
    with their self class, at inner product 1.

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
    shared_adj, shared_total = E48 * lam, E48 * (k - 1)  # 48 vk lam / 2 and 48 v C(k,2)
    # the K4-free parts of the disjoint classes n_3, n_2, n_1, n_0 (n_4 = 3 K4)
    diamond = E48 * lam * (lam - 1) // 2
    c4 = (12 * v * (v - 1 - k) * mu * (mu - 1) - diamond) // 2  # 48 N C(mu,2) = 12 v(v-1-k) mu(mu-1)
    n3 = 2 * diamond
    n2 = 2 * c4 + 24 * v * k * lam * (k - 2 * lam)  # paw = 3 (48 T)(k - 2 lam), 48 T = 8 vk lam
    n1 = E48 * ((k - 1) ** 2 - lam) - 2 * n2 - 3 * n3  # the cross-adjacency total less j n_j, j >= 2
    n0 = E48 * (E48 - 48) // 96 - shared_total - n1 - n2 - n3  # 48 C(|E|,2) = 48|E|(48|E| - 48) / 96
    return (
        ((D, P, Q), (48 * v, 48 * v * k, 48 * v * (v - 1 - k))),  # vertex-vertex, ordered pairs
        # vertex-edge, (vertex, edge) pairs
        ((D + P, 2 * P, P + Q, 2 * Q), (2 * E48, E48 * lam, 2 * E48 * (k - 1 - lam), E48 * (v - 2 * k + lam))),
        # edge-edge: self, sharing a vertex (unordered), disjoint by cross adjacencies (unordered)
        ((S, D + 3 * P, D + 2 * P + Q, 4 * Q, P + 3 * Q, 2 * P + 2 * Q, 3 * P + Q, 4 * P),
         (E48, shared_adj, shared_total - shared_adj, n0, n1, n2, n3, 0)),
    )


# one inner-product class of the vertex+edge vector system: its c and count of
# _class_rows and its K4_COLUMN entry k4, with its name and its Gram block
PairClass = namedtuple("PairClass", "name block c const k4")
# the class names per Gram block, in _class_rows's order
_CLASS_NAMES = (
    ("vertex-vertex", ("vv-self", "vv-adjacent", "vv-nonadjacent")),
    ("vertex-edge", ("ve-endpoint", "ve-both", "ve-one", "ve-neither")),
    ("edge-edge", ("ee-self", "ee-shared-adjacent", "ee-shared-nonadjacent", *(f"ee-disjoint-{j}" for j in range(5)))),
)


def pair_profile(params: SrgParams, rep: ReprConstants) -> tuple[PairClass, ...]:
    """All inner-product classes of {x_u} union {y_e}: _class_rows with K4_COLUMN, named."""
    return tuple(
        PairClass(name, block, c, const, k4)
        for (block, names), (cs, counts), k4s in zip(_CLASS_NAMES, _class_rows(params, rep), K4_COLUMN)
        for name, c, const, k4 in zip(names, cs, counts, k4s, strict=True)
    )


class CensusReport(NamedTuple):
    """Brute-force pair census.

    vertex_edge_class_counts orders: endpoint, adjacent-to-both,
    adjacent-to-one, adjacent-to-neither, counted over (vertex, edge) pairs.
    shared_edge_class_counts orders: third endpoints adjacent, non-adjacent,
    over unordered pairs of distinct edges sharing a vertex.  n_j_disjoint
    counts unordered disjoint pairs with j cross adjacencies.  The last two
    fields are the maximum and the sum of lambda_subgraph_edge_counts.
    """

    k4_count: int
    n_j_disjoint: tuple[int, int, int, int, int]
    vertex_edge_class_counts: tuple[int, int, int, int]
    shared_edge_class_counts: tuple[int, int]
    max_lambda_subgraph_edges: int
    sum_lambda_subgraph_edges: int


def lambda_subgraph_edge_counts(g: AdjacencyMatrix) -> list[int]:
    """Edge count of the subgraph induced on the common neighborhood of each
    edge, by explicit pair enumeration."""
    counts = []
    for u, w in g.edges():
        common = g.rows[u] & g.rows[w]
        members = [t for t in range(g.n) if common >> t & 1]
        counts.append(sum(1 for a, b in combinations(members, 2) if g.adjacent(a, b)))
    return counts


def census(g: AdjacencyMatrix) -> CensusReport:
    """Exhaustive enumeration of 4-cliques, (vertex, edge) classes, and edge
    pair classes."""
    edges = g.edges()

    # each 4-clique once: its two lowest vertices u < w and an adjacent pair of common neighbors above w
    k4 = sum(g.adjacent(t, z) for u, w in edges
             for t, z in combinations([t for t in range(w + 1, g.n) if (g.rows[u] & g.rows[w]) >> t & 1], 2))

    ve = [0, 0, 0, 0]
    for t in range(g.n):
        for u, w in edges:  # endpoint, else adjacent to both, one or neither end
            ve[0 if t in (u, w) else 3 - g.adjacent(t, u) - g.adjacent(t, w)] += 1

    shared = [0, 0]
    n_j = [0, 0, 0, 0, 0]
    for i, (u, w) in enumerate(edges):
        for u2, w2 in edges[i + 1 :]:
            if {u, w} & {u2, w2}:  # sharing a vertex: are the two other ends adjacent
                shared[not g.adjacent(*({u, w} ^ {u2, w2}))] += 1
            else:
                n_j[g.adjacent(u, u2) + g.adjacent(u, w2) + g.adjacent(w, u2) + g.adjacent(w, w2)] += 1

    m_counts = lambda_subgraph_edge_counts(g)
    return CensusReport(k4, tuple(n_j), tuple(ve), tuple(shared), max(m_counts, default=0), sum(m_counts))


def validate(g: AdjacencyMatrix) -> str:
    """Check the pipeline against the brute-force census of an existing graph.

    The per-edge common-neighborhood edge counts must sum to 6 K4, every
    derived pair-profile class must equal the census at the true K4, the
    4-clique bound must not exceed the true count, decide's m window must
    contain the measured maximum, and the verdict must not be Nonexistent.
    Raises AssertionError at the first disagreement; returns a summary.
    """
    params = srg_parameters(g)
    report = census(g)
    if report.sum_lambda_subgraph_edges != 6 * report.k4_count:
        raise AssertionError("sum of per-edge counts != 6 * K4")
    cert = decide(params)
    if cert.verdict is Verdict.NONEXISTENT:
        raise AssertionError("an existing graph was declared Nonexistent")
    detail = f"K4={report.k4_count}"
    if cert.spectrum is None:
        return detail + " (irrational spectrum: census identities only)"
    v, k = params.v, params.k
    # the census count of each pair_profile class, in its order
    want = (v, v * k, v * (v - 1 - k), *report.vertex_edge_class_counts, v * k // 2,
            *report.shared_edge_class_counts, *report.n_j_disjoint)
    for c, count in zip(pair_profile(params, cert.rep), want, strict=True):
        if (derived := Fraction(c.const + c.k4 * report.k4_count, COUNT_DEN)) != count:
            raise AssertionError(f"class {c.name}: derived {derived} != census {count}")
    bound = cert.k4_bound.lower
    if bound > report.k4_count:
        raise AssertionError(f"4-clique bound {bound} exceeds true count {report.k4_count}")
    lo, hi = cert.m_range.lower, cert.m_range.upper
    if not lo <= report.max_lambda_subgraph_edges <= hi:
        raise AssertionError(f"max m {report.max_lambda_subgraph_edges} outside [{lo},{hi}]")
    return f"{detail} profile-ok k4-bound={bound} m=[{lo},{hi}]"
