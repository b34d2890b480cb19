import numpy as np
import pytest

from srgcert.gramtest import decide
from srgcert.params import derive_spectrum
from srgcert.oracle import (
    census,
    construct,
    lambda_subgraph_edge_counts,
    srg_parameters,
    validate,
)
from conftest import complement
from numeric import realize_representation

EXPECTED_PARAMS = {
    "petersen": (10, 3, 0, 1),
    "paley(9)": (9, 4, 1, 2),
    "paley(13)": (13, 6, 2, 3),
    "paley(17)": (17, 8, 3, 4),
    "paley(25)": (25, 12, 5, 6),
    "triangular(7)": (21, 10, 5, 4),
    "rook(4)": (16, 6, 2, 2),
}

# computed once by the census code below, then frozen
GOLDEN_CENSUS = {
    "petersen": (0, (15, 60, 0, 0, 0), (30, 0, 60, 60), (0, 30), 0),
    "paley(9)": (0, (9, 36, 54, 0, 0), (36, 18, 72, 36), (18, 36), 0),
    "paley(13)": (0, (39, 195, 234, 78, 0), (78, 78, 234, 117), (78, 117), 0),
    "paley(17)": (0, (102, 680, 612, 408, 0), (136, 204, 544, 272), (204, 272), 0),
    "paley(25)": (75, (600, 3000, 3600, 2100, 225), (300, 750, 1800, 900), (750, 900), 3),
    "triangular(7)": (105, (630, 1260, 1470, 840, 315), (210, 525, 840, 630), (525, 420), 6),
    "rook(4)": (8, (216, 288, 360, 0, 24), (96, 96, 288, 288), (96, 144), 1),
}


def test_constructions_have_expected_parameters(reference_graphs):
    for label, (g, params) in reference_graphs.items():
        assert (params.v, params.k, params.lam, params.mu) == EXPECTED_PARAMS[label]


def test_construct_boundary_orders():
    """Largest supported orders, including the prime-power fields."""
    for name, order, expected in [
        ("paley", 49, (49, 24, 11, 12)),
        ("paley", 81, (81, 40, 19, 20)),
        ("paley", 101, (101, 50, 24, 25)),
        ("triangular", 10, (45, 16, 8, 4)),
        ("rook", 8, (64, 14, 6, 2)),
    ]:
        params = srg_parameters(construct(name, order))
        assert (params.v, params.k, params.lam, params.mu) == expected


def test_paley_prime_order_joins_quadratic_residues():
    """At a prime order the vertices are the residues mod q, and u ~ w
    exactly when u - w is a nonzero square."""
    for q in (5, 13, 29, 101):
        squares = {x * x % q for x in range(1, q)}
        g = construct("paley", q)
        assert all(g.adjacent(u, w) == ((u - w) % q in squares) for u in range(q) for w in range(q)), q


def test_construct_rejects_bad_orders():
    with pytest.raises(ValueError):
        construct("paley", 12)  # not a prime power = 1 mod 4
    with pytest.raises(ValueError):
        construct("paley", 11)  # 3 mod 4
    with pytest.raises(ValueError):
        construct("paley", 109)  # above the supported range
    with pytest.raises(ValueError):
        construct("rook", 9)
    with pytest.raises(ValueError):
        construct("triangular", 11)
    with pytest.raises(ValueError):
        construct("kneser", 5)
    with pytest.raises(ValueError):
        construct("petersen", 3)
    for name in ("paley", "triangular", "rook"):
        with pytest.raises(ValueError):
            construct(name)  # these families need an order


def test_census_golden_values(reference_censuses):
    for label, (g, params, report) in reference_censuses.items():
        assert (
            report.k4_count,
            report.n_j_disjoint,
            report.vertex_edge_class_counts,
            report.shared_edge_class_counts,
            report.max_lambda_subgraph_edges,
        ) == GOLDEN_CENSUS[label], label


def test_census_internal_identities(reference_censuses):
    for label, (g, params, report) in reference_censuses.items():
        edges = len(g.edges())
        assert edges == params.v * params.k // 2
        n_total = sum(report.n_j_disjoint)
        sharing = sum(report.shared_edge_class_counts)
        assert n_total == edges * (edges - 1) // 2 - sharing
        assert report.n_j_disjoint[4] == 3 * report.k4_count
        assert sum(report.vertex_edge_class_counts) == params.v * edges


def test_rook_has_eight_4cliques(reference_censuses):
    _, _, report = reference_censuses["rook(4)"]
    assert report.k4_count == 8  # 4 rows + 4 columns


def test_petersen_census_trivialities(reference_censuses):
    _, _, report = reference_censuses["petersen"]
    assert report.k4_count == 0
    assert report.n_j_disjoint[4] == 0
    assert report.max_lambda_subgraph_edges == 0


def test_validate_passes_on_reference_complements(reference_graphs):
    """The complement of every reference graph is strongly regular with the
    complementary parameters, and validate's census identities, class
    counts, 4-clique bound and m window all hold on it."""
    profiled = 0
    for label, (g, params) in reference_graphs.items():
        h = complement(g)
        v, k, lam, mu = params
        assert srg_parameters(h) == (v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam), label
        profiled += "profile-ok" in validate(h)
    assert profiled == 5  # all but the Paley graphs of prime order, whose spectra are irrational


def test_petersen_complement_has_zero_slack():
    """The complement of the Petersen graph, (10,6,3,4), has as many
    4-cliques as the 4-clique bound allows: a census coefficient off in the
    K4 direction fails here."""
    h = complement(construct("petersen"))
    params = srg_parameters(h)
    assert params == (10, 6, 3, 4)
    assert census(h).k4_count == 5
    assert decide(params).k4_bound.lower == 5


# label -> (census K4, 4-clique bound) of each reference graph's complement
# with an integer spectrum
COMPLEMENT_K4 = {
    "petersen": (5, 5),
    "paley(9)": (0, 0),
    "paley(25)": (75, 9),
    "triangular(7)": (0, 0),
    "rook(4)": (24, 15),
}


def test_reference_complement_k4_slack(reference_graphs):
    got = {}
    for label, (g, _) in reference_graphs.items():
        h = complement(g)
        cert = decide(srg_parameters(h))
        if cert.k4_bound is not None:
            got[label] = (census(h).k4_count, cert.k4_bound.lower)
    assert got == COMPLEMENT_K4


def test_edge_count_identity(reference_censuses):
    """sum over edges of common-neighborhood edges equals 6 * K4."""
    for label, (g, params, report) in reference_censuses.items():
        assert sum(lambda_subgraph_edge_counts(g)) == 6 * report.k4_count, label
        assert report.sum_lambda_subgraph_edges == 6 * report.k4_count, label


def test_realize_representation_petersen_and_rook(reference_graphs):
    for label in ("petersen", "rook(4)"):
        g, params = reference_graphs[label]
        spectrum = derive_spectrum(params)
        vectors = realize_representation(g)
        assert vectors.shape == (params.v, spectrum.g)
        gram = vectors @ vectors.T
        p = spectrum.s / params.k
        q = -(1 + spectrum.s) / (params.v - 1 - params.k)
        for u in range(params.v):
            assert abs(gram[u, u] - 1.0) < 1e-8
            for w in range(u + 1, params.v):
                want = p if g.adjacent(u, w) else q
                assert abs(gram[u, w] - want) < 1e-8


def test_realize_representation_gram_is_psd_of_rank_g(reference_graphs):
    for label in ("petersen", "rook(4)", "paley(25)"):
        g, params = reference_graphs[label]
        spectrum = derive_spectrum(params)
        vectors = realize_representation(g)
        eigs = np.linalg.eigvalsh(vectors @ vectors.T)
        assert eigs.min() > -1e-9
        assert int((eigs > 1e-9).sum()) == spectrum.g


def test_realize_representation_rejects_conference(reference_graphs):
    g, _ = reference_graphs["paley(13)"]
    with pytest.raises(ValueError):
        realize_representation(g)


def test_srg_parameters_rejects_non_srg():
    from srgcert.oracle import _from_pairs

    path = _from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        srg_parameters(path)
