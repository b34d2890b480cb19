import pytest

from srgcert.oracle import REFERENCE_GRAPHS, AdjacencyMatrix, census, construct, srg_parameters
from srgcert.params import SrgParams


def complement(g: AdjacencyMatrix) -> AdjacencyMatrix:
    """The complement of g, on its row bitmasks: every other vertex that a
    row does not join."""
    full = (1 << g.n) - 1
    return AdjacencyMatrix(g.n, tuple(full & ~row & ~(1 << u) for u, row in enumerate(g.rows)))


def complement_params(params) -> SrgParams:
    """The parameters of the complement of a strongly regular graph with
    parameters (v, k, lam, mu), a tuple or an SrgParams."""
    v, k, lam, mu = params
    return SrgParams(v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam)


@pytest.fixture(scope="session")
def reference_graphs():
    """name -> (graph, params) for every reference construction."""
    out = {}
    for name, order in REFERENCE_GRAPHS:
        label = f"{name}({order})" if order is not None else name
        g = construct(name, order)
        out[label] = (g, srg_parameters(g))
    return out


@pytest.fixture(scope="session")
def reference_censuses(reference_graphs):
    """label -> (graph, params, census) computed once per session."""
    return {
        label: (g, params, census(g))
        for label, (g, params) in reference_graphs.items()
    }
