import pytest

from srgcert.oracle import REFERENCE_GRAPHS, census, construct, srg_parameters


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
