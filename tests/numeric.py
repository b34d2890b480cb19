"""Floating-point realizations of reference graphs, for tests only: numpy
never feeds a verdict, and the certifier does not depend on it."""

import math

import numpy as np

from srgcert.params import derive_spectrum
from srgcert.oracle import AdjacencyMatrix, srg_parameters


def to_numpy(g: AdjacencyMatrix) -> np.ndarray:
    """The 0/1 adjacency matrix of g."""
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        for w in range(g.n):
            if g.adjacent(u, w):
                a[u, w] = 1
    return a


def realize_representation(g: AdjacencyMatrix, tol: float = 1e-8) -> np.ndarray:
    """Approximate unit vectors of the eigenspace representation.

    Row u is x_u in R^g, obtained by scaling the orthonormal eigenbasis of
    the negative eigenvalue s so that the Gram matrix is (v/g) P with P the
    eigenprojector; pairwise inner products then match p and q within tol.
    """
    params = srg_parameters(g)
    spectrum = derive_spectrum(params)
    if spectrum is None:
        raise ValueError("irrational eigenvalues: no rational representation")
    a = to_numpy(g).astype(float)
    eigvals, eigvecs = np.linalg.eigh(a)
    mask = np.abs(eigvals - spectrum.s) < 1e-6
    if int(mask.sum()) != spectrum.g:
        raise ValueError(
            f"eigenspace dimension {int(mask.sum())} != expected {spectrum.g}"
        )
    basis = eigvecs[:, mask]
    vectors = basis * math.sqrt(params.v / spectrum.g)
    gram = vectors @ vectors.T
    p = spectrum.s / params.k
    q = -(1 + spectrum.s) / (params.v - 1 - params.k)
    for u in range(params.v):
        if abs(gram[u, u] - 1.0) > tol:
            raise ValueError("representation vectors are not unit length")
        for w in range(u + 1, params.v):
            want = p if g.adjacent(u, w) else q
            if abs(gram[u, w] - want) > tol:
                raise ValueError("representation inner products drift beyond tolerance")
    return vectors
