"""Benchmark inputs and the benchmark's own classical screens.

Nothing here imports srgcert: the screens are the closed-form textbook
conditions, written apart from the program so that scan verdicts can be
checked against them.  Running this file rewrites the committed corpora:

    python3 bench/corpus.py

The output is deterministic; there is no randomness anywhere in it.
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIR = os.path.join(HERE, "corpus")

FEASIBLE_MAX_V = 120
SCREEN_MAX_V = 100
FAMILY_MAX_V = 300  # families T(n), L2(n), Paley(q) are listed up to here

INFEASIBLE = "infeasible"
CONFERENCE = "conference"
FEASIBLE = "feasible"


def complement(t):
    v, k, lam, mu = t
    return (v, v - k - 1, v - 2 - 2 * k + mu, v - 2 * k + lam)


def _prime_power(q: int) -> bool:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


FAMILIES = {
    "triangular graph T({})": lambda n: (n * (n - 1) // 2, 2 * (n - 2), n - 2, 4),
    "lattice graph L2({})": lambda n: (n * n, 2 * (n - 1), n - 2, 2),
    "Paley graph P({})": lambda q: (q, (q - 1) // 2, (q - 5) // 4, (q - 1) // 4),
}
FAMILY_ORDERS = {
    "triangular graph T({})": range(5, FAMILY_MAX_V),
    "lattice graph L2({})": range(3, FAMILY_MAX_V),
    "Paley graph P({})": [q for q in range(5, FAMILY_MAX_V + 1, 4) if _prime_power(q)],
}
SPORADIC = {
    (10, 3, 0, 1): "Petersen graph",
    (16, 5, 0, 2): "Clebsch graph",
    (27, 16, 10, 8): "Schlaefli graph",
    (50, 7, 0, 1): "Hoffman-Singleton graph",
    (56, 10, 0, 2): "Gewirtz graph",
    (77, 16, 0, 4): "M22 graph",
    (100, 22, 0, 6): "Higman-Sims graph",
    (275, 112, 30, 56): "McLaughlin graph",
    (276, 140, 58, 84): "graph of the 276 equiangular lines in R^23",
}


def _with_complement(t, source):
    return [(t, source), (complement(t), f"complement of {source}")]


def family_members(name: str):
    """(tuple, source) of a family's members with v <= FAMILY_MAX_V, in order."""
    for n in FAMILY_ORDERS[name]:
        t = FAMILIES[name](n)
        if t[0] > FAMILY_MAX_V:
            break
        yield t, name.format(n)


def known_graphs() -> dict[tuple[int, int, int, int], str]:
    """Parameters of graphs known to exist, each with where it comes from:
    the sporadic graphs, the families up to FAMILY_MAX_V, and complements.

    Complete multipartite graphs (mu = k) are not listed: exists() accepts
    every classically feasible imprimitive tuple instead.
    """
    found: dict[tuple[int, int, int, int], str] = {}
    pairs = [p for name in FAMILIES for t, src in family_members(name) for p in _with_complement(t, src)]
    pairs += [p for t, src in SPORADIC.items() for p in _with_complement(t, src)]
    for t, source in pairs:
        if 0 < t[3] < t[1]:  # drops the complements of imprimitive members
            found.setdefault(t, source)
    return found


def spectrum(t):
    """(r, s, f, g): the eigenvalues r > s, roots of x^2 - (lam-mu)x - (k-mu),
    with multiplicities f = (-k - s(v-1))/(r-s) and g = v-1-f; None unless
    all four are integers and f, g >= 0."""
    v, k, lam, mu = t
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc or (lam - mu + root) % 2:
        return None
    r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
    f, rem = divmod(-k - s * (v - 1), r - s)
    if rem or f < 0 or f > v - 1:
        return None
    return r, s, f, v - 1 - f


def is_conference(t) -> bool:
    """Irrational eigenvalues with f = g = (v-1)/2: 2k = v-1, mu = (v-1)/4,
    lam = mu-1, and v not a square."""
    v, k, lam, mu = t
    return 2 * k == v - 1 and 4 * mu == v - 1 and lam == mu - 1 and math.isqrt(v) ** 2 != v


def classify(t) -> str:
    """INFEASIBLE, CONFERENCE or FEASIBLE for a tuple satisfying the
    counting identity, by the classical screens: an integral spectrum
    (or the conference case), the Krein conditions
    (r+1)(k+r+2rs) <= (k+r)(s+1)^2 and (s+1)(k+s+2rs) <= (k+s)(r+1)^2, and
    for primitive tuples (mu < k) the absolute bound v <= f(f+3)/2,
    v <= g(g+3)/2.  Complete multipartite graphs exist for every imprimitive
    tuple with an integral spectrum."""
    if is_conference(t):
        return CONFERENCE
    spec = spectrum(t)
    if spec is None:
        return INFEASIBLE
    v, k, lam, mu = t
    r, s, f, g = spec
    if mu == k:
        return FEASIBLE
    if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2:
        return INFEASIBLE
    if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2:
        return INFEASIBLE
    if 2 * v > f * (f + 3) or 2 * v > g * (g + 3):
        return INFEASIBLE
    return FEASIBLE


def exists(t) -> bool:
    """True for tuples of graphs known to exist."""
    return t in KNOWN or (t[3] == t[1] and classify(t) == FEASIBLE)


def identity_tuples(max_v: int):
    """Every (v, k, lam, mu) with v <= max_v, 0 < k < v-1, 0 <= lam < k,
    0 < mu <= k and k(k-lam-1) = (v-k-1)mu, in lexicographic order."""
    for v in range(3, max_v + 1):
        for k in range(1, v - 1):
            for lam in range(k):
                num = k * (k - lam - 1)
                if num % (v - k - 1) == 0 and 0 < num // (v - k - 1) <= k:
                    yield (v, k, lam, num // (v - k - 1))


KNOWN = known_graphs()


def feasible_corpus() -> list[tuple[tuple[int, int, int, int], str]]:
    """Every classically feasible primitive tuple with v <= FEASIBLE_MAX_V,
    conference tuples included, then known graphs above that cut-off: the
    sporadic ones and each family's first member, with complements.  The
    families' later members are left out because their complements are
    slow high-lambda rows (those up to v = 300 would add about 8 s a pass)."""
    rows = [
        (t, KNOWN.get(t, ""))
        for t in identity_tuples(FEASIBLE_MAX_V)
        if t[3] < t[1] and classify(t) != INFEASIBLE
    ]
    above = [t for t in SPORADIC if t[0] > FEASIBLE_MAX_V]
    for name in FAMILIES:
        above.append(next(t for t, _ in family_members(name) if t[0] > FEASIBLE_MAX_V))
    extra = sorted({c for t in above for c in (t, complement(t)) if c in KNOWN})
    return rows + [(t, KNOWN[t]) for t in extra]


def screen_corpus() -> list[tuple[tuple[int, int, int, int], str]]:
    """Every tuple with v <= SCREEN_MAX_V that satisfies the counting identity."""
    return [(t, KNOWN.get(t, "")) for t in identity_tuples(SCREEN_MAX_V)]


def write_csv(path: str, rows, title: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {title}\n# generated by bench/corpus.py; do not edit\nv,k,lambda,mu\n")
        for t, source in rows:
            if source:
                out.write(f"# {source}\n")
            out.write(",".join(map(str, t)) + "\n")


def read_csv(path: str) -> list[tuple[int, int, int, int]]:
    """Data rows of a corpus file, in order."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#") and line != "v,k,lambda,mu":
                rows.append(tuple(int(x) for x in line.split(",")))
    return rows


CORPORA = {
    "feasible": (feasible_corpus, f"classically feasible primitive tuples, v <= {FEASIBLE_MAX_V}, "
                 "then known graphs above it"),
    "screen": (screen_corpus, f"every tuple satisfying the counting identity, v <= {SCREEN_MAX_V}"),
}


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS_DIR, f"{name}.csv")


def main() -> int:
    os.makedirs(CORPUS_DIR, exist_ok=True)
    for name, (make, title) in CORPORA.items():
        rows = make()
        write_csv(corpus_path(name), rows, title)
        make_up: dict[str, int] = {}
        for t, _ in rows:
            cls = classify(t)
            make_up[cls] = make_up.get(cls, 0) + 1
        known = sum(1 for t, _ in rows if exists(t))
        print(f"{name}: {len(rows)} rows, {dict(sorted(make_up.items()))}, {known} known to exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
