"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from srgcert.cli import main
from srgcert.gramtest import Verdict, alpha_min, decide, scaled_value
from srgcert.params import SrgParams, classical_feasibility, derive_spectrum, repr_constants
from srgcert.serialize import certificate_json, dumps
from srgcert.oracle import (
    REFERENCE_GRAPHS,
    construct,
    srg_parameters,
    validate,
)
from conftest import complement_params
from support import rep_fractions
from numeric import realize_representation
from test_serialize import _dict_certificate
from wsplit_oracle import gram3_per_m, gram3_per_w


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_main_tuple(capsys):
    with criterion(1, "(460,153,32,60) Nonexistent with pinned bounds"):
        t0 = time.perf_counter()
        cert = decide(SrgParams(460, 153, 32, 60))
        assert cert.verdict is Verdict.NONEXISTENT
        assert cert.k4_bound.lower >= 228102
        matches_round_figure = cert.k4_bound.lower == 228111
        assert (cert.m_range.lower, cert.m_range.upper) == (39, 39)
        assert Fraction(*cert.m_upper_pair()) == Fraction(2416, 61)
        assert len(cert.witnesses) == 1
        assert Fraction(cert.witnesses[0].region_max, cert.witnesses[0].den) < 0
        params = cert.params
        rep = repr_constants(params, cert.spectrum)
        det14 = _gram3_det(params, rep, w=14, m=39)
        assert scaled_value(*det14, 42, 3) == Fraction(-270848, 132651)
        assert main(["check", "460", "153", "32", "60"]) == 10
        capsys.readouterr()
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"took {elapsed:.1f}s"
        print(
            f"  k4 bound {cert.k4_bound.lower} "
            f"({'equals' if matches_round_figure else 'differs from'} 228111 exactly), "
            f"witness at w={cert.witnesses[0].w}, {elapsed:.2f}s"
        )


def test_criterion_2_additional_tuples():
    with criterion(2, "(5929,1482,275,402) and (6205,858,47,130) Nonexistent"):
        t0 = time.perf_counter()
        cert_a = decide(SrgParams(5929, 1482, 275, 402))
        cert_b = decide(SrgParams(6205, 858, 47, 130))
        assert cert_a.verdict is Verdict.NONEXISTENT
        assert cert_b.verdict is Verdict.NONEXISTENT
        # 4805 and 113 are the per-edge 4-clique bounds: each edge
        # of a common-neighborhood subgraph is one 4-clique through the base
        # edge, so the averaging bound on the densest subgraph carries them
        assert (cert_a.m_range.lower, cert_a.m_range.upper) == (4805, 4805)
        assert (cert_b.m_range.lower, cert_b.m_range.upper) == (113, 113)
        # global 4-clique bounds, frozen from the exact optimization
        assert cert_a.k4_bound.lower == 3517648488
        assert cert_b.k4_bound.lower == 49836574
        assert len(cert_a.witnesses) == 1 and len(cert_b.witnesses) == 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 1800, f"took {elapsed:.1f}s"
        print(
            f"  per-edge bounds {cert_a.m_range.lower} and {cert_b.m_range.lower}, "
            f"witnesses at w={cert_a.witnesses[0].w}, w={cert_b.witnesses[0].w}, "
            f"{elapsed:.1f}s combined"
        )


def test_criterion_3_krein_boundary_and_subscan(capsys):
    with criterion(3, "q22^2 = 0 detection and subconstituent scan"):
        assert classical_feasibility(SrgParams(2950, 891, 204, 297)).krein_q22_zero is True
        assert classical_feasibility(SrgParams(460, 153, 32, 60)).krein_q22_zero is False
        assert main(["subscan", "891", "204"]) == 0
        assert capsys.readouterr().out.strip() == "NONE"


# parameters of famous existing graphs; several have vertex vectors forming a
# spherical design, where the degree-4 vertex sum S_vv vanishes
FAMOUS_GRAPHS = {
    "Clebsch": (16, 5, 0, 2),
    "Schlafli": (27, 16, 10, 8),
    "Hoffman-Singleton": (50, 7, 0, 1),
    "Gewirtz": (56, 10, 0, 2),
    "M22": (77, 16, 0, 4),
    "Higman-Sims": (100, 22, 0, 6),
    "McLaughlin": (275, 112, 30, 56),
    "equiangular-276": (276, 140, 58, 84),
    "triangular(8)": (28, 12, 6, 4),
}

SOUNDNESS_TUPLES = {
    "petersen": (10, 3, 0, 1),
    "paley(13)": (13, 6, 2, 3),
    "paley(17)": (17, 8, 3, 4),
    "triangular(7)": (21, 10, 5, 4),
    "rook(4)": (16, 6, 2, 2),
    **FAMOUS_GRAPHS,
    **{f"complement of {name}": complement_params(tup) for name, tup in FAMOUS_GRAPHS.items()},
}


def test_criterion_4_soundness():
    with criterion(4, "decide never rejects an existing reference graph"):
        for label, tup in SOUNDNESS_TUPLES.items():
            cert = decide(SrgParams(*tup))
            assert cert.verdict is not Verdict.NONEXISTENT, label
            if derive_spectrum(cert.params) is None:
                # conference graphs leave the rational pipeline
                assert cert.verdict is Verdict.NOT_APPLICABLE, label
            else:
                assert cert.verdict is Verdict.INCONCLUSIVE, label


# the Nonexistent verdicts among the primitive classically feasible tuples with
# integral spectrum and v <= 300; a change to this list must be justified
NONEXISTENT_UP_TO_300: tuple[tuple[int, int, int, int], ...] = ()


def _gram3_det(params, rep, w, m):
    """The w-split determinant's coefficients (c00, c10, c01, c20) as Fractions."""
    h = gram3_per_m(params, rep, m)
    return tuple(Fraction(x, h.den) for x in (*gram3_per_w(h, w), h.n01, h.n20))


def _primitive_feasible_tuples(max_v):
    for v in range(5, max_v + 1):
        for k in range(2, v - 1):
            for lam in range(k):
                num, den = k * (k - lam - 1), v - k - 1
                if num % den != 0 or not 0 < num // den < k:
                    continue
                params = SrgParams(v, k, lam, num // den)
                report = classical_feasibility(params)
                if report.passed and report.spectrum is not None:
                    yield params


def test_golden_nonexistent_list_up_to_300():
    tuples = list(_primitive_feasible_tuples(300))
    assert len(tuples) == 648
    found = tuple(
        (p.v, p.k, p.lam, p.mu) for p in tuples if decide(p).verdict is Verdict.NONEXISTENT
    )
    assert found == NONEXISTENT_UP_TO_300


# SHA-256 of each certificate_json as one compact line per decision over the
# 648 tuples above; pins every K4 rational, m root and witness
GOLDEN_CERTIFICATES_SHA256 = "53972e3830acee4425ccbd0d409e58f549e5e925bfeed23c595231b578e977b5"


def test_golden_certificate_bytes_at_scale():
    digest = hashlib.sha256()
    for params in _primitive_feasible_tuples(300):
        cert = decide(params)
        text = certificate_json(cert)
        assert text == json.dumps(_dict_certificate(cert), indent=2), params
        digest.update((dumps(json.loads(text)) + "\n").encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_CERTIFICATES_SHA256


def test_criterion_5_oracle_equivalence():
    with criterion(5, "derived profile equals brute-force census"):
        t0 = time.perf_counter()
        profiled = 0
        for name, order in REFERENCE_GRAPHS:
            profiled += "profile-ok" in validate(construct(name, order))
        elapsed = time.perf_counter() - t0
        assert profiled >= 3
        assert elapsed < 120, f"took {elapsed:.1f}s"
        print(f"  {profiled} integer-spectrum references, {elapsed:.1f}s")


def test_criterion_6_degree_sum_lemma():
    with criterion(6, "degree-sum threshold bound on 200 random graphs"):
        rng = random.Random(20240607)
        graphs = 0
        while graphs < 200:
            n = rng.randint(2, 20)
            density = rng.choice([0.15, 0.35, 0.55, 0.8])
            degs = [0] * n
            m = 0
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < density:
                        degs[a] += 1
                        degs[b] += 1
                        m += 1
            degs.sort(reverse=True)
            prefix = 0
            for w in range(1, n + 1):
                prefix += degs[w - 1]
                assert prefix >= alpha_min(n, m, w), (n, m, w)
            graphs += 1
        print(f"  {graphs} graphs, zero violations")


def test_criterion_7_representation_sanity():
    with criterion(7, "realized vectors and exact row-sum identity"):
        for name, order in [("petersen", None), ("rook", 4)]:
            g = construct(name, order)
            params = srg_parameters(g)
            spectrum = derive_spectrum(params)
            vectors = realize_representation(g)  # verifies p, q within 1e-8
            gram = vectors @ vectors.T
            p = spectrum.s / params.k
            q = -(1 + spectrum.s) / (params.v - 1 - params.k)
            for u in range(params.v):
                for w in range(u + 1, params.v):
                    want = p if g.adjacent(u, w) else q
                    assert abs(gram[u, w] - want) < 1e-8
        tested = [
            (460, 153, 32, 60),
            (5929, 1482, 275, 402),
            (6205, 858, 47, 130),
            (2950, 891, 204, 297),
            (10, 3, 0, 1),
            (16, 6, 2, 2),
            (21, 10, 5, 4),
            (25, 12, 5, 6),
            (9, 4, 1, 2),
        ]
        for tup in tested:
            params = SrgParams(*tup)
            rep = repr_constants(params, derive_spectrum(params))
            p, q = rep_fractions(rep)
            assert 1 + params.k * p + (params.v - 1 - params.k) * q == 0


def _scan_rows():
    rows = ["v,k,lambda,mu"]
    for v in range(5, 100):
        for k in range(2, v - 1):
            for lam in range(k):
                num, den = k * (k - lam - 1), v - k - 1
                if den <= 0 or num % den != 0:
                    continue
                mu = num // den
                if not 0 < mu <= k or mu == k:
                    continue
                if v > 40:
                    continue
                rows.append(f"{v},{k},{lam},{mu}")
                if len(rows) > 40:
                    return rows
    return rows


def test_criterion_8_scan_determinism(tmp_path, capsys):
    with criterion(8, "byte-identical scan output across runs"):
        rows = _scan_rows()
        # pad with classically infeasible rows up to exactly 50 data rows
        filler = 5
        while len(rows) < 51:
            rows.append(f"{filler * 7},3,1,1")
            filler += 1
        assert len(rows) == 51  # header + 50 rows
        csv_path = tmp_path / "scan50.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out1, out2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
        assert main(["scan", str(csv_path), "--json-lines", "--jobs", "2", "--output", str(out1)]) == 0
        assert main(["scan", str(csv_path), "--json-lines", "--jobs", "2", "--output", str(out2)]) == 0
        capsys.readouterr()
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert len(b1.splitlines()) == 50
        print(f"  50 rows, {len(b1)} bytes, identical")
