import math
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from srgcert import params as params_module
from srgcert.params import (
    FeasibilityReport,
    InvalidParamsError,
    SrgParams,
    Spectrum,
    _krein_numerators,
    classical_feasibility,
    derive_spectrum,
    subconstituent_scan,
)
from srgcert.oracle import construct
from numeric import to_numpy

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def test_validation_rejects_degenerate_tuples():
    with pytest.raises(InvalidParamsError):
        SrgParams(10, 0, 0, 1)
    with pytest.raises(InvalidParamsError):
        SrgParams(10, 9, 2, 1)  # complete graph
    with pytest.raises(InvalidParamsError):
        SrgParams(10, 3, 3, 1)  # lam >= k
    with pytest.raises(InvalidParamsError):
        SrgParams(10, 3, 0, 0)  # mu = 0
    with pytest.raises(InvalidParamsError):
        SrgParams(10, 3, 0, 4)  # mu > k


def _ordered_checks_error(v, k, lam, mu):
    """The message of the first of SrgParams' five range checks, in their
    order, that the tuple fails, or None: kept as the oracle of the one
    chained test that admits a tuple."""
    if not (0 < k < v):
        return f"need 0 < k < v, got k={k}, v={v}"
    if k == v - 1:
        return "k = v - 1 (complete graph) is degenerate"
    if not (0 <= lam < k):
        return f"need 0 <= lam < k, got lam={lam}, k={k}"
    if mu == 0:
        return "mu = 0 (disconnected case) is degenerate"
    if not (0 < mu <= k):
        return f"need 0 < mu <= k, got mu={mu}, k={k}"
    return None


def test_validation_matches_ordered_checks_oracle():
    """Over v <= 12 with k, lam and mu each in [-2, v + 1], SrgParams admits
    exactly the oracle's tuples and rejects every other with the oracle's
    message, which scan error records echo."""
    accepted, failed_checks = 0, set()
    for v in range(-2, 13):
        for k in range(-2, v + 2):
            for lam in range(-2, v + 2):
                for mu in range(-2, v + 2):
                    want = _ordered_checks_error(v, k, lam, mu)
                    if want is None:
                        assert SrgParams(v, k, lam, mu) == (v, k, lam, mu)
                        accepted += 1
                        continue
                    with pytest.raises(InvalidParamsError) as exc:
                        SrgParams(v, k, lam, mu)
                    assert str(exc.value) == want, (v, k, lam, mu)
                    failed_checks.add(want.split(",")[0])
    assert accepted > 500 and len(failed_checks) == 5


def test_validation_holds_on_every_construction_path():
    params = SrgParams(16, 6, 2, 2)
    with pytest.raises(InvalidParamsError):
        params._replace(k=0)
    with pytest.raises(InvalidParamsError):
        SrgParams._make((16, 15, 2, 2))
    replaced = params._replace(lam=1)
    assert type(replaced) is SrgParams and replaced == SrgParams(16, 6, 1, 2) == (16, 6, 1, 2)
    unpickled = pickle.loads(pickle.dumps(params))
    assert type(unpickled) is SrgParams and unpickled == params


def test_spectrum_target_tuple():
    sp = derive_spectrum(SrgParams(460, 153, 32, 60))
    assert sp == Spectrum(r=3, s=-31, f=414, g=45)


def test_spectrum_conference_is_none():
    # discriminant 5 is not a perfect square
    assert derive_spectrum(SrgParams(5, 2, 0, 1)) is None


def test_spectrum_matches_eigendecomposition_of_petersen():
    sp = derive_spectrum(SrgParams(10, 3, 0, 1))
    assert sp == Spectrum(r=1, s=-2, f=5, g=4)
    eigvals = np.linalg.eigvalsh(to_numpy(construct("petersen")).astype(float))
    counted = {}
    for ev in eigvals:
        key = round(float(ev))
        assert abs(ev - key) < 1e-9
        counted[key] = counted.get(key, 0) + 1
    assert counted == {3: 1, sp.r: sp.f, sp.s: sp.g}


def test_spectrum_root_identities():
    for tup in [(460, 153, 32, 60), (16, 6, 2, 2), (21, 10, 5, 4), (2950, 891, 204, 297)]:
        params = SrgParams(*tup)
        sp = derive_spectrum(params)
        assert sp is not None
        assert sp.r * sp.s == params.mu - params.k
        assert sp.r + sp.s == params.lam - params.mu
        assert 1 + sp.f + sp.g == params.v
        assert params.k + sp.f * sp.r + sp.g * sp.s == 0


def test_square_discriminant_needs_no_parity_or_zero_check():
    """Every (k, lam, mu) with k < 150, 0 <= lam < k, 0 < mu <= k and a
    square discriminant e^2 = c^2 + 4(k - mu), c = lam - mu: e = c mod 2, so
    r = (c + e)/2 is an integer; e > 0; and r = 0 exactly when mu = k.  So
    derive_spectrum needs no parity or e = 0 return, and decide no r = 0
    check beside primitivity."""
    squares = 0
    for k in range(1, 150):
        for lam in range(k):
            for mu in range(1, k + 1):
                c = lam - mu
                disc = c * c + 4 * (k - mu)
                e = math.isqrt(disc)
                if e * e != disc:
                    continue
                squares += 1
                assert (c + e) % 2 == 0 and e > 0, (k, lam, mu)
                assert (c + e == 0) == (mu == k), (k, lam, mu)
    assert squares > 50000


def test_classical_feasibility_examples():
    assert classical_feasibility(SrgParams(460, 153, 32, 60)).passed
    report = classical_feasibility(SrgParams(10, 3, 1, 1))
    assert not report.identity_ok and not report.passed
    assert classical_feasibility(SrgParams(16, 6, 2, 2)).passed


def test_classical_feasibility_never_rejects_reference_graphs(reference_graphs):
    for label, (_, params) in reference_graphs.items():
        assert classical_feasibility(params).passed, label


def test_conference_tuples_are_feasible():
    for tup in [(5, 2, 0, 1), (13, 6, 2, 3), (17, 8, 3, 4)]:
        report = classical_feasibility(SrgParams(*tup))
        assert report.spectrum is None
        assert report.passed


def test_conference_krein_identity():
    """For (4mu+1, 2mu, mu-1, mu) each eigenvalue e has e^2 + e = mu, so both
    Krein expressions 1 + p^2 e - q^2 (1+e) equal (mu-1)(4mu+1)/(4mu^2) >= 0:
    classical_feasibility passes these tuples on that identity.  Floats here
    are test-only."""
    for mu in range(1, 3000):
        v, k = 4 * mu + 1, 2 * mu
        closed = (mu - 1) * (4 * mu + 1) / (4 * mu * mu)
        assert closed >= 0
        for sign in (1, -1):
            e = (-1 + sign * math.sqrt(v)) / 2
            p, q = e / k, -(1 + e) / (v - 1 - k)
            assert abs(1 + p * p * e - q * q * (1 + e) - closed) < 1e-9, (mu, sign)
        report = classical_feasibility(SrgParams(v, k, mu - 1, mu))
        assert report.krein_ok and report.absolute_bound_ok, mu


def test_krein_q22_zero_examples():
    assert classical_feasibility(SrgParams(2950, 891, 204, 297)).krein_q22_zero is True
    assert classical_feasibility(SrgParams(460, 153, 32, 60)).krein_q22_zero is False
    # r=1, s=-2: (s+1)(k+s+2rs) = 3 while (k+s)(r+1)^2 = 4
    assert classical_feasibility(SrgParams(10, 3, 0, 1)).krein_q22_zero is False


def test_krein_q22_zero_on_clebsch_parameters():
    params = SrgParams(16, 5, 0, 2)
    assert classical_feasibility(params).krein_q22_zero is True
    _, q222 = _fraction_krein(params, derive_spectrum(params))
    assert q222 == 0


def _identity_tuples(v_max):
    """All identity-satisfying tuples with integer spectrum and v <= v_max."""
    for v in range(5, v_max + 1):
        for k in range(1, v - 1):
            for lam in range(k):
                num, den = k * (k - lam - 1), v - k - 1
                if den <= 0 or num % den != 0:
                    continue
                mu = num // den
                if not 0 < mu <= k:
                    continue
                try:
                    params = SrgParams(v, k, lam, mu)
                except InvalidParamsError:
                    continue
                sp = derive_spectrum(params)
                if sp is not None:
                    yield params, sp


def test_krein_equality_form_agrees_with_derived_parameter():
    """The integer forms of both Krein conditions must match the signs of
    the derived Krein parameters on every identity-satisfying tuple, and
    the reported q22 flag the vanishing of the q22 form."""
    checked = 0
    for params, sp in _identity_tuples(120):
        q111, q222 = _fraction_krein(params, sp)
        r, s, k = sp.r, sp.s, params.k
        lit2 = (k + s) * (r + 1) ** 2 - (s + 1) * (k + s + 2 * r * s)
        lit1 = (k + r) * (s + 1) ** 2 - (r + 1) * (k + r + 2 * r * s)
        if params.primitive:
            assert classical_feasibility(params).krein_q22_zero == (lit2 == 0)
        assert (lit2 > 0) == (q222 > 0) and (lit2 == 0) == (q222 == 0)
        assert (lit1 > 0) == (q111 > 0) and (lit1 == 0) == (q111 == 0)
        checked += 1
    assert checked > 300


def _fraction_krein(params, sp):
    """The Fraction Krein parameters the integer numerators replaced, kept
    as the oracle."""
    v, k, c = params.v, params.k, params.v - 1 - params.k
    r, s, f, g = sp.r, sp.s, sp.f, sp.g
    p1, q1 = Fraction(r, k), Fraction(-(1 + r), c)
    p2, q2 = Fraction(s, k), Fraction(-(1 + s), c)
    q111 = Fraction(f * f, v) * (1 + p1 * p1 * r - q1 * q1 * (1 + r))
    q222 = Fraction(g * g, v) * (1 + p2 * p2 * s - q2 * q2 * (1 + s))
    return q111, q222


def _corpus_params():
    """Every row of bench/corpus/screen.csv and feasible.csv."""
    rows = []
    for name in ("screen.csv", "feasible.csv"):
        lines = (CORPUS / name).read_text(encoding="utf-8").splitlines()
        rows += [SrgParams(*map(int, line.split(","))) for line in lines if line[:1].isdigit()]
    return rows


def test_screen_fields_match_formulas_by_name():
    """On every corpus row each FeasibilityReport field, read by name,
    equals a formula written here (Krein against _fraction_krein), and the
    spectrum solves 1 + f + g = v and k + f r + g s = 0 with r >= 0 > s.
    The rows disagree on krein_ok and absolute_bound_ok both ways, so two
    swapped fields fail here even where a scan row prints neither."""
    rows, disagree = _corpus_params(), set()
    assert len(rows) == 8093 + 210
    for params in rows:
        v, k, lam, mu = params
        report = classical_feasibility(params)
        assert report.identity_ok == (k * (k - lam - 1) == (v - k - 1) * mu), params
        disc = (lam - mu) ** 2 + 4 * (k - mu)
        root = math.isqrt(disc)
        spectrum = None
        if root * root == disc:
            r, s = (lam - mu + root) // 2, (lam - mu - root) // 2
            f = Fraction(-k - s * (v - 1), r - s)
            if f.denominator == 1 and 0 <= f <= v - 1:
                spectrum = Spectrum(r, s, int(f), v - 1 - int(f))
            integral = spectrum is not None
        else:
            integral = 2 * k == v - 1 and 4 * mu == v - 1 and lam == mu - 1
        assert report.spectrum == spectrum and report.integrality_ok == integral, params
        krein, absolute, q22_zero = True, True, False
        if spectrum is not None:
            r, s, f, g = report.spectrum.r, report.spectrum.s, report.spectrum.f, report.spectrum.g
            assert r >= 0 > s and 1 + f + g == v and k + f * r + g * s == 0, params
            if mu < k:
                q111, q222 = _fraction_krein(params, spectrum)
                krein, q22_zero = q111 >= 0 and q222 >= 0, q222 == 0
                absolute = v <= Fraction(f * (f + 3), 2) and v <= Fraction(g * (g + 3), 2)
        assert report.krein_ok == krein and report.krein_q22_zero == q22_zero, params
        assert report.absolute_bound_ok == absolute, params
        disagree.add((krein, absolute))
    assert {(True, False), (False, True)} <= disagree


def _general_feasibility(params):
    """classical_feasibility field by field, as it read before the reports
    of tuples with no integer spectrum were built once at import: the
    oracle of that short path."""
    v, k, lam, mu = params
    spectrum = derive_spectrum(params)
    conference = 2 * k == v - 1 and (v - 1) % 4 == 0 and mu == (v - 1) // 4 and lam == mu - 1
    integrality_ok = spectrum is not None or conference
    krein_ok = absolute_bound_ok = True
    krein_q22_zero = False
    if spectrum is not None and params.primitive:
        f, g = spectrum.f, spectrum.g
        num111, num222 = _krein_numerators(params, spectrum)
        krein_ok = num111 >= 0 and num222 >= 0
        absolute_bound_ok = 2 * v <= f * (f + 3) and 2 * v <= g * (g + 3)
        krein_q22_zero = num222 == 0
    report = FeasibilityReport(params.identity_holds(), spectrum, integrality_ok, krein_ok, absolute_bound_ok,
                               krein_q22_zero)
    return report, conference


def test_no_spectrum_reports_match_general_path():
    """On every admissible tuple with v <= 40, counting identity held or
    not, and on every corpus row, the report equals the general path's,
    field by field and by type.  A tuple with no integer spectrum gets the
    one report of its key (identity held, conference-type), shared by
    every such tuple; a conference tuple keeps the identity, so the key
    (identity fails, conference) never occurs."""
    admissible = (
        SrgParams(v, k, lam, mu)
        for v in range(3, 41) for k in range(1, v - 1) for lam in range(k) for mu in range(1, k + 1)
    )
    shared, checked = {}, 0
    for params in [*admissible, *_corpus_params()]:
        report = classical_feasibility(params)
        want, conference = _general_feasibility(params)
        assert report == want and type(report) is FeasibilityReport, params
        assert report.passed == want.passed, params
        if report.spectrum is None:
            key = report.identity_ok, conference
            assert shared.setdefault(key, report) is report, params
        else:
            assert type(report.spectrum) is Spectrum, params
        checked += 1
    assert checked == 192_660 + 8093 + 210
    assert sorted(shared) == [(False, False), (True, False), (True, True)]


def test_krein_integers_match_fraction_formula():
    """The integer numerators over v k^2 (v-1-k)^2, and the signs
    classical_feasibility reads from them, equal the Fraction formula on
    every primitive tuple with v <= 50 and an integer spectrum, counting
    identity held or not."""
    checked, identity_fails, signs = 0, 0, set()
    for v in range(5, 51):
        for k in range(2, v - 1):
            for lam in range(k):
                for mu in range(1, k):
                    params = SrgParams(v, k, lam, mu)
                    sp = derive_spectrum(params)
                    if sp is None:
                        continue
                    q111, q222 = _fraction_krein(params, sp)
                    den = v * (k * (v - 1 - k)) ** 2
                    assert tuple(Fraction(n, den) for n in _krein_numerators(params, sp)) == (q111, q222), params
                    report = classical_feasibility(params)
                    assert report.krein_ok == (q111 >= 0 and q222 >= 0), params
                    assert report.krein_q22_zero == (q222 == 0), params
                    checked += 1
                    identity_fails += not params.identity_holds()
                    signs.update(((q111 > 0) - (q111 < 0), (q222 > 0) - (q222 < 0)))
    assert checked > 1000 and identity_fails > 500 and signs == {-1, 0, 1}


def test_subconstituent_scan_examples():
    assert subconstituent_scan(891, 204) == []
    assert (0, 1) in subconstituent_scan(5, 2)
    assert (2, 2) in subconstituent_scan(16, 6)
    assert subconstituent_scan(20000002, 10000000) == []  # steps of 10^7 + 1: one lam' tried


def _per_lambda_subconstituent_scan(v1, k1):
    """Every 0 <= lam' < k1 in order, with mu' from the counting identity
    where it is an integer in 0 < mu' <= k1: the loop the stepped scan
    replaced, kept as its oracle."""
    found = []
    for lam in range(k1):
        mu, rest = divmod(k1 * (k1 - lam - 1), v1 - k1 - 1)
        if rest == 0 and 0 < mu <= k1 and classical_feasibility(SrgParams(v1, k1, lam, mu)).passed:
            found.append((lam, mu))
    return found


def test_subconstituent_scan_steps_match_per_lambda_loop():
    """The same pairs in the same order for every 1 <= k1 < v1 - 1, v1 < 90."""
    pairs = found = 0
    for v1 in range(3, 90):
        for k1 in range(1, v1 - 1):
            want = _per_lambda_subconstituent_scan(v1, k1)
            assert subconstituent_scan(v1, k1) == want, (v1, k1)
            pairs += 1
            found += len(want)
    assert pairs == 3828 and found > 100


def _loop_subconstituent_scan(v1, k1):
    """Every (lam', mu') with 0 <= lam' < k1, 0 < mu' <= k1 in order, filtered
    by the four classical flags: the double loop the scan replaced, kept as
    its oracle."""
    expected = []
    for lam in range(k1):
        for mu in range(1, k1 + 1):
            try:
                cand = SrgParams(v1, k1, lam, mu)
            except InvalidParamsError:
                continue
            rep = classical_feasibility(cand)
            if rep.identity_ok and rep.integrality_ok and rep.krein_ok and rep.absolute_bound_ok:
                expected.append((lam, mu))
    return expected


def test_subconstituent_scan_matches_independent_filter():
    pairs = 0
    for v1 in range(2, 71):
        for k1 in range(1, v1):
            assert subconstituent_scan(v1, k1) == _loop_subconstituent_scan(v1, k1), (v1, k1)
            pairs += 1
    assert pairs == 2415


def test_subconstituent_scan_tries_one_mu_per_lambda(monkeypatch):
    """The counting identity fixes mu', so a scan screens at most k1 tuples."""
    calls = []
    real = params_module.classical_feasibility
    monkeypatch.setattr(params_module, "classical_feasibility", lambda p: calls.append(p) or real(p))
    for v1, k1, tried in ((5000, 2000, 0), (16, 6, 1), (100, 22, 3)):
        calls.clear()
        subconstituent_scan(v1, k1)
        assert len(calls) == tried <= k1, (v1, k1)
        assert all(p.identity_holds() for p in calls)


def test_subconstituent_scan_rejects_bad_input():
    with pytest.raises(InvalidParamsError):
        subconstituent_scan(5, 5)
    with pytest.raises(InvalidParamsError):
        subconstituent_scan(10, 0)
