import dataclasses
import json
from fractions import Fraction

import pytest

from srgcert import SrgParams, Verdict, decide
from srgcert.gramtest import WSplitWitness
from srgcert.serialize import (
    SCHEMA_VERSION,
    certificate_json,
    certificate_to_text,
    dumps,
    scan_row_line,
)

ROUND_TRIP_TUPLES = [
    (460, 153, 32, 60),   # Nonexistent with witness
    (2950, 891, 204, 297),  # Nonexistent by empty window
    (16, 6, 2, 2),        # Inconclusive
    (10, 3, 1, 1),        # InfeasibleClassical
    (5, 2, 0, 1),         # NotApplicable
    (6, 4, 2, 4),         # degenerate family note
]


def _dict_rational(x):
    return None if x is None else {"num": str(x.numerator), "den": str(x.denominator)}


def _dict_certificate(cert):
    """The certificate as the dict that json.dumps(..., indent=2) wrote
    before certificate_json: the oracle for its bytes."""
    p, rep, k4 = cert.params, cert.rep, cert.k4_bound
    return {
        "schema": SCHEMA_VERSION,
        "params": {"v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu},
        "verdict": cert.verdict.value,
        "feasibility": {
            "identity_ok": cert.feasibility.identity_ok,
            "integrality_ok": cert.feasibility.integrality_ok,
            "krein_ok": cert.feasibility.krein_ok,
            "absolute_bound_ok": cert.feasibility.absolute_bound_ok,
            "krein_q22_zero": cert.feasibility.krein_q22_zero,
        },
        "spectrum": None
        if cert.spectrum is None
        else {"r": cert.spectrum.r, "s": cert.spectrum.s, "f": cert.spectrum.f, "g": cert.spectrum.g},
        "representation": None
        if rep is None
        else {"p": _dict_rational(rep.p), "q": _dict_rational(rep.q), "d": rep.d},
        "k4_bound": None
        if k4 is None
        else {
            "lower": k4.lower,
            "optimal_a": _dict_rational(k4.optimal_a),
            "a_quadratic": [_dict_rational(c) for c in k4.a_quadratic],
            "k4_quadratic": [_dict_rational(c) for c in k4.k4_quadratic],
            "raw_bound": _dict_rational(k4.raw_bound),
            "informative": k4.informative,
        },
        "m_range": None if cert.m_range is None else {"lower": cert.m_range.lower, "upper": cert.m_range.upper},
        "m_upper_exact": _dict_rational(cert.m_upper_bound),
        "witnesses": [
            {
                "m": wit.m,
                "w": wit.w,
                "alpha_min": wit.alpha_min,
                "region_max_det": _dict_rational(wit.region_max_det),
                "region_max_at": list(wit.region_max_at),
            }
            for wit in cert.witnesses
        ],
        "notes": list(cert.notes),
    }


def test_rational_codec():
    """A rational is two decimal strings, sign on the numerator; None is null."""
    cert = decide(SrgParams(460, 153, 32, 60))
    for x, want in ((Fraction(-31, 153), {"num": "-31", "den": "153"}), (None, None)):
        assert json.loads(certificate_json(dataclasses.replace(cert, m_upper_bound=x)))["m_upper_exact"] == want


def _rational(obj):
    return None if obj is None else Fraction(int(obj["num"]), int(obj["den"]))


@pytest.mark.parametrize("tup", ROUND_TRIP_TUPLES)
def test_certificate_round_trip(tup):
    """The JSON parses to the oracle's dict and keeps every exact rational
    of the certificate."""
    cert = decide(SrgParams(*tup))
    encoded = json.loads(certificate_json(cert))
    assert encoded == _dict_certificate(cert)
    assert _rational(encoded["m_upper_exact"]) == cert.m_upper_bound
    if cert.rep is not None:
        rep = encoded["representation"]
        assert (_rational(rep["p"]), _rational(rep["q"]), rep["d"]) == (cert.rep.p, cert.rep.q, cert.rep.d)
    if cert.k4_bound is not None:
        k4 = encoded["k4_bound"]
        assert _rational(k4["raw_bound"]) == cert.k4_bound.raw_bound
        assert _rational(k4["optimal_a"]) == cert.k4_bound.optimal_a
        assert tuple(map(_rational, k4["a_quadratic"] + k4["k4_quadratic"])) == (
            cert.k4_bound.a_quadratic + cert.k4_bound.k4_quadratic
        )
    assert [_rational(w["region_max_det"]) for w in encoded["witnesses"]] == [
        w.region_max_det for w in cert.witnesses
    ]


def test_certificate_json_is_deterministic():
    a = certificate_json(decide(SrgParams(460, 153, 32, 60)))
    b = certificate_json(decide(SrgParams(460, 153, 32, 60)))
    assert a == b


# notes no decision writes: a quote, a backslash, non-ASCII, a control
# character and JSON's own punctuation all go through the escaper
ODD_NOTES = ('say "no"', "back\\slash", "caf\u00e9 \u2260 \U0001f600", "bell\x01\ttab\n", ",:{}[]", "")


def test_certificate_json_bytes_on_hand_built_certificates():
    """Every verdict, with several witnesses and odd notes, gets the bytes
    json.dumps(..., indent=2) writes for the oracle's dict."""
    base = decide(SrgParams(460, 153, 32, 60))
    witnesses = base.witnesses + (
        WSplitWitness(w=0, m=-1, alpha_min=0, region_max_det=Fraction(0), region_max_at=(0, -7)),
        WSplitWitness(w=12, m=40, alpha_min=3, region_max_det=Fraction(-10**30, 7), region_max_at=(3, 12)),
    )
    for verdict in Verdict:
        cert = dataclasses.replace(base, verdict=verdict, witnesses=witnesses, notes=ODD_NOTES)
        assert certificate_json(cert) == json.dumps(_dict_certificate(cert), indent=2), verdict
        assert json.loads(certificate_json(cert))["notes"] == list(ODD_NOTES)
    for tup in ROUND_TRIP_TUPLES:  # the same verdicts with no witness, no 4-clique bound or no spectrum
        cert = dataclasses.replace(decide(SrgParams(*tup)), notes=ODD_NOTES[:1])
        assert certificate_json(cert) == json.dumps(_dict_certificate(cert), indent=2), tup


def test_certificate_text_mentions_key_quantities():
    text = certificate_to_text(decide(SrgParams(460, 153, 32, 60)))
    assert "K4 >= 228111" in text
    assert "39 <= m <= 39" in text
    assert "2416/61" in text
    assert "verdict: Nonexistent" in text


# One scan row of each shape: its JSON line, byte for byte what the compact
# encoder writes for the row as a dict, and its table line less the wall time
SCAN_ROWS = {
    (460, 153, 32, 60): (  # Nonexistent with a witness
        '{"params":{"v":460,"k":153,"lambda":32,"mu":60},"verdict":"Nonexistent",'
        '"k4_lower":228111,"m_range":{"lower":39,"upper":39},"witness_w":13,"krein_q22_zero":false}',
        "(460,153,32,60): Nonexistent k4>=228111 m=[39,39] w=13",
    ),
    (2950, 891, 204, 297): (  # Nonexistent by an empty window, lower > upper, no witness
        '{"params":{"v":2950,"k":891,"lambda":204,"mu":297},"verdict":"Nonexistent",'
        '"k4_lower":703767488,"m_range":{"lower":3214,"upper":3213},"witness_w":null,"krein_q22_zero":true}',
        "(2950,891,204,297): Nonexistent k4>=703767488 m=[3214,3213] w=-",
    ),
    (16, 6, 2, 2): (
        '{"params":{"v":16,"k":6,"lambda":2,"mu":2},"verdict":"Inconclusive",'
        '"k4_lower":0,"m_range":{"lower":0,"upper":1},"witness_w":null,"krein_q22_zero":false}',
        "(16,6,2,2): Inconclusive k4>=0 m=[0,1] w=-",
    ),
    (6, 4, 2, 4): (  # imprimitive: no 4-clique bound, no window
        '{"params":{"v":6,"k":4,"lambda":2,"mu":4},"verdict":"Inconclusive",'
        '"k4_lower":null,"m_range":null,"witness_w":null,"krein_q22_zero":false}',
        "(6,4,2,4): Inconclusive k4>=- m=- w=-",
    ),
    (10, 3, 1, 1): (
        '{"params":{"v":10,"k":3,"lambda":1,"mu":1},"verdict":"InfeasibleClassical",'
        '"k4_lower":null,"m_range":null,"witness_w":null,"krein_q22_zero":false}',
        "(10,3,1,1): InfeasibleClassical k4>=- m=- w=-",
    ),
    (5, 2, 0, 1): (
        '{"params":{"v":5,"k":2,"lambda":0,"mu":1},"verdict":"NotApplicable",'
        '"k4_lower":null,"m_range":null,"witness_w":null,"krein_q22_zero":false}',
        "(5,2,0,1): NotApplicable k4>=- m=- w=-",
    ),
}


def test_scan_row_json_has_no_timing():
    cert = decide(SrgParams(16, 6, 2, 2))
    assert scan_row_line(cert, True, 0) == scan_row_line(cert, True, 12345)
    assert scan_row_line(cert, False, 12345).endswith(" w=- [12345ms]\n")


def test_scan_row_json_fields():
    """Each row's JSON line is the compact encoder's and its table line ends
    in the wall time it is given; the rows cover every verdict."""
    for tup, (want_json, want_table) in SCAN_ROWS.items():
        cert = decide(SrgParams(*tup))
        line = scan_row_line(cert, True, 7)
        assert line == want_json + "\n", tup
        assert dumps(json.loads(line)) + "\n" == line, tup
        assert scan_row_line(cert, False, 7) == want_table + " [7ms]\n", tup
    assert {json.loads(want)["verdict"] for want, _ in SCAN_ROWS.values()} == {v.value for v in Verdict}
