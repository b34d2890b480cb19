import json
from fractions import Fraction

import pytest

from srgcert import SrgParams, decide
from srgcert.serialize import (
    certificate_to_json,
    certificate_to_text,
    dumps,
    rational_to_json,
    scan_row_to_json,
)

ROUND_TRIP_TUPLES = [
    (460, 153, 32, 60),   # Nonexistent with witness
    (2950, 891, 204, 297),  # Nonexistent by empty window
    (16, 6, 2, 2),        # Inconclusive
    (10, 3, 1, 1),        # InfeasibleClassical
    (5, 2, 0, 1),         # NotApplicable
    (6, 4, 2, 4),         # degenerate family note
]


def test_rational_codec():
    assert rational_to_json(Fraction(-31, 153)) == {"num": "-31", "den": "153"}
    assert rational_to_json(None) is None


def _rational(obj):
    return None if obj is None else Fraction(int(obj["num"]), int(obj["den"]))


@pytest.mark.parametrize("tup", ROUND_TRIP_TUPLES)
def test_certificate_round_trip(tup):
    """The encoding survives a JSON text cycle unchanged and keeps every
    exact rational of the certificate."""
    cert = decide(SrgParams(*tup))
    encoded = certificate_to_json(cert)
    assert json.loads(json.dumps(encoded)) == encoded
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
    a = dumps(certificate_to_json(decide(SrgParams(460, 153, 32, 60))))
    b = dumps(certificate_to_json(decide(SrgParams(460, 153, 32, 60))))
    assert a == b


def test_certificate_text_mentions_key_quantities():
    text = certificate_to_text(decide(SrgParams(460, 153, 32, 60)))
    assert "K4 >= 228111" in text
    assert "39 <= m <= 39" in text
    assert "2416/61" in text
    assert "verdict: Nonexistent" in text


def test_scan_row_json_has_no_timing():
    row = scan_row_to_json(decide(SrgParams(16, 6, 2, 2)))
    assert "elapsed" not in dumps(row)


def test_scan_row_json_fields():
    row = scan_row_to_json(decide(SrgParams(460, 153, 32, 60)))
    assert dumps(row) == (
        '{"params":{"v":460,"k":153,"lambda":32,"mu":60},"verdict":"Nonexistent",'
        '"k4_lower":228111,"m_range":{"lower":39,"upper":39},"witness_w":13,"krein_q22_zero":false}'
    )
