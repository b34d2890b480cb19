import json
from fractions import Fraction

import pytest

from srgcert import MRange, SrgParams, Verdict, decide
from srgcert.serialize import (
    ScanRow,
    certificate_from_json,
    certificate_to_json,
    certificate_to_text,
    dumps,
    rational_from_json,
    rational_to_json,
    scan_row_from_json,
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
    assert rational_from_json({"num": "-31", "den": "153"}) == Fraction(-31, 153)
    assert rational_to_json(None) is None
    assert rational_from_json(None) is None


@pytest.mark.parametrize("tup", ROUND_TRIP_TUPLES)
def test_certificate_round_trip(tup):
    cert = decide(SrgParams(*tup))
    encoded = certificate_to_json(cert)
    # must survive an actual serialization cycle, not just dict copying
    decoded = certificate_from_json(json.loads(json.dumps(encoded)))
    assert decoded == cert


def test_certificate_json_is_deterministic():
    a = dumps(certificate_to_json(decide(SrgParams(460, 153, 32, 60))))
    b = dumps(certificate_to_json(decide(SrgParams(460, 153, 32, 60))))
    assert a == b


def test_certificate_rejects_unknown_schema():
    encoded = certificate_to_json(decide(SrgParams(16, 6, 2, 2)))
    encoded["schema"] = "0"
    with pytest.raises(ValueError):
        certificate_from_json(encoded)


def test_certificate_text_mentions_key_quantities():
    text = certificate_to_text(decide(SrgParams(460, 153, 32, 60)))
    assert "K4 >= 228111" in text
    assert "39 <= m <= 39" in text
    assert "2416/61" in text
    assert "verdict: Nonexistent" in text


def test_scan_row_round_trip():
    row = ScanRow(
        params=SrgParams(460, 153, 32, 60),
        verdict=Verdict.NONEXISTENT,
        k4_lower=228111,
        m_range=MRange(39, 39),
        witness_w=13,
        krein_q22_zero=False,
    )
    back = scan_row_from_json(json.loads(json.dumps(scan_row_to_json(row))))
    assert back.params == row.params
    assert back.verdict is row.verdict
    assert back.k4_lower == row.k4_lower
    assert back.m_range == row.m_range
    assert back.witness_w == row.witness_w
    assert back.krein_q22_zero == row.krein_q22_zero


def test_scan_row_json_has_no_timing():
    row = ScanRow(
        params=SrgParams(16, 6, 2, 2),
        verdict=Verdict.INCONCLUSIVE,
        k4_lower=0,
        m_range=MRange(0, 1),
        witness_w=None,
        krein_q22_zero=False,
    )
    assert "elapsed" not in dumps(scan_row_to_json(row))
