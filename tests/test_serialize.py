import json
from fractions import Fraction
from pathlib import Path

import pytest

from srgcert import SrgParams, Verdict, decide, gramtest, serialize
from srgcert.gramtest import Certificate, WSplitWitness
from srgcert.serialize import (
    SCHEMA_VERSION,
    certificate_json,
    certificate_to_text,
    dumps,
    scan_row,
)

ROUND_TRIP_TUPLES = [
    (460, 153, 32, 60),   # Nonexistent with witness
    (2950, 891, 204, 297),  # Nonexistent by empty window
    (16, 6, 2, 2),        # Inconclusive
    (10, 3, 1, 1),        # InfeasibleClassical
    (5, 2, 0, 1),         # NotApplicable
    (6, 4, 2, 4),         # degenerate family note
]


def _dict_rational(pair):
    """An integer pair as the dict its Fraction wrote, None as None."""
    if pair is None:
        return None
    x = Fraction(*pair)
    return {"num": str(x.numerator), "den": str(x.denominator)}


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
        else {"p": _dict_rational((rep.P, rep.D)), "q": _dict_rational((rep.Q, rep.D)), "d": rep.d},
        "k4_bound": None
        if k4 is None
        else {
            "lower": k4.lower,
            "optimal_a": _dict_rational(k4.optimal_a_pair()),
            "a_quadratic": [_dict_rational(c) for c in k4.quadratic_pairs()[:3]],
            "k4_quadratic": [_dict_rational(c) for c in k4.quadratic_pairs()[3:]],
            "raw_bound": _dict_rational(k4.raw_bound_pair()),
            "informative": True,
        },
        "m_range": None if cert.m_range is None else {"lower": cert.m_range.lower, "upper": cert.m_range.upper},
        "m_upper_exact": _dict_rational(cert.m_upper_pair()),
        "witnesses": [
            {
                "m": wit.m,
                "w": wit.w,
                "alpha_min": wit.alpha_min,
                "region_max_det": _dict_rational((wit.region_max, wit.den)),
                "region_max_at": list(wit.region_max_at),
            }
            for wit in cert.witnesses
        ],
        "notes": list(cert.notes),
    }


def test_rational_codec():
    """A rational, given as an integer pair, is two decimal strings, sign on
    the numerator, in lowest terms, as Fraction reduces it; None is null.
    At each nesting depth the writer gives the bytes json.dumps(...,
    indent=2) writes there."""
    for pair, want in (
        ((-31, 153), {"num": "-31", "den": "153"}),
        ((6, -4), {"num": "-3", "den": "2"}),
        ((-62, -306), {"num": "31", "den": "153"}),
        ((0, 5), {"num": "0", "den": "1"}),
        ((0, -5), {"num": "0", "den": "1"}),
        ((7, 1), {"num": "7", "den": "1"}),
        (None, None),
    ):
        for depth in range(4):
            assert serialize._rational(pair, depth) == json.dumps(want, indent=2).replace("\n", "\n" + "  " * depth)
        if pair is not None:
            x = Fraction(*pair)
            assert want == {"num": str(x.numerator), "den": str(x.denominator)}
            assert serialize._str(pair) == str(x)
    assert serialize._str(None) == str(None)
    for num, den in ((3 * 10**40, 21), (-(2**200), 6 * 2**100), (5, -1), (12, 18)):
        assert serialize._str((num, den)) == str(Fraction(num, den))


def _rational(obj):
    return None if obj is None else Fraction(int(obj["num"]), int(obj["den"]))


@pytest.mark.parametrize("tup", ROUND_TRIP_TUPLES)
def test_certificate_round_trip(tup):
    """The JSON parses to the oracle's dict and keeps every exact rational
    of the certificate."""
    cert = decide(SrgParams(*tup))
    encoded = json.loads(certificate_json(cert))
    assert encoded == _dict_certificate(cert)
    upper = cert.m_upper_pair()
    assert _rational(encoded["m_upper_exact"]) == (None if upper is None else Fraction(*upper))
    if cert.rep is not None:
        rep = encoded["representation"]
        assert (_rational(rep["p"]), _rational(rep["q"]), rep["d"]) == (
            Fraction(cert.rep.P, cert.rep.D), Fraction(cert.rep.Q, cert.rep.D), cert.rep.d
        )
    if cert.k4_bound is not None:
        k4, bound = encoded["k4_bound"], cert.k4_bound
        optimal_a = bound.optimal_a_pair()
        assert _rational(k4["raw_bound"]) == Fraction(*bound.raw_bound_pair())
        assert _rational(k4["optimal_a"]) == (None if optimal_a is None else Fraction(*optimal_a))
        assert tuple(map(_rational, k4["a_quadratic"] + k4["k4_quadratic"])) == tuple(
            Fraction(*c) for c in bound.quadratic_pairs()
        )
    assert [_rational(w["region_max_det"]) for w in encoded["witnesses"]] == [
        Fraction(w.region_max, w.den) for w in cert.witnesses
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
        WSplitWitness(w=0, m=-1, alpha_min=0, region_max=0, den=5, region_max_at=(0, -7)),
        WSplitWitness(w=12, m=40, alpha_min=3, region_max=-10**30 * 3, den=21, region_max_at=(3, 12)),
    )
    for verdict in Verdict:
        cert = base._replace(verdict=verdict, witnesses=witnesses, notes=ODD_NOTES)
        assert certificate_json(cert) == json.dumps(_dict_certificate(cert), indent=2), verdict
        assert json.loads(certificate_json(cert))["notes"] == list(ODD_NOTES)
    for tup in ROUND_TRIP_TUPLES:  # the same verdicts with no witness, no 4-clique bound or no spectrum
        cert = decide(SrgParams(*tup))._replace(notes=ODD_NOTES[:1])
        assert certificate_json(cert) == json.dumps(_dict_certificate(cert), indent=2), tup


def test_certificate_text_mentions_key_quantities():
    text = certificate_to_text(decide(SrgParams(460, 153, 32, 60)))
    assert "K4 >= 228111" in text
    assert "39 <= m <= 39" in text
    assert "2416/61" in text
    assert "verdict: Nonexistent" in text


def test_certificate_text_computes_the_2x2_bound_once(monkeypatch):
    """The 2x2 Gram bound is computed on each read of the certificate's
    m_upper_pair; the transcript reads it once, and its bytes are those of
    the unpatched run."""
    cert = decide(SrgParams(460, 153, 32, 60))
    want = certificate_to_text(cert)
    calls = []
    root = gramtest._gram2_root

    def counting(params, rep):
        calls.append(params)
        return root(params, rep)

    monkeypatch.setattr(gramtest, "_gram2_root", counting)
    assert certificate_to_text(cert) == want
    assert len(calls) == 1


def test_certificate_text_writes_rationals_as_fractions_do():
    """Each rational of the transcript is written as str() writes the
    Fraction of its integer pair, on hand-built witnesses too: a zero
    maximum, one that reduces, and an unreduced p over D."""
    base = decide(SrgParams(460, 153, 32, 60))
    witnesses = base.witnesses + (
        WSplitWitness(w=0, m=-1, alpha_min=0, region_max=0, den=5, region_max_at=(0, -7)),
        WSplitWitness(w=12, m=40, alpha_min=3, region_max=-10**30 * 3, den=21, region_max_at=(3, 12)),
    )
    rep = base.rep._replace(D=2 * base.rep.D, P=2 * base.rep.P, Q=2 * base.rep.Q, S=2 * base.rep.S)
    for cert in (base._replace(witnesses=witnesses), base._replace(rep=rep), decide(SrgParams(6205, 858, 47, 130))):
        text = certificate_to_text(cert)
        k4, rep = cert.k4_bound, cert.rep
        assert f"representation: p = {Fraction(rep.P, rep.D)}, q = {Fraction(rep.Q, rep.D)}, dimension" in text
        assert f"(exact {Fraction(*k4.raw_bound_pair())}, optimal a = {Fraction(*k4.optimal_a_pair())})" in text
        assert f"(2x2 Gram bound {Fraction(*cert.m_upper_pair())})" in text
        for wit in cert.witnesses:
            assert f"max det = {Fraction(wit.region_max, wit.den)} at (alpha,beta)={wit.region_max_at}" in text


PAPER_TUPLES = [(460, 153, 32, 60), (6205, 858, 47, 130), (5929, 1482, 275, 402)]


@pytest.mark.parametrize("tup", PAPER_TUPLES)
def test_rational_pairs_read_as_the_json_writes_them(tup):
    """Every rational of a certificate, an integer pair read as a Fraction,
    has the num/den the JSON writes for it from that pair."""
    cert = decide(SrgParams(*tup))
    encoded = json.loads(certificate_json(cert))
    rep, k4, k4_json = cert.rep, cert.k4_bound, encoded["k4_bound"]
    pairs = [
        ((rep.P, rep.D), encoded["representation"]["p"]),
        ((rep.Q, rep.D), encoded["representation"]["q"]),
        (k4.optimal_a_pair(), k4_json["optimal_a"]),
        (k4.raw_bound_pair(), k4_json["raw_bound"]),
        *zip(k4.quadratic_pairs(), k4_json["a_quadratic"] + k4_json["k4_quadratic"], strict=True),
        (cert.m_upper_pair(), encoded["m_upper_exact"]),
        *zip([(w.region_max, w.den) for w in cert.witnesses], [w["region_max_det"] for w in encoded["witnesses"]],
             strict=True),
    ]
    assert len(pairs) == 11 + len(cert.witnesses)
    for pair, written in pairs:
        value = Fraction(*pair)
        assert (value.numerator, value.denominator) == (int(written["num"]), int(written["den"]))


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
    assert scan_row(cert, True, 0) == scan_row(cert, True, 12345)
    assert scan_row(cert, False, 12345)[1].endswith(" w=- [12345ms]\n")


def test_scan_row_json_fields():
    """Each row's JSON line is the compact encoder's and its table line ends
    in the wall time it is given; the rows cover every verdict."""
    for tup, (want_json, want_table) in SCAN_ROWS.items():
        cert = decide(SrgParams(*tup))
        name, line = scan_row(cert, True, 7)
        assert name == cert.verdict.value and line == want_json + "\n", tup
        assert dumps(json.loads(line)) + "\n" == line, tup
        assert scan_row(cert, False, 7) == (name, want_table + " [7ms]\n"), tup
    assert {json.loads(want)["verdict"] for want, _ in SCAN_ROWS.values()} == {v.value for v in Verdict}


def _dict_scan_row(cert):
    """The scan row's fields as the dict whose compact dumps() is its JSON
    line: the oracle for its bytes."""
    p, k4, rng, witnesses = cert.params, cert.k4_bound, cert.m_range, cert.witnesses
    return {
        "params": {"v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu},
        "verdict": cert.verdict.value,
        "k4_lower": None if k4 is None else k4.lower,
        "m_range": None if rng is None else {"lower": rng.lower, "upper": rng.upper},
        "witness_w": witnesses[0].w if witnesses else None,
        "krein_q22_zero": cert.feasibility.krein_q22_zero,
    }


def _table_row(cert, ms):
    """The table line as the dict's fields write it, '-' for each null."""
    row = _dict_scan_row(cert)
    p, k4, rng, w = row["params"], row["k4_lower"], row["m_range"], row["witness_w"]
    window = "-" if rng is None else "[%d,%d]" % (rng["lower"], rng["upper"])
    return "(%d,%d,%d,%d): %s k4>=%s m=%s w=%s [%dms]\n" % (
        p["v"], p["k"], p["lambda"], p["mu"], row["verdict"], "-" if k4 is None else k4, window,
        "-" if w is None else w, ms)


def test_scan_row_tails_on_hand_built_certificates():
    """Every verdict with krein_q22_zero false and true, four of whose eight
    pairs no bound-less corpus row reaches, on a certificate with no
    4-clique bound (a prebuilt tail) and on one with the bound (a filled
    tail): with its window, without a witness and with two, and with no
    window, which decide never writes, for small params and params past
    2**64.  The JSON line is dumps() of the row's dict plus a newline, and
    the table line is the one its fields write."""
    base = decide(SrgParams(460, 153, 32, 60))
    witnesses = base.witnesses + (WSplitWitness(w=0, m=-1, alpha_min=0, region_max=-1, den=5, region_max_at=(0, 0)),)
    checked = 0
    for params in (SrgParams(460, 153, 32, 60), SrgParams(2**70 + 3, 2**69 + 1, 2**64 + 5, 2**66)):
        for verdict in Verdict:
            for q22 in (False, True):
                feasibility = base.feasibility._replace(krein_q22_zero=q22)
                bounded = base._replace(params=params, feasibility=feasibility, verdict=verdict)
                for cert in (Certificate(params, feasibility, verdict),
                             Certificate(params, feasibility, verdict, base.spectrum, notes=("a note",)),
                             bounded._replace(witnesses=()), bounded._replace(witnesses=witnesses),
                             bounded._replace(m_range=None, witnesses=())):
                    assert scan_row(cert, True, 7) == (verdict.value, dumps(_dict_scan_row(cert)) + "\n"), cert
                    assert scan_row(cert, False, 7) == (verdict.value, _table_row(cert, 7)), cert
                    checked += 1
    assert checked == 2 * 4 * 2 * 5


def test_scan_rows_match_their_dicts_on_the_corpora():
    """Every certificate that decide gives on feasible.csv and screen.csv
    with no 4-clique bound has no window and no witness, which the prebuilt
    tails rest on; and every row's JSON line, from either tail, is dumps()
    of its dict plus a newline."""
    corpus = Path(__file__).resolve().parent.parent / "bench" / "corpus"
    boundless = []
    for name in ("feasible.csv", "screen.csv"):
        boundless.append(0)
        for line in (corpus / name).read_text(encoding="utf-8").splitlines():
            if line[:1].isdigit():
                cert = decide(SrgParams(*map(int, line.split(","))))
                if cert.k4_bound is None:
                    assert cert.m_range is None and cert.witnesses == (), line
                    boundless[-1] += 1
                assert scan_row(cert, True, 0)[1] == dumps(_dict_scan_row(cert)) + "\n", line
    assert boundless == [25, 7951]
