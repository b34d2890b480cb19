"""JSON and text output of certificates and scan rows.

This module only writes.  Rationals are serialized as {"num": "...",
"den": "..."} decimal strings so no precision is lost, reduced from integer
pairs as Fraction reduces them; the schema carries a version field.  A
certificate is written from fixed `%` templates built at import from one key
skeleton each, so key order is fixed and no floats appear.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .gramtest import Certificate

SCHEMA_VERSION = "1"
dumps = json.JSONEncoder(separators=(",", ":")).encode  # compact deterministic JSON string


def _template(skeleton, depth: int) -> str:
    """skeleton's indented JSON for a value depth levels deep, each "%s" a bare slot."""
    return json.dumps(skeleton, indent=2).replace('"%s"', "%s").replace("\n", "\n" + "  " * depth)


def _slots(*keys: str) -> dict:
    return dict.fromkeys(keys, "%s")


# one rational template per depth; "%d" keeps its quotes, as rationals are decimal strings
_RATIONAL = [_template({"num": "%d", "den": "%d"}, depth) for depth in range(4)]
_CERTIFICATE = _template({
    "schema": SCHEMA_VERSION, "params": _slots("v", "k", "lambda", "mu"), "verdict": "%s",
    "feasibility": _slots("identity_ok", "integrality_ok", "krein_ok", "absolute_bound_ok", "krein_q22_zero"),
    **_slots("spectrum", "representation", "k4_bound", "m_range", "m_upper_exact", "witnesses", "notes"),
}, 0)
_SPECTRUM, _REPRESENTATION, _M_RANGE = (_template(_slots(*keys), 1) for keys in ("rsfg", "pqd", ("lower", "upper")))
_K4_BOUND = _template({**_slots("lower", "optimal_a"), "a_quadratic": ["%s"] * 3, "k4_quadratic": ["%s"] * 3,
                       **_slots("raw_bound"), "informative": True}, 1)
_WITNESS = _template({**_slots("m", "w", "alpha_min", "region_max_det"), "region_max_at": ["%s"] * 2}, 2)
_BOOL = {True: "true", False: "false"}
_OK = {True: "ok", False: "FAILED"}


def _reduced(pair: tuple[int, int]) -> tuple[int, int]:
    """num/den in lowest terms with the sign on the numerator, as Fraction keeps it."""
    num, den = pair
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _rational(pair: tuple[int, int] | None, depth: int) -> str:
    return "null" if pair is None else _RATIONAL[depth] % _reduced(pair)


def _str(pair: tuple[int, int] | None) -> str:
    """pair as str() writes its Fraction: n/d, or n where d is 1; None as None."""
    num, den = (None, 1) if pair is None else _reduced(pair)
    return f"{num}/{den}" if den != 1 else str(num)


def _list(items: list[str]) -> str:  # a top-level list of items already written as JSON
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def certificate_json(cert: Certificate) -> str:
    """The certificate as the bytes json.dumps(..., indent=2) writes for it:
    ints, bools and None as dumps() writes them, strings through its escaper."""
    p, feas, spec, rep, k4, rng = cert.params, cert.feasibility, cert.spectrum, cert.rep, cert.k4_bound, cert.m_range
    return _CERTIFICATE % (
        p.v, p.k, p.lam, p.mu, encode_basestring_ascii(cert.verdict.value),
        *[_BOOL[x] for x in (feas.identity_ok, feas.integrality_ok, feas.krein_ok, feas.absolute_bound_ok,
                             feas.krein_q22_zero)],
        "null" if spec is None else _SPECTRUM % (spec.r, spec.s, spec.f, spec.g),
        "null" if rep is None else _REPRESENTATION % (
            _rational((rep.P, rep.D), 2), _rational((rep.Q, rep.D), 2), rep.d),
        "null" if k4 is None else _K4_BOUND % (
            k4.lower, _rational(k4.optimal_a_pair(), 2), *[_rational(c, 3) for c in k4.quadratic_pairs()],
            _rational(k4.raw_bound_pair(), 2)),
        "null" if rng is None else _M_RANGE % (rng.lower, rng.upper),
        _rational(cert.m_upper_pair(), 1),
        _list([_WITNESS % (w.m, w.w, w.alpha_min, _rational((w.region_max, w.den), 3), *w.region_max_at)
               for w in cert.witnesses]),
        _list([encode_basestring_ascii(note) for note in cert.notes]),
    )


def certificate_to_text(cert: Certificate) -> str:
    """Human-readable pipeline transcript."""
    p, feas, spec, rep, k4, rng = cert.params, cert.feasibility, cert.spectrum, cert.rep, cert.k4_bound, cert.m_range
    lines = [
        f"parameters: v={p.v} k={p.k} lambda={p.lam} mu={p.mu}",
        f"counting identity: {_OK[feas.identity_ok]}",
        "spectrum: no integer eigenvalues" if spec is None else
        f"spectrum: r={spec.r} (x{spec.f}), s={spec.s} (x{spec.g})",
        f"integrality: {_OK[feas.integrality_ok]}",
        f"krein: {_OK[feas.krein_ok]}" + (" (q22^2 = 0)" if feas.krein_q22_zero else ""),
        f"absolute bound: {_OK[feas.absolute_bound_ok]}",
    ]
    if rep is not None:
        lines.append(f"representation: p = {_str((rep.P, rep.D))}, q = {_str((rep.Q, rep.D))}, dimension {rep.d}")
    if k4 is not None:
        lines.append(f"4-cliques: K4 >= {k4.lower} (exact {_str(k4.raw_bound_pair())},"
                     f" optimal a = {_str(k4.optimal_a_pair())})")
    if rng is not None:
        exact = f" (2x2 Gram bound {_str(upper)})" if (upper := cert.m_upper_pair()) is not None else ""
        lines.append(f"max common-neighborhood edges: {rng.lower} <= m <= {rng.upper}{exact}")
        lines += ["empty window: contradiction"] * rng.is_empty
    lines += [f"w-split: m={w.m} contradicted at w={w.w} (alpha >= {w.alpha_min}, max det = "
              f"{_str((w.region_max, w.den))} at (alpha,beta)={w.region_max_at})" for w in cert.witnesses]
    lines += [f"note: {note}" for note in cert.notes]
    lines.append(f"verdict: {cert.verdict.value}")
    return "\n".join(lines)


# Every field but the verdict is an int, None or a bool, and the Verdict values
# are ASCII with no quote or backslash: on these the template writes dumps()'s bytes.
_SCAN_ROW_JSON = ('{"params":{"v":%d,"k":%d,"lambda":%d,"mu":%d},"verdict":"%s","k4_lower":%s,'
                  '"m_range":%s,"witness_w":%s,"krein_q22_zero":%s}\n')


def scan_row(cert: Certificate, json_lines: bool, elapsed_ms: int) -> tuple[str, str]:
    """The verdict's name and one scan output line, newline included.  Only
    the table line carries the row's wall time, so JSON-lines output stays
    byte-deterministic."""
    p, feas, verdict, _, _, k4, rng, witnesses, _ = cert
    name = verdict._value_  # the enum's value property costs ten times this
    k4 = None if k4 is None else k4.lower
    wit = witnesses[0].w if witnesses else None
    if json_lines:
        return name, _SCAN_ROW_JSON % (
            p.v, p.k, p.lam, p.mu, name,
            "null" if k4 is None else k4,
            "null" if rng is None else '{"lower":%d,"upper":%d}' % (rng.lower, rng.upper),
            "null" if wit is None else wit,
            _BOOL[feas.krein_q22_zero],
        )
    return name, (
        f"({p.v},{p.k},{p.lam},{p.mu}): {name} k4>={'-' if k4 is None else k4}"
        f" m={'-' if rng is None else f'[{rng.lower},{rng.upper}]'} w={'-' if wit is None else wit} [{elapsed_ms}ms]\n"
    )


def exact_digits(write, *args):
    """write(*args) with Python's limit on the decimal digits of an int
    (sys.set_int_max_str_digits, 4300 by default) lifted for the call only:
    the input of a huge tuple stays within the limit, its certificate need not."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return write(*args)
    finally:
        sys.set_int_max_str_digits(limit)
