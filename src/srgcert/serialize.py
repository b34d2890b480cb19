"""JSON and text output of certificates and scan rows.

This module only writes.  Rationals are serialized as {"num": "...",
"den": "..."} decimal strings so no precision is lost; the schema carries a
version field.  A certificate is written from fixed `%` templates built at
import from one key skeleton each, so key order is fixed and no floats appear.
"""

from __future__ import annotations

import json
from fractions import Fraction
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
                       **_slots("raw_bound", "informative")}, 1)
_WITNESS = _template({**_slots("m", "w", "alpha_min", "region_max_det"), "region_max_at": ["%s"] * 2}, 2)
_BOOL = {True: "true", False: "false"}


def _rational(x: Fraction | None, depth: int) -> str:
    return "null" if x is None else _RATIONAL[depth] % (x.numerator, x.denominator)


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
        "null" if rep is None else _REPRESENTATION % (_rational(rep.p, 2), _rational(rep.q, 2), rep.d),
        "null" if k4 is None else _K4_BOUND % (
            k4.lower, _rational(k4.optimal_a, 2), *[_rational(c, 3) for c in k4.a_quadratic + k4.k4_quadratic],
            _rational(k4.raw_bound, 2), _BOOL[k4.informative]),
        "null" if rng is None else _M_RANGE % (rng.lower, rng.upper),
        _rational(cert.m_upper_bound, 1),
        _list([_WITNESS % (w.m, w.w, w.alpha_min, _rational(w.region_max_det, 3), *w.region_max_at)
               for w in cert.witnesses]),
        _list([encode_basestring_ascii(note) for note in cert.notes]),
    )


def certificate_to_text(cert: Certificate) -> str:
    """Human-readable pipeline transcript."""
    p = cert.params
    lines = [f"parameters: v={p.v} k={p.k} lambda={p.lam} mu={p.mu}"]
    feas = cert.feasibility
    lines.append(f"counting identity: {'ok' if feas.identity_ok else 'FAILED'}")
    if cert.spectrum is not None:
        s = cert.spectrum
        lines.append(f"spectrum: r={s.r} (x{s.f}), s={s.s} (x{s.g})")
    else:
        lines.append("spectrum: no integer eigenvalues")
    lines.append(f"integrality: {'ok' if feas.integrality_ok else 'FAILED'}")
    lines.append(
        f"krein: {'ok' if feas.krein_ok else 'FAILED'}"
        + (" (q22^2 = 0)" if feas.krein_q22_zero else "")
    )
    lines.append(f"absolute bound: {'ok' if feas.absolute_bound_ok else 'FAILED'}")
    if cert.rep is not None:
        lines.append(f"representation: p = {cert.rep.p}, q = {cert.rep.q}, dimension {cert.rep.d}")
    if cert.k4_bound is not None:
        b = cert.k4_bound
        extra = f" (exact {b.raw_bound}, optimal a = {b.optimal_a})" if b.raw_bound is not None else ""
        lines.append(f"4-cliques: K4 >= {b.lower}{extra}")
    if cert.m_range is not None:
        rng = cert.m_range
        exact = f" (2x2 Gram bound {cert.m_upper_bound})" if cert.m_upper_bound is not None else ""
        lines.append(f"max common-neighborhood edges: {rng.lower} <= m <= {rng.upper}{exact}")
        if rng.is_empty:
            lines.append("empty window: contradiction")
    for wit in cert.witnesses:
        lines.append(
            f"w-split: m={wit.m} contradicted at w={wit.w} (alpha >= {wit.alpha_min}, "
            f"max det = {wit.region_max_det} at (alpha,beta)={wit.region_max_at})"
        )
    for note in cert.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {cert.verdict.value}")
    return "\n".join(lines)


# Every field but the verdict is an int, None or a bool, and the Verdict values
# are ASCII with no quote or backslash: on these the template writes dumps()'s bytes.
_SCAN_ROW_JSON = ('{"params":{"v":%d,"k":%d,"lambda":%d,"mu":%d},"verdict":"%s","k4_lower":%s,'
                  '"m_range":%s,"witness_w":%s,"krein_q22_zero":%s}\n')


def scan_row_line(cert: Certificate, json_lines: bool, elapsed_ms: int) -> str:
    """One scan output line, newline included.  Only the table line carries
    the row's wall time, so JSON-lines output stays byte-deterministic."""
    p, rng = cert.params, cert.m_range
    k4 = None if cert.k4_bound is None else cert.k4_bound.lower
    wit = cert.witnesses[0].w if cert.witnesses else None
    if json_lines:
        return _SCAN_ROW_JSON % (
            p.v, p.k, p.lam, p.mu, cert.verdict.value,
            "null" if k4 is None else k4,
            "null" if rng is None else '{"lower":%d,"upper":%d}' % (rng.lower, rng.upper),
            "null" if wit is None else wit,
            _BOOL[cert.feasibility.krein_q22_zero],
        )
    return (
        f"({p.v},{p.k},{p.lam},{p.mu}): {cert.verdict.value} k4>={'-' if k4 is None else k4}"
        f" m={'-' if rng is None else f'[{rng.lower},{rng.upper}]'} w={'-' if wit is None else wit} [{elapsed_ms}ms]\n"
    )
