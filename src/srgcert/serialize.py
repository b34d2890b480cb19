"""JSON and text output of certificates and scan rows.

This module only writes.  Rationals are serialized as {"num": "...",
"den": "..."} decimal strings so no precision is lost; the schema carries a
version field.  Serialization is deterministic: dict construction order is
fixed and no floats appear.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .gramtest import Certificate

SCHEMA_VERSION = "1"
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def rational_to_json(x: Fraction | None) -> dict | None:
    return None if x is None else {"num": str(x.numerator), "den": str(x.denominator)}


def certificate_to_json(cert: Certificate) -> dict:
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
        else {"p": rational_to_json(rep.p), "q": rational_to_json(rep.q), "d": rep.d},
        "k4_bound": None
        if k4 is None
        else {
            "lower": k4.lower,
            "optimal_a": rational_to_json(k4.optimal_a),
            "a_quadratic": [rational_to_json(c) for c in k4.a_quadratic],
            "k4_quadratic": [rational_to_json(c) for c in k4.k4_quadratic],
            "raw_bound": rational_to_json(k4.raw_bound),
            "informative": k4.informative,
        },
        "m_range": None if cert.m_range is None else {"lower": cert.m_range.lower, "upper": cert.m_range.upper},
        "m_upper_exact": rational_to_json(cert.m_upper_bound),
        "witnesses": [
            {
                "m": wit.m,
                "w": wit.w,
                "alpha_min": wit.alpha_min,
                "region_max_det": rational_to_json(wit.region_max_det),
                "region_max_at": list(wit.region_max_at),
            }
            for wit in cert.witnesses
        ],
        "notes": list(cert.notes),
    }


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
            "true" if cert.feasibility.krein_q22_zero else "false",
        )
    return (
        f"({p.v},{p.k},{p.lam},{p.mu}): {cert.verdict.value} k4>={'-' if k4 is None else k4}"
        f" m={'-' if rng is None else f'[{rng.lower},{rng.upper}]'} w={'-' if wit is None else wit} [{elapsed_ms}ms]\n"
    )


def dumps(obj) -> str:
    """Compact deterministic JSON string."""
    return _COMPACT.encode(obj)
