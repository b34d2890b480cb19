"""JSON encoding of certificates and scan rows.

Rationals are serialized as {"num": "...", "den": "..."} decimal strings so
no precision is lost; the schema carries a version field.  Serialization is
deterministic: dict construction order is fixed and no floats appear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cliquebound import K4Bound
from .gramtest import Certificate, MRange, Verdict, WSplitWitness
from .params import FeasibilityReport, Spectrum, SrgParams
from .representation import ReprConstants

__all__ = [
    "SCHEMA_VERSION",
    "rational_to_json",
    "rational_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "certificate_to_text",
    "ScanRow",
    "scan_row_to_json",
    "scan_row_from_json",
    "dumps",
]

SCHEMA_VERSION = "1"


def rational_to_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rational_from_json(obj) -> Fraction | None:
    if obj is None:
        return None
    return Fraction(int(obj["num"]), int(obj["den"]))


def _params_to_json(p: SrgParams) -> dict:
    return {"v": p.v, "k": p.k, "lambda": p.lam, "mu": p.mu}


def _params_from_json(obj) -> SrgParams:
    return SrgParams(v=obj["v"], k=obj["k"], lam=obj["lambda"], mu=obj["mu"])


def certificate_to_json(cert: Certificate) -> dict:
    rep = cert.rep
    k4 = cert.k4_bound
    return {
        "schema": SCHEMA_VERSION,
        "params": _params_to_json(cert.params),
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
        "m_range": None
        if cert.m_range is None
        else {"lower": cert.m_range.lower, "upper": cert.m_range.upper},
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


def certificate_from_json(obj) -> Certificate:
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {obj.get('schema')!r}")
    params = _params_from_json(obj["params"])
    sp = obj["spectrum"]
    spectrum = None if sp is None else Spectrum(r=sp["r"], s=sp["s"], f=sp["f"], g=sp["g"])
    feas = obj["feasibility"]
    feasibility = FeasibilityReport(
        identity_ok=feas["identity_ok"],
        spectrum=spectrum,
        integrality_ok=feas["integrality_ok"],
        krein_ok=feas["krein_ok"],
        absolute_bound_ok=feas["absolute_bound_ok"],
        krein_q22_zero=feas["krein_q22_zero"],
    )
    rep_obj = obj["representation"]
    rep = (
        None
        if rep_obj is None
        else ReprConstants(
            p=rational_from_json(rep_obj["p"]), q=rational_from_json(rep_obj["q"]), d=rep_obj["d"]
        )
    )
    k4_obj = obj["k4_bound"]
    k4 = (
        None
        if k4_obj is None
        else K4Bound(
            lower=k4_obj["lower"],
            optimal_a=rational_from_json(k4_obj["optimal_a"]),
            a_quadratic=tuple(rational_from_json(c) for c in k4_obj["a_quadratic"]),
            k4_quadratic=tuple(rational_from_json(c) for c in k4_obj["k4_quadratic"]),
            raw_bound=rational_from_json(k4_obj["raw_bound"]),
            informative=k4_obj["informative"],
        )
    )
    rng_obj = obj["m_range"]
    rng = None if rng_obj is None else MRange(lower=rng_obj["lower"], upper=rng_obj["upper"])
    witnesses = tuple(
        WSplitWitness(
            w=w["w"],
            m=w["m"],
            alpha_min=w["alpha_min"],
            region_max_det=rational_from_json(w["region_max_det"]),
            region_max_at=tuple(w["region_max_at"]),
        )
        for w in obj["witnesses"]
    )
    return Certificate(
        params=params,
        feasibility=feasibility,
        spectrum=spectrum,
        rep=rep,
        k4_bound=k4,
        m_range=rng,
        m_upper_bound=rational_from_json(obj["m_upper_exact"]),
        witnesses=witnesses,
        verdict=Verdict(obj["verdict"]),
        notes=tuple(obj["notes"]),
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


@dataclass(frozen=True)
class ScanRow:
    """One scan result row.  It carries no timing, so scan output stays
    byte-deterministic."""

    params: SrgParams
    verdict: Verdict
    k4_lower: int | None
    m_range: MRange | None
    witness_w: int | None
    krein_q22_zero: bool


def scan_row_to_json(row: ScanRow) -> dict:
    return {
        "params": _params_to_json(row.params),
        "verdict": row.verdict.value,
        "k4_lower": row.k4_lower,
        "m_range": None
        if row.m_range is None
        else {"lower": row.m_range.lower, "upper": row.m_range.upper},
        "witness_w": row.witness_w,
        "krein_q22_zero": row.krein_q22_zero,
    }


def scan_row_from_json(obj) -> ScanRow:
    rng = obj["m_range"]
    return ScanRow(
        params=_params_from_json(obj["params"]),
        verdict=Verdict(obj["verdict"]),
        k4_lower=obj["k4_lower"],
        m_range=None if rng is None else MRange(lower=rng["lower"], upper=rng["upper"]),
        witness_w=obj["witness_w"],
        krein_q22_zero=obj["krein_q22_zero"],
    )


def dumps(obj) -> str:
    """Compact deterministic JSON string."""
    return json.dumps(obj, separators=(",", ":"))
