"""Exact-arithmetic non-existence certificates for strongly regular graph
parameter tuples."""

from .cliquebound import K4Bound, PairClass, PairProfile, gegenbauer_eval, k4_lower_bound, pair_profile
from .gramtest import (
    Certificate,
    MRange,
    Verdict,
    WSplitWitness,
    alpha_min,
    decide,
    m_lower,
    m_upper_exact,
    wsplit_contradiction,
)
from .params import (
    FeasibilityReport,
    InvalidParamsError,
    Spectrum,
    SrgParams,
    classical_feasibility,
    derive_spectrum,
    krein_parameters,
    subconstituent_scan,
)
from .representation import BivariateQuadratic, ReprConstants, gram3_det, repr_constants

__version__ = "0.1.0"

__all__ = [
    "BivariateQuadratic",
    "Certificate",
    "FeasibilityReport",
    "InvalidParamsError",
    "K4Bound",
    "MRange",
    "PairClass",
    "PairProfile",
    "ReprConstants",
    "Spectrum",
    "SrgParams",
    "Verdict",
    "WSplitWitness",
    "alpha_min",
    "classical_feasibility",
    "decide",
    "derive_spectrum",
    "gegenbauer_eval",
    "gram3_det",
    "k4_lower_bound",
    "krein_parameters",
    "m_lower",
    "m_upper_exact",
    "pair_profile",
    "repr_constants",
    "subconstituent_scan",
    "wsplit_contradiction",
    "__version__",
]
