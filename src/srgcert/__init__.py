"""Exact-arithmetic non-existence certificates for strongly regular graph
parameter tuples."""

from .gramtest import Certificate, Verdict, decide
from .params import InvalidParamsError, SrgParams

__version__ = "0.1.0"

__all__ = ["Certificate", "InvalidParamsError", "SrgParams", "Verdict", "decide", "__version__"]
