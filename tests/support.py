"""Representation constants from rationals, for tests that feed the
pipeline made-up inner products and for the Fraction oracle of
repr_constants."""

import math
from fractions import Fraction

from srgcert.params import ReprConstants


def rep_from_fractions(p: Fraction, q: Fraction, d: int) -> ReprConstants:
    """p and q over D, the lcm of their denominators in lowest terms."""
    D = math.lcm(p.denominator, q.denominator)
    P, Q = p.numerator * (D // p.denominator), q.numerator * (D // q.denominator)
    return ReprConstants(d=d, D=D, P=P, Q=Q, S=2 * D + 2 * P)
