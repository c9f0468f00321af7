"""Scalar arithmetic shared by the exact and floating-point modes.

Every quantity in the metric/transport/feasibility layers is either a
``fractions.Fraction`` (rational mode: comparisons are exact, tolerance 0)
or a ``float`` (float mode: comparisons within one run-wide tolerance,
default 1e-9).  In float mode distances compare within tol x max d, the
space's `dtol`, so that no verdict depends on the metric's units; masses,
which have none, compare within tol itself.  The mode is fixed by the
inputs: a computation is exact only when every input is rational.  One
float input makes it float, so float marginals on a rational space (the
masses x <| psi of a state, say) give a float transport computation,
whose rational costs are converted to float once, on entry to the
simplex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple, Union

Scalar = Union[Fraction, float, int]

RATIONAL = "rational"
FLOAT = "float"
DEFAULT_TOL = 1e-9


def tol_for(mode: str, tol: float = DEFAULT_TOL) -> Scalar:
    return Fraction(0) if mode == RATIONAL else tol


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (Fraction, int))


def parse_scalar(value, mode: str = RATIONAL) -> Scalar:
    """Read a JSON scalar: a finite number, or a rational written as "p/q".
    NaN and the infinities, which Python's json reads, raise ValueError, as
    does a value beyond the float range in float mode."""
    if isinstance(value, str):
        value = Fraction(value)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a scalar: {value!r}")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"not a finite scalar: {value!r}")
    if mode == RATIONAL:
        # Floats in rational input files are accepted verbatim; they are
        # exact binary rationals by definition.
        return Fraction(value)
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"scalar beyond the float range: {value!r}") from None


def integer_scale(values) -> Tuple[List[int], int]:
    """Ints k and the least scale s > 0 with values[i] == k[i] / s, for
    rational (int or Fraction) values."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def format_scalar(x: Scalar):
    """Inverse of parse_scalar, for writing JSON."""
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    if isinstance(x, int):
        return x
    return float(x)
