"""Extended-real scalars and the order residual used in place of subtraction.

Values live in R together with -inf and +inf, totally ordered.  The residual

    inf_residual(s, t) = inf{r in R : s <= t + r}

replaces ``s - t`` so that empty set values (scalarizing to +inf) and
whole-space values (scalarizing to -inf) propagate through difference
quotients without special cases at the call sites.  The conventions are

    (+inf) + r = +inf,  (-inf) + r = -inf          for finite r,
    (-inf) residual anything = anything residual (+inf) = -inf.

NaN is rejected at construction; every comparison is total.  Tolerances do
not belong here: comparisons are exact, and strictness thresholds live in
the geometry and verdict layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

import numpy as np


@total_ordering
@dataclass(frozen=True)
class ExtReal:
    """A value in R united with {-inf, +inf}; finite values are never NaN."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v):
            raise ValueError("ExtReal rejects NaN")
        object.__setattr__(self, "value", v)

    @staticmethod
    def of(x) -> "ExtReal":
        """Coerce a float or ExtReal to ExtReal."""
        return x if isinstance(x, ExtReal) else ExtReal(float(x))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    @property
    def is_pos_inf(self) -> bool:
        return self.value == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return self.value == -math.inf

    def __eq__(self, other) -> bool:
        other = ExtReal.of(other)
        return self.value == other.value

    def __lt__(self, other) -> bool:
        other = ExtReal.of(other)
        return self.value < other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self) -> str:
        if self.is_pos_inf:
            return "ExtReal(+inf)"
        if self.is_neg_inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self.value!r})"


NEG_INF = ExtReal(-math.inf)
POS_INF = ExtReal(math.inf)


def inf_residual(s, t) -> ExtReal:
    """inf{r in R : s <= t + r} under the absorption conventions above.

    Case split: if s = -inf or t = +inf every finite r qualifies, so the
    infimum is -inf.  Otherwise if s = +inf or t = -inf no finite r
    qualifies and inf over the empty set is +inf.  Finite values subtract.
    """
    s = ExtReal.of(s)
    t = ExtReal.of(t)
    if s.is_neg_inf or t.is_pos_inf:
        return NEG_INF
    if s.is_pos_inf or t.is_neg_inf:
        return POS_INF
    return ExtReal(s.value - t.value)


def ext_add(s, r: float) -> ExtReal:
    """s + r for finite r; infinities absorb the finite summand."""
    s = ExtReal.of(s)
    r = float(r)
    if not math.isfinite(r):
        raise ValueError("ext_add requires a finite increment")
    if s.is_finite:
        return ExtReal(s.value + r)
    return s


def residual_floats(s, t) -> np.ndarray:
    """Vectorized inf_residual on float arrays that may contain +-inf.

    Inputs must be NaN-free; the output follows the same conventions as
    ``inf_residual`` elementwise.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    out = np.empty(s.shape, dtype=float)
    neg = (s == -np.inf) | (t == np.inf)
    pos = ~neg & ((s == np.inf) | (t == -np.inf))
    fin = ~neg & ~pos
    out[neg] = -np.inf
    out[pos] = np.inf
    out[fin] = s[fin] - t[fin]
    return out


def format_float(x: float) -> str:
    """Decimal literal with 17 significant digits, or the strings +-inf."""
    x = float(x)
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.17g}"

