"""Extended-real arithmetic on plain floats: the order residual.

Extended reals are floats that may be -inf or +inf; ``residual_floats``
computes res(s, t) = inf{r in R : s <= t + r} in place of s - t.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from setvi.analysis import residual_floats

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
inf = np.inf

# (s, t, res(s, t)) for every infinite case of the residual
INFINITE_CASES = [
    # -inf on the left or +inf on the right absorbs everything
    (-inf, 7.0, -inf), (3.0, inf, -inf), (-inf, inf, -inf), (inf, inf, -inf),
    (-inf, -inf, -inf),
    # +inf over a finite or -inf base has no admissible finite shift
    (inf, 3.0, inf), (4.0, -inf, inf), (inf, -inf, inf),
]


def test_residual_finite_is_subtraction():
    assert float(residual_floats(5.0, 3.0)) == 2.0
    assert float(residual_floats(-2.5, 4.0)) == -6.5


def test_residual_infinite_conventions():
    for s, t, expected in INFINITE_CASES:
        assert float(residual_floats(s, t)) == expected


@given(finite, finite)
def test_residual_matches_subtraction_on_finite(s, t):
    assert float(residual_floats(s, t)) == s - t


@given(finite, finite, finite)
def test_residual_monotone_in_first_argument(s1, s2, t):
    lo, hi = min(s1, s2), max(s1, s2)
    assert residual_floats(lo, t) <= residual_floats(hi, t)


quarter = st.integers(-4000, 4000).map(lambda k: k * 0.25)
extended_quarter = st.one_of(quarter, st.sampled_from([-inf, inf]))


@given(extended_quarter, extended_quarter, quarter)
def test_adjunction_on_nondegenerate_range(s, t, r):
    # residual(s, t) <= r exactly when s <= t + r for every finite r, where
    # an infinite t absorbs r; quarter-integer operands keep every sum and
    # difference exact so rounding cannot split the sides
    assert (residual_floats(s, t) <= r) == (s <= t + r)


def test_residual_floats_matches_scalar():
    # the array form agrees with the scalar form case by case, finite cases
    # included, and broadcasts a scalar base against an array
    cases = INFINITE_CASES + [(5.0, 3.0, 2.0), (-2.5, 4.0, -6.5)]
    s, t, expected = (np.array(col) for col in zip(*cases))
    assert residual_floats(s, t).tolist() == expected.tolist()
    assert residual_floats(np.array([1.0, inf, -inf]), 0.5).tolist() == [0.5, inf, -inf]


def _case_split(s: float, t: float) -> float:
    # the documented case split, one pair at a time
    if s == -inf or t == inf:
        return -inf
    if s == inf or t == -inf:
        return inf
    return s - t


SPECIALS = [-inf, -1.5, -0.0, 0.0, 2.0, inf]


def test_residual_floats_matches_the_case_split_bit_for_bit():
    # all 36 pairs, signed zeros included, as arrays and one pair at a time
    s, t = (np.array(col) for col in zip(*[(a, b) for a in SPECIALS for b in SPECIALS]))
    want = np.array([_case_split(a, b) for a, b in zip(s.tolist(), t.tolist())])
    assert residual_floats(s, t).tobytes() == want.tobytes()
    grid = residual_floats(np.array(SPECIALS)[:, None], np.array(SPECIALS)[None, :])
    assert grid.tobytes() == want.tobytes()
    for a, b, w in zip(s.tolist(), t.tolist(), want.tolist()):
        for args in ((a, b), (np.float64(a), np.float64(b)), (np.array(a), np.array(b))):
            got = residual_floats(*args)
            assert got.shape == () and got.tobytes() == np.float64(w).tobytes(), (a, b)
