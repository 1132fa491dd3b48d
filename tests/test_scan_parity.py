"""The matrix path-class scans against the one-column scans they replaced.

The reference functions below are the earlier scalar ``_ssqc_scan`` and
``_pseudo_scan`` (with their helpers), kept verbatim apart from their
names.  ``analysis._ssqc_scan`` and ``analysis._pseudo_scan`` take a
(T, W) matrix; every column must reproduce the reference verdict and
witness, float for float.  Floats are compared by value: which of several
equal zeros a numpy minimum returns depends on its reduction order (it
differs between array lengths and SIMD widths), so the reference may give
either zero; the matrix scans store 0.0, which the last test checks.
"""

import numpy as np

from setvi.analysis import _pseudo_scan, _ssqc_scan
from setvi.verdicts import Verdict


def ref_ssqc_scan(t: np.ndarray, v: np.ndarray, tau: float):
    """Semistrict quasiconvexity on grid triples.

    A triple (i, j, k) with clearly distinct endpoint values must keep the
    interior value clearly below the larger endpoint.  Candidate interior
    indices are filtered with prefix/suffix minima before the exact pair
    scan, which keeps typical paths near-linear cost.
    """
    n = v.size
    prefix = np.minimum.accumulate(v)
    suffix = np.minimum.accumulate(v[::-1])[::-1]
    verdict = Verdict.HOLDS
    witness = None
    for j in range(1, n - 1):
        left_min, right_min = prefix[j - 1], suffix[j + 1]
        if not (np.isfinite(left_min) and np.isfinite(right_min)):
            continue
        if v[j] < max(left_min, right_min) - tau:
            continue
        cap = v[j] + tau
        lv = v[:j]
        rv = v[j + 1:]
        lv = lv[lv <= cap]
        rv = rv[rv <= cap]
        if lv.size == 0 or rv.size == 0:
            continue
        a_min, b_min = lv.min(), rv.min()
        candidates = []
        if abs(a_min - b_min) > tau:
            candidates.append(max(a_min, b_min))
        rb = rv[rv > a_min + tau]
        if rb.size:
            candidates.append(max(a_min, rb.min()))
        la = lv[lv > b_min + tau]
        if la.size:
            candidates.append(max(b_min, la.min()))
        if not candidates:
            continue
        minmax = min(candidates)
        if v[j] - minmax >= tau:
            return Verdict.FAILS, {"t": float(t[j]), "value": float(v[j]),
                                   "endpoint_level": float(minmax)}
        if abs(v[j] - minmax) < tau and verdict is Verdict.HOLDS:
            verdict = Verdict.UNDETERMINED
            witness = {"t": float(t[j]), "value": float(v[j]),
                       "endpoint_level": float(minmax)}
    return verdict, witness


def _farthest_below(values: np.ndarray, thresholds: np.ndarray):
    """For each threshold, the first index whose value is strictly below it.

    Works through the running minimum, which is non-increasing, so a
    single vectorized binary search answers every threshold at once.
    Returns indices == len(values) where no element qualifies.
    """
    running = np.minimum.accumulate(values)
    return np.searchsorted(-running, -thresholds, side="right")


def _farthest_above(values: np.ndarray, thresholds: np.ndarray):
    running = np.maximum.accumulate(values)
    return np.searchsorted(running, thresholds, side="right")


def _nearest_qualifying(v: np.ndarray, b: int, left: bool, thr: float,
                        below: bool) -> int | None:
    """Walk outward from b for the nearest index with v < thr (or > thr)."""
    rng = range(b - 1, -1, -1) if left else range(b + 1, v.size)
    for a in rng:
        if (v[a] < thr) if below else (v[a] > thr):
            return a
    return None


def ref_pseudo_scan(t: np.ndarray, v: np.ndarray, d_plus: np.ndarray,
                 d_minus: np.ndarray, tau: float):
    """Pseudoconvexity and pseudoconcavity over all ordered grid pairs.

    The derivative at b toward a is the one-sided unit derivative scaled
    by |t_a - t_b|, which is monotone in the distance for a fixed side of
    b.  Each (base point, side) therefore only needs its farthest
    qualifying partner (for clear violations) and, in the rare regime of
    derivatives smaller than the band over one grid step, its nearest one
    (for band detection); both come from running-extremum binary searches
    instead of the full pair matrix.
    """
    n = v.size
    dom = v < np.inf
    n_dom = int(np.count_nonzero(dom))
    pair_count = n_dom * (n_dom - 1)
    step_min = float(np.min(np.diff(t)))
    # qualifying values for the ascent trigger must themselves be in dom
    vq = np.where(dom, v, -np.inf)
    rev = v[::-1]
    rev_q = vq[::-1]

    lo_thr = v - tau        # descent trigger: phi(a) < phi(b) - tau
    hi_thr = v + tau        # ascent trigger: phi(a) > phi(b) + tau
    far_left_lo = _farthest_below(v, lo_thr)              # smallest such a
    far_right_lo = n - 1 - _farthest_below(rev, lo_thr)   # largest such a
    far_left_hi = _farthest_above(vq, hi_thr)
    far_right_hi = n - 1 - _farthest_above(rev_q, hi_thr)

    cvx = [Verdict.HOLDS, None]
    ccv = [Verdict.HOLDS, None]

    def settle(state, kind, b, dist, d):
        value = d * dist if np.isfinite(d) else d
        witness = {"b": float(t[b]), "derivative": float(value)}
        if kind == "viol" and state[0] is not Verdict.FAILS:
            state[0] = Verdict.FAILS
            state[1] = witness
        elif kind == "band" and state[0] is Verdict.HOLDS:
            state[0] = Verdict.UNDETERMINED
            state[1] = witness

    for b in range(n):
        if not dom[b]:
            continue
        for left, d in ((True, d_minus[b]), (False, d_plus[b])):
            # descent side: a with phi(a) clearly below phi(b)
            a_far = far_left_lo[b] if left else far_right_lo[b]
            exists = (a_far < b) if left else (b < a_far <= n - 1)
            if exists:
                dmax = abs(t[b] - t[a_far])
                if d == np.inf or (d > 0 and d * dmax >= tau):
                    settle(cvx, "viol", b, dmax, d)
                elif d >= 0:
                    settle(cvx, "band", b, dmax, d)
                elif d > -np.inf and -d < tau / step_min:
                    a = _nearest_qualifying(v, b, left, lo_thr[b], True)
                    if a is not None and d * abs(t[b] - t[a]) > -tau:
                        settle(cvx, "band", b, abs(t[b] - t[a]), d)
            # ascent side: a with phi(a) clearly above phi(b)
            a_far = far_left_hi[b] if left else far_right_hi[b]
            exists = (a_far < b) if left else (b < a_far <= n - 1)
            if exists:
                dmax = abs(t[b] - t[a_far])
                if d == -np.inf or (d < 0 and d * dmax <= -tau):
                    settle(ccv, "viol", b, dmax, d)
                elif d <= 0:
                    settle(ccv, "band", b, dmax, d)
                elif d < np.inf and d < tau / step_min:
                    a = _nearest_qualifying(vq, b, left, hi_thr[b], False)
                    if a is not None and d * abs(t[b] - t[a]) < tau:
                        settle(ccv, "band", b, abs(t[b] - t[a]), d)
    return (cvx[0], cvx[1]), (ccv[0], ccv[1]), pair_count


def _floats(witness):
    return None if witness is None else {k: float(v) for k, v in witness.items()}


def _case(rng):
    """A seeded (t, V, D_plus, D_minus, tau): non-uniform grids, +-inf
    values, values tied within tau, and derivatives at the thresholds."""
    T = 2 + int(39.99 * rng.random() ** 2)           # 2 to 41, mostly short
    W = int(rng.integers(1, 7) if rng.random() < 0.9 else rng.integers(7, 91))
    t = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=T - 2)]))
    T = t.size
    tau = float(rng.choice([1e-9, 1e-5, 1e-2]))
    style = int(rng.integers(0, 4))
    if style == 0:  # smooth, mostly convex columns
        V = (rng.uniform(-1, 1, size=W)[None, :] * (t[:, None] - rng.uniform(0, 1, size=W)) ** 2
             + rng.uniform(-1, 1, size=W) * t[:, None])
    elif style == 1:  # a few levels, ties within the band
        levels = rng.uniform(-1, 1, size=int(rng.integers(1, 4)))
        V = rng.choice(levels, size=(T, W)) + rng.choice([0.0, 0.4, -0.4, 1.0], size=(T, W)) * tau
    elif style == 2:  # coarse rounding, exact ties
        V = np.round(rng.uniform(-2, 2, size=(T, W)), int(rng.integers(0, 3)))
    else:
        V = rng.normal(size=(T, W))
    for value in (np.inf, -np.inf):
        mask = rng.random(size=(T, W)) < rng.choice([0.0, 0.05, 0.3])
        V[mask] = value
    step = float(np.min(np.diff(t)))
    pool = np.array([-np.inf, np.inf, 0.0, tau / step, -tau / step, 0.5 * tau / step,
                     -0.5 * tau / step, 2.0 * tau / step, -2.0 * tau / step, 1e-12, -1e-12,
                     1.0, -1.0])

    def derivs():
        d = rng.choice(pool, size=(T, W))
        smooth = rng.random(size=(T, W)) < 0.3
        d[smooth] = rng.normal(size=int(smooth.sum()))
        return d

    return t, V, derivs(), derivs(), tau


def test_matrix_scans_match_the_scalar_scans_column_by_column():
    rng = np.random.default_rng(20240811)
    columns = 0
    for case in range(2000):
        t, V, D_plus, D_minus, tau = _case(rng)
        ssqc = _ssqc_scan(t, V, tau)
        cvx, ccv, pairs = _pseudo_scan(t, V, D_plus, D_minus, tau)
        for w in range(V.shape[1]):
            v = V[:, w].copy()
            with np.errstate(invalid="ignore"):  # inf - inf in the reference
                want_s = ref_ssqc_scan(t, v, tau)
                want_cvx, want_ccv, want_pairs = ref_pseudo_scan(
                    t, v, D_plus[:, w].copy(), D_minus[:, w].copy(), tau)
            where = f"case {case} column {w}"
            assert ssqc[w][0] is want_s[0] and _floats(ssqc[w][1]) == _floats(want_s[1]), where
            assert cvx[w][0] is want_cvx[0] and _floats(cvx[w][1]) == _floats(want_cvx[1]), where
            assert ccv[w][0] is want_ccv[0] and _floats(ccv[w][1]) == _floats(want_ccv[1]), where
            assert int(pairs[w]) == want_pairs, where
            columns += 1
    assert columns > 10000


def test_zero_witness_levels_are_plus_zero():
    # case 311 holds columns whose candidate levels tie between -0.0 and
    # 0.0; which one a minimum returns depends on its reduction order, so
    # the scans store 0.0 whatever the column's neighbours
    rng = np.random.default_rng(20240811)
    for _ in range(311):
        _case(rng)
    t, V, D_plus, D_minus, tau = _case(rng)
    zeros = 0
    W = V.shape[1]
    for idx in [np.arange(W), np.arange(W)[::-1]] + [[w] for w in range(W)]:
        cvx, ccv, _ = _pseudo_scan(t, V[:, idx], D_plus[:, idx], D_minus[:, idx], tau)
        levels = [w["endpoint_level"] for _, w in _ssqc_scan(t, V[:, idx], tau) if w]
        levels += [w["derivative"] for _, w in cvx + ccv if w]
        zeros += sum(level == 0.0 for level in levels)
        assert not any(level == 0.0 and np.signbit(level) for level in levels), idx
    assert zeros >= 6
