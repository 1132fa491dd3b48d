"""Lower directional derivatives, path classification, and mean-value witnesses.

The lower Dini derivative of an extended-real path at t in direction +-1 is
the liminf of (phi(t + s dir) residual phi(t)) / s as s drops to 0.  Numeric
paths approximate the liminf by the minimum over a geometric step grid:
this is deliberately biased low, so a strict-sign claim made from it is
conservative.  Paths with exact piecewise-linear descriptions use the
closed-form one-sided slope instead and carry no bias at all.

Two conventions shape the infinite cases.  Probes beyond [0, 1] read the
path as +inf (segment restrictions are +inf elsewhere), and a base point
sitting at +inf whose forward probes are all +inf reports +inf: a ray that
never re-enters the domain of the map carries no descent information and
must not manufacture a derivative of -inf out of the empty set.

Extended reals are plain floats that may be -inf or +inf, never NaN, and
the order residual

    res(s, t) = inf{r in R : s <= t + r}

replaces ``s - t`` in every difference quotient, so that empty values
(scalarizing to +inf) and whole-space values (scalarizing to -inf)
propagate without special cases at the call sites.  Infinities absorb a
finite summand, and (-inf) residual anything = anything residual (+inf)
= -inf.  Comparisons are exact; strictness thresholds live in the
verdict layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone import (_PRUNE_MIN_POINTS, Cone, TAU_STRICT, WStarSample, dominated_probes, ext_margins,
                   kept_indices)
from .errors import (
    GridTooCoarse,
    InternalCheckError,
    NoWitnessFound,
    StepOutsideDomain,
)
from .scalarize import PiecewiseLinear, ScalarPath, scalarize_values
from .setmap import SetMap, blocks, evaluate_rows, nearest_samples
from .verdicts import CheckResult, Verdict


@dataclass(frozen=True)
class DiniConfig:
    """Geometric step grid for the liminf estimate: t_max * ratio^k, with
    t_max <= 1 so that every probe stays on the segment it probes."""

    t_max: float = 0.1
    ratio: float = 0.5
    steps: int = 20

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        if not (0.0 < self.t_max <= 1.0) or self.steps < 1:
            raise ValueError("t_max must lie in (0, 1] and steps >= 1")
        if self.t_max * self.ratio ** self.steps < 1e-300:
            raise ValueError("step grid underflows; reduce steps or raise t_max")

    def step_grid(self) -> np.ndarray:
        return self.t_max * self.ratio ** np.arange(self.steps)

    def to_dict(self) -> dict:
        return {"t_max": self.t_max, "ratio": self.ratio, "steps": self.steps}


def residual_floats(s, t) -> np.ndarray:
    """The order residual res(s, t) elementwise on NaN-free float arrays.

    Case split: if s = -inf or t = +inf every finite r qualifies, so the
    infimum is -inf.  Otherwise if s = +inf or t = -inf no finite r
    qualifies and the infimum over the empty set is +inf.  Finite values
    subtract.  IEEE subtraction gives every case but two equal infinities,
    whose NaN is -inf.
    """
    with np.errstate(invalid="ignore"):
        out = np.asarray(np.subtract(s, t, dtype=float))
    out[np.isnan(out)] = -np.inf
    return out


def dini_table(bases: np.ndarray, probes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Minimum difference quotient per row: bases (n,), probes (n, k), steps (k,).

    Applies the residual conventions elementwise, then the +inf override
    for rows whose base and probes are all +inf.
    """
    bases = np.asarray(bases, dtype=float)
    probes = np.asarray(probes, dtype=float)
    res = residual_floats(probes, bases[:, None])
    with np.errstate(invalid="ignore"):
        quotients = res / steps[None, :]
    out = quotients.min(axis=1)
    stuck = (bases == np.inf) & np.all(probes == np.inf, axis=1)
    out[stuck] = np.inf
    return out


def dini_lower(path: ScalarPath, t: float, direction: int,
               cfg: DiniConfig | None = None) -> float:
    """Lower Dini derivative of the path at t in unit direction +-1.

    Exact one-sided slopes are used when the path carries breakpoints;
    otherwise the geometric step grid of cfg is probed and the minimum
    quotient returned.  Raises StepOutsideDomain when t is outside [0, 1].
    """
    cfg = cfg or DiniConfig()
    t = float(t)
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    if not (0.0 <= t <= 1.0):
        raise StepOutsideDomain(f"t = {t} is outside the path interval [0, 1]")
    if path.breakpoints is not None:
        d_plus, d_minus = _exact_grid_slopes(path.breakpoints, np.array([t]))
        return float((d_plus if direction > 0 else d_minus)[0])
    steps = cfg.step_grid()
    probes = path.eval_many(t + direction * steps)
    base = path.eval(t)
    return float(dini_table(np.array([base]), probes[None, :], steps)[0])


def _exact_grid_slopes(breakpoints: PiecewiseLinear, t: np.ndarray):
    """Closed-form one-sided slopes (d_plus, d_minus) of a breakpoint path at
    every t in [0, 1].

    Only the segment adjacent to t on the probed side matters for the
    limit.  Within a finite-finite segment the derivative is the segment
    slope; a segment carrying a +inf endpoint reads +inf (including the
    all-inf override), one carrying only -inf reads -inf.  Beyond [0, 1]
    the path is +inf, so the outward boundary derivatives are +inf as well.
    """
    K, V = breakpoints.knots, breakpoints.knot_values
    both = np.isfinite(V[:-1]) & np.isfinite(V[1:])
    slope = np.zeros(K.size - 1)
    slope[both] = (V[1:][both] - V[:-1][both]) / (K[1:][both] - K[:-1][both])
    plus_inf = (V[:-1] == np.inf) | (V[1:] == np.inf)
    seg_value = np.where(both, slope, np.where(plus_inf, np.inf, -np.inf))

    seg_fw = np.clip(np.searchsorted(K, t, side="right") - 1, 0, K.size - 2)
    d_plus = seg_value[seg_fw].copy()
    d_plus[t >= 1.0] = np.inf

    seg_bw = np.clip(np.searchsorted(K, t, side="left") - 1, 0, K.size - 2)
    d_minus = np.where(both[seg_bw], -seg_value[seg_bw], seg_value[seg_bw])
    d_minus[t <= 0.0] = np.inf
    return d_plus, d_minus


@dataclass(eq=False)
class ConvexityReport:
    semistrictly_quasiconvex: CheckResult
    pseudoconvex: CheckResult
    pseudoconcave: CheckResult
    s0: float
    t0: float
    resolution: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "semistrictly_quasiconvex": self.semistrictly_quasiconvex.to_dict(),
            "pseudoconvex": self.pseudoconvex.to_dict(),
            "pseudoconcave": self.pseudoconcave.to_dict(),
            "s0": self.s0,
            "t0": self.t0,
            "resolution": self.resolution,
        }


def _first_events(fails: np.ndarray, bands: np.ndarray, witness) -> list:
    """One (verdict, witness) per column of (K, W) event masks listed in
    scan order: the first FAILS event wins, else the first band event
    makes the column UNDETERMINED; ``witness(k, w)`` describes event k."""
    any_fail, any_band = fails.any(axis=0), bands.any(axis=0)
    first_fail, first_band = fails.argmax(axis=0), bands.argmax(axis=0)
    return [(Verdict.FAILS, witness(kf, w)) if f else
            (Verdict.UNDETERMINED, witness(kb, w)) if b else (Verdict.HOLDS, None)
            for w, (f, b, kf, kb) in enumerate(zip(any_fail.tolist(), any_band.tolist(),
                                                   first_fail.tolist(), first_band.tolist()))]


def _ssqc_scan(t: np.ndarray, V: np.ndarray, tau: float) -> list:
    """Semistrict quasiconvexity on grid triples, for every column of the
    (T, W) value matrix V; returns one (verdict, witness) per column.

    A triple (i, j, k) with clearly distinct endpoint values must keep the
    interior value clearly below the larger endpoint.  For an interior j
    the smallest admissible larger endpoint is the smallest of three
    candidates: the larger of the prefix and suffix minima, and the
    smallest value on either side clearly above the other side's minimum.
    Only the last two need a pass over the far side, one per interior j
    for all columns.  A column FAILS at its first failing j, else it is
    UNDETERMINED at its first j within the band.  Maxima and minima of
    candidates keep the first of equal values.
    """
    T, W = V.shape
    if T < 3:
        return [(Verdict.HOLDS, None)] * W
    # row r of each array below belongs to the interior point j = r + 1
    a = np.minimum.accumulate(V, axis=0)[:-2]                 # min of V[:j]
    b = np.minimum.accumulate(V[::-1], axis=0)[::-1][2:]      # min of V[j+1:]
    v = V[1:-1]
    cap = v + tau
    with np.errstate(invalid="ignore"):
        # each side needs a value at most cap; its minimum is one if any is
        live = (np.isfinite(a) & np.isfinite(b) & ~(v < np.maximum(a, b) - tau)
                & (a <= cap) & (b <= cap))
        if not live.any():
            return [(Verdict.HOLDS, None)] * W
        inf_left = (np.maximum.accumulate(V, axis=0) == np.inf)[:-2]
        inf_right = (np.maximum.accumulate(V[::-1], axis=0) == np.inf)[::-1][2:]
        # the smallest far-side value clearly above the near-side minimum
        right_above = np.full((T - 2, W), np.inf)
        left_above = np.full((T - 2, W), np.inf)
        a_lo, b_lo = a + tau, b + tau
        for r in np.flatnonzero(live.any(axis=1)).tolist():
            rv, lv = V[r + 2:], V[:r + 1]
            right_above[r] = np.where(rv > a_lo[r], rv, np.inf).min(axis=0)
            left_above[r] = np.where(lv > b_lo[r], lv, np.inf).min(axis=0)
        level = np.zeros((T - 2, W))
        found = np.zeros((T - 2, W), dtype=bool)
        # an inf above the minimum shows as inf; it counts when cap is inf
        for has, cand in (
                (np.abs(a - b) > tau, np.where(b > a, b, a)),
                ((right_above <= cap) & ((right_above < np.inf) | inf_right),
                 np.where(right_above > a, right_above, a)),
                ((left_above <= cap) & ((left_above < np.inf) | inf_left),
                 np.where(left_above > b, left_above, b))):
            take = has & (~found | (cand < level))
            level = np.where(take, cand, level)
            found |= has
        live &= found
        gap = v - level
        fails = live & (gap >= tau)
        bands = live & (np.abs(gap) < tau)
    # + 0.0 stores a zero level as 0.0: which of -0.0 and 0.0 a minimum
    # returns depends on its reduction order
    return _first_events(fails, bands, lambda r, w: {
        "t": float(t[r + 1]), "value": float(v[r, w]), "endpoint_level": float(level[r, w] + 0.0)})


def _count_at_most(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """``np.searchsorted(keys[w], probes[w], side="right")`` for every row w
    of the (W, n) matrix keys, each row non-decreasing, and the (W, q)
    probes.  One stable sort of each row of keys and probes together
    places equal keys before a probe, so the keys sorted before a probe
    are the ones at most it."""
    W, n = keys.shape
    order = np.argsort(np.concatenate([keys, probes], axis=1), axis=1, kind="stable")
    is_probe = order >= n
    at_most = np.cumsum(~is_probe, axis=1)[is_probe].reshape(W, -1)
    out = np.empty(probes.shape, dtype=np.intp)
    np.put_along_axis(out, order[is_probe].reshape(W, -1) - n, at_most, axis=1)
    return out


def _nearest_qualifying(v: np.ndarray, b: int, left: bool, thr: float,
                        below: bool) -> int | None:
    """Walk outward from b for the nearest index with v < thr (or > thr)."""
    rng = range(b - 1, -1, -1) if left else range(b + 1, v.size)
    for a in rng:
        if (v[a] < thr) if below else (v[a] > thr):
            return a
    return None


def _pseudo_scan(t: np.ndarray, V: np.ndarray, D_plus: np.ndarray,
                 D_minus: np.ndarray, tau: float):
    """Pseudoconvexity and pseudoconcavity over all ordered grid pairs, for
    every column of the (T, W) value matrix V with its one-sided unit
    derivatives D_plus and D_minus.

    The derivative at b toward a is the one-sided unit derivative scaled
    by |t_a - t_b|, which is monotone in the distance for a fixed side of
    b.  Each (base point, side) therefore only needs its farthest
    qualifying partner (for clear violations), found for every column at
    once by searches over running extrema, and, in the rare regime of
    derivatives smaller than the band over one grid step, its nearest one
    (for band detection), found by a walk.  Events are read in the order
    of (b, left side first); a column FAILS at its first violation, else
    it is UNDETERMINED at its first band event.  Returns the per-column
    (verdict, witness) lists of both classes and the per-column counts of
    ordered pairs within the domain.
    """
    T, W = V.shape
    dom = V < np.inf
    n_dom = np.count_nonzero(dom, axis=0)
    step_min = float(np.min(np.diff(t)))
    # qualifying values for the ascent trigger must themselves be in dom
    Vq = np.where(dom, V, -np.inf)
    lo_thr = V - tau        # descent trigger: phi(a) < phi(b) - tau
    hi_thr = V + tau        # ascent trigger: phi(a) > phi(b) + tau
    # the first a whose running extremum passes the threshold is the first
    # qualifying a; on the reversed column it gives the last one
    keys = np.concatenate([-np.minimum.accumulate(V, axis=0),
                           -np.minimum.accumulate(V[::-1], axis=0),
                           np.maximum.accumulate(Vq, axis=0),
                           np.maximum.accumulate(Vq[::-1], axis=0)], axis=1)
    probes = np.concatenate([-lo_thr, -lo_thr, hi_thr, hi_thr], axis=1)
    counts = _count_at_most(keys.T, probes.T).T.reshape(T, 2, 2, W)

    # (class, b, side, w) arrays, read as (class, 2b + side, w): class 0 is
    # pseudoconvexity with its descent partners, class 1 pseudoconcavity
    # with its ascent partners and the derivative negated, so that one set
    # of tests serves both; side 0 is the left one
    counts = counts.transpose(1, 0, 2, 3)
    b = np.arange(T)[:, None, None]
    right = np.arange(2)[:, None] == 1
    partner = np.where(right, T - 1 - counts, counts)
    exists = dom[:, None, :] & np.where(right, b < partner, partner < b)
    dist = np.abs(t[b] - t[np.minimum(partner, T - 1)])  # unused where no partner exists
    d = np.stack([D_minus, D_plus], axis=1)
    d = np.stack([d, -d])
    with np.errstate(invalid="ignore"):
        viol = exists & ((d == np.inf) | ((d > 0) & (d * dist >= tau)))
        band = exists & ~viol & (d >= 0)
        near = exists & ~viol & ~band & (d > -np.inf) & (-d < tau / step_min)
    viol, band, near, dist, d = (x.reshape(2, 2 * T, W) for x in (viol, band, near, dist, d))
    # a nearest-partner band event only matters before every other event
    k = np.arange(2 * T)[:, None]
    first_band = np.where(band.any(axis=1), band.argmax(axis=1), 2 * T)[:, None, :]
    walks = near & ~viol.any(axis=1, keepdims=True) & (k < first_band)
    for c, r, w in np.argwhere(walks).tolist():
        bb = r // 2
        column, thr = (V, lo_thr) if c == 0 else (Vq, hi_thr)
        a = _nearest_qualifying(column[:, w], bb, r % 2 == 0, thr[bb, w], c == 0)
        if a is not None and d[c, r, w] * abs(t[bb] - t[a]) > -tau:
            band[c, r, w] = True
            dist[c, r, w] = abs(t[bb] - t[a])
    with np.errstate(invalid="ignore"):
        value = np.where(np.isfinite(d), d * dist, d)
    value[1] = -value[1]

    def witness(c):  # + 0.0 as in _ssqc_scan
        return lambda r, w: {"b": float(t[r // 2]), "derivative": float(value[c, r, w] + 0.0)}

    return (_first_events(viol[0], band[0], witness(0)),
            _first_events(viol[1], band[1], witness(1)), n_dom * (n_dom - 1))


def classify_path(path: ScalarPath, cfg: DiniConfig | None = None,
                  tau: float = TAU_STRICT) -> ConvexityReport:
    """Generalized-convexity report for one path.

    Semistrict quasiconvexity is checked on grid triples, the pseudo
    classes on grid pairs through the one-sided derivatives, and the
    decreasing/constant/increasing structure is recovered as the longest
    strictly-monotone prefix and suffix, reported to grid resolution.
    """
    cfg = cfg or DiniConfig()
    t, v = path.t_grid, path.values
    if t.size < 3:
        raise GridTooCoarse("path classification needs at least 3 grid points")

    (ssqc_verdict, ssqc_witness), = _ssqc_scan(t, v[:, None], tau)
    if path.breakpoints is not None:
        d_plus, d_minus = _exact_grid_slopes(path.breakpoints, t)
    else:
        steps = cfg.step_grid()
        fw = path.eval_many((t[:, None] + steps[None, :]).ravel()).reshape(t.size, -1)
        bw = path.eval_many((t[:, None] - steps[None, :]).ravel()).reshape(t.size, -1)
        d_plus, d_minus = dini_table(v, fw, steps), dini_table(v, bw, steps)
    ((cvx, cvx_w),), ((ccv, ccv_w),), pairs = _pseudo_scan(
        t, v[:, None], d_plus[:, None], d_minus[:, None], tau)

    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which neither test counts
        diffs = np.diff(v)
    dec = diffs < -tau
    i = 0
    while i < dec.size and dec[i]:
        i += 1
    s0 = float(t[i])
    inc = diffs > tau
    j = 0
    while j < inc.size and inc[inc.size - 1 - j]:
        j += 1
    t0 = float(t[t.size - 1 - j])
    t0 = max(t0, s0)

    resolution = {"grid_size": int(t.size), "pairs": int(pairs[0]),
                  "dini": cfg.to_dict(), "tau_strict": tau,
                  "exact": path.breakpoints is not None}
    return ConvexityReport(
        semistrictly_quasiconvex=CheckResult(ssqc_verdict, witness=ssqc_witness,
                                             resolution=resolution),
        pseudoconvex=CheckResult(cvx, witness=cvx_w, resolution=resolution),
        pseudoconcave=CheckResult(ccv, witness=ccv_w, resolution=resolution),
        s0=s0, t0=t0, resolution=resolution,
    )


CONVEXITY_T_SAMPLES = (0.25, 0.5, 0.75)


def convexity_pairs(map: SetMap, t_samples, max_pairs: int) -> list:
    """Sample pairs (x_i, x_j), i < j, for the cone-convexity check.

    Tabulated maps keep only pairs whose combination points are stored
    samples themselves, by the rule ``evaluate`` answers with, read for
    every combination point at once; more than max_pairs pairs are thinned
    by a uniform stride over the whole list, taken on the indices before any
    pair is built.
    """
    first, second = np.triu_indices(map.domain.shape[0], 1)
    if map.kind == "tabulated":
        s = np.asarray([float(t) for t in t_samples])[None, :, None]
        x1, x2 = map.domain[first][:, None, :], map.domain[second][:, None, :]
        points = (s * x1 + (1.0 - s) * x2).reshape(-1, map.domain_dim)
        keep = nearest_samples(map, points)[1].reshape(len(first), s.size).all(axis=1)
        first, second = first[keep], second[keep]
    if len(first) > max_pairs:
        stride = int(np.ceil(len(first) / max_pairs))
        first, second = first[::stride], second[::stride]
    return [(map.domain[i], map.domain[j]) for i, j in zip(first.tolist(), second.tolist())]


def c_convexity_check(map: SetMap, cone: Cone, wstar: WStarSample,
                      pair_samples, t_samples, tau: float = TAU_STRICT) -> CheckResult:
    """Convexity of the map with respect to the cone, on sampled pairs.

    Primary test: every point of t F(x1) + (1-t) F(x2) must sit in
    F(t x1 + (1-t) x2) + C up to the strictness band.  Cross-check: each
    sampled scalarization must be convex on the same combinations, which
    the containment forces, so a scalar witness alone aborts with
    diagnostics.  A containment witness alone is a genuine FAILS: it occurs
    whenever some F(x) + C is not convex, which no weight can see.

    Each distinct point is evaluated and scalarized once, and the values
    are read as the one stack ``evaluate_rows`` gives.  The containment margins of the
    (pair, t) combinations are taken in stacked ``ext_margins`` calls of
    at most ``_POINTS_BLOCK`` entries that stop at the first failing
    combination.  Both witnesses are the first failing combination in
    (pair, t) order.  A combination reads only its smallest margin, so
    stacks at least ``_PRUNE_MIN_POINTS`` points wide combine only the
    points of F(x1) and F(x2) that ``dominated_probes`` keeps
    (``_kept_ends``): the smallest margin, its first index and the point
    there keep their bits, and ordered clouds never form their p^2-point
    combination clouds.
    """
    t_samples = [float(s) for s in t_samples]
    scalar_tau = tau * max(1.0, wstar.max_norm())
    pairs = [(np.atleast_1d(np.asarray(x1, dtype=float)),
              np.atleast_1d(np.asarray(x2, dtype=float))) for x1, x2 in pair_samples]
    S = len(t_samples)
    ends = np.reshape(pairs, (len(pairs), 2, map.domain_dim))
    w = np.asarray(t_samples)[:, None]
    rows = np.concatenate([ends, w * ends[:, :1] + (1.0 - w) * ends[:, 1:]], axis=1
                          ).reshape(-1, map.domain_dim)
    # endpoints and combination points repeat across pairs; the map is
    # deterministic, so one evaluation per distinct point gives the same bits
    index = {}
    ids = np.array([index.setdefault(x.tobytes(), len(index)) for x in rows],
                   dtype=np.intp).reshape(len(pairs), 2 + S)
    stack, counts, whole = stacked = evaluate_rows(map, rows[np.unique(ids, return_index=True)[1]])
    # the (pair, t) combinations in scan order, as indices of x1, x2 and xt
    i1, i2, it = np.repeat(ids[:, 0], S), np.repeat(ids[:, 1], S), ids[:, 2:].ravel()
    s = np.tile(t_samples, len(pairs))
    empty = (counts == 0) & ~whole

    def tag(c: int) -> dict:
        x1, x2 = pairs[c // S]
        return {"x1": x1.tolist(), "x2": x2.tolist(), "t": t_samples[c % S]}

    live = ~(empty[i1] | empty[i2])  # an empty end leaves nothing to contain
    ends_whole = whole[i1] | whole[i2]
    phis = scalarize_values(stacked, wstar.weights)
    # scalar cross-check where both ends are clouds
    with np.errstate(invalid="ignore", over="ignore"):
        gaps = phis[it] - (s[:, None] * phis[i1] + (1.0 - s)[:, None] * phis[i2])
        over = live & ~ends_whole & (gaps > scalar_tau).any(axis=1)
    scalar_witness = None
    if over.any():
        c = int(np.argmax(over))
        j = int(np.argmax(gaps[c]))
        scalar_witness = {**tag(c), "w": wstar.weights[j].tolist(), "gap": float(gaps[c, j])}

    # containment: whole-space ends need a whole-space combination; cloud
    # ends need a combination value that is not empty and, if it is a
    # cloud, covers every combination point up to the band
    reasons = live & np.where(ends_whole, ~whole[it], empty[it])
    first_reason = int(np.argmax(reasons)) if reasons.any() else len(s)
    candidates = np.flatnonzero(live & ~ends_whole & ~whole[it] & ~empty[it])
    candidates = candidates[candidates < first_reason]
    p = stack.shape[1]
    kept = _kept_ends(stack, cone, np.concatenate([i1[candidates], i2[candidates]]), t_samples)
    width = p if kept is None else kept.shape[1]
    mink_witness = None
    # a combination's pairs hold their differences and facet distances
    for part in blocks(len(candidates), width ** 2 * p * sum(cone.normalized_normals.shape)):
        c = candidates[part]
        if kept is None:
            P1, P2 = stack[i1[c]], stack[i2[c]]
        else:
            P1, P2 = (stack[i[c][:, None], kept[i[c]]] for i in (i1, i2))
        Pt = stack[it[c]]
        t = s[c][:, None, None, None]
        combo = (t * P1[:, :, None, :] + (1.0 - t) * P2[:, None, :, :]
                 ).reshape(len(c), -1, P1.shape[2])
        margins, _ = ext_margins(Pt, cone, combo)
        worst = margins.argmin(axis=1)
        low = margins[np.arange(len(c)), worst] < -tau
        if low.any():
            k = int(np.argmax(low))
            mink_witness = {**tag(int(c[k])), "point": combo[k, worst[k]].tolist(),
                            "margin": float(margins[k, worst[k]])}
            break
    if mink_witness is None and first_reason < len(s):
        mink_witness = {**tag(first_reason), "reason": (
            "whole-space combination not covered" if ends_whole[first_reason]
            else "empty value at the combination point")}

    if scalar_witness is not None and mink_witness is None:
        raise InternalCheckError(
            "convexity tests disagree: a sampled scalarization is not convex "
            "although every combination passed the Minkowski containment, which "
            f"forces convex scalarizations. scalar={scalar_witness}"
        )
    checked = int(np.count_nonzero(live))
    resolution = {"pairs": len(pairs), "t_samples": t_samples,
                  "combinations_checked": checked, "tau_strict": tau,
                  "wstar_size": len(wstar)}
    if mink_witness is not None:
        return CheckResult(Verdict.FAILS, witness=mink_witness, resolution=resolution,
                           details={"scalar_witness": scalar_witness})
    if checked == 0:
        return CheckResult(Verdict.UNDETERMINED, resolution=resolution,
                           details={"note": "no evaluable pair combinations"})
    return CheckResult(Verdict.HOLDS, resolution=resolution)


def _kept_ends(stack: np.ndarray, cone: Cone, ends: np.ndarray,
               t_samples) -> np.ndarray | None:
    """(len(stack), n_kept) ``kept_indices`` of the points of the values
    ``ends`` that the combinations t F(x1) + (1-t) F(x2) of
    c_convexity_check need, read once per value, or None when no point
    drops: stacks narrower than ``_PRUNE_MIN_POINTS`` points keep the
    unpruned pass, and so does a t outside (0, 1).  Rows of other values
    are zero.

    The factor of ``dominated_probes`` is the smallest of t and 1 - t; the
    ends, their partners and the anchors are values of the stack, so twice
    its largest 1-norm bounds its N.
    """
    ts = np.asarray(t_samples, dtype=float)
    factor = np.min(np.minimum(ts, 1.0 - ts), initial=1.0)
    if stack.shape[1] < _PRUNE_MIN_POINTS or not (ends.size and factor > 0.0):
        return None
    used = np.unique(ends)
    scale = 2.0 * np.abs(stack).sum(axis=-1).max()
    dominated = np.empty((len(used), stack.shape[1]), dtype=bool)
    # a value's scan holds two (p, p) slabs of facet distances at once
    for rows in blocks(len(used), 2 * stack.shape[1] ** 2):
        dominated[rows] = dominated_probes(stack[used[rows]], cone, scale, factor)
    if not dominated.any():
        return None
    kept = kept_indices(dominated)
    out = np.zeros((len(stack), kept.shape[1]), dtype=kept.dtype)
    out[used] = kept
    return out


def diewert_witness(path: ScalarPath, side: str = "forward",
                    cfg: DiniConfig | None = None,
                    tau: float = TAU_STRICT):
    """Mean-value witness: a grid t where the one-sided derivative majorizes
    the endpoint residual.

    Forward looks for phi(1) residual phi(0) <= derivative at some t in
    [0, 1); backward for phi(0) residual phi(1) at some s in (0, 1] with
    the opposite direction.  Raises NoWitnessFound when the scan grid is
    exhausted, which signals either a too-coarse grid or a path that is
    not lower semicontinuous at sample resolution.
    """
    cfg = cfg or DiniConfig()
    if side not in ("forward", "backward"):
        raise ValueError("side must be 'forward' or 'backward'")
    phi0, phi1 = path.eval(0.0), path.eval(1.0)
    candidates = set(float(x) for x in path.t_grid)
    if path.breakpoints is not None:
        candidates.update(float(x) for x in path.breakpoints.knots)
    if side == "forward":
        target = float(residual_floats(phi1, phi0))
        scan = sorted(c for c in candidates if 0.0 <= c < 1.0)
        direction = +1
    else:
        target = float(residual_floats(phi0, phi1))
        scan = sorted(c for c in candidates if 0.0 < c <= 1.0)
        direction = -1
    for tcand in scan:
        d = dini_lower(path, tcand, direction, cfg)
        if target <= d + tau or target == -np.inf:
            return tcand, float(residual_floats(d, target))
    raise NoWitnessFound(
        f"no {side} mean-value witness among {len(scan)} grid points: either the "
        "scan grid is too coarse or the path is not lower semicontinuous"
    )
