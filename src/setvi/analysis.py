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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone import Cone, TAU_STRICT, WStarSample, ext_margins
from .errors import (
    GridTooCoarse,
    InternalCheckError,
    NoWitnessFound,
    OutsideSampleDomain,
    StepOutsideDomain,
)
from .extreal import ExtReal, inf_residual, residual_floats
from .scalarize import PiecewiseLinear, ScalarPath, scalarize_many
from .setmap import SetMap, evaluate
from .verdicts import CheckResult, Verdict


@dataclass(frozen=True)
class DiniConfig:
    """Geometric step grid for the liminf estimate: t_max * ratio^k."""

    t_max: float = 0.1
    ratio: float = 0.5
    steps: int = 20

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        if self.t_max <= 0.0 or self.steps < 1:
            raise ValueError("t_max must be positive and steps >= 1")
        if self.t_max * self.ratio ** self.steps < 1e-300:
            raise ValueError("step grid underflows; reduce steps or raise t_max")

    def step_grid(self) -> np.ndarray:
        return self.t_max * self.ratio ** np.arange(self.steps)

    def to_dict(self) -> dict:
        return {"t_max": self.t_max, "ratio": self.ratio, "steps": self.steps}


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
               cfg: DiniConfig | None = None) -> ExtReal:
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
        d_plus, d_minus = _exact_unit_derivatives_grid(path.breakpoints, np.array([t]))
        return ExtReal(float((d_plus if direction > 0 else d_minus)[0]))
    steps = cfg.step_grid()
    probes = path.eval_many(t + direction * steps)
    base = path.eval(t)
    return ExtReal(float(dini_table(np.array([base]), probes[None, :], steps)[0]))


def unit_derivatives(path: ScalarPath, cfg: DiniConfig):
    """(d_plus, d_minus) one-sided derivatives at every grid point."""
    t = path.t_grid
    if path.breakpoints is not None:
        return _exact_unit_derivatives_grid(path.breakpoints, t)
    steps = cfg.step_grid()
    fw = path.eval_many((t[:, None] + steps[None, :]).ravel()).reshape(t.size, -1)
    bw = path.eval_many((t[:, None] - steps[None, :]).ravel()).reshape(t.size, -1)
    base = path.values
    return dini_table(base, fw, steps), dini_table(base, bw, steps)


def _exact_unit_derivatives_grid(breakpoints: PiecewiseLinear, t: np.ndarray):
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


def _ssqc_scan(t: np.ndarray, v: np.ndarray, tau: float):
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
                        below: bool) -> float | None:
    """Walk outward from b for the nearest index with v < thr (or > thr)."""
    rng = range(b - 1, -1, -1) if left else range(b + 1, v.size)
    for a in rng:
        if (v[a] < thr) if below else (v[a] > thr):
            return abs(a - b)
    return None


def _pseudo_scan(t: np.ndarray, v: np.ndarray, d_plus: np.ndarray,
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
                    near = _nearest_qualifying(v, b, left, lo_thr[b], True)
                    if near is not None and d * near * step_min > -tau:
                        settle(cvx, "band", b, near * step_min, d)
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
                    near = _nearest_qualifying(v, b, left, hi_thr[b], False)
                    if near is not None and d * near * step_min < tau:
                        settle(ccv, "band", b, near * step_min, d)
    return (cvx[0], cvx[1]), (ccv[0], ccv[1]), pair_count


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

    ssqc_verdict, ssqc_witness = _ssqc_scan(t, v, tau)
    d_plus, d_minus = unit_derivatives(path, cfg)
    (cvx, cvx_w), (ccv, ccv_w), pairs = _pseudo_scan(t, v, d_plus, d_minus, tau)

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

    resolution = {"grid_size": int(t.size), "pairs": pairs,
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
    samples themselves; more than max_pairs pairs are thinned by a
    uniform stride over the whole list.
    """
    n = map.domain.shape[0]
    pairs = [(map.domain[i], map.domain[j]) for i in range(n) for j in range(i + 1, n)]
    if map.kind == "tabulated":
        pairs = [p for p in pairs if _combos_stored(map, p, t_samples)]
    if len(pairs) > max_pairs:
        stride = int(np.ceil(len(pairs) / max_pairs))
        pairs = pairs[::stride]
    return pairs


def _combos_stored(map: SetMap, pair, t_samples) -> bool:
    x1, x2 = pair
    for s in t_samples:
        try:
            evaluate(map, s * x1 + (1.0 - s) * x2)
        except OutsideSampleDomain:
            return False
    return True


def c_convexity_check(map: SetMap, cone: Cone, wstar: WStarSample,
                      pair_samples, t_samples, tau: float = TAU_STRICT) -> CheckResult:
    """Convexity of the map with respect to the cone, on sampled pairs.

    Primary test: every point of t F(x1) + (1-t) F(x2) must sit in
    F(t x1 + (1-t) x2) + C up to the strictness band.  Cross-check: each
    sampled scalarization must be convex on the same combinations.  The
    two tests are redundant on finite clouds whose extended values are
    convex; if they disagree the check aborts with diagnostics instead of
    guessing.
    """
    pair_samples = list(pair_samples)
    t_samples = [float(s) for s in t_samples]
    mink_witness = None
    scalar_witness = None
    scalar_tau = tau * max(1.0, wstar.max_norm())
    checked = 0
    for (x1, x2) in pair_samples:
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        v1 = evaluate(map, x1)
        v2 = evaluate(map, x2)
        for s in t_samples:
            xt = s * x1 + (1.0 - s) * x2
            vt = evaluate(map, xt)
            if v1.is_empty or v2.is_empty:
                continue  # the combination is empty; nothing to contain
            checked += 1
            if v1.whole_space or v2.whole_space:
                if not vt.whole_space and mink_witness is None:
                    mink_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                    "reason": "whole-space combination not covered"}
                continue
            combo = (s * v1.points[:, None, :]
                     + (1.0 - s) * v2.points[None, :, :]).reshape(-1, v1.dim)
            # scalar cross-check on the same sample
            phit = scalarize_many(vt, wstar.weights)
            phi1 = scalarize_many(v1, wstar.weights)
            phi2 = scalarize_many(v2, wstar.weights)
            gaps = phit - (s * phi1 + (1.0 - s) * phi2)
            if scalar_witness is None and np.any(gaps > scalar_tau):
                j = int(np.argmax(gaps))
                scalar_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                  "w": wstar.weights[j].tolist(),
                                  "gap": float(gaps[j])}
            if vt.whole_space:
                continue
            if vt.is_empty:
                if mink_witness is None:
                    mink_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                    "reason": "empty value at the combination point"}
                continue
            if mink_witness is None:
                margins, _ = ext_margins(vt.points, cone, combo)
                worst = int(np.argmin(margins))
                if margins[worst] < -tau:
                    mink_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                    "point": combo[worst].tolist(),
                                    "margin": float(margins[worst])}
    if (mink_witness is None) != (scalar_witness is None):
        raise InternalCheckError(
            "convexity tests disagree: the Minkowski containment and the sampled "
            "scalarization convexity must fail together on finite clouds with "
            "convex extended values; on staircase-shaped values the separation "
            f"argument is void. minkowski={mink_witness}, scalar={scalar_witness}"
        )
    resolution = {"pairs": len(pair_samples), "t_samples": t_samples,
                  "combinations_checked": checked, "tau_strict": tau,
                  "wstar_size": len(wstar)}
    if mink_witness is not None:
        return CheckResult(Verdict.FAILS, witness=mink_witness, resolution=resolution,
                           details={"scalar_witness": scalar_witness})
    if checked == 0:
        return CheckResult(Verdict.UNDETERMINED, resolution=resolution,
                           details={"note": "no evaluable pair combinations"})
    return CheckResult(Verdict.HOLDS, resolution=resolution)


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
    phi0 = ExtReal(path.eval(0.0))
    phi1 = ExtReal(path.eval(1.0))
    candidates = set(float(x) for x in path.t_grid)
    if path.breakpoints is not None:
        candidates.update(float(x) for x in path.breakpoints.knots)
    if side == "forward":
        target = inf_residual(phi1, phi0)
        scan = sorted(c for c in candidates if 0.0 <= c < 1.0)
        direction = +1
    else:
        target = inf_residual(phi0, phi1)
        scan = sorted(c for c in candidates if 0.0 < c <= 1.0)
        direction = -1
    for tcand in scan:
        d = dini_lower(path, tcand, direction, cfg)
        if target.value <= d.value + tau or target.is_neg_inf:
            return tcand, inf_residual(d, target)
    raise NoWitnessFound(
        f"no {side} mean-value witness among {len(scan)} grid points: either the "
        "scan grid is too coarse or the path is not lower semicontinuous"
    )
