"""Weighted-infimum scalarizations of set values and their continuity checks.

For a weight w in the dual cone, a set value scalarizes to the infimum of
w . y over its points: +inf on the empty value (the point is outside the
domain of the map) and -inf on a whole-space value.  Restricting a map to
a segment and scalarizing pointwise yields the extended-real paths that
the directional-derivative machinery consumes.

The continuity notions here are resolution-stamped: upper Hausdorff
continuity of the map and lower equicontinuity of the scalarization family
are only certified at the probed radii and epsilons, and each verdict
records how many samples it actually saw so vacuous passes are detectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import TAU_STRICT, WStarSample
from .errors import DimensionMismatch, EmptySet
from .extreal import NEG_INF, POS_INF, ExtReal
from .setmap import (RayValues, SetMap, SetValue, base_value, evaluate, evaluate_batch,
                     ray_restriction, segment_sample_ts)
from .verdicts import CheckResult, Verdict, worst


def scalarize(value: SetValue, w) -> ExtReal:
    """inf of w . y over the value: +inf if empty, -inf if whole-space."""
    w = np.asarray(w, dtype=float)
    if value.whole_space:
        return NEG_INF
    if value.is_empty:
        return POS_INF
    if w.shape != (value.dim,):
        raise DimensionMismatch(f"weight shape {w.shape} vs value in R^{value.dim}")
    return ExtReal(float(np.min(value.points @ w)))


def scalarize_many(value: SetValue, weights: np.ndarray) -> np.ndarray:
    """Scalarize one value under every weight row; returns floats with +-inf."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if value.whole_space:
        return np.full(n, -np.inf)
    if value.is_empty:
        return np.full(n, np.inf)
    return np.min(value.points @ weights.T, axis=0)


def scalarize_batch(clouds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Scalarize a (T, p, m) stack of clouds under (n, m) weights -> (T, n)."""
    return np.einsum("tpm,nm->tpn", clouds, weights).min(axis=1)


def interp_extended(knots: np.ndarray, values: np.ndarray,
                    ts: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of extended reals at ts.

    ``values`` holds one row per knot and may carry trailing columns, one
    path per column.  Strictly between knots the value interpolates when
    both endpoint values are finite; otherwise it is +inf if either
    endpoint is +inf, else -inf.  Beyond the knot span the end segments
    extend; callers that read a path as +inf outside [0, 1] mask first.
    """
    idx = np.clip(np.searchsorted(knots, ts, side="left"), 0, knots.size - 1)
    exact = knots[idx] == ts
    out = np.empty(ts.shape + values.shape[1:])
    out[exact] = values[idx[exact]]
    seg = ~exact
    i = np.clip(idx[seg] - 1, 0, knots.size - 2)
    v0, v1 = values[i], values[i + 1]
    lam = (ts[seg] - knots[i]) / (knots[i + 1] - knots[i])
    lam = lam.reshape(lam.shape + (1,) * (values.ndim - 1))
    both = np.isfinite(v0) & np.isfinite(v1)
    safe0 = np.where(both, v0, 0.0)
    safe1 = np.where(both, v1, 0.0)
    out[seg] = np.where(both, safe0 + lam * (safe1 - safe0),
                        np.where((v0 == np.inf) | (v1 == np.inf), np.inf, -np.inf))
    return out


def ray_scalarizations(map: SetMap, base: np.ndarray, target: np.ndarray,
                       svals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Scalarizations (n_s, n_w) along base + s (target - base).

    Generator maps evaluate anywhere, batched when they can; tabulated maps
    only carry values at stored samples, so their scalarizations are
    interpolated between the samples that lie on the segment (with +inf
    dominating a mixed span, matching the path-evaluation conventions).
    """
    points = base[None, :] + svals[:, None] * (target - base)[None, :]
    clouds = evaluate_batch(map, points)
    if clouds is not None:
        return scalarize_batch(clouds, weights)
    if map.kind == "generator":
        return np.stack([scalarize_many(evaluate(map, p), weights) for p in points])
    knots = segment_sample_ts(map, base, target)
    phis = np.stack([
        scalarize_many(evaluate(map, base + t * (target - base)), weights)
        for t in knots
    ])
    return interp_extended(knots, phis, svals)


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Exact piecewise-linear extended-real path description on [0, 1].

    Knot values may be +-inf.  Strictly between knots the value
    interpolates when both endpoint values are finite; otherwise the open
    segment is +inf if either endpoint is +inf, else -inf.  Outside the
    knot span the path is +inf (the segment-restriction convention).
    """

    knots: np.ndarray        # strictly increasing, knots[0] = 0, knots[-1] = 1
    knot_values: np.ndarray  # floats, +-inf allowed, never NaN

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        vals = np.asarray(self.knot_values, dtype=float)
        if knots.ndim != 1 or knots.size < 2 or vals.shape != knots.shape:
            raise ValueError("breakpoints need matching 1-D knots and values")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("breakpoints must span [0, 1]")
        if np.any(np.isnan(vals)):
            raise ValueError("breakpoint values must not be NaN")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "knot_values", vals)

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.full(ts.shape, np.inf)
        inside = (ts >= 0.0) & (ts <= 1.0)
        out[inside] = interp_extended(self.knots, self.knot_values, ts[inside])
        return out

    def eval(self, t: float) -> float:
        return float(self.eval_many(np.asarray([t]))[0])


@dataclass(eq=False)
class ScalarPath:
    """An extended-real path on [0, 1]: grid samples plus optional exact forms.

    ``values`` are the grid samples (floats, +-inf allowed).  When
    ``breakpoints`` is present the path is known exactly and derivative
    code uses closed-form slopes; when ``evaluator`` is present off-grid
    probes call it, otherwise probes interpolate the grid samples with the
    piecewise-linear conventions.  Outside [0, 1] the path is +inf.
    """

    t_grid: np.ndarray
    values: np.ndarray
    breakpoints: PiecewiseLinear | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("grid and values must be matching 1-D arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("path grid must be strictly increasing")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("path grid must contain 0 and 1")
        if np.any(np.isnan(v)):
            raise ValueError("path values must not be NaN")
        if self.breakpoints is not None:
            exact = self.breakpoints.eval_many(t)
            with np.errstate(invalid="ignore"):
                mismatch = ~((exact == v) | (np.abs(exact - v) <= 1e-12))
            if np.any(mismatch):
                raise ValueError("grid values disagree with the breakpoint description")
        self.t_grid = t
        self.values = v

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.breakpoints is not None:
            return self.breakpoints.eval_many(ts)
        out = np.full(ts.shape, np.inf)
        inside = (ts >= 0.0) & (ts <= 1.0)
        if not np.any(inside):
            return out
        if self.evaluator is not None:
            out[inside] = np.asarray(self.evaluator(ts[inside]), dtype=float)
            return out
        # fall back to interpolating the grid samples
        out[inside] = interp_extended(self.t_grid, self.values, ts[inside])
        return out

    def eval(self, t: float) -> float:
        return float(self.eval_many(np.asarray([t]))[0])

    @staticmethod
    def from_function(fn: Callable[[np.ndarray], np.ndarray], t_grid,
                      breakpoints: PiecewiseLinear | None = None) -> "ScalarPath":
        t = np.asarray(t_grid, dtype=float)
        return ScalarPath(t_grid=t, values=np.asarray(fn(t), dtype=float),
                          breakpoints=breakpoints, evaluator=fn)

    @staticmethod
    def from_breakpoints(pl: PiecewiseLinear, t_grid) -> "ScalarPath":
        t = np.asarray(t_grid, dtype=float)
        return ScalarPath(t_grid=t, values=pl.eval_many(t), breakpoints=pl)


def scalar_path(map: SetMap, x0, x, w, t_grid) -> ScalarPath:
    """Scalarization of the segment restriction of the map, as a path.

    Generator-backed maps yield an evaluator so probes off the grid are
    exact; tabulated maps fall back to grid interpolation.
    """
    w = np.asarray(w, dtype=float)
    ray = ray_restriction(map, x0, x, t_grid)
    values = np.array([scalarize(v, w).value for v in ray.values])
    evaluator = None
    if map.kind == "generator":
        def evaluator(ts: np.ndarray) -> np.ndarray:
            return ray_scalarizations(map, ray.x0, ray.x, ts, w.reshape(1, -1))[:, 0]

    return ScalarPath(t_grid=np.asarray(t_grid, dtype=float), values=values,
                      evaluator=evaluator)


# ---------------------------------------------------------------------------
# Continuity checks
# ---------------------------------------------------------------------------


def equicontinuity_check(map: SetMap, x0, wstar: WStarSample, probe_radii,
                         eps: float, tau: float = TAU_STRICT) -> CheckResult:
    """Lower equicontinuity of the scalarization family at x0.

    HOLDS when some probed radius delta keeps phi_w(x0) <= phi_w(x) + eps
    for every sampled x within delta and every sampled w; FAILS when every
    radius contains a clear violator; UNDETERMINED when only borderline
    gaps (within the strictness band around eps) remain.
    """
    x0, v0 = base_value(map, x0)
    radii = sorted(float(r) for r in probe_radii)
    if not radii:
        raise ValueError("probe_radii must be nonempty")
    phi0 = scalarize_many(v0, wstar.weights)
    dists = np.linalg.norm(map.domain - x0[None, :], axis=1)
    per_radius = []
    best = None
    for delta in radii:
        sel = np.flatnonzero((dists <= delta) & (dists > 0.0))
        worst_gap = -np.inf
        witness = None
        for i in sel:
            phix = scalarize_many(map.values[i], wstar.weights)
            gaps = phi0 - phix  # must stay <= eps
            j = int(np.argmax(gaps))
            if gaps[j] > worst_gap:
                worst_gap = float(gaps[j])
                witness = {"x": map.domain[i].tolist(), "w": wstar.weights[j].tolist(),
                           "gap": float(gaps[j])}
        per_radius.append({"delta": delta, "probed": int(sel.size),
                           "worst_gap": worst_gap})
        if worst_gap <= eps + tau and best is None:
            best = {"delta": delta, "probed": int(sel.size),
                    "worst_gap": worst_gap, "borderline": worst_gap > eps - tau,
                    "witness": witness}
    resolution = {"eps": eps, "radii": radii, "tau_strict": tau,
                  "wstar_size": len(wstar)}
    if best is not None:
        verdict = Verdict.UNDETERMINED if best["borderline"] else Verdict.HOLDS
        return CheckResult(verdict, witness=best.get("witness"),
                           resolution=resolution,
                           details={"chosen": best, "per_radius": per_radius})
    # every radius contains a violator; report the tightest one
    tightest = per_radius[0]
    return CheckResult(Verdict.FAILS, witness={"worst_gap": tightest["worst_gap"]},
                       resolution=resolution, details={"per_radius": per_radius})


def _excess(inner: SetValue, outer: SetValue) -> float:
    """sup over inner points of the distance to the outer cloud (0 if empty)."""
    if inner.is_empty:
        return 0.0
    if inner.whole_space:
        return 0.0 if outer.whole_space else np.inf
    if outer.whole_space:
        return 0.0
    if outer.is_empty:
        return np.inf
    d = inner.points[:, None, :] - outer.points[None, :, :]
    return float(np.sqrt(np.sum(d * d, axis=2)).min(axis=1).max())


def _scan_radius(entries, eps_list, delta, tau, resolution) -> CheckResult:
    """Shared HOLDS/FAILS/UNDETERMINED aggregation for containment checks.

    ``entries`` holds (excess, tag) per sample within delta, the smallest
    probed radius: a larger one adds samples, so it passes no eps that the
    smallest fails.  With no entries only an eps below -tau fails.
    """
    bad = max(entries, key=lambda e: e[0], default=None)
    worst_excess = 0.0 if bad is None else bad[0]
    witness = None if bad is None else {"tag": bad[1], "excess": bad[0]}
    per_eps = []
    verdicts = []
    for eps in eps_list:
        if worst_excess <= eps + tau:
            borderline = worst_excess > eps - tau
            per_eps.append({"eps": eps, "delta": delta, "probed": len(entries),
                            "worst_excess": worst_excess, "borderline": borderline})
            verdicts.append(Verdict.UNDETERMINED if borderline else Verdict.HOLDS)
        else:
            per_eps.append({"eps": eps, "failed": True, "witness": witness})
            verdicts.append(Verdict.FAILS)
    overall = worst(*verdicts) if verdicts else Verdict.UNDETERMINED
    return CheckResult(overall, witness=witness if Verdict.FAILS in verdicts else None,
                       resolution=resolution, details={"per_eps": per_eps})


def hausdorff_check(map: SetMap, x0, eps_list, probe_radii,
                    tau: float = TAU_STRICT) -> CheckResult:
    """Upper Hausdorff continuity of the map at x0, at sample resolution.

    For each eps it asks whether some probe radius delta keeps all of F(x)
    (the stored domain values) within eps of F(x0) for every sampled x
    within delta; the smallest radius decides (see ``_scan_radius``).
    """
    x0, v0 = base_value(map, x0)
    radii = sorted(float(r) for r in probe_radii)
    eps_list = [float(e) for e in eps_list]
    if not radii or not eps_list:
        raise ValueError("eps_list and probe_radii must be nonempty")
    dists = np.linalg.norm(map.domain - x0[None, :], axis=1)
    entries = [(_excess(map.values[i], v0), {"x": map.domain[i].tolist()})
               for i in np.flatnonzero((dists > 0.0) & (dists <= radii[0]))]
    resolution = {"eps_list": eps_list, "radii": radii, "tau_strict": tau,
                  "domain_size": int(map.domain.shape[0])}
    return _scan_radius(entries, eps_list, radii[0], tau, resolution)


def hausdorff_check_radial(rays: list[RayValues], eps_list,
                           tau: float = TAU_STRICT) -> CheckResult:
    """Upper Hausdorff continuity of every segment restriction t -> F_(x0,x)(t).

    Runs the containment scan at every grid t0 of every ray (the rays from
    one base point, as ``radial_rays`` reads them) at radii of 1.5 and 3
    smallest grid steps, of which the smallest decides; the worst verdict
    over all rays and anchors is returned.
    """
    eps_list = [float(e) for e in eps_list]
    results = []
    for ray in rays:
        x, t = ray.x, ray.t_grid
        if t.size < 2:
            continue
        step = float(np.min(np.diff(t)))
        radii = [1.5 * step, 3.0 * step]
        for a in range(t.size):
            anchor = ray.values[a]
            if anchor.is_empty:
                continue
            dt = np.abs(t - t[a])
            entries = [(_excess(ray.values[b], anchor),
                        {"x": x.tolist(), "t0": float(t[a]), "t": float(t[b])})
                       for b in np.flatnonzero((dt > 0.0) & (dt <= radii[0]))]
            resolution = {"eps_list": eps_list, "t_radii": radii, "tau_strict": tau,
                          "ray_to": x.tolist(), "anchor_t": float(t[a])}
            results.append(_scan_radius(entries, eps_list, radii[0], tau, resolution))
    if not results:
        return CheckResult(Verdict.HOLDS, resolution={"eps_list": eps_list,
                                                      "rays": 0})
    overall = worst(*(r.verdict for r in results))
    bad = next((r for r in results if r.verdict is overall), results[0])
    return CheckResult(overall, witness=bad.witness,
                       resolution={"eps_list": eps_list,
                                   "rays": len(rays),
                                   "tau_strict": tau},
                       details={"worst_anchor": bad.resolution})


def support_profile(value: SetValue, wstar_segment, tau: float = TAU_STRICT):
    """Scalarization values along a segment of weights plus a concavity verdict.

    The segment must be sampled at equal spacing; midpoint concavity is
    asserted on every consecutive triple up to the strictness band.
    """
    if value.is_empty or value.whole_space:
        raise EmptySet("support_profile needs a nonempty finite value")
    ws = np.atleast_2d(np.asarray(wstar_segment, dtype=float))
    profile = scalarize_many(value, ws)
    verdict = Verdict.HOLDS
    witness = None
    # concavity is a non-strict inequality: equality within the band passes
    for i in range(ws.shape[0] - 2):
        mid = profile[i + 1]
        avg = 0.5 * (profile[i] + profile[i + 2])
        if mid < avg - tau:
            verdict = Verdict.FAILS
            witness = {"index": i, "mid": float(mid), "average": float(avg)}
            break
    result = CheckResult(verdict, witness=witness,
                         resolution={"segment_size": int(ws.shape[0]),
                                     "tau_strict": tau})
    return profile, result
