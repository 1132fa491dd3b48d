"""Weighted-infimum scalarizations of set values and the radial continuity check.

For a weight w in the dual cone, a set value scalarizes to the infimum of
w . y over its points: +inf on the empty value (the point is outside the
domain of the map) and -inf on a whole-space value.  Restricting a map to
a segment and scalarizing pointwise yields the extended-real paths that
the directional-derivative machinery consumes.

Upper Hausdorff continuity of the segment restrictions is only certified
at the sampled ray grids and the given epsilons, and the verdict records
the rays, radii and epsilons it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cone import _PRUNE_MIN_POINTS, TAU_STRICT
from .setmap import (RayValues, SetMap, SetValue, blocks, concat_values, evaluate_rows,
                     ray_restriction, segment_sample_ts, stack_values)
from .verdicts import CheckResult, Verdict


def scalarize_many(value: SetValue, weights: np.ndarray) -> np.ndarray:
    """Scalarize one value under every weight row; returns floats with +-inf."""
    return scalarize_values(stack_values([value]), weights)[0]


def scalarize_values(stacked, weights: np.ndarray) -> np.ndarray:
    """Scalarizations (K, n) of a ``stack_values`` triple: -inf on whole-space
    rows, +inf on empty ones, ``scalarize_batch`` of the rest.  A padded row
    repeats a point and its products, so it has its cloud's own bits."""
    stack, counts, whole = stacked
    weights = np.asarray(weights, dtype=float)
    if counts.size and counts.min() == stack.shape[1]:
        return scalarize_batch(stack, weights)
    out = np.full((len(counts), len(weights)), np.inf)
    out[whole] = -np.inf
    out[counts > 0] = scalarize_batch(stack[counts > 0], weights)
    return out


def _products_min(clouds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The einsum's minimum over points, in blocks of ``_POINTS_BLOCK`` products."""
    parts = blocks(len(clouds), clouds.shape[1] * len(weights))
    if len(parts) < 2:
        return np.einsum("tpm,nm->tpn", clouds, weights).min(axis=1)
    return np.concatenate([_products_min(clouds[rows], weights) for rows in parts])


def scalarize_batch(clouds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Scalarize a (T, p, m) stack of clouds under (n, m) weights -> (T, n).

    A least point attains every minimum under weights >= 0, and rounding
    keeps that: when w >= 0 and a <= b in every coordinate, each rounded
    product and each rounded partial sum of fl(w . a) is at most its
    counterpart in fl(w . b), in any fixed evaluation order, because
    rounding is monotone.  This needs no rounding bound, only that nothing
    overflows (inf - inf is NaN).  So for weights >= 0 and at least
    ``_PRUNE_MIN_POINTS`` points, the first point of ``clouds[0]`` that
    attains its coordinate-wise minima is tried on every row; when it is
    at most every point of every row, only its products are taken, and
    otherwise every point's are.

    The minimum keeps its value, and equal values share their bits except a
    zero, whose sign depends on which zero the reduction meets first: a row
    whose minimum is a zero is taken again over every point.  The einsum
    computes each (t, p, n) entry the same way in any stack, so the result
    has the bits of the unpruned reduction.
    This is the one kernel that scalarizes: every caller reaches it through
    ``scalarize_values``, so a value has the same bits wherever it is taken.
    """
    T, p, m = clouds.shape
    if p < _PRUNE_MIN_POINTS or T == 0 or not (weights >= 0).all():
        return _products_min(clouds, weights)
    # every |partial sum| is at most max|a| * max_n sum_k w_nk
    if not (float(np.abs(clouds).max()) * float(weights.sum(axis=1).max())
            <= np.finfo(float).max / 4):
        return _products_min(clouds, weights)
    c0 = clouds[0].T
    least = int((c0 == c0.min(axis=1)[:, None]).all(axis=0).argmax())
    keep = slice(least, least + 1)
    if not (clouds[:, keep] <= clouds).all():
        return _products_min(clouds, weights)
    out = _products_min(clouds[:, keep], weights)
    zero = (out == 0.0).any(axis=1)
    if zero.any():
        out[zero] = _products_min(clouds[zero], weights)
    return out


def interp_extended(knots: np.ndarray, values: np.ndarray,
                    ts: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of extended reals at ts, row by row:
    (R, K) knots padded with +inf (a ``segment_sample_ts`` table) and
    (R, K, ...) values, one path per trailing column, give (R, S, ...).
    Strictly between knots the value interpolates when both endpoint
    values are finite; otherwise it is +inf if either endpoint is +inf,
    else -inf.  Beyond a row's knots its end segments extend; callers that
    read a path as +inf outside [0, 1] mask first."""
    last = (knots < np.inf).sum(axis=1) - 1
    idx = np.minimum((knots[:, None, :] < ts[None, :, None]).sum(axis=2), last[:, None])
    exact = np.take_along_axis(knots, idx, axis=1) == ts
    out = np.empty(idx.shape + values.shape[2:])
    out[exact] = values[np.nonzero(exact)[0], idx[exact]]
    r, s = np.nonzero(~exact)
    i = np.maximum(idx[r, s] - 1, 0)
    v0, v1 = values[r, i], values[r, i + 1]
    lam = (ts[s] - knots[r, i]) / (knots[r, i + 1] - knots[r, i])
    lam = lam.reshape(lam.shape + (1,) * (values.ndim - 2))
    both = np.isfinite(v0) & np.isfinite(v1)
    safe0 = np.where(both, v0, 0.0)
    safe1 = np.where(both, v1, 0.0)
    out[r, s] = np.where(both, safe0 + lam * (safe1 - safe0),
                         np.where((v0 == np.inf) | (v1 == np.inf), np.inf, -np.inf))
    return out


def ray_scalarizations(map: SetMap, bases, targets, svals: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Scalarizations (R, n_s, n_w) along bases[r] + s (targets[r] - bases[r]).

    ``bases`` and ``targets`` broadcast to (R, n) rows: one ray, rays from
    one point, or one pair per ray.  Generator maps evaluate anywhere, every
    ray's points together in ``blocks`` of the first sample's cloud (a
    batch kernel gives every point a cloud of its shape).  Tabulated maps only
    carry values at stored samples, so each block of pairs is read at its
    ``segment_sample_ts`` knot table with one ``evaluate_rows``,
    ``scalarize_values`` and ``interp_extended`` call (+inf dominates a
    mixed span, as paths do).  Every kernel treats each row on its own, so
    a row has the same bits in any block.
    """
    bases, targets = np.atleast_2d(bases), np.atleast_2d(targets)
    if map.kind == "generator":
        points = bases[:, None, :] + svals[:, None] * (targets - bases)[:, None, :]
        flat = points.reshape(-1, points.shape[2])
        phis = [scalarize_values(evaluate_rows(map, flat[rows]), weights)
                for rows in blocks(len(flat), map.values[0].points.size)]
        return np.concatenate(phis).reshape(points.shape[:2] + (-1,))
    bases, targets = np.broadcast_arrays(bases, targets)
    out = []
    # a block's items are pairs, each reading at most every sample and its two ends
    for part in blocks(len(bases), (len(map.domain) + 2) * (
            map.stacked[0][0].size + svals.size + len(weights))):
        base, d = bases[part], targets[part] - bases[part]
        knots = segment_sample_ts(map, base, targets[part])
        r, k = np.nonzero(knots < np.inf)
        values = np.zeros(knots.shape + (len(weights),))
        values[r, k] = scalarize_values(
            evaluate_rows(map, base[r] + knots[r, k][:, None] * d[r]), weights)
        out.append(interp_extended(knots, values, svals))
    return np.concatenate(out)


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
        out[inside] = interp_extended(self.knots[None], self.knot_values[None], ts[inside])[0]
        return out


@dataclass(eq=False)
class ScalarPath:
    """An extended-real path on [0, 1]: grid samples and the evaluator of probes.

    ``values`` are the grid samples (floats, +-inf allowed).  Probes call
    ``evaluator``: ``breakpoints.eval_many`` when the path is known exactly
    (derivative code then uses closed-form slopes), else the given one, else
    the ``PiecewiseLinear`` interpolation of the grid.  Outside [0, 1] the
    path is +inf.
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
            self.evaluator = self.breakpoints.eval_many
        elif self.evaluator is None:
            self.evaluator = PiecewiseLinear(t, v).eval_many
        self.t_grid = t
        self.values = v

    def eval_many(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.full(ts.shape, np.inf)
        inside = (ts >= 0.0) & (ts <= 1.0)
        if np.any(inside):
            out[inside] = np.asarray(self.evaluator(ts[inside]), dtype=float)
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

    Probes off the grid go through ``ray_scalarizations``, for both map
    kinds: exact for generator maps, and interpolated between the stored
    samples on the segment for tabulated ones.  Both scalarize through
    ``scalarize_values``, so the evaluator gives the grid values' bits.
    """
    w = np.asarray(w, dtype=float)[None, :]
    ray = ray_restriction(map, x0, x, t_grid)
    return ScalarPath(t_grid=ray.t_grid, values=scalarize_values(ray.values, w)[:, 0],
                      evaluator=lambda ts: ray_scalarizations(map, ray.x0, ray.x, ts, w)[0, :, 0])


# ---------------------------------------------------------------------------
# Radial continuity
# ---------------------------------------------------------------------------


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


# ``_excess`` by the kinds of the inner (row) and outer (column) value: a
# cloud, empty or whole-space; NaN where two clouds give the excess
_EXCESS_RULES = np.array([[np.nan, np.inf, 0.0],
                          [0.0, 0.0, 0.0],
                          [np.inf, np.inf, 0.0]])


def radial_excesses(rays: list[RayValues]) -> list[np.ndarray]:
    """(T - 1, 2) excesses of neighbouring samples of every ray: row k holds
    the excess of F(t_k+1) over F(t_k), then the reverse.  Rays are read in
    blocks whose joined triples fit ``_POINTS_BLOCK``; one ``_excess_rows``
    pass per direction over a block's adjacent pairs gives the bits of
    ``_excess``, and ``_EXCESS_RULES`` its conventions for empty values."""
    widest = max((ray.values[0][0].size for ray in rays), default=0)
    size = max((ray.t_grid.size for ray in rays), default=0) * widest
    tables = []
    for part in blocks(len(rays), size):
        lengths = [ray.t_grid.size for ray in rays[part]]
        stack, counts, whole = concat_values([ray.values for ray in rays[part]])
        kinds = np.where(whole, 2, counts == 0)
        ray_of = np.repeat(np.arange(len(lengths)), lengths)
        earlier = np.flatnonzero(ray_of[1:] == ray_of[:-1])
        # row k: the excess of value k + 1 over value k, then the reverse
        inner = np.stack([earlier + 1, earlier], axis=1)
        rule = _EXCESS_RULES[kinds[inner], kinds[inner[:, ::-1]]]
        E, L = stack[earlier], stack[earlier + 1]
        excess = np.stack([_excess_rows(L, E), _excess_rows(E, L)], axis=1)
        pairs = np.where(np.isnan(rule), excess, rule)
        bounds = np.cumsum([0] + [n - 1 for n in lengths]).tolist()
        tables += [pairs[a:b] for a, b in zip(bounds, bounds[1:])]
    return tables


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|^2 over the last axis of two broadcasting arrays, with the bits
    of ``np.sum(d * d, axis=-1)``.  ``np.sum`` adds fewer than 8 terms one
    after another, so for m < 8 the squares are summed one coordinate at a
    time, which gives its bits without the full array of differences; from
    8 terms on it sums pairwise, and the squares go through ``np.sum``."""
    m = a.shape[-1]
    if m >= 8:
        d = a - b
        d *= d
        return np.sum(d, axis=-1)
    s = a[..., 0] - b[..., 0]
    s *= s
    for j in range(1, m):
        d = a[..., j] - b[..., j]
        d *= d
        s += d
    return s


def _excess_rows(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``_excess`` of inner[k] over outer[k] for stacked (K, p, m) and
    (K, q, m) clouds, every pass in blocks of ``_POINTS_BLOCK`` entries.

    The reductions run on squared distances and one square root follows:
    ``sqrt`` is monotone and correctly rounded, so the square root of a
    minimum or maximum is the minimum or maximum of the square roots, bit
    for bit.  Every squared distance is one ``_squared_distances`` entry,
    the same float wherever it is computed.

    Below ``_PRUNE_MIN_POINTS`` points on either side, every row is scanned
    against every column.  From there on, each inner row i first takes the
    minimum over those of the outer columns i - 1, i and i + 1 that exist
    (+inf if none does): a minimum over a subset of the row's floats, so a
    guess never below the row's minimum.  The row with the largest guess
    is scanned in full; its minimum L is one of the row minima, so the
    excess is at least L, and a row whose guess is at most L cannot exceed
    it.  Only the rows whose guess exceeds L are scanned in full, and their
    minima fold into L with a max.  The result is the maximum of the same
    row minima as the full scan, bit for bit (the points are finite, so no
    NaN arises).  The order of the points decides only how many rows are
    scanned: on clouds that move a little between neighbouring samples,
    the nearest column of a row is usually one of its guesses.
    """
    K, p, m = inner.shape
    q = outer.shape[1]
    if min(p, q) < _PRUNE_MIN_POINTS:
        out = np.empty(K)
        for rows in blocks(K, p * q * m):
            out[rows] = _squared_distances(inner[rows, :, None, :],
                                           outer[rows, None, :, :]).min(axis=2).max(axis=1)
        return np.sqrt(out)
    guess = np.full((K, p), np.inf)
    for rows in blocks(K, p * m):
        for shift in (-1, 0, 1):            # rows lo:hi have the column i + shift
            lo, hi = max(0, -shift), min(p, q - shift)
            near = guess[rows, lo:hi]
            np.minimum(near, _squared_distances(inner[rows, lo:hi],
                                                outer[rows, lo + shift:hi + shift]), out=near)
    out = _row_minima(inner[np.arange(K), guess.argmax(axis=1)], outer)
    cloud, row = np.nonzero(guess > out[:, None])
    np.maximum.at(out, cloud, _row_minima(inner[cloud, row], outer, cloud))
    return np.sqrt(out)


def _row_minima(points: np.ndarray, outer: np.ndarray, cloud=None) -> np.ndarray:
    """The squared distance from each point points[k] to its nearest point
    of outer[k], or of outer[cloud[k]] when ``cloud`` is given, in blocks
    of ``_POINTS_BLOCK`` entries."""
    out = np.empty(len(points))
    for part in blocks(len(points), outer.shape[1] * outer.shape[2]):
        near = outer[part] if cloud is None else outer[cloud[part]]
        out[part] = _squared_distances(points[part, None, :], near).min(axis=1)
    return out


def hausdorff_check_radial(rays: list[RayValues], excesses: list[np.ndarray], eps_list,
                           tau: float = TAU_STRICT) -> CheckResult:
    """Upper Hausdorff continuity of every segment restriction t -> F_(x0,x)(t).

    ``rays`` are the rays from one base point as ``radial_rays`` reads them
    and ``excesses`` their ``radial_excesses``.  Each nonempty anchor F(t0)
    meets the samples within 1.5 smallest grid steps of its ray: on a
    sorted grid only neighbours lie that close.  An anchor FAILS an eps
    when its worst excess exceeds eps + tau and is UNDETERMINED when that
    excess lies within tau of eps, or when no eps is given.  The samples of
    all rays of two or more are read in one flat pass, and the first anchor
    of the worst verdict in (ray, anchor) order is reported.
    """
    eps_list = [float(e) for e in eps_list]
    eps = np.asarray(eps_list)
    long = [(ray, ex) for ray, ex in zip(rays, excesses) if ray.t_grid.size >= 2]
    anchors = np.zeros(0, dtype=np.intp)
    if long:
        lengths = [ray.t_grid.size for ray, _ in long]
        starts = np.cumsum([0] + lengths[:-1])
        t = np.concatenate([ray.t_grid for ray, _ in long])
        ray_of = np.repeat(np.arange(len(long)), lengths)
        earlier = np.flatnonzero(ray_of[1:] == ray_of[:-1])
        gap = t[earlier + 1] - t[earlier]
        step = np.minimum.reduceat(gap, starts - np.arange(len(long)))  # each ray's first pair
        near = (gap > 0.0) & (gap <= 1.5 * step[ray_of[earlier]])
        ex = np.where(near[:, None], np.concatenate([ex for _, ex in long]), -np.inf)
        # excess over the anchor of its left and of its right neighbour
        left, right = np.full(t.size, -np.inf), np.full(t.size, -np.inf)
        left[earlier + 1], right[earlier] = ex[:, 1], ex[:, 0]
        anchors = np.flatnonzero(np.concatenate([(ray.values[1] > 0) | ray.values[2]
                                                 for ray, _ in long]))
    if anchors.size == 0:
        return CheckResult(Verdict.HOLDS, resolution={"eps_list": eps_list, "rays": 0})
    worst_ex = np.maximum(np.maximum(left, right), 0.0)[anchors, None]
    fails = ~np.all(worst_ex <= eps + tau, axis=1)
    borderline = np.any(worst_ex > eps - tau, axis=1) | (eps.size == 0)
    rank = np.where(fails, 2, borderline)
    # the first anchor of the highest rank, rays in order
    k = int(np.argmax(rank))
    bad_rank, flat = int(rank[k]), int(anchors[k])
    r = int(ray_of[flat])
    ray, a, step = long[r][0], flat - int(starts[r]), float(step[r])
    left, right = left[flat], right[flat]
    x, t = ray.x.tolist(), ray.t_grid
    witness = None
    if bad_rank == 2 and max(left, right) > -np.inf:
        b = a - 1 if left >= right else a + 1
        witness = {"tag": {"x": x, "t0": float(t[a]), "t": float(t[b])},
                   "excess": float(max(left, right))}
    # the stamp also lists 3 steps, a radius that would only add samples
    return CheckResult((Verdict.HOLDS, Verdict.UNDETERMINED, Verdict.FAILS)[bad_rank],
                       witness=witness,
                       resolution={"eps_list": eps_list, "rays": len(rays), "tau_strict": tau},
                       details={"worst_anchor": {"eps_list": eps_list,
                                                 "t_radii": [1.5 * step, 3.0 * step],
                                                 "tau_strict": tau, "ray_to": x,
                                                 "anchor_t": float(t[a])}})
