"""Polyhedral ordering cones given by dual (facet) generators.

A cone is C = {y : g_j . y >= 0 for all j} with at least one generator and
a declared interior point e (g_j . e > 0 for every j certifies a nonempty
interior).  Every consumer of C in this package reads it through the
inequalities g_j . y >= 0, so the dual representation makes membership and
margins a handful of dot products and keeps the Minkowski-sum interior
test exact on finite clouds.

Margins are taken against unit-length facet normals: for a point y,
``min_j ghat_j . y`` is the largest epsilon such that the euclidean
epsilon-ball around y stays inside C whenever the margin is positive.
That turns "there is a neighborhood U with y + U inside the cone" into a
single closed-form number.

``ext_margins`` reads every anchor of a finite cloud A when it takes
margins against the extended set A + C.  The order prunes on the probe
side: a probe that another probe dominates has a larger margin against
every anchor cloud, so a caller that reads only the smallest margin over a
probe cloud (or over the Minkowski combinations of two clouds) needs only
the C-minimal probes.  ``dominated_probes`` marks the others, with a
rounding bound that keeps the margins' bits; its docstring derives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionMismatch, InteriorWitnessInvalid, ZeroGenerator

# Default strictness band: a margin within [-tau, tau] decides nothing.
TAU_STRICT = 1e-9

# Guard against combinatorial blowup when gridding a dual base.
_MAX_BASE_SAMPLE = 200_000

# Machine epsilon (twice the unit roundoff) and a bound on the underflow
# error of one product: the rounding model of the pruning bounds.  Clouds
# whose 1-norms reach _MAX_SCALE may overflow a difference, which that
# model does not cover, so they prune nothing.
_EPS = float(np.finfo(float).eps)
_ETA = float(np.finfo(float).smallest_subnormal)
_MAX_SCALE = float(np.finfo(float).max) / 8

# clouds of fewer points take no pruning path: scalarize_batch's least-point
# rule, dominated_probes' scan and _excess_rows' guesses start at 8 points.
# The threshold was measured on scalarize_batch (2-vCPU host, 21- and
# 360-row stacks, 33 and 84 weights): below 8 points the fixed cost of a
# pruning pass won on short stacks.  ``run_suite`` instances hold at most 4
# points per value and keep the unpruned kernels.
_PRUNE_MIN_POINTS = 8


@dataclass(frozen=True, eq=False)
class Cone:
    dual_generators: np.ndarray   # (k, m)
    interior_point: np.ndarray    # (m,)
    normalized_normals: np.ndarray  # (k, m), rows of unit length

    @property
    def dim(self) -> int:
        return self.dual_generators.shape[1]


@dataclass(frozen=True, eq=False)
class WStarSample:
    """A finite sample of the dual-cone base {w in C+ : w . e = 1}.

    The normalized generators g_j / (g_j . e) are always present; the rest
    are convex-combination grid points of those vertices.
    """

    weights: np.ndarray           # (n, m)

    def __len__(self) -> int:
        return self.weights.shape[0]

    def min_norm(self) -> float:
        return float(np.linalg.norm(self.weights, axis=1).min())

    def max_norm(self) -> float:
        return float(np.linalg.norm(self.weights, axis=1).max())


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


def make_cone(dual_generators, interior_point) -> Cone:
    """Validate and cache a cone from its facet generators.

    Raises ZeroGenerator for a zero row, DimensionMismatch for ragged
    input, and InteriorWitnessInvalid when some g_j . e <= 0.
    """
    gens = np.asarray(dual_generators, dtype=float)
    if gens.ndim != 2 or gens.shape[0] < 1:
        raise DimensionMismatch("dual generators must form a nonempty (k, m) matrix")
    e = np.asarray(interior_point, dtype=float)
    if e.ndim != 1 or e.shape[0] != gens.shape[1]:
        raise DimensionMismatch(
            f"interior point has dimension {e.shape}, generators are {gens.shape}"
        )
    if not np.all(np.isfinite(gens)) or not np.all(np.isfinite(e)):
        raise ValueError("cone data must be finite")
    norms = np.linalg.norm(gens, axis=1)
    if np.any(norms == 0.0):
        raise ZeroGenerator("every dual generator must be nonzero")
    products = gens @ e
    if np.any(products <= 0.0):
        j = int(np.argmin(products))
        raise InteriorWitnessInvalid(
            f"generator {j} has g.e = {products[j]:g}; the interior point must "
            "satisfy g.e > 0 for every facet"
        )
    return Cone(
        dual_generators=_readonly(gens),
        interior_point=_readonly(e),
        normalized_normals=_readonly(gens / norms[:, None]),
    )


def cone_margin(cone: Cone, y) -> float:
    """min_j ghat_j . y; positive = radius of a ball around y inside C."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != cone.dim:
        raise DimensionMismatch(f"point of dimension {y.shape[-1]} vs cone in R^{cone.dim}")
    return float(np.min(cone.normalized_normals @ y))


def _facet_min(ys: np.ndarray, pts: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """(..., n_y, n_a) table of min_j ghat_j . (y - a) over every y - a pair
    of stacked (..., n_y, m) probes and (..., n_a, m) anchors.

    The einsum runs over the flattened pairs with the facet axis first, so
    the reduction over it runs on one contiguous slab of pairs instead of a
    short last axis, and a stack costs what its pairs cost (a stacked
    einsum was slower than one call per cloud on 64-point clouds).  Each
    entry is the same length-m dot product as in the facet-last layout;
    tests compare them bit for bit.
    """
    diff = ys[..., :, None, :] - pts[..., None, :, :]
    facets = np.einsum("pk,jk->jp", diff.reshape(-1, diff.shape[-1]), normals)
    return facets.min(axis=0).reshape(diff.shape[:-1])


def _dominance_bound(m: int, scale):
    """delta = 8 (m + 2) (eps N + eta) for clouds of 1-norm scale N, or inf
    where N is not below _MAX_SCALE (NaN included)."""
    scale = np.asarray(scale, dtype=float)
    return np.where(scale < _MAX_SCALE, 8 * (m + 2) * (_EPS * scale + _ETA), np.inf)


def _dominated(clouds: np.ndarray, normals: np.ndarray, delta) -> np.ndarray:
    """(..., n) mask of the points of stacked (..., n, m) clouds for which
    some other point p' of their cloud has a computed
    min_j ghat_j . (p - p') > delta, with delta a float or one per cloud.

    Each ghat_j . (p - p') is taken as the difference of the rounded
    projections ghat_j . p and ghat_j . p', one facet at a time on an
    (..., n, n) slab: about 7x faster than ``_facet_min`` on twenty
    64-point 4-D clouds under 4 facets (2-vCPU host).
    Its error is below gamma_m (||p||_1 + ||p'||_1) + u |ghat_j . (p - p')|
    plus m underflow terms, under the 2 E that dominated_probes allows for s.
    """
    proj = np.moveaxis(clouds @ normals.T, -1, 0)
    s = proj[0][..., :, None] - proj[0][..., None, :]
    for pj in proj[1:]:
        np.minimum(s, pj[..., :, None] - pj[..., None, :], out=s)
    return (s > np.asarray(delta)[..., None, None]).any(axis=-1)


def kept_indices(dominated: np.ndarray) -> np.ndarray:
    """Indices, in order, of the points a (..., n) mask does not mark, per
    stacked cloud: (..., n_kept), where a cloud that keeps fewer than n_kept
    points repeats its last kept index.  The dominance order is acyclic, so
    every cloud keeps a point."""
    kept = np.argsort(dominated, axis=-1, kind="stable")
    count = np.count_nonzero(~dominated, axis=-1)[..., None]
    width = np.arange(int(count.max()))
    return np.take_along_axis(kept, np.minimum(width, count - 1), axis=-1)


def dominated_probes(ys: np.ndarray, cone: Cone, scale: float,
                     factor: float = 1.0) -> np.ndarray:
    """(..., n) mask of the probes of stacked (..., n, m) clouds that never
    realize the smallest margin of their cloud: a marked probe has a
    computed margin strictly above that of some unmarked probe against
    every anchor cloud.  ``scale`` is N, a bound on
    max_a ||a||_1 + max_y ||y||_1 over the anchors and the probes.  Clouds
    of fewer than ``_PRUNE_MIN_POINTS`` probes mark nothing.

    Rounding model: a computed d(y, a) = min_j ghat_j . (y - a) is a
    length-m dot product of rounded differences; its error is at most
    gamma_(m+1) ||ghat_j||_2 ||y - a||_2 plus m underflow terms eta, below
    E = (m + 1) (eps N + eta).  A computed s = min_j ghat_j . (y - y'), a
    difference of rounded projections (see ``_dominated``), errs by less
    than 2 E.

    Probes: y is marked when some y' has a computed s > delta, with
    delta = 8 (m + 2) (eps N + eta) >= 8 E from ``_dominance_bound``.  Since
    ghat_j . (y - a) = ghat_j . (y' - a) + ghat_j . (y - y'), the exact
    d(y, a) >= d(y', a) + s for every anchor a; the exact s exceeds 6 E, so
    the computed d(y, a) exceeds the computed d(y', a) by more than 4 E.
    The margin, the maximum over the anchors, keeps that strict order.  A
    nonfinite cloud, or one whose 1-norms reach max_float / 8 where a
    difference may overflow, gets delta = inf and marks nothing.

    Combinations (``factor`` c < 1): the probes are y = fl(fl(t p) + fl(t' q))
    for p in a cloud P of ys, q in a second cloud Q and t' = fl(1 - t),
    with c <= t <= 1 and N bounding max ||p||_1, max ||q||_1 and
    max ||a||_1 + max ||y||_1 (up to factors 1 + O(eps), which the
    constants absorb).  Then p is marked at delta / c.  Each coordinate of
    y is within eps (|t p_k| + |t' q_k|) + eta of t p_k + t' q_k, so for the
    y' formed from the dominating p' and the same q,
    y - y' = t (p - p') + r with ||r||_1 below 2 (eps N + m eta) <= 2 E.
    A computed min_j ghat_j . (p - p') > delta / c >= delta / t leaves an
    exact t min_j ghat_j . (p - p') above delta - 2 E, so
    min_j ghat_j . (y - y') > delta - 4 E >= 4 E and the computed margin
    of y exceeds that of y' by more than 2 E.  The same holds for q with
    c <= t' <= 1, and a combination of a marked p and a marked q sits
    above the one formed from their dominators.

    The strict order is acyclic, so a smallest margin, and the first
    probe that attains it, sits at an unmarked probe.  delta / c is inf
    where it overflows, and then nothing is marked.
    """
    if ys.shape[-2] < _PRUNE_MIN_POINTS:
        return np.zeros(ys.shape[:-1], dtype=bool)
    return _dominated(ys, cone.normalized_normals, _dominance_bound(cone.dim, scale) / factor)


def ext_margins(points: np.ndarray, cone: Cone, ys: np.ndarray):
    """Margins of each probe of ys against the extended set points + C.

    ``points`` is an (n_a, m) anchor cloud and ``ys`` an (n_y, m) probe
    cloud, or ``points`` is a (K, n_a, m) stack of anchor clouds and ``ys``
    a (K, n_y, m) stack or one probe cloud for all of them: entry k of the
    result belongs to anchors k.  Returns (margins, witnesses) where
    margins[..., i] = max_a min_j ghat_j . (ys[..., i, :] - a) and
    witnesses[..., i] is the first maximizing anchor index.  Every anchor
    is read, and every entry has the bits of a call on its clouds alone.

    The probe side is the caller's: a caller that reads only the smallest
    margin over the probes, or over the Minkowski combinations of two
    clouds, may first drop the probes ``dominated_probes`` marks; the
    smallest margin, its first index and the probe there keep their bits.
    """
    pts = np.asarray(points, dtype=float)
    ys = np.asarray(ys, dtype=float)
    one = pts.ndim == 2
    pts = pts[None] if one else pts
    ys = ys[None] if ys.ndim == 2 else ys
    per_anchor = _facet_min(ys, pts, cone.normalized_normals)  # (K, n_y, n_a)
    witnesses = per_anchor.argmax(axis=2)
    K, n_y = witnesses.shape
    margins = per_anchor[np.arange(K)[:, None], np.arange(n_y), witnesses]
    return (margins[0], witnesses[0]) if one else (margins, witnesses)


def _compositions(total: int, parts: int):
    """All integer vectors of the given length summing to total, lexicographic."""
    for combo in combinations_with_replacement(range(parts), total):
        counts = [0] * parts
        for c in combo:
            counts[c] += 1
        yield counts


def dual_base(cone: Cone, density: int) -> WStarSample:
    """Sample the base {w : w . e = 1} of the dual cone.

    density 1 returns exactly the normalized generators; density d >= 2
    returns the simplex lattice with d points per edge of the convex hull
    of those vertices (the vertices are always included).
    """
    if density < 1:
        raise ValueError("density must be >= 1")
    gens = cone.dual_generators
    e = cone.interior_point
    vertices = gens / (gens @ e)[:, None]
    if density == 1 or vertices.shape[0] == 1:
        weights = vertices
    else:
        k = vertices.shape[0]
        n = density - 1
        count = 1
        for i in range(1, k):
            count = count * (n + i) // i
        if count > _MAX_BASE_SAMPLE:
            raise ValueError(
                f"dual base grid would hold {count} points; lower the density"
            )
        lattice = np.array(list(_compositions(n, k)), dtype=float) / float(n)
        weights = lattice @ vertices
    return WStarSample(weights=_readonly(weights))
