"""Set-valued maps on finite sample domains, with built-in instance generators.

Values are finite point clouds, so every value is compact, scalarization
infima are attained, and the order-relation tests are exact.  Two
degenerate value shapes are carried explicitly: the empty cloud (the point
is outside the domain of the map) and a ``whole_space`` flag meaning the
value plus the ordering cone covers the whole image space, which no finite
cloud could encode.

Maps are either tabulated (values stored per sample) or generator-backed
(a named deterministic rule from the catalog below, evaluable anywhere).
Problem files bundle a cone, a map, base points and settings; see
``load_problem`` for the schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .cone import Cone, _readonly, make_cone
from .errors import (
    BadParameters,
    BasePointOutsideDomain,
    DimensionMismatch,
    EmptyDomain,
    OutsideSampleDomain,
    SchemaError,
    UnknownGenerator,
)

_LOOKUP_TOL = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)


def _finite(points) -> np.ndarray:
    if not np.isfinite(points).all():
        raise ValueError("set value points must be finite")
    return _readonly(points)


# entries (floats) one blocked array pass, of clouds, pairs or sample
# differences, holds at most per operand: 1 MB.  Twice that raised the peak
# memory of chains on 64-point 4-D clouds by 3 MB over one ray per call, and
# 2^21-entry excess blocks across rays by 11 MB
_POINTS_BLOCK = 1 << 17


def blocks(count: int, entries: int) -> list[slice]:
    """Consecutive slices of range(count) for a pass whose items hold
    ``entries`` floats each: at most ``_POINTS_BLOCK`` floats, and at least
    one item, per slice.  Every blocked pass of setvi slices by this rule."""
    rows = max(1, _POINTS_BLOCK // max(1, entries))
    return [slice(k, k + rows) for k in range(0, count, rows)]


@dataclass(frozen=True, eq=False)
class SetValue:
    """A compact set value: a finite cloud, possibly empty or whole-space."""

    points: np.ndarray   # (p, m); ignored when whole_space is set
    whole_space: bool = False

    @staticmethod
    def make(points, whole_space: bool = False, dim: int | None = None) -> "SetValue":
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            if dim is None and pts.ndim == 2:
                dim = pts.shape[1]
            if dim is None:
                raise DimensionMismatch("empty value needs an explicit image dimension")
            pts = np.zeros((0, dim))
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2:
            raise DimensionMismatch("a set value must be a (p, m) cloud")
        return SetValue(points=_finite(pts), whole_space=bool(whole_space))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_empty(self) -> bool:
        return not self.whole_space and self.points.shape[0] == 0


@dataclass(frozen=True, eq=False)
class _Generator:
    name: str
    params: dict
    domain_dim: int
    image_dim: int
    eval_batch: Callable[[np.ndarray], np.ndarray]  # (T, n) -> (T, p, m), each row on its own


@dataclass(eq=False)
class SetMap:
    """A set-valued map with an ordered finite sample domain.

    ``values[i]`` is the value at ``domain[i]``; ``stacked``, their
    ``stack_values`` triple, is built once, and every domain scan reads it.
    A generator map reads its domain with one ``evaluate_rows`` call, whose
    triple is ``stacked``; its ``values`` are read-only views of the rows.
    """

    domain: np.ndarray                # (N, n)
    kind: str                         # "tabulated" | "generator"
    values: list[SetValue] | None = None
    generator: _Generator | None = None
    stacked: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.domain = _readonly(np.atleast_2d(np.asarray(self.domain, dtype=float)))
        if self.values is None:
            self.stacked = evaluate_rows(self, self.domain)
            self.values = [SetValue(points) for points in self.stacked[0]]
        else:
            self.stacked = stack_values(self.values)

    @property
    def domain_dim(self) -> int:
        return self.domain.shape[1]

    @property
    def image_dim(self) -> int:
        if self.kind == "generator":
            return self.generator.image_dim
        return self.stacked[0].shape[2]

    @property
    def source(self) -> dict:
        if self.kind == "generator":
            return {"generator": self.generator.name, "params": self.generator.params}
        return {"tabulated": True}


@dataclass(frozen=True, eq=False)
class RayValues:
    """Values of a map on the segment x0 + t (x - x0), t in the grid: a ``stack_values`` triple."""

    x0: np.ndarray
    x: np.ndarray
    t_grid: np.ndarray
    values: tuple[np.ndarray, np.ndarray, np.ndarray]


def _as_domain_point(map: SetMap, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (map.domain_dim,):
        raise DimensionMismatch(
            f"point of shape {x.shape} on a map with domain dimension {map.domain_dim}"
        )
    return x


def _lookup_tol(xs: np.ndarray) -> np.ndarray:
    """The max-norm distance within which a stored sample answers at each row."""
    return _LOOKUP_TOL * (1.0 + np.abs(xs).max(axis=-1, initial=0.0))


def nearest_samples(map: SetMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every row of xs the index of the nearest stored sample in the max
    norm, and whether it lies within ``_lookup_tol``: the one rule by which a
    tabulated map answers at a point.  Rows are read in ``blocks`` of their
    (N, n) differences."""
    index, near = np.empty(len(xs), dtype=np.intp), np.empty(len(xs), dtype=bool)
    for rows in blocks(len(xs), map.domain.size):
        diffs = np.abs(map.domain[None, :, :] - xs[rows, None, :]).max(axis=2)
        index[rows] = i = diffs.argmin(axis=1)
        near[rows] = diffs[np.arange(len(i)), i] <= _lookup_tol(xs[rows])
    return index, near


def _lookup(map: SetMap, xs: np.ndarray) -> np.ndarray:
    """The stored samples at the rows of xs; a row that is none is an error."""
    index, near = nearest_samples(map, xs)
    if not near.all():
        raise OutsideSampleDomain(f"{xs[np.argmin(near)].tolist()} is not a stored "
                                  "sample of the tabulated map")
    return index


def evaluate(map: SetMap, x) -> SetValue:
    """The stored or generated value at x.

    Tabulated maps only answer at stored samples; generator maps are
    deterministic functions defined anywhere in their domain space, and x
    is read as one row of the batch kernel.
    """
    x = _as_domain_point(map, x)
    if map.kind == "tabulated":
        return map.values[int(_lookup(map, x[None, :])[0])]
    return SetValue.make(map.generator.eval_batch(x[None, :])[0])


def base_value(map: SetMap, x0) -> tuple[np.ndarray, SetValue]:
    """The base point as a domain point, with its value, which must not be empty."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = evaluate(map, x0)
    if v0.is_empty:
        raise BasePointOutsideDomain(f"map value at {x0.tolist()} is empty")
    return x0, v0


def evaluate_batch(map: SetMap, xs: np.ndarray) -> np.ndarray | None:
    """A generator's batch kernel at all rows of xs: a (T, p, m) array.

    Returns None for a tabulated map, which ``evaluate_rows`` reads from
    its stack instead.
    """
    if map.kind == "generator":
        return map.generator.eval_batch(np.asarray(xs, dtype=float))
    return None


def stack_values(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(stack, counts, whole)``, the one form in which lists of values
    travel between passes: the (K, p, m) clouds, each padded to the widest
    (p >= 1) with repeats of its own last point, which move no minimum,
    maximum or first argmin over points; each value's point count (0 for
    empty and whole-space values, whose rows hold zeros that callers mask);
    and the whole-space flags.  Clouds of one shape come back unpadded."""
    whole = np.array([v.whole_space for v in values], dtype=bool)
    counts = np.array([0 if v.whole_space else len(v.points) for v in values], dtype=np.intp)
    p = int(counts.max(initial=1))
    if counts.size and counts.min() == p:
        return np.array([v.points for v in values]), counts, whole
    stack = np.zeros((len(values), p, values[0].dim if values else 0))
    for row, v, c in zip(stack, values, counts.tolist()):
        if c:
            row[:c], row[c:] = v.points, v.points[-1]
    return stack, counts, whole


def concat_values(triples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``stack_values`` triples joined in order, each stack padded to the
    widest by repeating its last point column, as ``stack_values`` pads."""
    stacks, counts, whole = zip(*triples)
    p = max(s.shape[1] for s in stacks)
    return (np.concatenate([s if s.shape[1] == p else np.concatenate(
                [s, np.repeat(s[:, -1:], p - s.shape[1], axis=1)], axis=1) for s in stacks]),
            np.concatenate(counts), np.concatenate(whole))


def evaluate_rows(map: SetMap, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values at the rows of xs as a ``stack_values`` triple, the one
    way a map is read in rows: a batch kernel's clouds as they are, or rows
    of a tabulated map's stack.  A kernel computes each row on its own, so
    every value has the bits ``evaluate`` gives it."""
    if map.kind == "tabulated":  # the rows, as narrow as ``stack_values`` makes them
        index = _lookup(map, np.asarray(xs, dtype=float))
        stack, counts, whole = map.stacked
        return stack[index, :max(1, counts[index].max(initial=0))], counts[index], whole[index]
    clouds = _finite(evaluate_batch(map, xs))
    return clouds, np.full(len(clouds), clouds.shape[1]), np.zeros(len(clouds), bool)


def segment_sample_ts(map: SetMap, x0s, xs) -> np.ndarray:
    """The (R, K) knot table of the segments from x0s[r] to xs[r] (rows that
    broadcast): where a tabulated map can be read along each.  A row
    increases, holds 0 and 1 and is padded with +inf.  A stored sample
    counts when it lies within ``_lookup_tol`` of the point x0 + t (x - x0)
    that a ray reads, so ``nearest_samples`` answers there.  Rows are read
    in ``blocks`` of their (N, n) differences, each with the bits it has
    alone."""
    x0s, xs = np.broadcast_arrays(*(np.atleast_2d(np.asarray(a, dtype=float)) for a in (x0s, xs)))
    d = xs - x0s
    length2 = np.vecdot(d, d)  # the bits of d @ d, which einsum's do not always match
    ts = np.full((len(d), map.domain.shape[0] + 2), np.inf)
    ts[:, 0], ts[:, 1] = 0.0, 1.0
    for rows in blocks(len(d), map.domain.size):
        x0, dk, l2 = x0s[rows, None, :], d[rows, None, :], length2[rows, None]
        t = ((map.domain - x0) @ dk.transpose(0, 2, 1))[..., 0] / np.where(l2 == 0.0, 1.0, l2)
        at = x0 + t[..., None] * dk
        on = np.abs(map.domain - at).max(axis=2) <= _lookup_tol(at)
        ts[rows, 2:] = np.where(on & (0.0 < t) & (t < 1.0) & (l2 > 0.0), t, np.inf)
    ts.sort(axis=1)
    ts[:, 1:][ts[:, 1:] == ts[:, :-1]] = np.inf  # each knot once
    ts.sort(axis=1)
    return ts[:, :int((ts < np.inf).sum(axis=1).max(initial=2))]


def ray_grid(map: SetMap, x0s, xs, t_grid) -> list[np.ndarray]:
    """The grid of each ray from x0s to a row of xs (rows that broadcast):
    the requested grid for generator maps, the ray's row of the
    ``segment_sample_ts`` table for tabulated ones."""
    if map.kind == "generator":
        return [np.asarray(t_grid, dtype=float)] * len(xs)
    return [row[row < np.inf] for row in segment_sample_ts(map, x0s, xs)]


def _rays(map: SetMap, x0s, xs: np.ndarray, grids) -> list[RayValues]:
    """The rays from x0s[i] to xs[i], ray i sampled on grids[i]; each ray's
    values are a slice of one ``evaluate_rows`` call's triple."""
    x0s, xs = _readonly(x0s), _readonly(xs)
    grids = [np.asarray(t, dtype=float) for t in grids]
    if any(t.ndim != 1 or t.size == 0 for t in grids):
        raise ValueError("t_grid must be a nonempty 1-D array")
    t = _readonly(np.concatenate(grids))
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("ray grid points must lie within [0, 1]")
    lengths = [g.size for g in grids]
    x0 = np.repeat(x0s, lengths, axis=0)
    values = evaluate_rows(map, x0 + t[:, None] * (np.repeat(xs, lengths, axis=0) - x0))
    bounds = np.cumsum([0] + lengths).tolist()
    return [RayValues(x0=a, x=x, t_grid=t[i:j], values=tuple(v[i:j] for v in values))
            for a, x, i, j in zip(x0s, xs, bounds, bounds[1:])]


def ray_restriction(map: SetMap, x0, x, t_grid) -> RayValues:
    """Restrict the map to the segment from x0 to x, sampled on t_grid.

    Outside [0, 1] the restriction is empty by definition, so grid points
    are required to lie within [0, 1].
    """
    return _rays(map, _as_domain_point(map, x0)[None, :], _as_domain_point(map, x)[None, :],
                 [t_grid])[0]


def radial_rays(map: SetMap, x0s, t_grid) -> list:
    """``ray_restriction`` on ``ray_grid`` from a base point to every domain
    sample, in domain order: the rays that radial checks share.  One point
    gives its list, a (B, n) array one list per row.  One ``ray_grid`` call
    (on a tabulated map, one knot table) and one ``_rays`` call read the
    rays of every base point, so their triples share a width."""
    one, n = np.ndim(x0s) < 2, len(map.domain)
    bases = np.array([_as_domain_point(map, x0) for x0 in ([x0s] if one else x0s)])
    x0s, xs = np.repeat(bases, n, axis=0), np.tile(map.domain, (len(bases), 1))
    rays = _rays(map, x0s, xs, ray_grid(map, x0s, xs, t_grid))
    chains = [rays[k:k + n] for k in range(0, len(rays), n)]
    return chains[0] if one else chains


# ---------------------------------------------------------------------------
# Rule tables
# ---------------------------------------------------------------------------


class Rule(NamedTuple):
    """What one key of a document node must hold: the test its value must
    pass, the description a message gives, whether the key must be given,
    and the error class that sets the exit code."""

    test: Callable[[object], bool]
    what: str
    required: bool = False
    error: type = SchemaError


def _validate(where: str, rules: dict, values: dict) -> None:
    """Check a node against its rule table: an unknown key, a missing
    required key and a value failing its test each raise their rule's error
    class, naming the key.  Values are rejected, never coerced."""
    unknown = sorted(set(values) - set(rules))
    if unknown:  # the rules of one table share their error class
        raise next(iter(rules.values())).error(
            f"unknown {where} keys {unknown}; known: {sorted(rules)}")
    for key, rule in rules.items():
        if key in values:
            if not rule.test(values[key]):
                shown = repr(values[key])
                shown = shown if len(shown) <= 80 else shown[:76] + " ..."
                raise rule.error(f"{where} {key!r} must be {rule.what}, not {shown}")
        elif rule.required:
            raise rule.error(f"{where} needs {key!r}")


def _integer(lo=-np.inf, hi=np.inf) -> Rule:
    """An integer in [lo, hi] that is not a bool: no count is truncated."""
    what = ("an integer" if lo == -np.inf else f"an integer >= {lo}" if hi == np.inf
            else f"an integer in [{lo}, {hi}]")
    return Rule(lambda v: isinstance(v, Integral) and not isinstance(v, bool) and lo <= v <= hi,
                what)


def _real(what="a finite number", test=lambda v: True, required=False) -> Rule:
    """A finite real that is not a bool and passes test."""
    return Rule(lambda v: isinstance(v, Real) and not isinstance(v, bool)
                and abs(v) <= _FLOAT_MAX and test(v), what, required)


def _array(what: str, ndims: tuple, nonempty=False, test=lambda a: True,
           required=False) -> Rule:
    """Numbers nested to one of ndims, all finite, read by one array
    conversion: a string, a null, a list of only booleans or ragged nesting
    fails, and so do the NaN and Infinity that JSON readers accept."""
    def check(v) -> bool:
        try:
            a = np.asarray(v)
        except (ValueError, TypeError, OverflowError):
            return False
        return (a.dtype.kind in "iuf" and a.ndim in ndims and (a.size > 0 or not nonempty)
                and bool(np.isfinite(a).all()) and bool(test(a)))
    return Rule(check, what, required)


def _params(**rules: Rule) -> dict:
    """A generator's params table, whose rules raise BadParameters."""
    return {key: rule._replace(error=BadParameters) for key, rule in rules.items()}


_MAX_SAMPLES = 4097  # the most samples one setting may ask for on a grid or ray
_OBJECT = Rule(lambda v: isinstance(v, dict), "an object")
_POINTS = _array("a list of points with finite coordinates", (1, 2))
_CLOUD = _array("a nonempty list of points with finite coordinates", (1, 2), True, required=True)
_VECTOR = _array("a list of finite numbers", (1,))
_NUMBERS = _array("a finite number or a nonempty list of them", (0, 1), True, required=True)
_COUNT = _integer(1)

# the rule table of every node of a problem document, walked by load_problem
SCHEMA = {
    "problem": {"cone": _OBJECT._replace(required=True), "map": _OBJECT._replace(required=True),
                "base_points": _POINTS, "settings": _OBJECT},
    "cone": {"dual_generators": _array("a nonempty matrix of finite numbers", (2,), True,
                                       required=True),
             "interior_point": _VECTOR._replace(required=True)},
    "map": {"tabulated": Rule(lambda v: isinstance(v, list) and len(v) > 0
                              and all(map(_OBJECT.test, v)), "a nonempty list of objects"),
            "generator": _OBJECT},
    "tabulated entry": {"x": _array("a nonempty list of finite numbers", (1,), True,
                                    required=True),
                        "points": _POINTS,
                        "whole_space": Rule(lambda v: isinstance(v, bool), "true or false")},
    "generator": {"name": Rule(lambda v: isinstance(v, str), "a string", True),
                  "params": _OBJECT, "domain_grid": _OBJECT, "domain_points": _POINTS},
    "domain_grid": {"from": _NUMBERS, "to": _NUMBERS,
                    "steps": Rule(lambda v: _COUNT.test(v) or (
                        isinstance(v, list) and len(v) > 0 and all(map(_COUNT.test, v))),
                        "an integer >= 1 or a nonempty list of them", True)},
}


# ---------------------------------------------------------------------------
# Built-in generator catalog
# ---------------------------------------------------------------------------


def _floats(params: dict, key: str, default=None) -> np.ndarray:
    return np.asarray(params.get(key, default), dtype=float)


def _make_quadratic_vector(params: dict) -> _Generator:
    targets = _floats(params, "targets")
    if targets.ndim <= 1:
        # scalar targets: one squared-distance objective per target on a 1-D domain
        targets = targets.reshape(-1, 1)
    k, n = targets.shape

    def batch(xs: np.ndarray) -> np.ndarray:
        d = targets[None, :, :] - xs[:, None, :]
        return np.einsum("tkn,tkn->tk", d, d)[:, None, :]

    return _Generator("quadratic_vector", dict(params), n, k, batch)


def _make_segment_shift(params: dict) -> _Generator:
    segment = np.atleast_2d(_floats(params, "segment"))
    m = segment.shape[1]
    n = params.get("domain_dim", 1)
    offset = _floats(params, "offset", np.zeros(m))
    linear = np.atleast_2d(_floats(params, "linear", np.zeros((m, n))))
    quadratic = _floats(params, "quadratic", np.zeros(m))
    center = _floats(params, "center", np.zeros(n))
    if offset.shape != (m,) or quadratic.shape != (m,) or linear.shape != (m, n):
        raise BadParameters("segment_shift coefficient shapes are inconsistent")
    if center.shape != (n,):
        raise BadParameters("segment_shift center must live in the domain space")

    def batch(xs: np.ndarray) -> np.ndarray:
        r2 = np.sum((xs - center[None, :]) ** 2, axis=1)
        # a fixed-order sum over the domain axis, so a row has the same bits
        # in any batch (a matmul's do not); the first product keeps a -0.0
        lin = xs[:, 0:1] * linear[:, 0]
        for j in range(1, n):
            lin = lin + xs[:, j:j + 1] * linear[:, j]
        shift = offset[None, :] + lin + r2[:, None] * quadratic[None, :]
        # the same adds as segment + shift, without a slow broadcast
        out = np.repeat(shift[:, None, :], segment.shape[0], axis=1)
        out += segment
        return out

    return _Generator("segment_shift", dict(params), n, m, batch)


def _constant(name: str, cloud: np.ndarray, params: dict) -> _Generator:
    """A generator whose value is the same cloud at every point."""
    def batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(cloud[None, :, :], (xs.shape[0],) + cloud.shape).copy()

    return _Generator(name, dict(params), params.get("domain_dim", 1), cloud.shape[1], batch)


def _make_constant_cloud(params: dict) -> _Generator:
    return _constant("constant_cloud", np.atleast_2d(_floats(params, "points")), params)


def _make_hyperbola_truncation(params: dict) -> _Generator:
    T = float(params["T"])
    s = np.logspace(-np.log10(T), np.log10(T), params.get("samples", 33))
    return _constant("hyperbola_truncation", np.column_stack([s, 1.0 / s]), params)


def _make_jump_map(params: dict) -> _Generator:
    left = np.atleast_2d(_floats(params, "left_points"))
    right = np.atleast_2d(_floats(params, "right_points"))
    if left.shape[1] != right.shape[1]:
        raise BadParameters("jump_map sides must share the image dimension")
    jump_at = float(params["jump_at"])
    # both sides in one stack: the narrower repeats its last point
    sides = stack_values([SetValue.make(left), SetValue.make(right)])[0]

    def batch(xs: np.ndarray) -> np.ndarray:
        return np.where((xs[:, 0] < jump_at)[:, None, None], sides[0], sides[1])

    return _Generator("jump_map", dict(params), 1, left.shape[1], batch)


# name -> (factory, the rule table of its params)
_CATALOG = {
    "quadratic_vector": (_make_quadratic_vector, _params(targets=_array(
        "a nonempty list of finite numbers or of equal-length vectors", (0, 1, 2), True,
        required=True))),
    "segment_shift": (_make_segment_shift, _params(
        segment=_CLOUD, domain_dim=_COUNT, offset=_VECTOR,
        linear=_array("a finite number or a matrix of them", (0, 1, 2)),
        quadratic=_VECTOR, center=_VECTOR)),
    "constant_cloud": (_make_constant_cloud, _params(points=_CLOUD, domain_dim=_COUNT)),
    "hyperbola_truncation": (_make_hyperbola_truncation, _params(
        T=_real("a finite number > 1", lambda v: v > 1, required=True),
        samples=_integer(2), domain_dim=_COUNT)),
    "jump_map": (_make_jump_map, _params(left_points=_CLOUD, right_points=_CLOUD,
                                         jump_at=_real(required=True))),
}


def builtin_map(name: str, params: dict, domain=None) -> SetMap:
    """Instantiate a cataloged generator as a map on the given domain.

    Without an explicit domain the map gets an 11-point grid on [0, 1]^n;
    evaluation is still defined at any point of the domain space.  The
    params must pass the generator's rule table (a BadParameters error).
    """
    if name not in _CATALOG:
        raise UnknownGenerator(f"no generator named {name!r}; "
                               f"known: {sorted(_CATALOG)}")
    factory, rules = _CATALOG[name]
    _validate(f"{name} params", rules, params)
    gen = factory(params)
    if domain is None:
        axes = [np.linspace(0.0, 1.0, 11)] * gen.domain_dim
        domain = _grid_points(axes)
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    if domain.shape[1] != gen.domain_dim:
        raise DimensionMismatch(
            f"domain in R^{domain.shape[1]} for a generator on R^{gen.domain_dim}"
        )
    return SetMap(domain=domain, kind="generator", generator=gen)


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Problem:
    cone: Cone
    map: SetMap
    base_points: np.ndarray      # (B, n)
    settings: dict = field(default_factory=dict)


def _point_list(raw) -> np.ndarray:
    """A list of points that passed ``_POINTS``; bare numbers are 1-D points."""
    arr = np.asarray(raw, dtype=float)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def _tabulated_map(entries: list, dim: int) -> SetMap:
    xs, values, seen = [], [], set()
    for i, entry in enumerate(entries):
        _validate(f"tabulated entry {i}", SCHEMA["tabulated entry"], entry)
        key = tuple(map(float, entry["x"]))
        if key in seen:
            raise SchemaError(f"tabulated x {list(key)} appears more than once")
        seen.add(key)
        xs.append(key)
        values.append(SetValue.make(np.asarray(entry.get("points", []), dtype=float),
                                    whole_space=entry.get("whole_space", False), dim=dim))
    if len({len(x) for x in xs}) != 1:
        raise SchemaError("tabulated sample points have mixed dimensions")
    if len({v.dim for v in values}) != 1:
        raise SchemaError("tabulated values have mixed image dimensions")
    return SetMap(domain=np.array(xs), kind="tabulated", values=values)


def _domain_grid(grid: dict) -> np.ndarray:
    _validate("domain_grid", SCHEMA["domain_grid"], grid)
    lo, hi = (np.atleast_1d(np.asarray(grid[k], dtype=float)) for k in ("from", "to"))
    if lo.shape != hi.shape:
        raise SchemaError("domain_grid 'from' and 'to' differ in shape")
    steps = grid["steps"] if isinstance(grid["steps"], list) else [grid["steps"]] * lo.size
    if len(steps) != lo.size:
        raise SchemaError(f"domain_grid 'steps' must give one integer per axis, "
                          f"not {grid['steps']!r}")
    count = math.prod(steps)
    if count > _MAX_SAMPLES:
        raise SchemaError(f"domain grid would hold {count} points; lower domain_grid "
                          f"'steps' to at most {_MAX_SAMPLES} points")
    return _grid_points([np.linspace(a, b, k) for a, b, k in zip(lo, hi, steps)])


def _generator_map(gdoc: dict) -> SetMap:
    _validate("generator", SCHEMA["generator"], gdoc)
    parts = [read(gdoc[key]) for key, read in (("domain_grid", _domain_grid),
                                                ("domain_points", _point_list)) if key in gdoc]
    if not parts:
        raise SchemaError("generator maps need 'domain_grid' or 'domain_points'")
    domain = np.vstack(parts)
    domain = domain[np.sort(np.unique(domain, axis=0, return_index=True)[1])]
    return builtin_map(gdoc["name"], gdoc.get("params", {}), domain=domain)


def load_problem(document) -> Problem:
    """Validate a problem document (dict, JSON string, or path to one).

    Every node is checked against its rule table in ``SCHEMA`` (a
    generator's params against its catalog table): an unknown key, a
    missing required key or a value of the wrong type is a SchemaError
    (BadParameters in params) naming the key, so a typo fails instead of
    running.  Cross-field checks follow: one of "tabulated" and "generator",
    distinct tabulated x, matching dimensions and at most ``_MAX_SAMPLES``
    domain grid points.
    """
    if isinstance(document, (str, bytes)):
        text = document
        if isinstance(document, str) and not document.lstrip().startswith("{"):
            with open(document, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise SchemaError("problem document must be a JSON object")
    _validate("problem", SCHEMA["problem"], document)
    cone_doc, map_doc = document["cone"], document["map"]
    _validate("cone", SCHEMA["cone"], cone_doc)
    cone = make_cone(cone_doc["dual_generators"], cone_doc["interior_point"])
    _validate("map", SCHEMA["map"], map_doc)
    if len(map_doc) != 1:
        raise SchemaError("'map' must hold one of 'tabulated' and 'generator', not "
                          + ("both" if map_doc else "neither"))
    map_ = (_tabulated_map(map_doc["tabulated"], cone.dim) if "tabulated" in map_doc
            else _generator_map(map_doc["generator"]))
    if map_.image_dim != cone.dim:
        raise DimensionMismatch(f"map image dimension {map_.image_dim} differs from the "
                                f"cone dimension {cone.dim}")
    if map_.domain.shape[0] == 0:
        raise EmptyDomain("map has no domain samples")
    base_points = _point_list(document.get("base_points", []))
    if base_points.size == 0:
        base_points = np.zeros((0, map_.domain_dim))
    elif base_points.shape[1] != map_.domain_dim:
        raise DimensionMismatch("base points do not match the domain dimension")
    return Problem(cone=cone, map=map_, base_points=base_points,
                   settings=dict(document.get("settings", {})))
