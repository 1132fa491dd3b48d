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
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable

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
_LOOKUP_BLOCK = 1 << 17
_FLOAT_MAX = float(np.finfo(float).max)


def _finite(points) -> np.ndarray:
    if not np.isfinite(points).all():
        raise ValueError("set value points must be finite")
    return _readonly(points)


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
    eval_batch: Callable[[np.ndarray], np.ndarray] | None  # (T,n) -> (T,p,m)
    eval_one: Callable[[np.ndarray], SetValue] | None = None

    def __post_init__(self):
        if self.eval_one is None:  # the batch kernel on one row
            object.__setattr__(self, "eval_one",
                               lambda x: SetValue.make(self.eval_batch(x[None, :])[0]))


@dataclass(eq=False)
class SetMap:
    """A set-valued map with an ordered finite sample domain.

    ``values[i]`` is the value at ``domain[i]``; generator maps evaluate
    their domain once, on construction.  ``stacked`` is ``stack_values`` of
    them, built once, and every domain scan reads it.
    """

    domain: np.ndarray                # (N, n)
    kind: str                         # "tabulated" | "generator"
    values: list[SetValue] | None = None
    generator: _Generator | None = None
    stacked: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.domain = _readonly(np.atleast_2d(np.asarray(self.domain, dtype=float)))
        if self.values is None:
            self.values = [self.generator.eval_one(x) for x in self.domain]
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
    tabulated map answers at a point.  Rows are read in blocks whose
    (rows, N, n) differences hold at most ``_LOOKUP_BLOCK`` floats."""
    index, near = np.empty(len(xs), dtype=np.intp), np.empty(len(xs), dtype=bool)
    rows = max(1, _LOOKUP_BLOCK // map.domain.size)
    for k in range(0, len(xs), rows):
        diffs = np.abs(map.domain[None, :, :] - xs[k:k + rows, None, :]).max(axis=2)
        index[k:k + rows] = i = diffs.argmin(axis=1)
        near[k:k + rows] = diffs[np.arange(len(i)), i] <= _lookup_tol(xs[k:k + rows])
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
    deterministic functions defined anywhere in their domain space.
    """
    x = _as_domain_point(map, x)
    if map.kind == "tabulated":
        return map.values[int(_lookup(map, x[None, :])[0])]
    return map.generator.eval_one(x)


def base_value(map: SetMap, x0) -> tuple[np.ndarray, SetValue]:
    """The base point as a domain point, with its value, which must not be empty."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v0 = evaluate(map, x0)
    if v0.is_empty:
        raise BasePointOutsideDomain(f"map value at {x0.tolist()} is empty")
    return x0, v0


def evaluate_batch(map: SetMap, xs: np.ndarray) -> np.ndarray | None:
    """Fast path: values at all rows of xs as a (T, p, m) array.

    Returns None when the map cannot promise a uniform finite cloud per
    point (tabulated maps, ragged generators); ``evaluate_rows`` reads
    those maps another way.
    """
    if map.kind == "generator" and map.generator.eval_batch is not None:
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
    """The values at the rows of xs as a ``stack_values`` triple: a batch
    kernel's clouds as they are, rows of a tabulated map's stack, or
    ``evaluate`` per row.  A kernel computes each row on its own, so every
    value has the bits ``evaluate`` gives it."""
    clouds = evaluate_batch(map, xs)
    if clouds is not None:
        return _finite(clouds), np.full(len(clouds), clouds.shape[1]), np.zeros(len(clouds), bool)
    if map.kind == "tabulated":  # the rows, as narrow as ``stack_values`` makes them
        index = _lookup(map, np.asarray(xs, dtype=float))
        stack, counts, whole = map.stacked
        return stack[index, :max(1, counts[index].max(initial=0))], counts[index], whole[index]
    return stack_values([evaluate(map, x) for x in xs])


def segment_sample_ts(map: SetMap, x0, x) -> np.ndarray:
    """Parameters in [0, 1] of stored samples on the segment from x0 to x.

    Always contains 0 and 1; for generator maps every point is evaluable
    anyway, but tabulated maps can only be read along a segment at these
    parameters.  A sample counts when it lies within ``_lookup_tol`` of the
    point x0 + t (x - x0) that a ray reads, so ``nearest_samples`` answers there.
    """
    x0 = _as_domain_point(map, x0)
    x = _as_domain_point(map, x)
    d = x - x0
    length2 = float(d @ d)
    if length2 == 0.0:
        return np.array([0.0, 1.0])
    t = (map.domain - x0) @ d / length2
    at = x0 + t[:, None] * d
    on = np.abs(map.domain - at).max(axis=1) <= _lookup_tol(at)
    return np.unique(np.concatenate([[0.0, 1.0], t[on & (0.0 < t) & (t < 1.0)]]))


def ray_grid(map: SetMap, x0, x, t_grid) -> np.ndarray:
    """The requested grid for generator maps, the stored segment samples
    for tabulated ones."""
    if map.kind == "generator":
        return np.asarray(t_grid, dtype=float)
    return segment_sample_ts(map, x0, x)


def _rays(map: SetMap, x0, xs: np.ndarray, grids) -> list[RayValues]:
    """The rays from x0 to every row of xs, ray i sampled on grids[i]; each
    ray's values are a slice of one ``evaluate_rows`` call's triple."""
    x0 = _readonly(_as_domain_point(map, x0))
    grids = [np.asarray(t, dtype=float) for t in grids]
    if any(t.ndim != 1 or t.size == 0 for t in grids):
        raise ValueError("t_grid must be a nonempty 1-D array")
    t = _readonly(np.concatenate(grids))
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("ray grid points must lie within [0, 1]")
    lengths = [g.size for g in grids]
    values = evaluate_rows(map, x0 + t[:, None] * (np.repeat(xs, lengths, axis=0) - x0))
    bounds = np.cumsum([0] + lengths).tolist()
    return [RayValues(x0=x0, x=x, t_grid=t[i:j], values=tuple(a[i:j] for a in values))
            for x, i, j in zip(xs, bounds, bounds[1:])]


def ray_restriction(map: SetMap, x0, x, t_grid) -> RayValues:
    """Restrict the map to the segment from x0 to x, sampled on t_grid.

    Outside [0, 1] the restriction is empty by definition, so grid points
    are required to lie within [0, 1].
    """
    return _rays(map, x0, _readonly(_as_domain_point(map, x))[None, :], [t_grid])[0]


def radial_rays(map: SetMap, x0, t_grid) -> list[RayValues]:
    """``ray_restriction`` on ``ray_grid`` from x0 to every domain sample, in
    domain order: the one reading of the rays that radial checks share.
    All rays are read by one ``_rays`` call, so their triples share a width."""
    return _rays(map, x0, map.domain, [ray_grid(map, x0, x, t_grid) for x in map.domain])


# ---------------------------------------------------------------------------
# Built-in generator catalog
# ---------------------------------------------------------------------------


def _is_count(v) -> bool:
    """An integer that is not a bool: the rule for every count in a problem."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A real that is not a bool and a finite float: the rule for every scalar."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def _scalar_param(params: dict, key: str, default, test=_is_count, what="an integer"):
    value = params.get(key, default)
    if not test(value):
        raise BadParameters(f"parameter {key!r} must be {what}, not {value!r}")
    return value


def _param_array(params: dict, key: str, default=None) -> np.ndarray | None:
    if key not in params:
        return None if default is None else np.asarray(default, dtype=float)
    return _as_numbers(params[key], f"parameter {key!r}", BadParameters)


def _make_quadratic_vector(params: dict) -> _Generator:
    targets = _param_array(params, "targets")
    if targets is None or targets.size == 0:
        raise BadParameters("quadratic_vector needs a nonempty 'targets' list")
    if targets.ndim <= 1:
        # scalar targets: one squared-distance objective per target on a 1-D domain
        targets = targets.reshape(-1, 1)
    if targets.ndim != 2:
        raise BadParameters("targets must be scalars or equal-length vectors")
    k, n = targets.shape

    def batch(xs: np.ndarray) -> np.ndarray:
        d = targets[None, :, :] - xs[:, None, :]
        return np.einsum("tkn,tkn->tk", d, d)[:, None, :]

    return _Generator("quadratic_vector", dict(params), n, k, batch)


def _make_segment_shift(params: dict) -> _Generator:
    segment = _param_array(params, "segment")
    if segment is None or segment.size == 0:
        raise BadParameters("segment_shift needs a nonempty 'segment' cloud")
    segment = np.atleast_2d(segment)
    m = segment.shape[1]
    n = _scalar_param(params, "domain_dim", 1)
    offset = _param_array(params, "offset", default=np.zeros(m))
    linear = _param_array(params, "linear", default=np.zeros((m, n)))
    linear = np.atleast_2d(linear)
    quadratic = _param_array(params, "quadratic", default=np.zeros(m))
    center = _param_array(params, "center", default=np.zeros(n))
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


def _make_constant_cloud(params: dict) -> _Generator:
    points = _param_array(params, "points")
    if points is None or points.size == 0:
        raise BadParameters("constant_cloud needs a nonempty 'points' cloud")
    points = np.atleast_2d(points)
    n = _scalar_param(params, "domain_dim", 1)
    m = points.shape[1]

    def batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(points[None, :, :], (xs.shape[0],) + points.shape).copy()

    return _Generator("constant_cloud", dict(params), n, m, batch)


def _make_hyperbola_truncation(params: dict) -> _Generator:
    T = float(_scalar_param(params, "T", 0.0, _is_number, "a finite number"))
    if T <= 1.0:
        raise BadParameters("hyperbola_truncation needs a truncation scale T > 1")
    samples = _scalar_param(params, "samples", 33)
    if samples < 2:
        raise BadParameters("hyperbola_truncation needs at least 2 samples")
    s = np.logspace(-np.log10(T), np.log10(T), samples)
    cloud = np.column_stack([s, 1.0 / s])
    n = _scalar_param(params, "domain_dim", 1)

    def batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(cloud[None, :, :], (xs.shape[0],) + cloud.shape).copy()

    return _Generator("hyperbola_truncation", dict(params), n, 2, batch)


def _make_jump_map(params: dict) -> _Generator:
    left = _param_array(params, "left_points")
    right = _param_array(params, "right_points")
    if left is None or right is None:
        raise BadParameters("jump_map needs 'left_points' and 'right_points'")
    left = np.atleast_2d(left)
    right = np.atleast_2d(right)
    if left.shape[1] != right.shape[1]:
        raise BadParameters("jump_map sides must share the image dimension")
    if "jump_at" not in params:
        raise BadParameters("jump_map needs a 'jump_at' location")
    jump_at = float(_scalar_param(params, "jump_at", None, _is_number, "a finite number"))

    def one(x: np.ndarray) -> SetValue:
        return SetValue.make(left if x[0] < jump_at else right)

    return _Generator("jump_map", dict(params), 1, left.shape[1], None, one)


# name -> (factory, the params keys it reads)
_CATALOG = {
    "quadratic_vector": (_make_quadratic_vector, {"targets"}),
    "segment_shift": (_make_segment_shift, {"segment", "domain_dim", "offset", "linear",
                                            "quadratic", "center"}),
    "constant_cloud": (_make_constant_cloud, {"points", "domain_dim"}),
    "hyperbola_truncation": (_make_hyperbola_truncation, {"T", "samples", "domain_dim"}),
    "jump_map": (_make_jump_map, {"left_points", "right_points", "jump_at"}),
}


def builtin_map(name: str, params: dict, domain=None) -> SetMap:
    """Instantiate a cataloged generator as a map on the given domain.

    Without an explicit domain the map gets an 11-point grid on [0, 1]^n;
    evaluation is still defined at any point of the domain space.  A
    parameter key the generator does not read is a BadParameters error.
    """
    if name not in _CATALOG:
        raise UnknownGenerator(f"no generator named {name!r}; "
                               f"known: {sorted(_CATALOG)}")
    factory, keys = _CATALOG[name]
    unknown = sorted(set(params) - keys)
    if unknown:
        raise BadParameters(f"unknown {name} params {unknown}; known: {sorted(keys)}")
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


def _as_numbers(raw, what: str, error=SchemaError) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be numeric") from exc


def _as_point_list(raw, what: str) -> np.ndarray:
    arr = _as_numbers(raw, what)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise SchemaError(f"{what} must be a list of points")
    return arr


def _known_keys(where: str, doc: dict, known: set) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise SchemaError(f"unknown {where} keys {unknown}; known: {sorted(known)}")


def load_problem(document) -> Problem:
    """Validate a problem document (dict, JSON string, or path to one).

    Schema: top-level "cone" {dual_generators, interior_point}, "map"
    (either {"tabulated": [{x, points, whole_space}]} or {"generator":
    {name, params, domain_grid {from, to, steps} | domain_points}}),
    optional "base_points" and "settings".  An unknown key, a value of the
    wrong type, an x that is not a nonempty list of finite numbers and a map
    with both kinds are a SchemaError: a typo fails instead of running.
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
    _known_keys("problem", document, {"cone", "map", "base_points", "settings"})

    if "cone" not in document:
        raise SchemaError("missing 'cone'")
    cone_doc = document["cone"]
    if not isinstance(cone_doc, dict) or "dual_generators" not in cone_doc \
            or "interior_point" not in cone_doc:
        raise SchemaError("'cone' needs 'dual_generators' and 'interior_point'")
    _known_keys("cone", cone_doc, {"dual_generators", "interior_point"})
    cone = make_cone(*(_as_numbers(cone_doc[k], f"cone {k!r}")
                       for k in ("dual_generators", "interior_point")))

    if "map" not in document or not isinstance(document["map"], dict):
        raise SchemaError("missing 'map' object")
    map_doc = document["map"]
    _known_keys("map", map_doc, {"tabulated", "generator"})
    if "tabulated" in map_doc and "generator" in map_doc:
        raise SchemaError("'map' holds both 'tabulated' and 'generator'; give one")

    if "tabulated" in map_doc:
        entries = map_doc["tabulated"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'tabulated' must be a nonempty list of entries")
        xs, values, seen = [], [], set()
        for entry in entries:
            if not isinstance(entry, dict) or "x" not in entry:
                raise SchemaError("tabulated entries need an 'x' field")
            _known_keys("tabulated entry", entry, {"x", "points", "whole_space"})
            x = entry["x"]
            if not (isinstance(x, list) and x and all(map(_is_number, x))):
                raise SchemaError(f"tabulated 'x' must be a nonempty list of finite numbers, "
                                  f"not {x!r}")
            key = tuple(map(float, x))
            if key in seen:
                raise SchemaError(f"tabulated x {list(key)} appears more than once")
            seen.add(key)
            whole = entry.get("whole_space", False)
            if not isinstance(whole, bool):
                raise SchemaError(f"tabulated 'whole_space' must be true or false, "
                                  f"not {whole!r}")
            xs.append(key)
            values.append(SetValue.make(_as_numbers(entry.get("points", []), "tabulated 'points'"),
                                        whole_space=whole, dim=cone.dim))
        dims = {len(x) for x in xs}
        if len(dims) != 1:
            raise SchemaError("tabulated sample points have mixed dimensions")
        vdims = {v.dim for v in values}
        if len(vdims) != 1:
            raise SchemaError("tabulated values have mixed image dimensions")
        if next(iter(vdims)) != cone.dim:
            raise DimensionMismatch("value dimension differs from the cone dimension")
        map_ = SetMap(domain=np.array(xs), kind="tabulated", values=values)
    elif "generator" in map_doc:
        gdoc = map_doc["generator"]
        if not isinstance(gdoc, dict) or not isinstance(gdoc.get("name"), str):
            raise SchemaError("'generator' needs a 'name' string")
        _known_keys("generator", gdoc, {"name", "params", "domain_grid", "domain_points"})
        params = gdoc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("generator 'params' must be an object")
        domain = None
        if "domain_grid" in gdoc:
            grid = gdoc["domain_grid"]
            if not isinstance(grid, dict):
                raise SchemaError("'domain_grid' must be an object")
            _known_keys("domain_grid", grid, {"from", "to", "steps"})
            for key in ("from", "to", "steps"):
                if key not in grid:
                    raise SchemaError(f"domain_grid needs '{key}'")
            lo, hi = (np.atleast_1d(_as_numbers(grid[k], f"domain_grid {k!r}"))
                      for k in ("from", "to"))
            if lo.shape != hi.shape:
                raise SchemaError("domain_grid 'from' and 'to' differ in shape")
            steps = grid["steps"]
            steps = list(steps) if isinstance(steps, (list, tuple)) else [steps] * lo.size
            if len(steps) != lo.size or not all(_is_count(s) and s >= 1 for s in steps):
                raise SchemaError("domain_grid 'steps' must give an integer >= 1 per axis, "
                                  f"not {grid['steps']!r}")
            axes = [np.linspace(lo[i], hi[i], steps[i]) for i in range(lo.size)]
            domain = _grid_points(axes)
        if "domain_points" in gdoc:
            pts = _as_point_list(gdoc["domain_points"], "domain_points")
            domain = pts if domain is None else np.vstack([domain, pts])
        if domain is None:
            raise SchemaError("generator maps need 'domain_grid' or 'domain_points'")
        domain = domain[np.sort(np.unique(domain, axis=0, return_index=True)[1])]
        map_ = builtin_map(gdoc["name"], params, domain=domain)
        if map_.image_dim != cone.dim:
            raise DimensionMismatch("generator image dimension differs from the cone")
    else:
        raise SchemaError("'map' needs either 'tabulated' or 'generator'")

    if map_.domain.shape[0] == 0:
        raise EmptyDomain("map has no domain samples")

    base = document.get("base_points", [])
    base_points = (
        _as_point_list(base, "base_points") if base else np.zeros((0, map_.domain_dim))
    )
    if base_points.size and base_points.shape[1] != map_.domain_dim:
        raise DimensionMismatch("base points do not match the domain dimension")

    settings = document.get("settings", {})
    if not isinstance(settings, dict):
        raise SchemaError("'settings' must be an object")

    return Problem(cone=cone, map=map_, base_points=base_points, settings=dict(settings))
