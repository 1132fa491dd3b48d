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
from typing import Callable

import numpy as np

from .cone import Cone, ExtMembership, Region, _readonly, cone_extended_member, make_cone
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
        if not np.all(np.isfinite(pts)):
            raise ValueError("set value points must be finite")
        return SetValue(points=_readonly(pts), whole_space=bool(whole_space))

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
    eval_one: Callable[[np.ndarray], SetValue]
    eval_batch: Callable[[np.ndarray], np.ndarray] | None  # (T,n) -> (T,p,m)


@dataclass(eq=False)
class SetMap:
    """A set-valued map with an ordered finite sample domain."""

    domain: np.ndarray                # (N, n)
    kind: str                         # "tabulated" | "generator"
    values: list[SetValue] | None = None
    generator: _Generator | None = None

    def __post_init__(self):
        self.domain = _readonly(np.atleast_2d(np.asarray(self.domain, dtype=float)))

    @property
    def domain_dim(self) -> int:
        return self.domain.shape[1]

    @property
    def image_dim(self) -> int:
        if self.kind == "generator":
            return self.generator.image_dim
        for v in self.values:
            return v.dim
        raise EmptyDomain("map has no values")

    @property
    def source(self) -> dict:
        if self.kind == "generator":
            return {"generator": self.generator.name, "params": self.generator.params}
        return {"tabulated": True}

    def domain_indices(self) -> np.ndarray:
        """Indices of samples inside dom F (value nonempty or whole-space)."""
        keep = [
            i
            for i in range(self.domain.shape[0])
            if not evaluate(self, self.domain[i]).is_empty
        ]
        return np.asarray(keep, dtype=int)


@dataclass(frozen=True, eq=False)
class RayValues:
    """Values of a map along the segment x0 + t (x - x0), t in the grid."""

    x0: np.ndarray
    x: np.ndarray
    t_grid: np.ndarray
    values: tuple[SetValue, ...]


def _as_domain_point(map: SetMap, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (map.domain_dim,):
        raise DimensionMismatch(
            f"point of shape {x.shape} on a map with domain dimension {map.domain_dim}"
        )
    return x


def _lookup_index(map: SetMap, x: np.ndarray) -> int:
    diffs = np.abs(map.domain - x).max(axis=1)
    i = int(np.argmin(diffs))
    if diffs[i] <= _LOOKUP_TOL * (1.0 + np.abs(x).max(initial=0.0)):
        return i
    raise OutsideSampleDomain(f"{x.tolist()} is not a stored sample of the tabulated map")


def evaluate(map: SetMap, x) -> SetValue:
    """The stored or generated value at x.

    Tabulated maps only answer at stored samples; generator maps are
    deterministic functions defined anywhere in their domain space.
    """
    x = _as_domain_point(map, x)
    if map.kind == "tabulated":
        return map.values[_lookup_index(map, x)]
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
    point (tabulated maps, ragged generators); callers then fall back to
    per-point evaluation.
    """
    if map.kind == "generator" and map.generator.eval_batch is not None:
        return map.generator.eval_batch(np.asarray(xs, dtype=float))
    return None


def segment_sample_ts(map: SetMap, x0, x) -> np.ndarray:
    """Parameters in [0, 1] of stored samples on the segment from x0 to x.

    Always contains 0 and 1; for generator maps every point is evaluable
    anyway, but tabulated maps can only be read along a segment at these
    parameters.
    """
    x0 = _as_domain_point(map, x0)
    x = _as_domain_point(map, x)
    d = x - x0
    length2 = float(d @ d)
    if length2 == 0.0:
        return np.array([0.0, 1.0])
    ts = [0.0, 1.0]
    scale = 1.0 + np.abs(map.domain).max(initial=0.0)
    for row in map.domain:
        t = float((row - x0) @ d / length2)
        if 0.0 < t < 1.0 and np.linalg.norm(row - (x0 + t * d)) <= _LOOKUP_TOL * scale:
            ts.append(t)
    return np.unique(np.asarray(ts))


def ray_grid(map: SetMap, x0, x, t_grid) -> np.ndarray:
    """The requested grid for generator maps, the stored segment samples
    for tabulated ones."""
    if map.kind == "generator":
        return np.asarray(t_grid, dtype=float)
    return segment_sample_ts(map, x0, x)


def ray_restriction(map: SetMap, x0, x, t_grid) -> RayValues:
    """Restrict the map to the segment from x0 to x, sampled on t_grid.

    Outside [0, 1] the restriction is empty by definition, so grid points
    are required to lie within [0, 1].
    """
    x0 = _as_domain_point(map, x0)
    x = _as_domain_point(map, x)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("ray grid points must lie within [0, 1]")
    points = x0[None, :] + t[:, None] * (x - x0)[None, :]
    vals = tuple(evaluate(map, p) for p in points)
    return RayValues(x0=_readonly(x0), x=_readonly(x), t_grid=_readonly(t), values=vals)


def map_extended_member(map: SetMap, cone: Cone, x, y) -> ExtMembership:
    """Locate y relative to F(x) + C without materializing the sum.

    A whole-space value contains every y at margin +inf, an empty value
    none at margin -inf; neither has an anchoring point (witness -1).
    """
    value = evaluate(map, x)
    if value.whole_space:
        return ExtMembership(Region.INTERIOR, np.inf, -1)
    if value.is_empty:
        return ExtMembership(Region.OUTSIDE, -np.inf, -1)
    return cone_extended_member(value.points, cone, y)


# ---------------------------------------------------------------------------
# Built-in generator catalog
# ---------------------------------------------------------------------------


def _param_array(params: dict, key: str, default=None) -> np.ndarray | None:
    if key not in params:
        return None if default is None else np.asarray(default, dtype=float)
    try:
        return np.asarray(params[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadParameters(f"parameter {key!r} is not numeric") from exc


def _make_quadratic_vector(params: dict) -> _Generator:
    targets = _param_array(params, "targets")
    if targets is None or targets.size == 0:
        raise BadParameters("quadratic_vector needs a nonempty 'targets' list")
    targets = np.atleast_2d(targets.astype(float))
    if targets.ndim != 2:
        raise BadParameters("targets must be scalars or equal-length vectors")
    if np.asarray(params["targets"]).ndim == 1:
        # scalar targets: one squared-distance objective per target on a 1-D domain
        targets = np.asarray(params["targets"], dtype=float).reshape(-1, 1)
    k, n = targets.shape

    def one(x: np.ndarray) -> SetValue:
        d = targets - x[None, :]
        return SetValue.make(np.einsum("kn,kn->k", d, d).reshape(1, k))

    def batch(xs: np.ndarray) -> np.ndarray:
        d = targets[None, :, :] - xs[:, None, :]
        return np.einsum("tkn,tkn->tk", d, d)[:, None, :]

    return _Generator("quadratic_vector", dict(params), n, k, one, batch)


def _make_segment_shift(params: dict) -> _Generator:
    segment = _param_array(params, "segment")
    if segment is None or segment.size == 0:
        raise BadParameters("segment_shift needs a nonempty 'segment' cloud")
    segment = np.atleast_2d(segment)
    m = segment.shape[1]
    n = int(params.get("domain_dim", 1))
    offset = _param_array(params, "offset", default=np.zeros(m))
    linear = _param_array(params, "linear", default=np.zeros((m, n)))
    linear = np.atleast_2d(linear)
    quadratic = _param_array(params, "quadratic", default=np.zeros(m))
    center = _param_array(params, "center", default=np.zeros(n))
    if offset.shape != (m,) or quadratic.shape != (m,) or linear.shape != (m, n):
        raise BadParameters("segment_shift coefficient shapes are inconsistent")
    if center.shape != (n,):
        raise BadParameters("segment_shift center must live in the domain space")

    def shift(xs: np.ndarray) -> np.ndarray:
        r2 = np.sum((xs - center[None, :]) ** 2, axis=1)
        return offset[None, :] + xs @ linear.T + r2[:, None] * quadratic[None, :]

    def one(x: np.ndarray) -> SetValue:
        return SetValue.make(segment + shift(x[None, :])[0])

    def batch(xs: np.ndarray) -> np.ndarray:
        return segment[None, :, :] + shift(xs)[:, None, :]

    return _Generator("segment_shift", dict(params), n, m, one, batch)


def _make_constant_cloud(params: dict) -> _Generator:
    points = _param_array(params, "points")
    if points is None or points.size == 0:
        raise BadParameters("constant_cloud needs a nonempty 'points' cloud")
    points = np.atleast_2d(points)
    n = int(params.get("domain_dim", 1))
    m = points.shape[1]

    def one(x: np.ndarray) -> SetValue:
        return SetValue.make(points)

    def batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(points[None, :, :], (xs.shape[0],) + points.shape).copy()

    return _Generator("constant_cloud", dict(params), n, m, one, batch)


def _make_hyperbola_truncation(params: dict) -> _Generator:
    T = float(params.get("T", 0.0))
    if T <= 1.0:
        raise BadParameters("hyperbola_truncation needs a truncation scale T > 1")
    samples = int(params.get("samples", 33))
    if samples < 2:
        raise BadParameters("hyperbola_truncation needs at least 2 samples")
    s = np.logspace(-np.log10(T), np.log10(T), samples)
    cloud = np.column_stack([s, 1.0 / s])
    n = int(params.get("domain_dim", 1))

    def one(x: np.ndarray) -> SetValue:
        return SetValue.make(cloud)

    def batch(xs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(cloud[None, :, :], (xs.shape[0],) + cloud.shape).copy()

    return _Generator("hyperbola_truncation", dict(params), n, 2, one, batch)


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
    jump_at = float(params["jump_at"])

    def one(x: np.ndarray) -> SetValue:
        if x.shape != (1,):
            raise DimensionMismatch("jump_map is defined on a 1-D domain")
        return SetValue.make(left if x[0] < jump_at else right)

    return _Generator("jump_map", dict(params), 1, left.shape[1], one, None)


_CATALOG: dict[str, Callable[[dict], _Generator]] = {
    "quadratic_vector": _make_quadratic_vector,
    "segment_shift": _make_segment_shift,
    "constant_cloud": _make_constant_cloud,
    "hyperbola_truncation": _make_hyperbola_truncation,
    "jump_map": _make_jump_map,
}


def builtin_map(name: str, params: dict, domain=None) -> SetMap:
    """Instantiate a cataloged generator as a map on the given domain.

    Without an explicit domain the map gets an 11-point grid on [0, 1]^n;
    evaluation is still defined at any point of the domain space.
    """
    if name not in _CATALOG:
        raise UnknownGenerator(f"no generator named {name!r}; "
                               f"known: {sorted(_CATALOG)}")
    gen = _CATALOG[name](params)
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


def _dedup_rows(rows: np.ndarray) -> np.ndarray:
    seen = set()
    keep = []
    for i, row in enumerate(rows):
        key = tuple(row.tolist())
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return rows[keep]


def _as_point_list(raw, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be numeric") from exc
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise SchemaError(f"{what} must be a list of points")
    return arr


def load_problem(document) -> Problem:
    """Validate a problem document (dict, JSON string, or path to one).

    Schema: top-level "cone" {dual_generators, interior_point}, "map"
    (either {"tabulated": [{x, points, whole_space}]} or {"generator":
    {name, params, domain_grid | domain_points}}), optional "base_points"
    and "settings".
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

    if "cone" not in document:
        raise SchemaError("missing 'cone'")
    cone_doc = document["cone"]
    if not isinstance(cone_doc, dict) or "dual_generators" not in cone_doc \
            or "interior_point" not in cone_doc:
        raise SchemaError("'cone' needs 'dual_generators' and 'interior_point'")
    cone = make_cone(cone_doc["dual_generators"], cone_doc["interior_point"])

    if "map" not in document or not isinstance(document["map"], dict):
        raise SchemaError("missing 'map' object")
    map_doc = document["map"]

    if "tabulated" in map_doc:
        entries = map_doc["tabulated"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'tabulated' must be a nonempty list of entries")
        xs, values = [], []
        for entry in entries:
            if not isinstance(entry, dict) or "x" not in entry:
                raise SchemaError("tabulated entries need an 'x' field")
            x = np.atleast_1d(np.asarray(entry["x"], dtype=float))
            whole = bool(entry.get("whole_space", False))
            pts = entry.get("points", [])
            value = SetValue.make(pts, whole_space=whole, dim=_image_dim(entry, cone))
            xs.append(x)
            values.append(value)
        dims = {x.shape[0] for x in xs}
        if len(dims) != 1:
            raise SchemaError("tabulated sample points have mixed dimensions")
        vdims = {v.dim for v in values}
        if len(vdims) != 1:
            raise SchemaError("tabulated values have mixed image dimensions")
        if next(iter(vdims)) != cone.dim:
            raise DimensionMismatch("value dimension differs from the cone dimension")
        stacked = np.stack(xs)
        deduped = _dedup_rows(stacked)
        if deduped.shape[0] != stacked.shape[0]:
            index = {tuple(r.tolist()): i for i, r in reversed(list(enumerate(stacked)))}
            values = [values[index[tuple(r.tolist())]] for r in deduped]
        map_ = SetMap(domain=deduped, kind="tabulated", values=values)
    elif "generator" in map_doc:
        gdoc = map_doc["generator"]
        if not isinstance(gdoc, dict) or "name" not in gdoc:
            raise SchemaError("'generator' needs a 'name'")
        params = gdoc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("generator 'params' must be an object")
        domain = None
        if "domain_grid" in gdoc:
            grid = gdoc["domain_grid"]
            for key in ("from", "to", "steps"):
                if key not in grid:
                    raise SchemaError(f"domain_grid needs '{key}'")
            lo = np.atleast_1d(np.asarray(grid["from"], dtype=float))
            hi = np.atleast_1d(np.asarray(grid["to"], dtype=float))
            if lo.shape != hi.shape:
                raise SchemaError("domain_grid 'from' and 'to' differ in shape")
            steps = grid["steps"]
            steps = [int(steps)] * lo.size if np.isscalar(steps) else [int(s) for s in steps]
            if len(steps) != lo.size or any(s < 1 for s in steps):
                raise SchemaError("domain_grid 'steps' must give >= 1 step per axis")
            axes = [np.linspace(lo[i], hi[i], steps[i]) for i in range(lo.size)]
            domain = _grid_points(axes)
        if "domain_points" in gdoc:
            pts = _as_point_list(gdoc["domain_points"], "domain_points")
            domain = pts if domain is None else np.vstack([domain, pts])
        if domain is None:
            raise SchemaError("generator maps need 'domain_grid' or 'domain_points'")
        domain = _dedup_rows(domain)
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


def _image_dim(entry: dict, cone: Cone) -> int:
    pts = np.asarray(entry.get("points", []), dtype=float)
    if pts.size:
        return pts.shape[-1] if pts.ndim > 1 else pts.shape[0]
    return cone.dim
