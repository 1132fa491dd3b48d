"""Function-level spans around the calls into setvi's layers.

The tracer wraps each listed function where it is looked up, not only
where it is defined: a module that did ``from .x import f`` at import
holds its own reference, and a function that imports ``f`` at call time
reads the defining module's attribute.  Installing a wrapper therefore
replaces every setvi module attribute that *is* the original function,
under whatever name, and leaving the ``with`` block puts the originals back.

Each call becomes a span (id, parent id, function, start, end) kept in
flat arrays and aggregated when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.

Some functions also record computed quantities derived from their
argument shapes (bytes of the intermediate tensors a kernel materializes;
these are computed, not measured bandwidth), and two ratios are tracked
while calls happen:

* ``setmap.evaluate.repeat_ratio``: share of ``evaluate`` calls whose
  (map, x) was already evaluated in the same chain.  A chain's scope opens
  when ``theorem_chain`` is entered and lasts until the next one opens, so
  the witness replays that follow a chain count in its scope.
* ``vi.replay.match_ratio``: share of ``replay_derivative`` results that
  are bit-identical to the derivative the preceding chain recorded for the
  same (base point, kind, x, weight).
"""

from __future__ import annotations

import functools
import struct
import sys
import time
from array import array

# (module, function) pairs, in the order their metrics are reported.
TARGETS = (
    ("vi", "theorem_chain"),
    ("vi", "_radial_survey"),
    ("vi", "vi_check"),
    ("vi", "replay_derivative"),
    ("scalarize", "hausdorff_check_radial"),
    ("scalarize", "_excess"),
    ("scalarize", "scalarize_batch"),
    ("scalarize", "scalarize_many"),
    ("cone", "ext_margins"),
    ("cone", "dual_base"),
    ("analysis", "c_convexity_check"),
    ("analysis", "dini_table"),
    ("analysis", "_ssqc_scan"),
    ("analysis", "_pseudo_scan"),
    ("setmap", "evaluate"),
    ("setmap", "evaluate_batch"),
    ("setmap", "ray_restriction"),
    ("setmap", "load_problem"),
    ("order", "classify_weak_min"),
    ("report", "render_json"),
    ("suite", "build_instance"),
    ("suite", "run_instance"),
)

_F8 = 8  # bytes per float64


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _key(x) -> bytes:
    import numpy as np

    return np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=float))).tobytes()


class Tracer:
    """Span-recording wrappers, installed for the duration of a ``with``
    block; one instance per traced pass."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self._parent = array("q")
        self._fn = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.extra = {"cone.ext_margins.bytes": 0, "scalarize._excess.bytes": 0,
                      "scalarize.scalarize_batch.bytes": 0,
                      "setmap.evaluate_batch.points": 0, "report.render_json.bytes": 0}
        self._seen: set = set()
        self.evaluate_calls = 0
        self.evaluate_repeats = 0
        self._witnesses: dict = {}
        self.replays = 0
        self.replay_matches = 0

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "setvi" or name.startswith("setvi."))]
        for index, (mod, fn) in enumerate(TARGETS):
            original = getattr(sys.modules[f"setvi.{mod}"], fn)
            wrapper = self._wrap(index, original, getattr(self, f"_before_{fn}", None),
                                 getattr(self, f"_after_{fn}", None))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, func, before, after):
        parent, fn, t0, t1, stack = self._parent, self._fn, self._t0, self._t1, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(t0)
            parent.append(stack[-1])
            fn.append(index)
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-function observations -------------------------------------------

    def _before_theorem_chain(self, args, kwargs) -> None:
        self._seen.clear()
        self._witnesses.clear()

    def _before_evaluate(self, args, kwargs) -> None:
        key = (id(_arg(args, kwargs, 0, "map")), _key(_arg(args, kwargs, 1, "x")))
        self.evaluate_calls += 1
        if key in self._seen:
            self.evaluate_repeats += 1
        else:
            self._seen.add(key)

    def _after_theorem_chain(self, args, kwargs, report) -> None:
        x0 = _key(_arg(args, kwargs, 1, "x0"))
        for kind, vi in report.vi_details.items():
            for entry in vi.per_x:
                if entry.get("witness_w") is not None:
                    key = (x0, kind, _key(entry["x"]), int(entry["witness_w"]))
                    self._witnesses[key] = _bits(entry["derivative"])

    def _after_replay_derivative(self, args, kwargs, value) -> None:
        x0, kind = _arg(args, kwargs, 1, "x0"), _arg(args, kwargs, 4, "kind")
        x, w_index = _arg(args, kwargs, 5, "x"), _arg(args, kwargs, 6, "w_index")
        self.replays += 1
        expected = self._witnesses.get((_key(x0), kind, _key(x), int(w_index)))
        if expected is not None and expected == _bits(value):
            self.replay_matches += 1

    def _after_ext_margins(self, args, kwargs, result) -> None:
        points, cone = _arg(args, kwargs, 0, "points"), _arg(args, kwargs, 1, "cone")
        ys = _arg(args, kwargs, 2, "ys")
        n_y, n_a = len(ys), len(points)
        k, m = cone.normalized_normals.shape
        # (n_y, n_a, m) differences and (n_y, n_a, k) facet distances
        self.extra["cone.ext_margins.bytes"] += _F8 * n_y * n_a * (m + k)

    def _after__excess(self, args, kwargs, result) -> None:
        inner, outer = _arg(args, kwargs, 0, "inner"), _arg(args, kwargs, 1, "outer")
        if inner.whole_space or outer.whole_space:
            return
        p_in, m = inner.points.shape
        self.extra["scalarize._excess.bytes"] += _F8 * p_in * outer.points.shape[0] * m

    def _after_scalarize_batch(self, args, kwargs, result) -> None:
        clouds, weights = _arg(args, kwargs, 0, "clouds"), _arg(args, kwargs, 1, "weights")
        T, p = clouds.shape[0], clouds.shape[1]
        self.extra["scalarize.scalarize_batch.bytes"] += _F8 * T * p * len(weights)

    def _after_evaluate_batch(self, args, kwargs, result) -> None:
        self.extra["setmap.evaluate_batch.points"] += len(_arg(args, kwargs, 1, "xs"))

    def _after_render_json(self, args, kwargs, text) -> None:
        self.extra["report.render_json.bytes"] += len(text.encode("utf-8"))

    # -- aggregation ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._t0)

    def metrics(self) -> dict:
        """Per-function calls, self and total seconds, plus the extras."""
        n = len(self._t0)
        durations = [self._t1[i] - self._t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += durations[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            f = self._fn[i]
            calls[f] += 1
            total[f] += durations[i]
            own[f] += durations[i] - child[i]
        out = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[f], "count")
            out[f"{name}.self_s"] = (own[f], "s")
            out[f"{name}.total_s"] = (total[f], "s")
        for name, value in self.extra.items():
            out[name] = (value, "B" if name.endswith(".bytes") else "count")
        out["setmap.evaluate.repeat_ratio"] = (
            self.evaluate_repeats / self.evaluate_calls if self.evaluate_calls else 0.0,
            "ratio")
        out["vi.replay.match_ratio"] = (
            self.replay_matches / self.replays if self.replays else 1.0, "ratio")
        return out
