"""The stacked convexity, minimality and excess passes against the per-value
loops they replaced.

``ref_c_convexity_check``, ``ref_classify_weak_min``, ``ref_adjacent_excesses``
and ``ref_convexity_pairs`` below are the earlier ``analysis.c_convexity_check``,
``order.classify_weak_min``, ``scalarize.adjacent_excesses`` and
``analysis.convexity_pairs``, kept verbatim apart from their names, and so are
the margin kernel they called (``ref_ext_margins``), ``ref_dominance_margin``
and ``ref_evaluate_rows``: one ``SetValue`` per point, one ``scalarize_many``
per value read and one ``ext_margins`` call per combination or sample.  On
every seeded case the new passes, which read every value list as one padded
``stack_values`` triple, must render the same bytes, witnesses and
exceptions included, among them cases where the passes
combine only the C-minimal points of the end values or probe only those of
the base value.
"""

import sys

import numpy as np

from setvi.cone import _ETA, _EPS, dual_base, make_cone
from setvi.errors import EmptySet, InternalCheckError, OutsideSampleDomain
from setvi.report import render_json
from setvi.analysis import CONVEXITY_T_SAMPLES, c_convexity_check, convexity_pairs
from setvi.order import MinimalityVerdict, _enforce_consistency, classify_weak_min
from setvi.scalarize import _excess, _excess_rows, radial_excesses, scalarize_many
from setvi.setmap import SetMap, SetValue, base_value, builtin_map, evaluate, radial_rays
from setvi.verdicts import CheckResult, Verdict
from test_survey_parity import per_value_ray

analysis_mod = sys.modules["setvi.analysis"]
order_mod = sys.modules["setvi.order"]


def ref_facet_min(ys, pts, normals):
    diff = ys[:, None, :] - pts[None, :, :]
    return np.einsum("yak,jk->jya", diff, normals).min(axis=0)


def ref_kept_anchors(pts, ys, normals):
    m = normals.shape[1]
    scale = np.abs(pts).sum(axis=1).max() + np.abs(ys).sum(axis=1).max()
    delta = 8 * (m + 2) * (_EPS * scale + _ETA)
    dominated = (ref_facet_min(pts, pts, normals) > delta).any(axis=1)
    return np.flatnonzero(~dominated)


def ref_ext_margins(points, cone, ys):
    pts = np.asarray(points, dtype=float)
    ys = np.asarray(ys, dtype=float)
    normals = cone.normalized_normals
    kept = None
    if 1 < pts.shape[0] and 4 * pts.shape[0] < ys.shape[0]:
        kept = ref_kept_anchors(pts, ys, normals)
        pts = pts[kept]
    per_anchor = ref_facet_min(ys, pts, normals)  # (n_y, n_kept)
    witnesses = per_anchor.argmax(axis=1)
    margins = per_anchor[np.arange(ys.shape[0]), witnesses]
    if kept is not None:
        witnesses = kept[witnesses]
    return margins, witnesses


def ref_dominance_margin(A, B, cone):
    if A.whole_space:
        return np.inf
    if B.whole_space:
        return -np.inf
    if A.is_empty or B.is_empty:
        raise EmptySet("order relations need nonempty set values")
    margins, _ = ref_ext_margins(A.points, cone, B.points)
    return float(margins.min())


def ref_classify_weak_min(map, x0, cone, wstar, tau):
    x0, v0 = base_value(map, x0)
    resolution = {"domain_size": int(map.domain.shape[0]),
                  "wstar_size": len(wstar), "tau_strict": tau}
    if v0.whole_space:
        hold = CheckResult(Verdict.HOLDS, resolution=resolution)
        return MinimalityVerdict(hold, hold, hold, degenerate_whole_space=True)

    phi0 = scalarize_many(v0, wstar.weights)
    dom_witness = None       # clear domination: both order notions fail
    dom_border = None
    sc_witness = None        # some x admits no sampled weight
    per_x_weights: list[int | None] = []
    worst_margin = -np.inf

    for x, vx in zip(map.domain, map.values):
        if vx.is_empty:
            per_x_weights.append(None)  # empty values never dominate; any w works
            continue
        margin = ref_dominance_margin(vx, v0, cone)
        if margin > tau and margin > worst_margin:
            # keep the largest-margin dominator as the witness
            dom_witness = {"x": x.tolist(), "margin": float(margin)}
        elif margin != 0.0 and abs(margin) <= tau and dom_border is None:
            # an exact zero margin is a cleanly false relation (identical
            # anchor points); only inexact values near zero are ambiguous
            dom_border = {"x": x.tolist(), "margin": float(margin)}
        worst_margin = max(worst_margin, margin)
        phix = scalarize_many(vx, wstar.weights)
        valid = phix > -np.inf
        gaps = np.where(valid, phi0 - phix, np.inf)
        j = int(np.argmin(gaps))
        if gaps[j] <= tau:
            per_x_weights.append(j)
        else:
            per_x_weights.append(None)
            if sc_witness is None:
                sc_witness = {"x": x.tolist(), "best_gap": float(gaps[j]),
                              "w": wstar.weights[j].tolist() if valid[j] else None}

    if dom_witness is not None:
        order_verdict = Verdict.FAILS
        order_witness = dom_witness
    elif dom_border is not None:
        order_verdict = Verdict.UNDETERMINED
        order_witness = dom_border
    else:
        order_verdict = Verdict.HOLDS
        order_witness = None

    # the lower and uniform notions coincide on finite clouds: one result serves both
    order_result = CheckResult(order_verdict, witness=order_witness, resolution=resolution,
                               details={"worst_margin": float(worst_margin)})
    if sc_witness is None:
        w_sc = CheckResult(Verdict.HOLDS, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})
    else:
        w_sc = CheckResult(Verdict.FAILS, witness=sc_witness, resolution=resolution,
                           details={"per_x_weight_index": per_x_weights})

    verdict = MinimalityVerdict(order_result, w_sc, order_result,
                                degenerate_whole_space=False)
    _enforce_consistency(verdict, worst_margin, wstar, tau)
    return verdict


def ref_convexity_pairs(map, t_samples, max_pairs):
    n = map.domain.shape[0]
    pairs = [(map.domain[i], map.domain[j]) for i in range(n) for j in range(i + 1, n)]
    if map.kind == "tabulated":
        pairs = [p for p in pairs if ref_combos_stored(map, p, t_samples)]
    if len(pairs) > max_pairs:
        stride = int(np.ceil(len(pairs) / max_pairs))
        pairs = pairs[::stride]
    return pairs


def ref_combos_stored(map, pair, t_samples):
    x1, x2 = pair
    for s in t_samples:
        try:
            evaluate(map, s * x1 + (1.0 - s) * x2)
        except OutsideSampleDomain:
            return False
    return True


def ref_evaluate_rows(map, xs):
    return tuple(evaluate(map, x) for x in xs)


def ref_c_convexity_check(map, cone, wstar, pair_samples, t_samples, tau):
    t_samples = [float(s) for s in t_samples]
    mink_witness = None
    scalar_witness = None
    scalar_tau = tau * max(1.0, wstar.max_norm())
    checked = 0
    pairs = [(np.atleast_1d(np.asarray(x1, dtype=float)),
              np.atleast_1d(np.asarray(x2, dtype=float))) for x1, x2 in pair_samples]
    # endpoints and combination points repeat across pairs; the map is
    # deterministic, so one evaluation per distinct point gives the same bits
    points = {}
    for x1, x2 in pairs:
        for x in (x1, x2, *(s * x1 + (1.0 - s) * x2 for s in t_samples)):
            points.setdefault(x.tobytes(), x)
    xs = np.reshape(list(points.values()), (len(points), map.domain_dim))
    values = dict(zip(points, ref_evaluate_rows(map, xs)))

    for (x1, x2) in pairs:
        v1 = values[x1.tobytes()]
        v2 = values[x2.tobytes()]
        empty = v1.is_empty or v2.is_empty
        whole = v1.whole_space or v2.whole_space
        if not (empty or whole):
            phi1 = scalarize_many(v1, wstar.weights)
            phi2 = scalarize_many(v2, wstar.weights)
        for s in t_samples:
            xt = s * x1 + (1.0 - s) * x2
            vt = values[xt.tobytes()]
            if empty:
                continue  # the combination is empty; nothing to contain
            checked += 1
            if whole:
                if not vt.whole_space and mink_witness is None:
                    mink_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                    "reason": "whole-space combination not covered"}
                continue
            # scalar cross-check on the same sample
            phit = scalarize_many(vt, wstar.weights)
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
                combo = (s * v1.points[:, None, :]
                         + (1.0 - s) * v2.points[None, :, :]).reshape(-1, v1.dim)
                margins, _ = ref_ext_margins(vt.points, cone, combo)
                worst = int(np.argmin(margins))
                if margins[worst] < -tau:
                    mink_witness = {"x1": x1.tolist(), "x2": x2.tolist(), "t": s,
                                    "point": combo[worst].tolist(),
                                    "margin": float(margins[worst])}
    if scalar_witness is not None and mink_witness is None:
        raise InternalCheckError(
            "convexity tests disagree: a sampled scalarization is not convex "
            "although every combination passed the Minkowski containment, which "
            f"forces convex scalarizations. scalar={scalar_witness}"
        )
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


def ref_adjacent_excesses(ray):
    v = ray.values
    if (len(v) > 1 and not any(x.whole_space or x.is_empty for x in v)
            and len({x.points.shape for x in v}) == 1):
        P = np.stack([x.points for x in v])
        return np.stack([_excess_rows(P[1:], P[:-1]), _excess_rows(P[:-1], P[1:])], axis=1)
    return np.array([(_excess(v[k + 1], v[k]), _excess(v[k], v[k + 1]))
                     for k in range(len(v) - 1)]).reshape(-1, 2)


# ---------------------------------------------------------------------------
# Seeded cases
# ---------------------------------------------------------------------------


def _rendered(call) -> str:
    """The rendered result of call(), or the type and message it raised."""
    try:
        result = call()
    except (InternalCheckError, EmptySet) as exc:
        return f"{type(exc).__name__}: {exc}"
    return render_json(result.to_dict())


def _listed(pairs) -> list:
    return [(a.tobytes(), b.tobytes()) for a, b in pairs]


def _cone(rng, m):
    """The orthant, rescaled, or a random polyhedral cone with k in 1..m+2 facets."""
    if rng.random() < 0.5:
        return make_cone(np.diag(rng.uniform(0.5, 2, size=m)), np.ones(m))
    k = int(rng.integers(1, m + 3))
    while True:
        gens = rng.uniform(-0.3, 1.0, size=(k, m))
        e = rng.uniform(0.5, 1.5, size=m)
        if np.all(np.linalg.norm(gens, axis=1) > 1e-3) and np.all(gens @ e > 0.05):
            return make_cone(gens, e)


def _domain(rng, n):
    """A 1-D grid or a 2-D product grid, evenly spaced so that tabulated maps
    store the combination points of some pairs."""
    if n == 1:
        return np.linspace(-1.0, 1.0, int(rng.integers(2, 10)))[:, None]
    axis = np.linspace(-1.0, 1.0, int(rng.integers(2, 5)))
    return np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=1)


def _cloud(rng, p, m):
    """Random, coarsely rounded (exact ties and zeros), staircase (an
    antichain whose midpoints leave F(x) + C), chain, or staircase clouds
    with copies shifted up the orthant (dominated points that the pruned
    passes drop while the midpoints still fail)."""
    style = rng.integers(0, 5)
    if style == 4 and p > 1:
        stair = _cloud_staircase(max(1, p // 2), m)
        copies = stair[rng.integers(0, len(stair), size=p - len(stair))]
        return np.vstack([stair, copies + rng.uniform(0.05, 1.0, size=(len(copies), 1))])
    if style == 0:
        return rng.normal(size=(p, m))
    if style == 1:
        return np.round(rng.normal(size=(p, m)), 1)
    if style == 2:
        return _cloud_staircase(p, m)
    steps = rng.uniform(0, 1, size=(p - 1, m)) * (rng.random((p - 1, 1)) < 0.8)
    return np.cumsum(np.vstack([rng.normal(size=m), steps]), axis=0)


def _cloud_staircase(p, m):
    s = np.linspace(0.0, 2.0, p)
    return np.column_stack([s, s[::-1]] + [np.zeros(p)] * (m - 2))[:, :m]


def _generator_map(rng):
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    domain = _domain(rng, n)
    family = rng.choice(["quadratic_vector", "segment_shift", "constant_cloud",
                         "hyperbola_truncation", "big"])
    if family == "quadratic_vector":
        k = int(rng.integers(1, 4))
        targets = rng.uniform(-1, 1, size=k) if n == 1 else rng.uniform(-1, 1, size=(k, n))
        return builtin_map(family, {"targets": targets.tolist()}, domain=domain)
    if family == "hyperbola_truncation":
        return builtin_map(family, {"T": float(rng.uniform(1.5, 10)),
                                    "samples": int(rng.integers(2, 12)), "domain_dim": n},
                           domain=domain)
    if family == "constant_cloud":
        return builtin_map(family, {"points": _cloud(rng, int(rng.integers(1, 6)), m).tolist(),
                                    "domain_dim": n}, domain=domain)
    # 1-64 points, shifted by a convex or concave quadratic
    p = int(rng.integers(1, 65)) if family == "big" else int(rng.integers(1, 6))
    return builtin_map("segment_shift", {
        "segment": _cloud(rng, p, m).tolist(), "domain_dim": n,
        "offset": rng.normal(size=m).tolist(),
        "linear": (rng.normal(size=(m, n)) * (rng.random() < 0.5)).tolist(),
        "quadratic": rng.uniform(-1, 2, size=m).tolist(),
        "center": rng.uniform(-1, 1, size=n).tolist()}, domain=domain)


def _tabulated_map(rng, tau):
    """Uniform, ragged, empty and whole-space values; near-copies of one
    cloud give dominance margins within tau of zero."""
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    domain = _domain(rng, n)
    uniform = rng.random() < 0.5
    # clouds from 8 points on take the pruned passes
    p = int(rng.integers(1, 5)) if rng.random() < 0.5 else int(rng.integers(8, 13))
    base = _cloud(rng, p, m)
    odd = rng.random() < 0.5
    values = []
    for _ in range(len(domain)):
        u = rng.random()
        if odd and u < 0.15:
            values.append(SetValue.make(np.zeros((0, m)), dim=m))
        elif odd and u < 0.25:
            values.append(SetValue.make(np.zeros((0, m)), whole_space=True, dim=m))
        elif u < 0.6:
            # a near-copy of the base cloud: margins of order tau
            values.append(SetValue.make(base + rng.normal(size=base.shape) * tau
                                        * rng.choice([0.0, 0.3, 3.0])))
        else:
            q = p if uniform else int(rng.integers(1, 5))
            values.append(SetValue.make(_cloud(rng, q, m)))
    return SetMap(domain=domain, kind="tabulated", values=values)


def _case(rng):
    tau = float(rng.choice([1e-9, 1e-5, 1e-2]))
    map_ = _generator_map(rng) if rng.random() < 0.55 else _tabulated_map(rng, tau)
    cone = _cone(rng, map_.image_dim)
    wstar = dual_base(cone, int(rng.integers(1, 5)))
    nonempty = [i for i, v in enumerate(map_.values) if not v.is_empty]
    x0 = map_.domain[nonempty[int(rng.integers(0, len(nonempty)))]] if nonempty else None
    t_samples = CONVEXITY_T_SAMPLES if rng.random() < 0.7 else \
        sorted(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=int(rng.integers(1, 4))).tolist())
    return map_, cone, wstar, x0, t_samples, tau


def test_stacked_passes_match_the_per_value_loops(monkeypatch):
    module = sys.modules["setvi.setmap"]
    rng = np.random.default_rng(20240811)
    seen = {"1-D": 0, "2-D": 0, "tabulated": 0, "uniform": 0, "padded": 0, "64 points": 0,
            "containment FAILS": 0, "scalar witness": 0, "border": 0, "dominated": 0,
            "no weight": 0, "whole-space or empty": 0, "small blocks": 0,
            "pruned combinations": 0, "pruned containment FAILS": 0, "pruned base value": 0,
            "pruned padded stack": 0, "rays of several lengths": 0,
            "excess block with empty or whole-space rows": 0, "no pairs": 0}
    # whether the case's checks dropped points of the end values or of the
    # base value, and whether the convexity check padded narrower clouds
    pruned = {}
    kept_ends, marked, evaluate_rows = (analysis_mod._kept_ends, order_mod.dominated_probes,
                                        analysis_mod.evaluate_rows)

    def spy_stack(map, xs):
        stack, counts, whole = stacked = evaluate_rows(map, xs)
        pruned["padded"] = bool(counts[counts > 0].min(initial=stack.shape[1]) < stack.shape[1])
        return stacked

    def spy_ends(*args):
        kept = kept_ends(*args)
        pruned["combinations"] |= kept is not None
        return kept

    def spy_marked(ys, cone, scale, factor=1.0):
        out = marked(ys, cone, scale, factor)
        pruned["base value"] |= bool(out.any())
        return out

    monkeypatch.setattr(analysis_mod, "_kept_ends", spy_ends)
    monkeypatch.setattr(analysis_mod, "evaluate_rows", spy_stack)
    monkeypatch.setattr(order_mod, "dominated_probes", spy_marked)
    for case in range(1200):
        map_, cone, wstar, x0, t_samples, tau = _case(rng)
        pruned.update({"combinations": False, "base value": False, "padded": False})
        small = rng.random() < 0.3
        monkeypatch.setattr(module, "_POINTS_BLOCK",
                            int(rng.choice([1, 40, 700])) if small else 1 << 17)
        max_pairs = int(rng.integers(1, 40))
        pairs = ref_convexity_pairs(map_, t_samples, max_pairs)
        assert _listed(convexity_pairs(map_, t_samples, max_pairs)) == _listed(pairs), \
            f"case {case} pairs"
        with np.errstate(over="ignore", invalid="ignore"):
            got = _rendered(lambda: c_convexity_check(map_, cone, wstar, pairs, t_samples, tau))
            want = _rendered(lambda: ref_c_convexity_check(map_, cone, wstar, pairs,
                                                           t_samples, tau))
            assert got == want, f"case {case} convexity"
            if x0 is not None:
                got_min = _rendered(lambda: classify_weak_min(map_, x0, cone, wstar, tau))
                want_min = _rendered(lambda: ref_classify_weak_min(map_, x0, cone, wstar, tau))
                assert got_min == want_min, f"case {case} minimality"
                rays = radial_rays(map_, x0, np.linspace(0.0, 1.0, int(rng.integers(1, 8))))
                tables = radial_excesses(rays)
                one_block = not small
                seen["rays of several lengths"] += one_block and len(
                    {ray.t_grid.size for ray in rays}) > 1
                seen["excess block with empty or whole-space rows"] += one_block and any(
                    (ray.values[1] == 0).any() for ray in rays)
                assert len(tables) == len(rays)
                for ray, table in zip(rays, tables):
                    want_table = ref_adjacent_excesses(per_value_ray(map_, ray))
                    assert table.shape == want_table.shape, f"case {case} excess shape"
                    assert table.tobytes() == want_table.tobytes(), f"case {case} excesses"
        uniform = all(not v.is_empty and not v.whole_space for v in map_.values) and len(
            {v.points.shape for v in map_.values}) == 1
        seen["2-D" if map_.domain_dim == 2 else "1-D"] += 1
        seen["tabulated"] += map_.kind == "tabulated"
        seen["uniform" if uniform else "padded"] += 1
        # pruning reads a stack at least _PRUNE_MIN_POINTS wide: here one
        # that holds narrower clouds
        seen["pruned padded stack"] += pruned["combinations"] and pruned["padded"]
        seen["no pairs"] += not pairs
        seen["64 points"] += map_.values[0].points.shape[0] > 32
        seen["containment FAILS"] += '"point"' in got
        seen["scalar witness"] += '"scalar_witness": {' in got or "disagree" in got
        seen["whole-space or empty"] += any(v.is_empty or v.whole_space for v in map_.values)
        seen["small blocks"] += small and uniform
        seen["pruned combinations"] += pruned["combinations"]
        seen["pruned containment FAILS"] += pruned["combinations"] and '"point"' in got
        seen["pruned base value"] += pruned["base value"]
        if x0 is not None and not got_min.startswith("Internal"):
            seen["border"] += '"UNDETERMINED"' in got_min
            seen["dominated"] += '"w_l_min": {\n    "verdict": "FAILS"' in got_min
            seen["no weight"] += '"best_gap"' in got_min
    assert min(seen.values()) >= 20, seen
