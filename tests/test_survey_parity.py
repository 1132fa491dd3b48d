"""The block-batched radial survey against the per-ray survey it replaced.

``ref_radial_survey`` and ``ref_ray_scalarizations`` below are the earlier
``vi._radial_survey`` and ``scalarize.ray_scalarizations``, kept verbatim
apart from their names: one evaluation, two ``dini_table`` calls and two
scans per surveyed ray, each ray's values read as one ``SetValue`` per grid
point (``per_value_ray``), and each tabulated segment read at the one-row
knots of ``test_knot_table``'s oracles.  ``vi._radial_survey`` reads the
rays' value stacks of every base point in blocks; on every seeded case
both must render the same bytes.
"""

import numpy as np

from setvi.analysis import DiniConfig, _pseudo_scan, _ssqc_scan, dini_table
from setvi.cone import dual_base, make_cone
from setvi.report import render_json
from setvi.scalarize import scalarize_batch, scalarize_many
from setvi.setmap import (RayValues, SetMap, SetValue, blocks, builtin_map, evaluate,
                          evaluate_batch, radial_rays)
from setvi.verdicts import Verdict, worst
from setvi.vi import _radial_survey
from test_knot_table import ref_interp_extended, ref_segment_sample_ts


def ref_ray_scalarizations(map, base, target, svals, weights):
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
    knots = ref_segment_sample_ts(map, base, target)
    phis = np.stack([
        scalarize_many(evaluate(map, base + t * (target - base)), weights)
        for t in knots
    ])
    return ref_interp_extended(knots, phis, svals)


def per_value_ray(map, ray):
    """The ray with its values read one ``evaluate`` call per grid point."""
    values = tuple(evaluate(map, ray.x0 + t * (ray.x - ray.x0)) for t in ray.t_grid)
    return RayValues(x0=ray.x0, x=ray.x, t_grid=ray.t_grid, values=values)


def ref_radial_survey(map, rays, wstar, cfg, tau, max_rays):
    """One pass over max_rays strided rays from x0: star shape and the three
    path classes of every sampled scalarization."""
    n = len(rays)
    stride = max(1, int(np.ceil(n / max_rays)))
    ray_indices = list(range(0, n, stride))
    steps = cfg.step_grid()
    S, W = steps.size, len(wstar)

    star = Verdict.HOLDS
    star_witness = None
    class_verdicts = {"ssqc": Verdict.HOLDS, "pconvex": Verdict.HOLDS,
                      "pconcave": Verdict.HOLDS}
    class_witness = {}

    for i in ray_indices:
        ray = rays[i]
        x, t_eff, values = ray.x, ray.t_grid, ray.values
        T = t_eff.size
        if not map.values[i].is_empty:
            empties = [k for k, v in enumerate(values) if v.is_empty]
            if empties and star is Verdict.HOLDS:
                star = Verdict.FAILS
                star_witness = {"x": x.tolist(), "t": float(t_eff[empties[0]])}

        phis = np.stack([scalarize_many(v, wstar.weights) for v in values])  # (T, n_w)
        probe_ts = np.concatenate([(t_eff[:, None] + steps[None, :]).ravel(),
                                   (t_eff[:, None] - steps[None, :]).ravel()])
        inside = (probe_ts >= 0.0) & (probe_ts <= 1.0)
        probe_phis = np.full((probe_ts.size, W), np.inf)
        if np.any(inside):
            probe_phis[inside] = ref_ray_scalarizations(map, ray.x0, x, probe_ts[inside],
                                                        wstar.weights)
        # rows (t, w) with the step axis last: one dini_table call per side
        fw, bw = (np.ascontiguousarray(half.reshape(T, S, W).transpose(0, 2, 1))
                  .reshape(T * W, S) for half in (probe_phis[:T * S], probe_phis[T * S:]))
        d_plus, d_minus = (dini_table(phis.ravel(), probes, steps).reshape(T, W)
                           for probes in (fw, bw))
        cvx, ccv, _ = _pseudo_scan(t_eff, phis, d_plus, d_minus, tau)
        for name, results in (("ssqc", _ssqc_scan(t_eff, phis, tau)), ("pconvex", cvx),
                              ("pconcave", ccv)):
            for widx, (verdict, witness) in enumerate(results):
                # only a strictly worse verdict replaces the recorded witness
                current = class_verdicts[name]
                if verdict is not current and worst(current, verdict) is not current:
                    class_verdicts[name] = verdict
                    class_witness[name] = {"x": x.tolist(), "w_index": widx,
                                           **(witness or {})}
    return {
        "ray_indices": ray_indices,
        "star": (star, star_witness),
        "classes": (class_verdicts, class_witness),
    }


def _rendered(survey) -> str:
    (star, star_witness), (verdicts, witnesses) = survey["star"], survey["classes"]
    return render_json({"ray_indices": survey["ray_indices"],
                        "star": [star.value, star_witness],
                        "classes": [{k: v.value for k, v in verdicts.items()}, witnesses]})


def _domain(rng, n):
    if n == 1:
        return np.round(np.sort(rng.uniform(-2, 2, size=int(rng.integers(2, 12)))), 3)[:, None]
    axis = np.linspace(-1.0, 1.0, int(rng.integers(2, 5)))
    return np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=1)


def _cloud(rng, p, m):
    cloud = rng.normal(size=(p, m))
    return np.round(cloud, 1) if rng.random() < 0.3 else cloud


def _catalog_map(rng, family):
    n = int(rng.integers(1, 3))
    domain = np.unique(_domain(rng, n), axis=0)
    if family == "quadratic_vector":
        k = int(rng.integers(1, 4))
        targets = rng.uniform(-1, 1, size=k) if n == 1 else rng.uniform(-1, 1, size=(k, n))
        return builtin_map(family, {"targets": targets.tolist()}, domain=domain)
    if family == "hyperbola_truncation":
        return builtin_map(family, {"T": float(rng.uniform(1.5, 10)),
                                    "samples": int(rng.integers(2, 20)), "domain_dim": n},
                           domain=domain)
    m = int(rng.integers(1, 4))
    if family == "constant_cloud":
        return builtin_map(family, {"points": _cloud(rng, int(rng.integers(1, 9)), m).tolist(),
                                    "domain_dim": n}, domain=domain)
    return builtin_map(family, {
        "segment": _cloud(rng, int(rng.integers(1, 12)), m).tolist(), "domain_dim": n,
        "offset": rng.normal(size=m).tolist(),
        "linear": (rng.normal(size=(m, n)) * (rng.random() < 0.7)).tolist(),
        "quadratic": rng.uniform(-1, 2, size=m).tolist(),
        "center": rng.uniform(-1, 1, size=n).tolist()}, domain=domain)


def _big_cloud_map(rng):
    # 64-point clouds on a long 1-D domain: several rays per block, and
    # several blocks per survey
    m = int(rng.integers(2, 5))
    s = np.sort(rng.uniform(0, 1, size=64))
    segment = np.column_stack([s + rng.normal(size=64) * 0.01 * (k > 0) for k in range(m)])
    return builtin_map("segment_shift", {
        "segment": segment.tolist(), "quadratic": rng.uniform(0.5, 1.5, size=m).tolist(),
        "offset": rng.normal(size=m).tolist(), "center": [float(rng.uniform(-1, 1))]},
        domain=np.linspace(-2, 2, int(rng.integers(17, 34))).reshape(-1, 1))


def _jump_map(rng):
    m = int(rng.integers(1, 4))
    domain = _domain(rng, 1)
    left, right = (_cloud(rng, int(rng.integers(1, 4)), m).tolist() for _ in range(2))
    return builtin_map("jump_map", {"left_points": left, "right_points": right,
                                    "jump_at": float(rng.uniform(-2, 2))}, domain=domain)


def _tabulated_map(rng):
    n, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
    domain = np.unique(_domain(rng, n), axis=0)
    values = []
    for _ in range(len(domain)):
        u = rng.random()
        if u < 0.2:
            values.append(SetValue.make(np.zeros((0, m)), dim=m))
        elif u < 0.25:
            values.append(SetValue.make(np.zeros((0, m)), whole_space=True, dim=m))
        else:
            values.append(SetValue.make(_cloud(rng, int(rng.integers(1, 5)), m)))
    return SetMap(domain=domain, kind="tabulated", values=values)


def _case(rng):
    u = rng.random()
    if u < 0.45:
        map_ = _catalog_map(rng, rng.choice(["quadratic_vector", "segment_shift",
                                             "constant_cloud", "hyperbola_truncation"]))
    elif u < 0.55:
        map_ = _jump_map(rng)
    elif u < 0.88:
        map_ = _tabulated_map(rng)
    else:
        map_ = _big_cloud_map(rng)
    m = map_.image_dim
    wstar = dual_base(make_cone(np.diag(rng.uniform(0.5, 2, size=m)), np.ones(m)),
                      int(rng.integers(1, 5)))
    big = u >= 0.88  # long step grids, so that the rays fill several blocks
    cfg = DiniConfig(t_max=float(rng.choice([1e-3, 0.05, 0.3])), ratio=0.5,
                     steps=int(rng.integers(8, 13) if big else rng.integers(1, 10)))
    tau = float(rng.choice([1e-9, 1e-5, 1e-2]))
    nonempty = [i for i, v in enumerate(map_.values) if not v.is_empty]
    x0 = map_.domain[nonempty[int(rng.integers(0, len(nonempty)))]] if nonempty \
        else map_.domain[0]
    grid = np.linspace(0.0, 1.0, int(rng.integers(6 if big else 2, 10)))
    return map_, x0, grid, wstar, cfg, tau, int(rng.integers(4 if big else 1, 14))


def test_block_survey_matches_the_per_ray_survey():
    rng = np.random.default_rng(20240811)
    seen = {"generator": 0, "jump_map": 0, "tabulated": 0, "2-D": 0, "star FAILS": 0,
            "several rays per block": 0, "several blocks": 0}
    for case in range(500):
        map_, x0, grid, wstar, cfg, tau, max_rays = _case(rng)
        rays = radial_rays(map_, x0, grid)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _rendered(ref_radial_survey(map_, [per_value_ray(map_, ray) for ray in rays],
                                               wstar, cfg, tau, max_rays))
            got = _rendered(_radial_survey(map_, [rays], wstar, cfg, tau, max_rays)[0])
        assert got == want, f"case {case}"
        name = map_.source.get("generator", "tabulated")
        seen["jump_map" if name == "jump_map" else "tabulated" if name == "tabulated"
             else "generator"] += 1
        seen["2-D"] += map_.domain_dim == 2
        seen["star FAILS"] += '"FAILS"' in got.split('"classes"')[0]
        if map_.kind == "generator":
            surveyed = len(range(0, len(rays), max(1, int(np.ceil(len(rays) / max_rays)))))
            parts = blocks(surveyed, 2 * grid.size * cfg.steps * map_.values[0].points.size)
            seen["several rays per block"] += len(parts) < surveyed
            seen["several blocks"] += map_.values[0].points.shape[0] == 64 and len(parts) > 1
    assert min(seen.values()) >= 20, seen
