"""Randomized theorem-chain suite over the built-in generator catalog.

Every instance is rebuilt deterministically from (seed, index), so a
failure is replayable from the report alone.  Instances are convex with
respect to their cone by construction, and base points are chosen where
the ground truth is robust at sample resolution: analytic minimizers that
lie on the grid, and far corner points that are dominated by an on-grid
point with at least one grid point strictly between them (so the Minty
scan has a disqualifying sample to find).  Both the confirming and the
vacuous branches of every implication are exercised this way without ever
manufacturing a discretization artifact.

Because instances are independent, ``run_suite`` splits their indices into
one contiguous chunk per usable CPU: forked children run every chunk but
the first, which the calling process runs before the property blocks.  The
report is the one a serial loop over the indices would build, byte for
byte, and so is the exception when an instance raises.
"""

from __future__ import annotations

import os

import numpy as np

from .analysis import DiniConfig
from .cone import dual_base, ext_margins, make_cone
from .config import RunSettings
from .order import relation_ll
from .setmap import SetValue, _grid_points, builtin_map
from .vi import ChainStatus, replay_derivatives, theorem_chains

SUITE_DEFAULTS = RunSettings(
    tau_strict=1e-5,
    dini=DiniConfig(t_max=1e-3, ratio=0.5, steps=18),
    wstar_density=7,
    chain_ray_grid=9,
    chain_max_rays=6,
)

_FAMILIES = ("quadratic_vector", "segment_shift", "constant_cloud")


def _grid_1d():
    return np.linspace(-2.0, 2.0, 9).reshape(-1, 1)


def _grid_2d():
    return _grid_points([np.linspace(-2.0, 2.0, 5)] * 2)


def _chain_cloud(rng: np.random.Generator, m: int) -> np.ndarray:
    """A small cloud totally ordered by the nonnegative orthant."""
    p = int(rng.integers(2, 5))
    start = rng.uniform(-1.0, 1.0, size=m)
    increments = rng.uniform(0.1, 1.0, size=(p - 1, m))
    return np.vstack([start, start + np.cumsum(increments, axis=0)])


def build_instance(seed: int, index: int) -> dict:
    """Deterministic instance spec: cone, generator, domain, base points."""
    rng = np.random.default_rng([seed, index])
    m = int(rng.integers(2, 4))
    lam = rng.uniform(0.5, 2.0, size=m)
    cone_spec = {"dual_generators": np.diag(lam).tolist(),
                 "interior_point": [1.0] * m}
    family = _FAMILIES[index % len(_FAMILIES)]
    two_d = bool(rng.integers(0, 2))
    domain = _grid_2d() if two_d else _grid_1d()
    n = domain.shape[1]
    corner = domain[-1]

    if family == "quadratic_vector":
        if two_d:
            box = [(i, j) for i in (1, 2) for j in (1, 2)]
            picks = rng.choice(len(box), size=m, replace=False)
            axis = np.linspace(-2.0, 2.0, 5)
            targets = [[float(axis[box[p][0]]), float(axis[box[p][1]])]
                       for p in picks]
        else:
            idx = rng.choice(np.arange(1, 6), size=m, replace=False)
            grid = np.linspace(-2.0, 2.0, 9)
            targets = [float(grid[i]) for i in idx]
        params = {"targets": targets}
        minimizers = [np.atleast_1d(np.asarray(t, dtype=float)) for t in targets[:2]]
    elif family == "segment_shift":
        center = np.zeros(n)
        params = {
            "segment": _chain_cloud(rng, m).tolist(),
            "offset": rng.uniform(-1.0, 1.0, size=m).tolist(),
            "quadratic": rng.uniform(0.5, 1.5, size=m).tolist(),
            "center": center.tolist(),
            "domain_dim": n,
        }
        minimizers = [center]
    else:
        params = {"points": _chain_cloud(rng, m).tolist(), "domain_dim": n}
        minimizers = [domain[domain.shape[0] // 2]]

    base_points = [(p.tolist(), "minimizer") for p in minimizers]
    base_points.append((corner.tolist(), "far_corner"))
    return {
        "index": index,
        "family": family,
        "image_dim": m,
        "domain_kind": "2d" if two_d else "1d",
        "cone": cone_spec,
        "generator": {"name": family, "params": params},
        "domain": domain.tolist(),
        "base_points": base_points,
    }


def run_instance(spec: dict, settings: RunSettings) -> dict:
    cone = make_cone(spec["cone"]["dual_generators"], spec["cone"]["interior_point"])
    map_ = builtin_map(spec["generator"]["name"], spec["generator"]["params"],
                       domain=np.asarray(spec["domain"]))
    density = settings.wstar_density if spec["image_dim"] == 2 \
        else max(2, settings.wstar_density // 2 + 1)
    wstar = dual_base(cone, density)
    x0s = [x0 for x0, _ in spec["base_points"]]
    reports = theorem_chains(
        map_, x0s, cone, wstar, cfg=settings.dini, tau=settings.tau_strict,
        ray_grid_size=settings.chain_ray_grid, max_rays=settings.chain_max_rays,
        max_pairs=15, vi_domain=settings.vi_domain,
    )
    replay_ok = [True] * len(reports)
    for vi_kind in ("svi", "mvi"):
        held = [(c, e) for c, report in enumerate(reports)
                for e in report.vi_details[vi_kind].per_x if e["witness_w"] is not None]
        if held:  # one batched replay per kind, compared by bits per chain
            chain = np.array([c for c, _ in held])
            again = replay_derivatives(map_, [x0s[c] for c, _ in held], wstar, settings.dini,
                                       vi_kind, [e["x"] for _, e in held],
                                       [e["witness_w"] for _, e in held])
            recorded = np.array([e["derivative"] for _, e in held])
            for c in range(len(reports)):
                replay_ok[c] &= again[chain == c].tobytes() == recorded[chain == c].tobytes()
    per_base = []
    for (x0, kind), report, ok in zip(spec["base_points"], reports, replay_ok):
        per_base.append({
            "x0": x0,
            "base_kind": kind,
            "verdicts": {k: v.value for k, v in report.verdicts.items()},
            "hypotheses": {k: v.verdict.value for k, v in report.hypotheses.items()},
            "implications": [
                {"implication": e["implication"], "status": e["status"]}
                for e in report.implications
            ],
            "violated": report.violated,
            "replay_ok": ok,
        })
    return {
        "index": spec["index"],
        "family": spec["family"],
        "image_dim": spec["image_dim"],
        "domain_kind": spec["domain_kind"],
        "per_base": per_base,
    }


def _relation_properties(seed: int, trials: int) -> dict:
    """Uniform-vs-lower relation agreement on random clouds and cones."""
    rng = np.random.default_rng([seed, 7_001])
    tau = 1e-9
    disagreements = 0
    implications_broken = 0
    for _ in range(trials):
        m = int(rng.integers(2, 4))
        gens = np.diag(rng.uniform(0.5, 2.0, size=m))
        cone = make_cone(gens, np.ones(m))
        A = SetValue.make(rng.normal(size=(rng.integers(1, 6), m)))
        B = SetValue.make(rng.normal(size=(rng.integers(1, 6), m)))
        # relation_lt reads the margin relation_ll returns, with the same band
        holds, margin = relation_ll(A, B, cone, tau)
        lt = margin > tau
        if holds and not lt:
            implications_broken += 1
        if abs(margin) > 10 * tau and lt != holds:
            disagreements += 1
    return {"trials": trials, "disagreements_outside_band": disagreements,
            "uniform_without_lower": implications_broken,
            "passed": disagreements == 0 and implications_broken == 0}


def _membership_properties(seed: int, trials: int) -> dict:
    """Half-margin balls around interior points stay inside the extended set."""
    rng = np.random.default_rng([seed, 7_002])
    escapes = 0
    decisive = 0
    for _ in range(trials):
        m = int(rng.integers(2, 4))
        gens = np.abs(rng.uniform(0.2, 1.5, size=(m, m))) + np.eye(m)
        cone = make_cone(gens, np.ones(m) * float(gens.sum(axis=1).max()))
        pts = rng.normal(size=(rng.integers(1, 5), m))
        y = rng.normal(scale=2.0, size=m)
        margin = ext_margins(pts, cone, y[None, :])[0][0]
        if margin <= 1e-9:
            continue
        decisive += 1
        dirs = rng.normal(size=(32, m))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        margins, _ = ext_margins(pts, cone, y + 0.5 * margin * dirs)
        if np.any(margins <= 0.0):
            escapes += 1
    return {"trials": trials, "decisive": decisive, "escapes": escapes,
            "passed": escapes == 0}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _instance_result(seed: int, settings: RunSettings, index: int) -> dict:
    return run_instance(build_instance(seed, index), settings)


def _run_instances(seed: int, instances: int, settings: RunSettings):
    """Every instance's result in index order, and the property blocks.

    With w = min(usable CPUs, instances) and ``fork`` available, the indices
    fall into w contiguous chunks of ceil(instances / w).  This process runs
    the first chunk and then the property blocks, while w - 1 forked
    children run the others through one ordered ``map``; with w = 1 the same
    lines run without a pool.  This process holds the lowest indices and
    ``map`` yields in index order, so the first failing index raises what a
    serial loop raises.  Children inherit the parent's modules as they are,
    and the pool's modules load only here.
    """
    import contextlib
    import functools

    workers = min(_usable_cpus(), instances) if hasattr(os, "fork") else 1
    chunk = -(-instances // workers)
    run = functools.partial(_instance_result, seed, settings)
    with contextlib.ExitStack() as stack:
        rest = []
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                workers - 1, mp_context=multiprocessing.get_context("fork")))
            rest = pool.map(run, range(chunk, instances), chunksize=chunk)
        results = [run(i) for i in range(chunk)]
        trials = max(50, instances)
        properties = {"order_relations": _relation_properties(seed, trials),
                      "extended_membership": _membership_properties(seed, trials)}
        return results + list(rest), properties


def run_suite(seed: int = 0, instances: int = 200,
              settings: RunSettings | None = None) -> dict:
    """Run the randomized property suites, the instances on every usable CPU.

    Each instance is drawn from its own (seed, index) generator, so the
    instance entries of a shorter run are a prefix of those of a longer one,
    and how the indices are chunked among processes changes no report byte
    (see ``_run_instances``).
    An instance's chains run in one ``theorem_chains`` call, and their
    recorded VI witnesses are replayed from the report alone, one batched
    pass per (instance, kind); each chain's must match their bits.
    """
    if instances < 1:
        raise ValueError(f"instances must be an integer >= 1, not {instances!r}")
    settings = settings or SUITE_DEFAULTS
    settings = settings.with_(seed=seed)
    results, properties = _run_instances(seed, instances, settings)

    counts = {s.value: 0 for s in ChainStatus}
    violated = []
    replay_failures = []
    for res in results:
        for base in res["per_base"]:
            for entry in base["implications"]:
                counts[entry["status"]] += 1
            if base["violated"]:
                violated.append({"index": res["index"], "x0": base["x0"]})
            if not base["replay_ok"]:
                replay_failures.append({"index": res["index"], "x0": base["x0"]})

    return {
        "suite": "randomized-theorem-chain",
        "settings": settings.to_dict(),
        "instance_count": instances,
        "summary": {
            "implication_statuses": counts,
            "violated": violated,
            "replay_failures": replay_failures,
            "property_blocks_passed": all(p["passed"] for p in properties.values()),
        },
        "properties": properties,
        "instances": results,
    }
