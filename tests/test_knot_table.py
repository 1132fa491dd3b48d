"""The knot table of tabulated segments against the per-pair reads it replaced.

``ref_segment_sample_ts``, ``ref_ray_grid``, ``ref_interp_extended`` and
``ref_ray_scalarizations`` below are the earlier ``setmap.segment_sample_ts``,
``setmap.ray_grid``, ``scalarize.interp_extended`` and
``scalarize.ray_scalarizations``, kept verbatim apart from their names and
the block rule (``setmap.blocks``) that sizes a generator's reads: one
segment at a time, and one ``segment_sample_ts``, ``evaluate_rows``,
``scalarize_values`` and ``interp_extended`` call per (base, target) pair.
``ref_radial_rays`` is the earlier ``setmap.radial_rays``, one grid per ray.
On every seeded case the one-table reads must give the same bits, in any
block size.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from setvi.analysis import DiniConfig
from setvi.cli import main
from setvi.cone import dual_base, make_cone
from setvi.setmap import (SetMap, SetValue, _as_domain_point, _lookup_tol, _rays, blocks,
                          builtin_map, evaluate_rows, radial_rays, segment_sample_ts)
from setvi.scalarize import ray_scalarizations, scalarize_values

ROOT = Path(__file__).resolve().parent.parent


def ref_segment_sample_ts(map: SetMap, x0, x) -> np.ndarray:
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


def ref_ray_grid(map: SetMap, x0, x, t_grid) -> np.ndarray:
    """The requested grid for generator maps, the stored segment samples
    for tabulated ones."""
    if map.kind == "generator":
        return np.asarray(t_grid, dtype=float)
    return ref_segment_sample_ts(map, x0, x)


def ref_radial_rays(map, x0, t_grid):
    return _rays(map, np.broadcast_to(np.asarray(x0, dtype=float), map.domain.shape), map.domain,
                 [ref_ray_grid(map, x0, x, t_grid) for x in map.domain])


def ref_interp_extended(knots: np.ndarray, values: np.ndarray,
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


def ref_ray_scalarizations(map: SetMap, bases, targets, svals: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
    """Scalarizations (R, n_s, n_w) along bases[r] + s (targets[r] - bases[r]).

    ``bases`` and ``targets`` broadcast to (R, n) rows: one ray, rays from
    one point, or one pair per ray.  Generator maps evaluate anywhere, every
    ray's points together, in ``blocks`` of one cloud: ``evaluate_rows`` and
    ``scalarize_values`` treat each row on its own, so a row has the same
    bits in any block.  Tabulated maps only carry values at stored samples,
    so their scalarizations are interpolated between the samples that lie
    on each segment (with +inf dominating a mixed span, matching the
    path-evaluation conventions).
    """
    bases, targets = np.atleast_2d(bases), np.atleast_2d(targets)
    points = bases[:, None, :] + svals[:, None] * (targets - bases)[:, None, :]
    flat = points.reshape(-1, points.shape[2])
    if map.kind == "generator":
        phis = [scalarize_values(evaluate_rows(map, flat[rows]), weights)
                for rows in blocks(len(flat), map.values[0].points.size)]
        return np.concatenate(phis).reshape(points.shape[:2] + (-1,))
    out = []
    for base, target in zip(*np.broadcast_arrays(bases, targets)):
        knots = ref_segment_sample_ts(map, base, target)
        values = evaluate_rows(map, base + knots[:, None] * (target - base))
        out.append(ref_interp_extended(knots, scalarize_values(values, weights), svals))
    return np.stack(out)


def _domain(rng, n):
    k = int(rng.integers(2, {1: 40, 2: 8, 3: 5}[n]))
    axes = [np.sort(rng.uniform(-2, 2, size=k)) if rng.random() < 0.3
            else np.linspace(float(rng.uniform(-2, 0)), float(rng.uniform(0.5, 2)), k)
            for _ in range(n)]
    domain = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    if rng.random() < 0.3:  # a few samples off the grid
        domain = np.vstack([domain, rng.uniform(-2, 2, size=(int(rng.integers(1, 6)), n))])
    if rng.random() < 0.6:  # samples 1e-11 from others: their knots coincide or nearly do
        near = domain[rng.integers(0, len(domain), size=int(rng.integers(1, 6)))].copy()
        near[np.arange(len(near)), rng.integers(0, n, size=len(near))] += 1e-11
        domain = np.vstack([domain, near])
    return np.unique(domain, axis=0)


def _tabulated_map(rng):
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    domain = _domain(rng, n)
    values = []
    for _ in range(len(domain)):
        u = rng.random()
        if u < 0.2:
            values.append(SetValue.make(np.zeros((0, m)), dim=m))
        elif u < 0.25:
            values.append(SetValue.make(np.zeros((0, m)), whole_space=True, dim=m))
        else:  # ragged clouds
            cloud = rng.normal(size=(int(rng.integers(1, 6)), m))
            values.append(SetValue.make(np.round(cloud, 1) if rng.random() < 0.3 else cloud))
    return SetMap(domain=domain, kind="tabulated", values=values)


def _pairs(rng, map_):
    """Bases and targets as one pair per row, one base or one target."""
    N = len(map_.domain)
    R = int(rng.integers(1, 3 * N + 2))
    i, j = rng.integers(0, N, size=R), rng.integers(0, N, size=R)
    zero = rng.random(R) < 0.15  # zero-length pairs
    j[zero] = i[zero]
    u = rng.random()
    if u < 0.2:
        return map_.domain[i[0]], map_.domain[j]
    if u < 0.4:
        return map_.domain[i], map_.domain[j[0]]
    return map_.domain[i], map_.domain[j]


def _svals(rng, cfg):
    u = rng.random()
    if u < 0.3:  # the VI rows: s = 0, then the Dini steps
        return np.concatenate([[0.0], cfg.step_grid()])
    if u < 0.6:  # on a grid, where knots of even grids fall
        return np.linspace(0.0, 1.0, int(rng.integers(2, 12)))
    return rng.uniform(-0.1, 1.1, size=int(rng.integers(1, 30)))


def _shared_knots(map_, x0, x) -> int:
    """How many samples on the segment share their knot with another one."""
    d = x - x0
    if not d.any():
        return 0
    t = (map_.domain - x0) @ d / float(d @ d)
    at = x0 + t[:, None] * d
    t = t[(np.abs(map_.domain - at).max(axis=1) <= _lookup_tol(at)) & (0.0 < t) & (t < 1.0)]
    return t.size - np.unique(t).size


def _bits(a):
    return np.ascontiguousarray(a).tobytes(), a.shape


@pytest.mark.parametrize("block", [None, 1 << 12, 1 << 6, 1])
def test_the_knot_table_reads_every_pair_with_its_own_bits(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(sys.modules["setvi.setmap"], "_POINTS_BLOCK", block)
    rng = np.random.default_rng(20240826)
    seen = {"rows": 0, "1-D": 0, "2-D": 0, "3-D": 0, "zero-length": 0, "shared knots": 0,
            "knots 1e-9 apart": 0, "empty": 0, "whole-space": 0, "padded": 0,
            "several blocks": 5 if block is None else 0}
    for case in range(60):
        map_ = _tabulated_map(rng)
        m = map_.image_dim
        weights = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), m))
        if rng.random() < 0.3:
            weights[0] = -weights[0]
        cfg = DiniConfig(t_max=float(rng.choice([1e-3, 0.05, 0.3])), ratio=0.5,
                         steps=int(rng.integers(1, 10)))
        bases, targets = _pairs(rng, map_)
        svals = _svals(rng, cfg)

        table = segment_sample_ts(map_, bases, targets)
        pairs = np.broadcast_arrays(np.atleast_2d(bases), np.atleast_2d(targets))
        finite = table < np.inf
        assert (finite.sum(axis=1).max() == table.shape[1]
                and (np.diff(finite.astype(int), axis=1) <= 0).all()), f"case {case}"
        for row, base, target in zip(table, *pairs):
            want = ref_segment_sample_ts(map_, base, target)
            assert _bits(row[row < np.inf]) == _bits(want), f"case {case}"
            seen["zero-length"] += bool((base == target).all())
            seen["shared knots"] += _shared_knots(map_, base, target) > 0
            seen["knots 1e-9 apart"] += bool((np.diff(want) < 1e-9).any())
        # the same table for targets off the samples, and for the reversed pairs
        scaled = pairs[1] * rng.uniform(0.5, 2.0)
        for x0s, xs in ((pairs[0], scaled), (pairs[1], pairs[0])):
            for row, base, target in zip(segment_sample_ts(map_, x0s, xs), x0s, xs):
                assert _bits(row[row < np.inf]) == _bits(
                    ref_segment_sample_ts(map_, base, target)), f"case {case}"

        with np.errstate(invalid="ignore", over="ignore"):
            got = ray_scalarizations(map_, bases, targets, svals, weights)
            want = ref_ray_scalarizations(map_, bases, targets, svals, weights)
        assert _bits(got) == _bits(want), f"case {case}"

        x0 = map_.domain[int(rng.integers(0, len(map_.domain)))]
        grid = np.linspace(0.0, 1.0, int(rng.integers(2, 10)))
        for ray, ref in zip(radial_rays(map_, x0, grid), ref_radial_rays(map_, x0, grid)):
            assert _bits(ray.t_grid) == _bits(ref.t_grid), f"case {case}"
            for a, b in zip(ray.values, ref.values):
                assert _bits(a) == _bits(b), f"case {case}"

        seen["rows"] += len(table)
        seen[f"{map_.domain_dim}-D"] += 1
        seen["empty"] += bool(((map_.stacked[1] == 0) & ~map_.stacked[2]).any())
        seen["whole-space"] += bool(map_.stacked[2].any())
        seen["padded"] += bool((~finite).any())
        seen["several blocks"] += block is not None and len(table) > 1
    assert min(seen.values()) >= 5 and seen["rows"] > 1000, seen


def test_a_generator_map_reads_its_rays_on_the_requested_grid():
    map_ = builtin_map("quadratic_vector", {"targets": [[0, 0], [1, 0.5]]})
    grid = np.linspace(0.0, 1.0, 7)
    for ray, ref in zip(radial_rays(map_, [0.5, 0.5], grid),
                        ref_radial_rays(map_, [0.5, 0.5], grid)):
        assert _bits(ray.t_grid) == _bits(ref.t_grid) == _bits(grid)
        assert all(_bits(a) == _bits(b) for a, b in zip(ray.values, ref.values))


def test_all_sample_to_centre_pairs_of_a_large_map_stay_bounded():
    # 513 pairs whose segments hold up to 257 samples each: the tables are
    # read in blocks, so the peak stays a few megabytes
    rng = np.random.default_rng(3)
    domain = np.linspace(-1.0, 1.0, 513)[:, None]
    map_ = SetMap(domain=domain, kind="tabulated",
                  values=[SetValue.make(rng.normal(size=(4, 2))) for _ in domain])
    weights = dual_base(make_cone(np.eye(2), np.ones(2)), 9).weights
    svals = np.concatenate([[0.0], DiniConfig().step_grid()])
    tracemalloc.start()
    try:
        out = ray_scalarizations(map_, domain, domain[256], svals, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (513, svals.size, len(weights))
    assert peak < 8 << 20, peak


def test_a_tabulated_chain_reads_its_segments_one_table_per_block(monkeypatch, capsys):
    # one table for the rays of every base point (one radial_rays call per
    # chain pass) and one per ray_scalarizations block, each block of more
    # than one pair when its call has more than one
    def rows(args):
        return len(np.broadcast_arrays(np.atleast_2d(args[1]), np.atleast_2d(args[2]))[0])

    def spy(name, before, after=lambda: None):
        original = getattr(sys.modules["setvi.setmap"], name, None) or \
            getattr(sys.modules["setvi.scalarize"], name)

        def counted(*args, **kwargs):
            before(args)
            try:
                return original(*args, **kwargs)
            finally:
                after()

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("setvi") and \
                    getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    radial, outside, finished, running = [], [], [], []  # running: (pairs, block rows)
    spy("radial_rays", lambda args: radial.append(len(args[0].domain) * len(args[1])))
    spy("ray_scalarizations", lambda args: running.append((rows(args), [])),
        lambda: finished.append(running.pop()))
    spy("segment_sample_ts",
        lambda args: (running[-1][1] if running else outside).append(rows(args)))
    problem = ROOT / "scripts" / "digest_problems" / "bench_tabulated_5.json"
    assert main(["chain", str(problem)]) in (0, 1)
    capsys.readouterr()

    assert outside == radial == [2 * 41]  # one table for both base points' rays
    for count, parts in finished:
        assert sum(parts) == count
        assert len(parts) == -(-count // parts[0])  # full blocks, then the rest
        assert parts[0] > 1 or count == 1
    assert max(count for count, _ in finished) > 40  # the VI rows
    assert len(outside) + sum(len(parts) for _, parts in finished) < 40


def test_the_chain_and_suite_commands_import_no_scipy():
    code = (
        "import contextlib, io, json, sys\n"
        "from setvi.cli import main\n"
        "codes = []\n"
        "for argv in (['chain', 'scripts/digest_problems/bench_quadratic.json'],\n"
        "             ['chain', 'scripts/digest_problems/bench_tabulated_5.json'],\n"
        "             ['suite', '--instances', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, scipy]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    codes, scipy = json.loads(proc.stdout)
    assert set(codes) <= {0, 1} and len(codes) == 3, proc.stderr  # verdicts, not errors
    assert scipy == []


def test_the_relations_and_chain_commands_load_no_process_pool():
    # only run_suite imports the pool's modules; the one-problem commands pay nothing
    code = (
        "import contextlib, io, json, sys\n"
        "from setvi.cli import main\n"
        "codes = []\n"
        "for argv in (['relations', 'scripts/digest_problems/bench_quadratic.json',\n"
        "              '--a', '0', '--b', '12'],\n"
        "             ['chain', 'scripts/digest_problems/bench_quadratic.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "pools = sorted(m for m in sys.modules\n"
        "               if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent'))\n"
        "print(json.dumps([codes, pools]))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    codes, pools = json.loads(proc.stdout)
    assert set(codes) <= {0, 1} and len(codes) == 2, proc.stderr
    assert pools == []
