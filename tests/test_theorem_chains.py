"""The batched theorem chain against the chain run one base point at a time,
and two refinements whose direction the construction fixes.

``theorem_chains`` runs every base point of a map in one pass; each of its
reports must render the bytes ``theorem_chain`` renders at that base point
alone.  The metamorphic tests run the batched chain on seeded suite
instances: a finer dual base keeps a weight-existential HOLDS with the same
witness derivative, and a longer Dini step grid can only lower a VI
derivative.
"""

import glob
from pathlib import Path

import numpy as np
import pytest

from setvi import order as order_mod
from setvi import setmap as setmap_mod
from setvi import vi as vi_mod
from setvi.analysis import DiniConfig
from setvi.cone import dual_base, make_cone
from setvi.config import RunSettings
from setvi.report import render_json
from setvi.setmap import builtin_map, load_problem
from setvi.suite import SUITE_DEFAULTS, build_instance
from setvi.verdicts import Verdict
from setvi.vi import replay_derivatives, theorem_chain, theorem_chains

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = sorted(glob.glob(str(ROOT / "scripts" / "digest_problems" / "*.json")))


def _rendered(report) -> str:
    return render_json({"report": report.to_dict(),
                        "vi_details": {k: v.to_dict() for k, v in report.vi_details.items()}})


def _suite_objects(spec):
    cone = make_cone(spec["cone"]["dual_generators"], spec["cone"]["interior_point"])
    map_ = builtin_map(spec["generator"]["name"], spec["generator"]["params"],
                       domain=np.asarray(spec["domain"]))
    d = SUITE_DEFAULTS.wstar_density  # the density of suite.run_instance
    return (cone, map_, [x0 for x0, _ in spec["base_points"]],
            d if spec["image_dim"] == 2 else max(2, d // 2 + 1))


def _suite_chains(map_, x0s, cone, wstar, dini=SUITE_DEFAULTS.dini):
    s = SUITE_DEFAULTS
    return theorem_chains(map_, x0s, cone, wstar, cfg=dini, tau=s.tau_strict,
                          ray_grid_size=s.chain_ray_grid, max_rays=s.chain_max_rays,
                          max_pairs=15, vi_domain=s.vi_domain)


@pytest.mark.parametrize("seed", [5, 9, 101])
def test_batched_chains_match_one_chain_per_base_point_on_suite_instances(seed):
    s = SUITE_DEFAULTS
    for index in range(30):
        cone, map_, x0s, density = _suite_objects(build_instance(seed, index))
        wstar = dual_base(cone, density)
        batched = _suite_chains(map_, x0s, cone, wstar)
        alone = [theorem_chain(map_, x0, cone, wstar, cfg=s.dini, tau=s.tau_strict,
                               ray_grid_size=s.chain_ray_grid, max_rays=s.chain_max_rays,
                               max_pairs=15, vi_domain=s.vi_domain) for x0 in x0s]
        assert [_rendered(r) for r in batched] == [_rendered(r) for r in alone], index


def _digest_points(problem):
    """The problem's base points, then its first and last nonempty samples."""
    points = list(problem.base_points) or [problem.map.domain[0]]
    values = problem.map.values
    nonempty = [i for i, v in enumerate(values) if not v.is_empty]
    return points + [problem.map.domain[i] for i in nonempty[:1] + nonempty[-1:]]


@pytest.mark.parametrize("path", PROBLEMS, ids=[Path(p).stem for p in PROBLEMS])
@pytest.mark.parametrize("vi_domain", ["formula", "dom"])
def test_batched_chains_match_one_chain_per_base_point_on_digest_problems(path, vi_domain):
    problem = load_problem(path)
    settings = RunSettings.from_dict(problem.settings, vi_domain=vi_domain)
    wstar = dual_base(problem.cone, settings.wstar_density)
    kwargs = dict(cfg=settings.dini, tau=settings.tau_strict,
                  ray_grid_size=settings.chain_ray_grid, max_rays=settings.chain_max_rays,
                  eps_list=settings.eps_list, vi_domain=settings.vi_domain)
    x0s = _digest_points(problem)
    batched = theorem_chains(problem.map, x0s, problem.cone, wstar, **kwargs)
    alone = [theorem_chain(problem.map, x0, problem.cone, wstar, **kwargs) for x0 in x0s]
    assert len(batched) == len(x0s) >= 2
    assert [_rendered(r) for r in batched] == [_rendered(r) for r in alone]


def test_no_base_point_gives_no_report():
    cone, map_, _, density = _suite_objects(build_instance(5, 0))
    assert _suite_chains(map_, [], cone, dual_base(cone, density)) == []


@pytest.mark.parametrize("index", [0, 1, 2])
def test_each_base_point_is_evaluated_once_per_call(monkeypatch, index):
    # the chain loop, classify_weak_min and vi_checks share one base_value read
    cone, map_, x0s, density = _suite_objects(build_instance(5, index))
    wstar = dual_base(cone, density)
    expected = [_rendered(r) for r in _suite_chains(map_, x0s, cone, wstar)]
    read = []
    for module in (vi_mod, order_mod):
        def counted(m, x0, _original=module.base_value):
            read.append(list(x0))
            return _original(m, x0)

        monkeypatch.setattr(module, "base_value", counted)
    reports = _suite_chains(map_, x0s, cone, wstar)
    assert read == [list(x0) for x0 in x0s]
    assert [_rendered(r) for r in reports] == expected


@pytest.mark.parametrize("name", ["bench_quadratic", "bench_tabulated_5", "jump_map"])
def test_one_chain_pass_reads_the_rays_of_three_base_points_at_once(monkeypatch, name):
    # one radial_rays call, one _rays read of every base point's rays, and
    # the reports of the chains run one base point at a time
    problem = load_problem(str(ROOT / "scripts" / "digest_problems" / f"{name}.json"))
    settings = RunSettings.from_dict(problem.settings)
    wstar = dual_base(problem.cone, settings.wstar_density)
    kwargs = dict(cfg=settings.dini, tau=settings.tau_strict,
                  ray_grid_size=settings.chain_ray_grid, max_rays=settings.chain_max_rays)
    x0s = _digest_points(problem)[:3]
    alone = [_rendered(theorem_chain(problem.map, x0, problem.cone, wstar, **kwargs))
             for x0 in x0s]
    reads = []
    original = setmap_mod._rays
    monkeypatch.setattr(setmap_mod, "_rays",
                        lambda *args: reads.append(len(args[2])) or original(*args))
    reports = theorem_chains(problem.map, x0s, problem.cone, wstar, **kwargs)
    assert reads == [3 * len(problem.map.domain)]
    assert [_rendered(r) for r in reports] == alone


def _suite_cases(count=24):
    for seed in (5, 9):
        for index in range(count // 2):
            yield build_instance(seed, index)


def _positions(coarse, fine):
    """The index of every coarse weight row among the fine rows, or None."""
    index = {w.tobytes(): j for j, w in enumerate(fine)}
    return [index.get(w.tobytes()) for w in coarse]


def test_finer_dual_base_keeps_a_held_vi_with_its_witness_derivative():
    rng = np.random.default_rng(2024)
    for _ in range(200):  # the lattice at d nests in the lattice at 2d - 1, bit for bit
        m = int(rng.integers(2, 5))
        cone = make_cone(np.abs(rng.normal(size=(m, m))) + np.eye(m) * rng.uniform(0.5, 2),
                         np.ones(m))
        d = int(rng.integers(1, 6))
        assert None not in _positions(dual_base(cone, d).weights,
                                      dual_base(cone, 2 * d - 1).weights)
    held = 0
    for spec in _suite_cases():
        cone, map_, x0s, d = _suite_objects(spec)
        coarse, fine = dual_base(cone, d), dual_base(cone, 2 * d - 1)
        moved = _positions(coarse.weights, fine.weights)
        for x0, before, after in zip(x0s, _suite_chains(map_, x0s, cone, coarse),
                                     _suite_chains(map_, x0s, cone, fine)):
            for kind in ("svi", "mvi"):
                if before.verdicts[kind] is not Verdict.HOLDS:
                    continue
                held += 1
                assert after.verdicts[kind] is Verdict.HOLDS
                per_x = before.vi_details[kind].per_x
                again = replay_derivatives(map_, x0, fine, SUITE_DEFAULTS.dini, kind,
                                           [e["x"] for e in per_x],
                                           [moved[e["witness_w"]] for e in per_x])
                recorded = np.array([e["derivative"] for e in per_x])
                assert again.tobytes() == recorded.tobytes()
    assert held >= 20


def test_more_dini_steps_only_lower_the_vi_derivatives():
    short = SUITE_DEFAULTS.dini
    long = DiniConfig(t_max=short.t_max, ratio=short.ratio, steps=short.steps + 6)
    survived = {"mvi HOLDS": 0, "svi FAILS": 0}
    for spec in _suite_cases():
        cone, map_, x0s, d = _suite_objects(spec)
        wstar = dual_base(cone, d)
        for x0, before, after in zip(x0s, _suite_chains(map_, x0s, cone, wstar, short),
                                     _suite_chains(map_, x0s, cone, wstar, long)):
            for kind in ("svi", "mvi"):
                xs = [e["x"] for e in before.vi_details[kind].per_x]
                rows = np.repeat(xs, len(wstar), axis=0)
                w = np.tile(np.arange(len(wstar)), len(xs))
                lower = replay_derivatives(map_, x0, wstar, long, kind, rows, w)
                assert np.all(lower <= replay_derivatives(map_, x0, wstar, short, kind, rows, w))
            if before.verdicts["mvi"] is Verdict.HOLDS:
                survived["mvi HOLDS"] += 1
                assert after.verdicts["mvi"] is Verdict.HOLDS
            if before.verdicts["svi"] is Verdict.FAILS:
                survived["svi FAILS"] += 1
                assert after.verdicts["svi"] is Verdict.FAILS
    assert min(survived.values()) >= 5, survived
