"""Command-line entry point.

Subcommands load a problem file, run the requested checks, and emit a
human-readable summary and/or a machine-readable JSON report with the full
run settings embedded.  Exit codes: 0 when everything holds or is
confirmed, 1 when something fails or an implication is violated, 2 on
input errors, 3 when the only blockers are undetermined verdicts, 4 when
two internally redundant checks disagree (a defect, not an input error).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import (CONVEXITY_T_SAMPLES, c_convexity_check, classify_path,
                       convexity_pairs, diewert_witness)
from .cone import dual_base
from .config import RunSettings
from .errors import GridTooCoarse, InternalCheckError, NoWitnessFound, SetVIError
from .order import classify_weak_min, relation_ll, relation_lt, scalar_strict_separation
from .report import render_json
from .scalarize import scalar_path
from .setmap import load_problem, ray_grid
from .suite import SUITE_DEFAULTS, run_suite
from .vi import theorem_chains, vi_checks

_OK, _FAILED, _INPUT_ERROR, _UNDETERMINED, _INTERNAL_ERROR = 0, 1, 2, 3, 4


def _exit_from(statuses: list[str]) -> int:
    if any(s in ("FAILS", "VIOLATED") for s in statuses):
        return _FAILED
    if any(s == "UNDETERMINED" for s in statuses):
        return _UNDETERMINED
    return _OK


# settings field -> the command-line flag that overrides it
_FLAGS = {"tau_strict": "tau", "wstar_density": "density", "output": "output",
          "vi_domain": "vi_domain", "seed": "seed"}


def _overrides(args) -> dict:
    """The settings given on the command line; validated by RunSettings."""
    return {key: getattr(args, flag) for key, flag in _FLAGS.items()
            if getattr(args, flag, None) is not None}


def _load(args):
    """The problem, its settings with the command-line overrides, and their weights."""
    problem = load_problem(args.file)
    settings = RunSettings.from_dict(problem.settings, **_overrides(args))
    return problem, settings, dual_base(problem.cone, settings.wstar_density)


def _emit(report: dict, lines: list[str], settings: RunSettings) -> None:
    if settings.output in ("text", "both"):
        for line in lines:
            print(line)
    if settings.output in ("json", "both"):
        print(render_json(report), end="")


def _base_points(problem) -> np.ndarray:
    if problem.base_points.shape[0]:
        return problem.base_points
    return problem.map.domain[:1]


def _cmd_relations(args) -> int:
    problem, settings, wstar = _load(args)
    tau = settings.tau_strict
    n = problem.map.domain.shape[0]
    if not (0 <= args.a < n and 0 <= args.b < n):
        raise SetVIError(f"indices must lie in [0, {n})")
    A, B = problem.map.values[args.a], problem.map.values[args.b]
    ll_ab, margin_ab = relation_ll(A, B, problem.cone, tau)
    ll_ba, margin_ba = relation_ll(B, A, problem.cone, tau)
    sep = scalar_strict_separation(A, B, wstar, tau)
    report = {
        "command": "relations",
        "settings": settings.to_dict(),
        "a_index": args.a,
        "b_index": args.b,
        "lt_ab": relation_lt(A, B, problem.cone, tau),
        "ll_ab": {"holds": ll_ab, "margin": margin_ab},
        "lt_ba": relation_lt(B, A, problem.cone, tau),
        "ll_ba": {"holds": ll_ba, "margin": margin_ba},
        "strict_separation_ab": sep.to_dict(),
    }
    _emit(report, [
        f"A(.{args.a}) < B(.{args.b}): {report['lt_ab']}",
        f"A << B: {ll_ab} (margin {margin_ab:.6g})",
        f"B < A: {report['lt_ba']}   B << A: {ll_ba} (margin {margin_ba:.6g})",
        f"strict scalar separation A|B: {sep.verdict.value}",
    ], settings)
    return _OK


def _cmd_minimality(args) -> int:
    problem, settings, wstar = _load(args)
    statuses, entries, lines = [], [], []
    for x0 in _base_points(problem):
        verdict = classify_weak_min(problem.map, x0, problem.cone, wstar,
                                    settings.tau_strict)
        entries.append({"x0": x0.tolist(), **verdict.to_dict()})
        for v in (verdict.w_l_min, verdict.w_sc_min, verdict.w_min):
            statuses.append(v.verdict.value)
        lines.append(
            f"x0={x0.tolist()}: lower={verdict.w_l_min.verdict.value} "
            f"scalar={verdict.w_sc_min.verdict.value} "
            f"uniform={verdict.w_min.verdict.value}"
            + (" [whole-space]" if verdict.degenerate_whole_space else "")
        )
    report = {"command": "minimality", "settings": settings.to_dict(),
              "base_points": entries}
    _emit(report, lines, settings)
    return _exit_from(statuses)


def _cmd_vi(args) -> int:
    problem, settings, wstar = _load(args)
    statuses, entries, lines = [], [], []
    x0s = _base_points(problem)
    checks = vi_checks(problem.map, x0s, problem.cone, wstar, settings.dini, (args.kind,),
                       settings.tau_strict, settings.vi_domain)
    for x0, verdicts in zip(x0s, checks):
        verdict = verdicts[args.kind]
        entries.append({"x0": x0.tolist(), **verdict.to_dict()})
        statuses.append(verdict.verdict.value)
        lines.append(f"{args.kind} at x0={x0.tolist()}: {verdict.verdict.value}")
    report = {"command": "vi", "kind": args.kind, "settings": settings.to_dict(),
              "base_points": entries}
    _emit(report, lines, settings)
    return _exit_from(statuses)


def _cmd_chain(args) -> int:
    problem, settings, wstar = _load(args)
    statuses, entries, lines = [], [], []
    x0s = _base_points(problem)
    reports = theorem_chains(problem.map, x0s, problem.cone, wstar,
                             cfg=settings.dini, tau=settings.tau_strict,
                             ray_grid_size=settings.chain_ray_grid,
                             max_rays=settings.chain_max_rays,
                             eps_list=settings.eps_list,
                             vi_domain=settings.vi_domain)
    for x0, rep in zip(x0s, reports):
        witnesses = {k: [e for e in v.per_x if e.get("witness_w") is not None]
                     for k, v in rep.vi_details.items()}
        entries.append({"instance": {"x0": x0.tolist(),
                                     "map": problem.map.source},
                        "hypotheses": {k: v.to_dict()
                                       for k, v in rep.hypotheses.items()},
                        "verdicts": {k: v.value for k, v in rep.verdicts.items()},
                        "implications": rep.implications,
                        "resolution": rep.resolution,
                        "witnesses": witnesses})
        for e in rep.implications:
            statuses.append(e["status"])
        for v in rep.verdicts.values():
            statuses.append(v.value)
        lines.append(f"x0={x0.tolist()}:")
        for e in rep.implications:
            lines.append(f"  {e['implication']:<28} {e['status']}")
    report = {"command": "chain", "settings": settings.to_dict(),
              "reports": entries}
    _emit(report, lines, settings)
    return _exit_from(statuses)


def _cmd_convexity(args) -> int:
    problem, settings, wstar = _load(args)
    n = problem.map.domain.shape[0]
    pairs = convexity_pairs(problem.map, CONVEXITY_T_SAMPLES, max_pairs=36)
    cvx = c_convexity_check(problem.map, problem.cone, wstar, pairs,
                            CONVEXITY_T_SAMPLES, settings.tau_strict)
    statuses = [cvx.verdict.value]
    lines = [f"cone convexity: {cvx.verdict.value}"]
    paths = []
    t_grid = np.linspace(0.0, 1.0, settings.ray_steps)
    for x0 in _base_points(problem):
        for i in range(min(n, 6)):
            x = problem.map.domain[i]
            if np.array_equal(x, np.atleast_1d(np.asarray(x0, dtype=float))):
                continue
            w = wstar.weights[0]
            path = scalar_path(problem.map, x0, x, w,
                               ray_grid(problem.map, x0, [x], t_grid)[0])
            entry = {"x0": np.atleast_1d(x0).tolist(), "x": x.tolist(), "w": w.tolist()}
            label = f"path x0={entry['x0']} -> {entry['x']}"
            try:
                rep = classify_path(path, settings.dini, settings.tau_strict)
            except GridTooCoarse as exc:
                # too few samples on the ray, e.g. a tabulated ray storing only its ends
                paths.append({**entry, "skipped": str(exc)})
                lines.append(f"{label}: skipped ({exc})")
                continue
            paths.append({**entry, **rep.to_dict()})
            statuses.append(rep.semistrictly_quasiconvex.verdict.value)
            lines.append(
                f"{label}: ssqc={rep.semistrictly_quasiconvex.verdict.value} "
                f"pconvex={rep.pseudoconvex.verdict.value} "
                f"pconcave={rep.pseudoconcave.verdict.value} "
                f"s0={rep.s0:.4g} t0={rep.t0:.4g}")
    report = {"command": "convexity", "settings": settings.to_dict(),
              "c_convexity": cvx.to_dict(), "paths": paths}
    _emit(report, lines, settings)
    return _exit_from(statuses)


def _parse_ray(spec: str, dim: int):
    if ";" in spec:
        left, right = spec.split(";", 1)
        x0 = [float(v) for v in left.split(",")]
        x = [float(v) for v in right.split(",")]
    else:
        parts = [float(v) for v in spec.split(",")]
        if len(parts) != 2 * dim:
            raise SetVIError(
                f"--ray needs {2 * dim} comma-separated numbers for this domain "
                "(or two ';'-separated points)")
        x0, x = parts[:dim], parts[dim:]
    return np.asarray(x0), np.asarray(x)


def _cmd_mvt(args) -> int:
    problem, settings, wstar = _load(args)
    x0, x = _parse_ray(args.ray, problem.map.domain_dim)
    t_grid = ray_grid(problem.map, x0, [x], np.linspace(0.0, 1.0, settings.ray_steps))[0]
    entries, lines = [], []
    failed = False
    for j in range(len(wstar)):
        w = wstar.weights[j]
        path = scalar_path(problem.map, x0, x, w, t_grid)
        entry = {"w": w.tolist()}
        for side in ("forward", "backward"):
            try:
                t, residual = diewert_witness(path, side, settings.dini,
                                              settings.tau_strict)
                entry[side] = {"t": t, "residual": residual}
            except NoWitnessFound as exc:
                entry[side] = {"error": str(exc)}
                failed = True
        entries.append(entry)
    lines.append(f"mean-value witnesses on ray {x0.tolist()} -> {x.tolist()}: "
                 f"{'incomplete' if failed else 'found for every sampled weight'}")
    report = {"command": "mvt", "settings": settings.to_dict(),
              "ray": {"x0": x0.tolist(), "x": x.tolist()}, "per_weight": entries}
    _emit(report, lines, settings)
    return _FAILED if failed else _OK


def _cmd_suite(args) -> int:
    settings = SUITE_DEFAULTS.with_(**_overrides(args))
    report = run_suite(seed=args.seed, instances=args.instances, settings=settings)
    summary = report["summary"]
    violated = summary["violated"]
    replay_failures = summary["replay_failures"]
    lines = [
        f"instances: {report['instance_count']}",
        f"implication statuses: {summary['implication_statuses']}",
        f"violated: {len(violated)}, replay failures: {len(replay_failures)}",
    ]
    _emit(report, lines, settings)
    if violated or replay_failures:
        return _FAILED
    return _OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setvi",
        description="order relations, minimality, and variational-inequality "
                    "checks for set-valued problems on finite samples")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="problem JSON file")
        p.add_argument("--output", choices=["text", "json", "both"], default=None)
        p.add_argument("--tau", type=float, default=None,
                       help="strictness tolerance override")
        p.add_argument("--density", type=int, default=None,
                       help="dual-base sample density override")
        p.add_argument("--vi-domain", dest="vi_domain",
                       choices=["formula", "dom"], default=None)

    p = sub.add_parser("relations", help="order relations between two set values")
    common(p)
    p.add_argument("--a", type=int, required=True, help="domain index of A")
    p.add_argument("--b", type=int, required=True, help="domain index of B")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("minimality", help="classify every base point")
    common(p)
    p.set_defaults(func=_cmd_minimality)

    p = sub.add_parser("vi", help="one variational inequality at every base point")
    common(p)
    p.add_argument("--kind", choices=["mvi", "svi", "mvi2", "svi2"], required=True)
    p.set_defaults(func=_cmd_vi)

    p = sub.add_parser("chain", help="hypotheses, verdicts, and implication map")
    common(p)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("convexity", help="path and cone-convexity reports")
    common(p)
    p.set_defaults(func=_cmd_convexity)

    p = sub.add_parser("mvt", help="mean-value witness along a ray")
    common(p)
    p.add_argument("--ray", required=True,
                   help="x0,x for 1-D problems or 'x0coords;xcoords'")
    p.set_defaults(func=_cmd_mvt)

    p = sub.add_parser("suite", help="randomized property suite")
    common(p, with_file=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _INPUT_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return _INTERNAL_ERROR
    except (SetVIError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
