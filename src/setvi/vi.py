"""Scalarized Minty and Stampacchia inequality checks and the theorem chain.

The Minty form asks, for every sampled x, for a weight whose scalarized
path has nonpositive lower derivative at x toward the base point; the
Stampacchia form evaluates the derivative at the base point toward x and
asks for a nonnegative one.  The convex variants add a whole-space
disjunct and quantify over all sampled points with the +inf conventions
for rays that leave the domain of the map.

Verdicts are existential over a sampled weight base, so HOLDS always
carries a per-point witness and the derivative it cleared, and the report
is replayable: where the checks read the rows of every base point and
kind in one batch, a replay recomputes any set of recorded witnesses, of
several base points together or one x alone; every kernel treats its rows
independently, so each value comes back bit for bit and each replay
checks the batched row.

The chain report wires the checks together: it evaluates the hypotheses a
given implication needs (convexity, radial continuity, properness, star
shape, the radial path classes), then records each implication as
CONFIRMED, VIOLATED, or NOT_APPLICABLE.  A VIOLATED status is the signal
that a discretization-free counterexample was found and is treated as a
build-breaking event by the callers.  The chains of several base points
of one map run as one pass (``theorem_chains``), which checks what does
not depend on the base point once; ``theorem_chain`` and ``vi_check`` are
the one-point forms of the batched functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import (CONVEXITY_T_SAMPLES, DiniConfig, c_convexity_check,
                       convexity_pairs, dini_table, _pseudo_scan, _ssqc_scan)
from .cone import Cone, TAU_STRICT, WStarSample
from .order import MinimalityVerdict, classify_weak_min
from .scalarize import (hausdorff_check_radial, radial_excesses, ray_scalarizations,
                        scalarize_values)
from .setmap import SetMap, base_value, blocks, concat_values, radial_rays
from .verdicts import CheckResult, Verdict, worst

VI_KINDS = ("mvi", "svi", "mvi2", "svi2")


class ChainStatus(Enum):
    CONFIRMED = "CONFIRMED"
    VIOLATED = "VIOLATED"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(eq=False)
class VIVerdict:
    kind: str
    verdict: Verdict
    per_x: list[dict]
    resolution: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "verdict": self.verdict.value,
                "per_x": self.per_x, "resolution": self.resolution}


def vi_checks(map: SetMap, x0s, cone: Cone, wstar: WStarSample,
              cfg: DiniConfig | None = None, kinds=("mvi",), tau: float = TAU_STRICT,
              vi_domain: str = "formula", values=None) -> list[dict]:
    """Evaluate the scalarized variational inequalities ``kinds`` at every
    base point of x0s: one {kind: VIVerdict} dict per base point.

    ``vi_domain`` selects the x quantifier: "formula" follows each
    inequality's own convention (Minty and both convex forms range over
    every sample, Stampacchia over the domain of the map); "dom" restricts
    all of them to the domain of the map for experimentation.  A caller
    that already read the base values with ``base_value`` passes them, one
    per base point, as ``values``.
    """
    if any(kind not in VI_KINDS for kind in kinds):
        raise ValueError(f"kind must be one of {VI_KINDS}")
    cfg = cfg or DiniConfig()
    _, counts, whole = map.stacked
    out, checks, ends = [], [], []
    bases = (zip(x0s, values) if values is not None
             else (base_value(map, x0) for x0 in x0s))
    for x0, v0 in bases:
        out.append(dict.fromkeys(kinds))
        for kind in kinds:
            resolution = {"kind": kind, "wstar_size": len(wstar),
                          "domain_size": int(map.domain.shape[0]),
                          "dini": cfg.to_dict(), "tau_strict": tau, "vi_domain": vi_domain}
            if kind == "svi2" and v0.whole_space:
                out[-1][kind] = VIVerdict(kind, Verdict.HOLDS, per_x=[], resolution={
                    **resolution, "degenerate_whole_space": True})
                continue
            dom_only = (kind == "svi" and vi_domain == "formula") or vi_domain == "dom"
            rows = np.flatnonzero((counts > 0) | whole | (not dom_only)).tolist()
            xs = map.domain[rows]
            x0_rows = np.broadcast_to(x0, xs.shape)
            ends.append((xs, x0_rows) if kind in ("mvi", "mvi2") else (x0_rows, xs))
            checks.append((out[-1], kind, rows, resolution))
    if not checks:
        return out
    # one (S+1, W) scalarization table per (x0, kind, x) row, all read
    # together: s = 0, then the Dini steps, from x toward x0 (Minty) or
    # from x0 toward x (Stampacchia); every derivative comes from one
    # dini_table call
    steps = cfg.step_grid()
    W = len(wstar)
    tables = ray_scalarizations(map, *(np.concatenate(side) for side in zip(*ends)),
                                np.concatenate([[0.0], steps]), wstar.weights)
    probes = np.ascontiguousarray(tables[:, 1:].transpose(0, 2, 1)).reshape(-1, steps.size)
    derivs = dini_table(tables[:, 0].ravel(), probes, steps).reshape(len(tables), W)
    start = 0
    for verdicts, kind, rows, resolution in checks:
        # each x records its first clearing weight, else the best one
        d, phi0s = derivs[start:start + len(rows)], tables[start:start + len(rows), 0]
        start += len(rows)
        minty = kind in ("mvi", "mvi2")
        ok = d <= tau if minty else d >= -tau
        if kind == "mvi2":
            ok &= phi0s > -np.inf
        held = ok.any(axis=1)
        picks = np.where(held, ok.argmax(axis=1), d.argmin(axis=1) if minty else d.argmax(axis=1))
        per_x = [{"x_index": i, "x": x, "witness_w": j if h else None,
                  ("w" if h else "best_w"): w, "derivative": v}
                 for i, x, h, j, w, v in zip(rows, map.domain[rows].tolist(), held.tolist(),
                                             picks.tolist(), wstar.weights[picks].tolist(),
                                             d[np.arange(len(rows)), picks].tolist())]
        verdicts[kind] = VIVerdict(kind, Verdict.HOLDS if held.all() else Verdict.FAILS,
                                   per_x=per_x, resolution=resolution)
    return out


def vi_check(map: SetMap, x0, cone: Cone, wstar: WStarSample,
             cfg: DiniConfig | None = None, kind: str = "mvi",
             tau: float = TAU_STRICT, vi_domain: str = "formula") -> VIVerdict:
    """The one-(x0, kind) form of ``vi_checks``."""
    return vi_checks(map, [x0], cone, wstar, cfg, (kind,), tau, vi_domain)[0][kind]


def replay_derivatives(map: SetMap, x0, wstar: WStarSample, cfg: DiniConfig,
                       kind: str, xs, w_indices) -> np.ndarray:
    """Recompute the (R,) derivatives a verdict recorded for rows (xs[r], w_indices[r]).

    ``x0`` is one base point or one per row, broadcast as
    ``ray_scalarizations`` broadcasts its bases, so the witnesses of
    several chains replay together.  The path of the batched check, for
    these x only: one (R, S+1, W) scalarization table over every weight,
    the recorded column of each row, and one dini_table call.  The kernels
    and dini_table treat each row on their own, so each float comes back
    bit-identical, and a match checks the batched row.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    steps = cfg.step_grid()
    tables = ray_scalarizations(map, *((xs, x0) if kind in ("mvi", "mvi2") else (x0, xs)),
                                np.concatenate([[0.0], steps]), wstar.weights)
    phis = tables[np.arange(len(xs)), :, np.asarray(w_indices, dtype=int)]
    return dini_table(phis[:, 0], np.ascontiguousarray(phis[:, 1:]), steps)


def replay_derivative(map: SetMap, x0, wstar: WStarSample, cfg: DiniConfig,
                      kind: str, x, w_index: int) -> float:
    """The one-row form of ``replay_derivatives``: the derivative recorded for (x, w)."""
    return float(replay_derivatives(map, x0, wstar, cfg, kind, [x], [w_index])[0])


# ---------------------------------------------------------------------------
# Theorem chain
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ChainReport:
    hypotheses: dict
    verdicts: dict
    implications: list[dict]
    minimality: MinimalityVerdict
    resolution: dict = field(default_factory=dict)
    vi_details: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        return any(e["status"] == ChainStatus.VIOLATED.value for e in self.implications)

    def to_dict(self) -> dict:
        return {
            "hypotheses": {k: v.to_dict() for k, v in self.hypotheses.items()},
            "verdicts": {k: (v.value if isinstance(v, Verdict) else v)
                         for k, v in self.verdicts.items()},
            "implications": self.implications,
            "minimality": self.minimality.to_dict(),
            "resolution": self.resolution,
        }


def _radial_survey(map: SetMap, rays: list, wstar: WStarSample,
                   cfg: DiniConfig, tau: float, max_rays: int):
    """One pass over max_rays strided rays from each base point: star shape
    and the three path classes of every sampled scalarization.

    ``rays`` holds one ``radial_rays`` call's lists, one per base point, and
    the survey is one dict per base point.  Rays on one grid (every
    generator map's) are read in ``blocks`` whose probes fit one
    ``evaluate_rows`` call of ``ray_scalarizations``, whatever base point
    they start from, each probe row from its own base; a tabulated ray,
    whose grid is its own knot row, is a block of one.  A block's (ray,
    weight) paths are the ray-major columns of one (T, rays * W) matrix for
    one dini_table call per side and one call of each scan.
    Each base point reads its witnesses from its own columns: a class
    records the first FAILS column of its scan, else the first
    UNDETERMINED one, in ray order, then weight order.
    """
    n = len(rays[0])
    stride = max(1, int(np.ceil(n / max_rays)))
    ray_indices = list(range(0, n, stride))
    surveyed = [chain[i] for chain in rays for i in ray_indices]
    steps = cfg.step_grid()
    S, W, R = steps.size, len(wstar), len(ray_indices)
    sample_empty = ((map.stacked[1] == 0) & ~map.stacked[2])[np.tile(ray_indices, len(rays))]

    scans = {"ssqc": [], "pconvex": [], "pconcave": []}
    starless, first_empty = [], []
    entries = 2 * surveyed[0].t_grid.size * S * map.values[0].points.size  # per ray's probes
    parts = (blocks(len(surveyed), entries) if map.kind == "generator"
             else [slice(b, b + 1) for b in range(len(surveyed))])
    for part in parts:
        block = surveyed[part]
        t_eff = block[0].t_grid
        T, B = t_eff.size, len(block)
        _, counts, whole = stacked = concat_values([ray.values for ray in block])
        phis = scalarize_values(stacked, wstar.weights)
        phis = phis.reshape(B, T, W).transpose(1, 0, 2).reshape(T, B * W)
        probe_ts = np.concatenate([(t_eff[:, None] + steps[None, :]).ravel(),
                                   (t_eff[:, None] - steps[None, :]).ravel()])
        inside = (probe_ts >= 0.0) & (probe_ts <= 1.0)
        probe_phis = np.full((B, probe_ts.size, W), np.inf)
        probe_phis[:, inside] = ray_scalarizations(
            map, np.stack([ray.x0 for ray in block]), np.stack([ray.x for ray in block]),
            probe_ts[inside], wstar.weights)
        # rows (t, ray, w) with the step axis last: one dini_table call per side
        fw, bw = (np.ascontiguousarray(half.reshape(B, T, S, W).transpose(1, 0, 3, 2))
                  .reshape(T * B * W, S)
                  for half in (probe_phis[:, :T * S], probe_phis[:, T * S:]))
        d_plus, d_minus = (dini_table(phis.ravel(), probes, steps).reshape(T, B * W)
                           for probes in (fw, bw))
        cvx, ccv, _ = _pseudo_scan(t_eff, phis, d_plus, d_minus, tau)
        for name, results in zip(scans, (_ssqc_scan(t_eff, phis, tau), cvx, ccv)):
            scans[name] += results
        # star shape fails at the first empty value on a ray to a nonempty sample
        empty = ((counts == 0) & ~whole).reshape(B, T)
        starless += (empty.any(axis=1) & ~sample_empty[part]).tolist()
        first_empty += t_eff[np.argmax(empty, axis=1)].tolist()

    surveys = []
    for k in range(0, len(surveyed), R):  # the first ray of each base point
        bad = starless.index(True, k, k + R) if True in starless[k:k + R] else None
        star = ((Verdict.HOLDS, None) if bad is None else
                (Verdict.FAILS, {"x": surveyed[bad].x.tolist(), "t": first_empty[bad]}))
        verdicts, picks = {}, []
        for order, (name, results) in enumerate(scans.items()):
            columns = [verdict for verdict, _ in results[k * W:(k + R) * W]]
            fails, unsure = (columns.index(v) if v in columns else len(columns)
                             for v in (Verdict.FAILS, Verdict.UNDETERMINED))
            hit = fails if fails < len(columns) else unsure
            verdicts[name] = columns[hit] if hit < len(columns) else Verdict.HOLDS
            if hit < len(columns):
                picks.append((min(fails, unsure) // W, order, name, hit))
        # witnesses in the order the classes first leave HOLDS, ray by ray
        witnesses = {name: {"x": surveyed[k + hit // W].x.tolist(), "w_index": hit % W,
                            **(scans[name][k * W + hit][1] or {})}
                     for *_, name, hit in sorted(picks)}
        surveys.append({"ray_indices": ray_indices, "star": star,
                        "classes": (verdicts, witnesses)})
    return surveys


def _implication(name: str, needed: list[str], hypotheses: dict,
                 antecedent: Verdict, consequent: Verdict) -> dict:
    missing = [h for h in needed
               if hypotheses[h].verdict is not Verdict.HOLDS]
    entry = {"implication": name, "needs": needed}
    if missing:
        entry["status"] = ChainStatus.NOT_APPLICABLE.value
        entry["blocked_by"] = missing
        return entry
    if antecedent is Verdict.UNDETERMINED:
        entry["status"] = ChainStatus.NOT_APPLICABLE.value
        entry["blocked_by"] = ["antecedent undetermined"]
        return entry
    if antecedent is Verdict.FAILS:
        entry["status"] = ChainStatus.CONFIRMED.value
        entry["vacuous"] = True
        return entry
    if consequent is Verdict.HOLDS:
        entry["status"] = ChainStatus.CONFIRMED.value
        return entry
    if consequent is Verdict.UNDETERMINED:
        entry["status"] = ChainStatus.NOT_APPLICABLE.value
        entry["blocked_by"] = ["consequent undetermined"]
        return entry
    entry["status"] = ChainStatus.VIOLATED.value
    return entry


def _equivalence(hypotheses: dict, trio: tuple) -> dict:
    """svi <=> w-min <=> mvi: confirmed when the three verdicts agree."""
    needs = ["c_convexity", "compactness", "radial_continuity",
             "properness", "non_degenerate"]
    missing = [h for h in needs if hypotheses[h].verdict is not Verdict.HOLDS]
    entry = {"implication": "svi <=> w-min <=> mvi", "needs": needs}
    if missing:
        entry.update(status=ChainStatus.NOT_APPLICABLE.value, blocked_by=missing)
    elif any(v is Verdict.UNDETERMINED for v in trio):
        entry.update(status=ChainStatus.NOT_APPLICABLE.value,
                     blocked_by=["undetermined verdict"])
    elif len(set(trio)) == 1:
        entry["status"] = ChainStatus.CONFIRMED.value
    else:
        entry.update(status=ChainStatus.VIOLATED.value, verdicts=[v.value for v in trio])
    return entry


def theorem_chains(map: SetMap, x0s, cone: Cone, wstar: WStarSample,
                   cfg: DiniConfig | None = None, tau: float = TAU_STRICT,
                   ray_grid_size: int = 9, max_rays: int = 8,
                   max_pairs: int = 36, eps_list=None,
                   vi_domain: str = "formula") -> list[ChainReport]:
    """Run the hypothesis checks, the three verdicts, and the implication
    map at every base point of x0s: one report per base point.

    Implications are only judged when every hypothesis they need HOLDS;
    an antecedent that fails confirms vacuously.  The continuity epsilon
    defaults to a robust multiple of the median one-step value movement
    along the surveyed rays so that genuine jumps fail while smooth
    instances pass at their own scale; pass ``eps_list`` to override.

    The checks that do not depend on x0 (C-convexity, properness,
    compactness) run once, and ``base_value`` reads each base value once
    for every check that needs it, in order, before the rays are read.  One
    ``radial_rays`` call reads the rays of every base point; they take one
    ``radial_excesses`` pass and one ``_radial_survey``, and their svi and
    mvi rows one ``vi_checks`` call; the continuity and minimality checks
    run per base point.  Every kernel treats its rows and columns on their
    own, so each report has the bits of a chain run at its base point
    alone, and an input error is the one a chain per base point, run in
    order, raises first.
    """
    if ray_grid_size < 2:
        raise ValueError(f"ray_grid_size must be an integer >= 2, not {ray_grid_size!r}")
    if max_rays < 1:
        raise ValueError(f"max_rays must be an integer >= 1, not {max_rays!r}")
    cfg = cfg or DiniConfig()
    bases = []
    for x0 in x0s:
        x0, v0 = base_value(map, x0)
        if not bases:  # the first chain checks convexity before a later base point
            pairs = convexity_pairs(map, CONVEXITY_T_SAMPLES, max_pairs)
            convexity = c_convexity_check(map, cone, wstar, pairs, CONVEXITY_T_SAMPLES, tau)
        bases.append((x0, v0, classify_weak_min(map, x0, cone, wstar, tau, v0)))
    if not bases:
        return []
    rays = radial_rays(map, np.array([x0 for x0, _, _ in bases]),
                       np.linspace(0.0, 1.0, ray_grid_size))
    n = len(rays[0])
    excesses = radial_excesses([ray for chain in rays for ray in chain])
    surveys = _radial_survey(map, rays, wstar, cfg, tau, max_rays)
    vis = vi_checks(map, [x0 for x0, _, _ in bases], cone, wstar, cfg, ("svi", "mvi"),
                    tau, vi_domain, [v0 for _, v0, _ in bases])

    # properness: a whole-space value anywhere makes some scalarization -inf
    whole = np.flatnonzero(map.stacked[2])
    properness = CheckResult(
        Verdict.FAILS if whole.size else Verdict.HOLDS,
        witness={"x": map.domain[whole[0]].tolist()} if whole.size else None,
        resolution={"domain_size": int(map.domain.shape[0])})
    compactness = CheckResult(Verdict.HOLDS,
                              resolution={"representation": "finite point clouds"})

    reports = []
    for c, ((_, v0, minim), survey, vi) in enumerate(zip(bases, surveys, vis)):
        star, star_witness = survey["star"]
        class_verdicts, class_witness = survey["classes"]
        non_degenerate = CheckResult(
            Verdict.FAILS if v0.whole_space else Verdict.HOLDS,
            resolution={"whole_space_at_base": bool(v0.whole_space)})

        # continuity epsilon: a robust multiple of the typical one-step movement
        # on the surveyed rays, floored well above the strictness band so
        # exact-zero movements certify
        chain_excesses, eps = excesses[c * n:(c + 1) * n], eps_list
        if eps is None:
            movements = np.concatenate([chain_excesses[i].ravel() for i in survey["ray_indices"]])
            med = float(np.median(movements)) if movements.size else 0.0
            eps = [max(8.0 * med, 10.0 * tau)]
        radial_continuity = hausdorff_check_radial(rays[c], chain_excesses, eps, tau=tau)

        surveyed = len(survey["ray_indices"])
        hypotheses = {
            "compactness": compactness,
            "properness": properness,
            "non_degenerate": non_degenerate,
            "c_convexity": convexity,
            "radial_continuity": radial_continuity,
            "star_shaped": CheckResult(star, witness=star_witness, resolution={"rays": surveyed}),
            "ssqc_radial": CheckResult(class_verdicts["ssqc"], witness=class_witness.get("ssqc"),
                                       resolution={"rays": surveyed, "wstar_size": len(wstar)}),
            "pseudoconvex_radial": CheckResult(class_verdicts["pconvex"],
                                               witness=class_witness.get("pconvex"),
                                               resolution={"rays": surveyed}),
            "pseudoconcave_radial": CheckResult(class_verdicts["pconcave"],
                                                witness=class_witness.get("pconcave"),
                                                resolution={"rays": surveyed}),
        }
        # either generalized-convexity route satisfies the Minty sufficiency side
        route = Verdict.HOLDS if (
            convexity.verdict is Verdict.HOLDS
            or (class_verdicts["pconvex"] is Verdict.HOLDS
                and class_verdicts["pconcave"] is Verdict.HOLDS)
        ) else worst(convexity.verdict, class_verdicts["pconvex"],
                     class_verdicts["pconcave"])
        hypotheses["convexity_route"] = CheckResult(route, resolution={
            "from": "c_convexity or pseudoconvex+pseudoconcave"})

        svi, mvi = vi["svi"], vi["mvi"]
        verdicts = {
            "svi": svi.verdict,
            "mvi": mvi.verdict,
            "w_min": minim.w_min.verdict,
            "w_l_min": minim.w_l_min.verdict,
            "w_sc_min": minim.w_sc_min.verdict,
        }

        implications = [
            _implication("mvi => w-min",
                         ["radial_continuity", "star_shaped", "properness",
                          "convexity_route", "compactness"],
                         hypotheses, mvi.verdict, minim.w_min.verdict),
            _implication("w-min => svi",
                         ["ssqc_radial", "radial_continuity", "compactness"],
                         hypotheses, minim.w_min.verdict, svi.verdict),
            _implication("svi => w-sc-min",
                         ["c_convexity", "non_degenerate"],
                         hypotheses, svi.verdict, minim.w_sc_min.verdict),
            _implication("w-sc-min => mvi",
                         ["c_convexity", "non_degenerate"],
                         hypotheses, minim.w_sc_min.verdict, mvi.verdict),
        ]
        implications.append(_equivalence(hypotheses,
                                         (svi.verdict, minim.w_min.verdict, mvi.verdict)))

        resolution = {"wstar_size": len(wstar), "domain_size": int(map.domain.shape[0]),
                      "ray_grid_size": ray_grid_size, "max_rays": max_rays,
                      "dini": cfg.to_dict(), "tau_strict": tau,
                      "eps_list": [float(e) for e in eps],
                      "vi_domain": vi_domain}
        reports.append(ChainReport(hypotheses=hypotheses, verdicts=verdicts,
                                   implications=implications, minimality=minim,
                                   resolution=resolution, vi_details=vi))
    return reports


def theorem_chain(map: SetMap, x0, cone: Cone, wstar: WStarSample,
                  cfg: DiniConfig | None = None, tau: float = TAU_STRICT,
                  ray_grid_size: int = 9, max_rays: int = 8,
                  max_pairs: int = 36, eps_list=None,
                  vi_domain: str = "formula") -> ChainReport:
    """The one-point form of ``theorem_chains``: the report at x0."""
    return theorem_chains(map, [x0], cone, wstar, cfg, tau, ray_grid_size, max_rays,
                          max_pairs, eps_list, vi_domain)[0]
