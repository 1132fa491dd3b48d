"""Scalarized Minty and Stampacchia inequality checks and the theorem chain.

The Minty form asks, for every sampled x, for a weight whose scalarized
path has nonpositive lower derivative at x toward the base point; the
Stampacchia form evaluates the derivative at the base point toward x and
asks for a nonnegative one.  The convex variants add a whole-space
disjunct and quantify over all sampled points with the +inf conventions
for rays that leave the domain of the map.

Verdicts are existential over a sampled weight base, so HOLDS always
carries a per-point witness and the derivative it cleared, and the report
is replayable: recomputing a recorded witness goes through exactly the
same batched arithmetic and reproduces the value bit for bit.

The chain report wires the checks together: it evaluates the hypotheses a
given implication needs (convexity, radial continuity, properness, star
shape, the radial path classes), then records each implication as
CONFIRMED, VIOLATED, or NOT_APPLICABLE.  A VIOLATED status is the signal
that a discretization-free counterexample was found and is treated as a
build-breaking event by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .analysis import (CONVEXITY_T_SAMPLES, DiniConfig, c_convexity_check,
                       convexity_pairs, dini_table, _pseudo_scan, _ssqc_scan)
from .cone import Cone, TAU_STRICT, WStarSample
from .order import MinimalityVerdict, classify_weak_min
from .scalarize import (_excess, hausdorff_check_radial, interp_extended,
                        scalarize_batch, scalarize_many)
from .setmap import SetMap, base_value, evaluate, evaluate_batch, ray_grid, segment_sample_ts
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


def _ray_values(map: SetMap, base: np.ndarray, target: np.ndarray,
                svals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Scalarizations (n_s, n_w) along base + s (target - base).

    Generator maps evaluate anywhere; tabulated maps only carry values at
    stored samples, so their scalarizations are interpolated between the
    samples that lie on the segment (with +inf dominating a mixed span,
    matching the path-evaluation conventions).
    """
    points = base[None, :] + svals[:, None] * (target - base)[None, :]
    clouds = evaluate_batch(map, points)
    if clouds is not None:
        return scalarize_batch(clouds, weights)
    if map.kind == "generator":
        return np.stack([scalarize_many(evaluate(map, p), weights) for p in points])
    knots = segment_sample_ts(map, base, target)
    phis = np.stack([
        scalarize_many(evaluate(map, base + t * (target - base)), weights)
        for t in knots
    ])
    return interp_extended(knots, phis, svals)


def _derivative_row(map: SetMap, base, target, wstar: WStarSample,
                    cfg: DiniConfig):
    """Per-weight lower derivative at `base` toward `target`, plus the base
    scalarizations (needed for the properness guard of the convex Minty form)."""
    base = np.asarray(base, dtype=float)
    target = np.asarray(target, dtype=float)
    steps = cfg.step_grid()
    svals = np.concatenate([[0.0], steps])
    phis = _ray_values(map, base, target, svals, wstar.weights)
    derivs = dini_table(phis[0], phis[1:].T, steps)
    return derivs, phis[0]


def vi_check(map: SetMap, x0, cone: Cone, wstar: WStarSample,
             cfg: DiniConfig | None = None, kind: str = "mvi",
             tau: float = TAU_STRICT, vi_domain: str = "formula") -> VIVerdict:
    """Evaluate one of the four scalarized variational inequalities at x0.

    ``vi_domain`` selects the x quantifier: "formula" follows each
    inequality's own convention (Minty and both convex forms range over
    every sample, Stampacchia over the domain of the map); "dom" restricts
    all of them to the domain of the map for experimentation.
    """
    if kind not in VI_KINDS:
        raise ValueError(f"kind must be one of {VI_KINDS}")
    cfg = cfg or DiniConfig()
    x0, v0 = base_value(map, x0)

    resolution = {"kind": kind, "wstar_size": len(wstar),
                  "domain_size": int(map.domain.shape[0]),
                  "dini": cfg.to_dict(), "tau_strict": tau,
                  "vi_domain": vi_domain}

    if kind == "svi2" and v0.whole_space:
        return VIVerdict(kind, Verdict.HOLDS, per_x=[],
                         resolution={**resolution, "degenerate_whole_space": True})

    quantify_dom_only = (kind == "svi" and vi_domain == "formula") or vi_domain == "dom"
    per_x = []
    verdict = Verdict.HOLDS
    for i in range(map.domain.shape[0]):
        x = map.domain[i]
        if quantify_dom_only and evaluate(map, x).is_empty:
            continue
        if kind in ("mvi", "mvi2"):
            derivs, phi_base = _derivative_row(map, x, x0, wstar, cfg)
            ok = derivs <= tau
            if kind == "mvi2":
                ok &= phi_base > -np.inf
        else:
            derivs, _ = _derivative_row(map, x0, x, wstar, cfg)
            ok = derivs >= -tau
        hits = np.flatnonzero(ok)
        if hits.size:
            j = int(hits[0])
            per_x.append({"x_index": i, "x": x.tolist(), "witness_w": j,
                          "w": wstar.weights[j].tolist(),
                          "derivative": float(derivs[j])})
        else:
            j = int(np.argmin(derivs)) if kind in ("mvi", "mvi2") \
                else int(np.argmax(derivs))
            per_x.append({"x_index": i, "x": x.tolist(), "witness_w": None,
                          "best_w": wstar.weights[j].tolist(),
                          "derivative": float(derivs[j])})
            verdict = Verdict.FAILS
    return VIVerdict(kind, verdict, per_x=per_x, resolution=resolution)


def replay_derivative(map: SetMap, x0, wstar: WStarSample, cfg: DiniConfig,
                      kind: str, x, w_index: int) -> float:
    """Recompute the derivative a verdict recorded for (x, w).

    Runs the same batched evaluation as the original check and selects the
    recorded weight column, so the float comes back bit-identical.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if kind in ("mvi", "mvi2"):
        derivs, _ = _derivative_row(map, x, x0, wstar, cfg)
    else:
        derivs, _ = _derivative_row(map, x0, x, wstar, cfg)
    return float(derivs[w_index])


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


def _radial_survey(map: SetMap, x0: np.ndarray, wstar: WStarSample,
                   cfg: DiniConfig, t_grid: np.ndarray, tau: float,
                   max_rays: int):
    """One pass over rays from x0: star shape, one-step movements, and the
    three path classes of every sampled scalarization."""
    n = map.domain.shape[0]
    stride = max(1, int(np.ceil(n / max_rays)))
    ray_indices = list(range(0, n, stride))
    steps = cfg.step_grid()

    star = Verdict.HOLDS
    star_witness = None
    movements = []
    class_verdicts = {"ssqc": Verdict.HOLDS, "pconvex": Verdict.HOLDS,
                      "pconcave": Verdict.HOLDS}
    class_witness = {}

    for i in ray_indices:
        x = map.domain[i]
        t_eff = ray_grid(map, x0, x, t_grid)
        T = t_eff.size
        values = [evaluate(map, x0 + t * (x - x0)) for t in t_eff]
        if not evaluate(map, x).is_empty:
            empties = [k for k, v in enumerate(values) if v.is_empty]
            if empties and star is Verdict.HOLDS:
                star = Verdict.FAILS
                star_witness = {"x": x.tolist(), "t": float(t_eff[empties[0]])}
        for k in range(T - 1):
            movements.append(_excess(values[k + 1], values[k]))
            movements.append(_excess(values[k], values[k + 1]))

        phis = np.stack([scalarize_many(v, wstar.weights) for v in values])  # (T, n_w)
        probe_ts = np.concatenate([(t_eff[:, None] + steps[None, :]).ravel(),
                                   (t_eff[:, None] - steps[None, :]).ravel()])
        inside = (probe_ts >= 0.0) & (probe_ts <= 1.0)
        probe_phis = np.full((probe_ts.size, len(wstar)), np.inf)
        if np.any(inside):
            probe_phis[inside] = _ray_values(map, x0, x, probe_ts[inside],
                                             wstar.weights)
        fw = probe_phis[: T * steps.size].reshape(T, steps.size, -1)
        bw = probe_phis[T * steps.size:].reshape(T, steps.size, -1)
        for widx in range(len(wstar)):
            v = phis[:, widx]
            d_plus = dini_table(v, fw[:, :, widx], steps)
            d_minus = dini_table(v, bw[:, :, widx], steps)
            sv, sw = _ssqc_scan(t_eff, v, tau)
            (cv, cw), (ccv, ccw), _ = _pseudo_scan(t_eff, v, d_plus, d_minus, tau)
            for name, verdict, witness in (("ssqc", sv, sw), ("pconvex", cv, cw),
                                           ("pconcave", ccv, ccw)):
                # only a strictly worse verdict replaces the recorded witness
                if worst(class_verdicts[name], verdict) is not class_verdicts[name]:
                    class_verdicts[name] = verdict
                    class_witness[name] = {"x": x.tolist(), "w_index": widx,
                                           **(witness or {})}
    return {
        "ray_indices": ray_indices,
        "star": (star, star_witness),
        "movements": np.asarray(movements) if movements else np.zeros(1),
        "classes": (class_verdicts, class_witness),
    }


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


def theorem_chain(map: SetMap, x0, cone: Cone, wstar: WStarSample,
                  cfg: DiniConfig | None = None, tau: float = TAU_STRICT,
                  ray_grid_size: int = 9, max_rays: int = 8,
                  max_pairs: int = 36, eps_list=None,
                  vi_domain: str = "formula") -> ChainReport:
    """Run the hypothesis checks, the three verdicts, and the implication map.

    Implications are only judged when every hypothesis they need HOLDS;
    an antecedent that fails confirms vacuously.  The continuity epsilon
    defaults to a robust multiple of the median one-step value movement
    along the surveyed rays so that genuine jumps fail while smooth
    instances pass at their own scale; pass ``eps_list`` to override.
    """
    cfg = cfg or DiniConfig()
    x0, v0 = base_value(map, x0)
    t_grid = np.linspace(0.0, 1.0, ray_grid_size)

    survey = _radial_survey(map, x0, wstar, cfg, t_grid, tau, max_rays)
    star, star_witness = survey["star"]
    class_verdicts, class_witness = survey["classes"]

    # properness: a whole-space value anywhere makes some scalarization -inf
    whole = [i for i in range(map.domain.shape[0])
             if evaluate(map, map.domain[i]).whole_space]
    properness = CheckResult(
        Verdict.FAILS if whole else Verdict.HOLDS,
        witness={"x": map.domain[whole[0]].tolist()} if whole else None,
        resolution={"domain_size": int(map.domain.shape[0])})

    compactness = CheckResult(Verdict.HOLDS,
                              resolution={"representation": "finite point clouds"})
    non_degenerate = CheckResult(
        Verdict.FAILS if v0.whole_space else Verdict.HOLDS,
        resolution={"whole_space_at_base": bool(v0.whole_space)})

    # continuity epsilon: a robust multiple of the typical one-step movement,
    # floored well above the strictness band so exact-zero movements certify
    movements = survey["movements"]
    if eps_list is None:
        med = float(np.median(movements))
        eps_list = [max(8.0 * med, 10.0 * tau)]
    radial_continuity = hausdorff_check_radial(map, x0, cone, eps_list, t_grid,
                                               tau=tau)

    pairs = convexity_pairs(map, CONVEXITY_T_SAMPLES, max_pairs)
    convexity = c_convexity_check(map, cone, wstar, pairs, CONVEXITY_T_SAMPLES, tau)

    rays = len(survey["ray_indices"])
    hypotheses = {
        "compactness": compactness,
        "properness": properness,
        "non_degenerate": non_degenerate,
        "c_convexity": convexity,
        "radial_continuity": radial_continuity,
        "star_shaped": CheckResult(star, witness=star_witness, resolution={"rays": rays}),
        "ssqc_radial": CheckResult(class_verdicts["ssqc"], witness=class_witness.get("ssqc"),
                                   resolution={"rays": rays, "wstar_size": len(wstar)}),
        "pseudoconvex_radial": CheckResult(class_verdicts["pconvex"],
                                           witness=class_witness.get("pconvex"),
                                           resolution={"rays": rays}),
        "pseudoconcave_radial": CheckResult(class_verdicts["pconcave"],
                                            witness=class_witness.get("pconcave"),
                                            resolution={"rays": rays}),
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

    minim = classify_weak_min(map, x0, cone, wstar, tau)
    svi = vi_check(map, x0, cone, wstar, cfg, "svi", tau, vi_domain)
    mvi = vi_check(map, x0, cone, wstar, cfg, "mvi", tau, vi_domain)

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
    equiv_needs = ["c_convexity", "compactness", "radial_continuity",
                   "properness", "non_degenerate"]
    missing = [h for h in equiv_needs if hypotheses[h].verdict is not Verdict.HOLDS]
    trio = (svi.verdict, minim.w_min.verdict, mvi.verdict)
    equiv = {"implication": "svi <=> w-min <=> mvi", "needs": equiv_needs}
    if missing:
        equiv.update(status=ChainStatus.NOT_APPLICABLE.value, blocked_by=missing)
    elif any(v is Verdict.UNDETERMINED for v in trio):
        equiv.update(status=ChainStatus.NOT_APPLICABLE.value,
                     blocked_by=["undetermined verdict"])
    elif len(set(trio)) == 1:
        equiv["status"] = ChainStatus.CONFIRMED.value
    else:
        equiv.update(status=ChainStatus.VIOLATED.value, verdicts=[v.value for v in trio])
    implications.append(equiv)

    resolution = {"wstar_size": len(wstar), "domain_size": int(map.domain.shape[0]),
                  "ray_grid_size": ray_grid_size, "max_rays": max_rays,
                  "dini": cfg.to_dict(), "tau_strict": tau,
                  "eps_list": [float(e) for e in eps_list],
                  "vi_domain": vi_domain}
    report = ChainReport(hypotheses=hypotheses, verdicts=verdicts,
                         implications=implications, minimality=minim,
                         resolution=resolution)
    report.vi_details = {"svi": svi, "mvi": mvi}
    return report

