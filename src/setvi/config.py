"""Run settings shared by the CLI, the suite, and report serialization."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .analysis import DiniConfig
from .cone import TAU_STRICT
from .setmap import _MAX_SAMPLES, Rule, _array, _integer, _real, _validate


@dataclass(frozen=True)
class RunSettings:
    """Everything a verdict needs to be reproduced from its report alone."""

    tau_strict: float = TAU_STRICT
    wstar_density: int = 33
    dini: DiniConfig = field(default_factory=DiniConfig)
    seed: int = 0
    output: str = "text"          # text | json | both
    ray_steps: int = 17           # scalar-path grids for the convexity command
    chain_ray_grid: int = 9
    chain_max_rays: int = 8
    vi_domain: str = "formula"    # or "dom" to align all x quantifiers
    eps_list: tuple | None = None
    probe_radii: tuple | None = None

    def __post_init__(self):
        _validate("settings", _SETTING_RULES, vars(self))

    @staticmethod
    def from_dict(doc: dict, **overrides) -> "RunSettings":
        """Settings from a problem's "settings" object; unknown keys and bad
        values are a SchemaError so that a typo fails instead of running."""
        doc = dict(doc or {})
        doc.update({k: v for k, v in overrides.items() if v is not None})
        dini = doc.pop("dini", {})
        _validate("settings", _SETTING_RULES, doc)
        if isinstance(dini, dict):
            _validate("dini", _DINI_RULES, dini)
            dini = DiniConfig(**dini)
        for key in ("eps_list", "probe_radii"):
            if doc.get(key) is not None:
                doc[key] = tuple(map(float, doc[key]))
        return RunSettings(dini=dini, **doc)

    def with_(self, **kw) -> "RunSettings":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        # output shapes the printout, not the verdicts; it is left out on purpose
        out = {k: v for k, v in vars(self).items() if k != "output"}
        out["dini"] = self.dini.to_dict()
        for key in ("eps_list", "probe_radii"):
            out[key] = None if out[key] is None else list(out[key])
        return out


def _or_null(rule: Rule) -> Rule:
    return rule._replace(test=lambda v: v is None or rule.test(v))


_SETTING_RULES = {
    "tau_strict": _real("a positive finite number", lambda v: v > 0),
    "wstar_density": _integer(1),
    "dini": Rule(lambda v: isinstance(v, DiniConfig), "an object"),
    "seed": _integer(),
    "output": Rule(lambda v: v in ("text", "json", "both"), "text, json or both"),
    "ray_steps": _integer(2, _MAX_SAMPLES),
    "chain_ray_grid": _integer(2, _MAX_SAMPLES),
    # uncapped: the radial survey never reads more rays than there are samples
    "chain_max_rays": _integer(1),
    "vi_domain": Rule(lambda v: v in ("formula", "dom"), "formula or dom"),
    "eps_list": _or_null(_array("a nonempty list of finite numbers >= 0", (1,), True,
                                lambda a: (a >= 0).all())),
    "probe_radii": _or_null(_array("a nonempty list of positive finite numbers", (1,), True,
                                   lambda a: (a > 0).all())),
}
_DINI_RULES = {"t_max": _real(), "ratio": _real(), "steps": _integer(1, 4096)}
