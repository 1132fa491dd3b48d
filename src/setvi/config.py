"""Run settings shared by the CLI, the suite, and report serialization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

from .analysis import DiniConfig
from .cone import TAU_STRICT
from .errors import SchemaError


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


def _number(v, kind=Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_number, v))


_SETTING_RULES = {
    "tau_strict": (lambda v: _number(v) and 0 < v < math.inf, "a positive finite number"),
    "wstar_density": (lambda v: _number(v, Integral) and v >= 1, "an integer >= 1"),
    "dini": (lambda v: isinstance(v, DiniConfig), "an object"),
    "seed": (lambda v: _number(v, Integral), "an integer"),
    "output": (lambda v: v in ("text", "json", "both"), "text, json or both"),
    "ray_steps": (lambda v: _number(v, Integral) and 2 <= v <= 4097, "an integer in [2, 4097]"),
    "chain_ray_grid": (lambda v: _number(v, Integral) and v >= 2, "an integer >= 2"),
    "chain_max_rays": (lambda v: _number(v, Integral) and v >= 1, "an integer >= 1"),
    "vi_domain": (lambda v: v in ("formula", "dom"), "formula or dom"),
    "eps_list": (lambda v: v is None or (_numbers(v) and all(0 <= e < math.inf for e in v)),
                 "a nonempty list of finite numbers >= 0"),
    "probe_radii": (lambda v: v is None or (_numbers(v) and all(r > 0 for r in v)),
                    "a nonempty list of positive numbers"),
}
_DINI_RULES = {"t_max": (_number, "a number"), "ratio": (_number, "a number"),
               "steps": (lambda v: _number(v, Integral), "an integer")}


def _validate(where: str, rules: dict, values: dict) -> None:
    """Unknown keys and values failing their (test, description) rule are a
    SchemaError: values are rejected, never coerced."""
    unknown = sorted(set(values) - set(rules))
    if unknown:
        raise SchemaError(f"unknown {where} keys {unknown}; known: {sorted(rules)}")
    for key, value in values.items():
        if not rules[key][0](value):
            raise SchemaError(f"{where} {key!r} must be {rules[key][1]}, not {value!r}")
