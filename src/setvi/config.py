"""Run settings shared by the CLI, the suite, and report serialization."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
        if self.tau_strict <= 0 or self.wstar_density < 1:
            raise ValueError("settings must be positive")
        if self.output not in ("text", "json", "both"):
            raise ValueError("output must be text, json, or both")
        if self.vi_domain not in ("formula", "dom"):
            raise ValueError("vi_domain must be 'formula' or 'dom'")

    @staticmethod
    def from_dict(doc: dict, **overrides) -> "RunSettings":
        """Settings from a problem's "settings" object; unknown keys are a
        SchemaError so that a typo fails instead of running with defaults."""
        doc = dict(doc or {})
        doc.update({k: v for k, v in overrides.items() if v is not None})
        _reject_unknown("settings", doc, RunSettings.__dataclass_fields__)
        dini = doc.pop("dini", {})
        if isinstance(dini, dict):
            _reject_unknown("dini", dini, DiniConfig.__dataclass_fields__)
            dini = DiniConfig(**dini)
        if doc.get("eps_list") is not None:
            doc["eps_list"] = tuple(float(e) for e in doc["eps_list"])
        if doc.get("probe_radii") is not None:
            doc["probe_radii"] = tuple(float(r) for r in doc["probe_radii"])
        return RunSettings(dini=dini, **doc)

    def with_(self, **kw) -> "RunSettings":
        return replace(self, **kw)

    def to_dict(self) -> dict:
        # output shapes the printout, not the verdicts; it is left out on purpose
        return {
            "tau_strict": self.tau_strict,
            "wstar_density": self.wstar_density,
            "dini": self.dini.to_dict(),
            "seed": self.seed,
            "ray_steps": self.ray_steps,
            "chain_ray_grid": self.chain_ray_grid,
            "chain_max_rays": self.chain_max_rays,
            "vi_domain": self.vi_domain,
            "eps_list": list(self.eps_list) if self.eps_list else None,
            "probe_radii": list(self.probe_radii) if self.probe_radii else None,
        }


def _reject_unknown(where: str, doc: dict, known) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise SchemaError(f"unknown {where} keys {unknown}; known: {sorted(known)}")
