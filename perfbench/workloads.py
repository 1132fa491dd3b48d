"""Inputs, timed operations and output checks of the three workloads.

Importing this module imports numpy and setvi; the set-up probe times
exactly that import plus the construction of a workload's inputs.

* ``suite``   rounds of ``run_suite`` + ``render_json`` over the generator
              catalog; round 0 runs at the workload seed itself, later
              rounds at seeds derived from it.
* ``clouds``  theorem chains (with witness replays) on large, totally
              ordered ``segment_shift`` clouds; every instance has the same
              shape, so a run's cost does not depend on the seed.
* ``cli``     problem files for fresh ``setvi`` processes: the quadratic
              problem, a seeded tabulated problem, and the antichain
              problem that exposes a known crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import setvi
from setvi import cli as cli_mod
from setvi import report as report_mod
from setvi import suite as suite_mod
from setvi import vi as vi_mod
from setvi.cone import dual_base, make_cone
from setvi.setmap import builtin_map, evaluate, load_problem
from setvi.suite import SUITE_DEFAULTS

# Captured before any tracing, so the benchmark's own digests are never traced.
_render_json = report_mod.render_json

SUITE_INSTANCES = 20
# (seed, instances) -> the rendered suite report that release shipped
GOLDEN_SUITE = {
    (20240811, 200): {
        "bytes": 678041,
        "sha256": "f78a59386f8fb9543db185f53850e317417d39800c1cce868f7b5b82333ad75c",
        "statuses": {"CONFIRMED": 2215, "VIOLATED": 0, "NOT_APPLICABLE": 120},
    },
}

CLOUD_POINTS = 64
CLOUD_IMAGE_DIM = 4
CLOUD_DENSITY = 7          # 84 weights on the 4-D dual base
CLOUD_DOMAIN = np.linspace(-2.0, 2.0, 33).reshape(-1, 1)
CLOUD_BASE_POINTS = (([0.0], "minimizer"), ([2.0], "far_corner"))
CHAIN_MAX_PAIRS = 15       # as in setvi.suite.run_instance

# The two-objective quadratic problem of scripts/run_quadratic_chain.py.
QUADRATIC_PROBLEM = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"generator": {"name": "quadratic_vector", "params": {"targets": [0, 1]},
                          "domain_grid": {"from": [-1], "to": [2], "steps": 13}}},
    "base_points": [[0.5], [2.0]],
    "settings": {"tau_strict": 1e-6,
                 "dini": {"t_max": 1e-4, "ratio": 0.5, "steps": 12},
                 "wstar_density": 9},
}

# A valid problem the chain cannot run today: the constant two-point
# antichain under the orthant makes c_convexity_check raise
# InternalCheckError ("convexity tests disagree"), which exits 2.
ANTICHAIN_PROBLEM = {
    "cone": {"dual_generators": [[1, 0], [0, 1]], "interior_point": [1, 1]},
    "map": {"generator": {"name": "constant_cloud",
                          "params": {"points": [[0, 1], [1, 0]]},
                          "domain_grid": {"from": [-1], "to": [1], "steps": 5}}},
}

TABULATED_SAMPLES = 41


def derived_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def suite_round_seed(seed: int, r: int) -> int:
    return seed if r == 0 else derived_seed(seed, f"suite-round-{r}")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


@dataclass
class UnitResult:
    """One timed in-process operation group and what its checks found."""

    wall_s: float
    chains: int
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input properties
# ---------------------------------------------------------------------------


def chain_cloud(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    """p points in R^m, each one the previous plus a positive step: a cloud
    totally ordered by the orthant, with a single C-minimal point."""
    start = rng.uniform(-1.0, 1.0, size=m)
    steps = rng.uniform(0.1, 1.0, size=(p - 1, m))
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def c_minimal_count(points: np.ndarray, dual_generators: np.ndarray) -> int:
    """Points of the cloud that no other point dominates in the cone order."""
    diff = points[:, None, :] - points[None, :, :]              # a - b
    in_cone = np.all(diff @ np.asarray(dual_generators).T >= 0.0, axis=2)
    dominated = (in_cone & np.any(diff != 0.0, axis=2)).any(axis=1)
    return int(points.shape[0] - np.count_nonzero(dominated))


def input_properties(rows: list[tuple[int, int, int, int, int]]) -> dict:
    """rows: (domain size, cloud points, image dim, dual-base size, C-minimal)."""
    cols = list(zip(*rows))

    def span(i):
        return [int(min(cols[i])), int(max(cols[i]))]

    return {"instances": len(rows), "domain_size": span(0), "cloud_points": span(1),
            "image_dim": span(2), "dual_base_size": span(3),
            "c_minimal_share": sum(cols[4]) / sum(cols[1])}


def _value_row(map_, cone, wstar) -> tuple[int, int, int, int, int]:
    cloud = evaluate(map_, map_.domain[0]).points
    return (int(map_.domain.shape[0]), int(cloud.shape[0]), int(cloud.shape[1]),
            len(wstar), c_minimal_count(cloud, cone.dual_generators))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def suite_density(image_dim: int) -> int:
    """The dual-base density setvi.suite.run_instance uses."""
    d = SUITE_DEFAULTS.wstar_density
    return d if image_dim == 2 else max(2, d // 2 + 1)


def build_suite_objects(spec: dict):
    cone = make_cone(spec["cone"]["dual_generators"], spec["cone"]["interior_point"])
    map_ = builtin_map(spec["generator"]["name"], spec["generator"]["params"],
                       domain=np.asarray(spec["domain"]))
    return cone, map_, dual_base(cone, suite_density(spec["image_dim"]))


class SuiteWorkload:
    in_process_untraced = True

    def __init__(self, seed: int, instances: int = SUITE_INSTANCES):
        self.seed = seed
        self.instances = instances
        # the inputs of round 0; later rounds build theirs inside run_suite
        self.specs = [suite_mod.build_instance(seed, i) for i in range(instances)]
        self.objects = [build_suite_objects(s) for s in self.specs]
        self.rounds_done = 0

    def unit(self, r: int) -> UnitResult:
        seed = suite_round_seed(self.seed, r)
        started = time.perf_counter()
        report = suite_mod.run_suite(seed=seed, instances=self.instances)
        text = report_mod.render_json(report)
        wall = time.perf_counter() - started
        self.rounds_done = max(self.rounds_done, r + 1)
        return self.check(report, text, seed, wall)

    def check(self, report: dict, text: str, seed: int, wall: float) -> UnitResult:
        summary = report["summary"]
        statuses = summary["implication_statuses"]
        chains = sum(len(res["per_base"]) for res in report["instances"])
        bad = {(v["index"], json.dumps(v["x0"]))
               for v in summary["violated"] + summary["replay_failures"]}
        failures = [f"seed {seed} instance {i} x0={x0}: violated or replay mismatch"
                    for i, x0 in sorted(bad)]
        round_failures = []
        if sum(statuses.values()) != 5 * chains:
            round_failures.append(f"{sum(statuses.values())} statuses for {chains} chains")
        if not summary["property_blocks_passed"]:
            round_failures.append("a property block failed")
        data = text.encode("utf-8")
        if json.loads(text)["instance_count"] != self.instances:
            round_failures.append("the rendered report does not parse back")
        golden = GOLDEN_SUITE.get((seed, self.instances))
        if golden is not None and (len(data) != golden["bytes"]
                                   or sha256(data) != golden["sha256"]
                                   or statuses != golden["statuses"]):
            round_failures.append(f"report differs from the golden report "
                                  f"({len(data)} bytes, sha256 {sha256(data)})")
        failures += [f"seed {seed}: {f}" for f in round_failures]
        return UnitResult(wall, chains, chains, chains if round_failures else len(bad),
                          failures, sha256(data),
                          {"seed": seed, "bytes": len(data), "statuses": statuses,
                           "golden": None if golden is None else not failures})

    def expected_ops(self, r: int) -> int:
        # quadratic_vector instances (every third) have two minimizers + corner
        return sum(3 if i % 3 == 0 else 2 for i in range(self.instances))

    def input_properties(self) -> dict:
        objects = list(self.objects)
        for r in range(1, self.rounds_done):
            seed = suite_round_seed(self.seed, r)
            objects += [build_suite_objects(suite_mod.build_instance(seed, i))
                        for i in range(self.instances)]
        return input_properties([_value_row(map_, cone, wstar)
                                 for cone, map_, wstar in objects])


# ---------------------------------------------------------------------------
# clouds
# ---------------------------------------------------------------------------


@dataclass
class CloudInstance:
    index: int
    cone: object
    map: object
    wstar: object


def build_cloud_instance(seed: int, index: int) -> CloudInstance:
    """A segment_shift map whose value is a totally ordered p-point cloud."""
    rng = np.random.default_rng([seed, 0xC10D5, index])
    m = CLOUD_IMAGE_DIM
    segment = chain_cloud(rng, CLOUD_POINTS, m)
    cone = make_cone(np.diag(rng.uniform(0.5, 2.0, size=m)), np.ones(m))
    params = {"segment": segment.tolist(),
              "offset": rng.uniform(-1.0, 1.0, size=m).tolist(),
              "quadratic": rng.uniform(0.5, 1.5, size=m).tolist(),
              "center": [0.0], "domain_dim": 1}
    map_ = builtin_map("segment_shift", params, domain=CLOUD_DOMAIN)
    return CloudInstance(index, cone, map_, dual_base(cone, CLOUD_DENSITY))


class CloudsWorkload:
    in_process_untraced = True

    def __init__(self, seed: int):
        self.seed = seed
        self.instances = [build_cloud_instance(seed, 0)]

    def instance(self, index: int) -> CloudInstance:
        while len(self.instances) <= index:
            self.instances.append(build_cloud_instance(self.seed, len(self.instances)))
        return self.instances[index]

    def unit(self, i: int) -> UnitResult:
        """Chain i: instance i // 2 at its minimizer or its far corner."""
        inst = self.instance(i // 2)
        x0, kind = CLOUD_BASE_POINTS[i % 2]
        s = SUITE_DEFAULTS
        started = time.perf_counter()
        report = vi_mod.theorem_chain(
            inst.map, x0, inst.cone, inst.wstar, cfg=s.dini, tau=s.tau_strict,
            ray_grid_size=s.chain_ray_grid, max_rays=s.chain_max_rays,
            max_pairs=CHAIN_MAX_PAIRS, vi_domain=s.vi_domain)
        replays = []
        for vi_kind, vi in report.vi_details.items():
            for entry in vi.per_x:
                if entry.get("witness_w") is None:
                    continue
                again = vi_mod.replay_derivative(inst.map, np.asarray(x0), inst.wstar,
                                                 s.dini, vi_kind, np.asarray(entry["x"]),
                                                 entry["witness_w"])
                replays.append((again, entry["derivative"]))
        wall = time.perf_counter() - started

        failures = []
        where = f"instance {inst.index} {kind}"
        if report.violated:
            failures.append(f"{where}: VIOLATED implication")
        mismatched = sum(_bits(a) != _bits(b) for a, b in replays)
        if mismatched:
            failures.append(f"{where}: {mismatched} of {len(replays)} replays differ")
        # the centre minimizes every component; the corner is dominated by it
        expected = "HOLDS" if kind == "minimizer" else "FAILS"
        if report.verdicts["w_min"].value != expected:
            failures.append(f"{where}: w_min {report.verdicts['w_min'].value}, "
                            f"expected {expected}")
        return UnitResult(wall, 1, 1, int(bool(failures)), failures,
                          sha256(_render_json(report.to_dict())), {"replays": len(replays)})

    def expected_ops(self, i: int) -> int:
        return 1

    def input_properties(self) -> dict:
        return input_properties([_value_row(i.map, i.cone, i.wstar) for i in self.instances])


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def tabulated_problem(seed: int) -> dict:
    """A C-convex tabulated map: a shifted, totally ordered cloud on 41 samples."""
    rng = np.random.default_rng([seed, 0x7AB])
    m = 2
    xs = np.linspace(-2.0, 2.0, TABULATED_SAMPLES)
    segment = chain_cloud(rng, int(rng.integers(2, 5)), m)
    offset = rng.uniform(-1.0, 1.0, size=m)
    quadratic = rng.uniform(0.5, 1.5, size=m)
    centre = float(xs[int(rng.integers(10, 31))])
    table = [{"x": [float(x)],
              "points": (segment + offset + quadratic * (x - centre) ** 2).tolist()}
             for x in xs]
    lam = rng.uniform(0.5, 2.0, size=m)
    return {"cone": {"dual_generators": np.diag(lam).tolist(), "interior_point": [1.0, 1.0]},
            "map": {"tabulated": table},
            "base_points": [[centre], [2.0]],
            "settings": {"tau_strict": 1e-6,
                         "dini": {"t_max": 1e-3, "ratio": 0.5, "steps": 12},
                         "wstar_density": 9}}


# (metric, setvi arguments, w_min expected at each base point); "{name}"
# is replaced by that problem's path.  Both chain problems have their
# minimizer as first base point and a point it dominates as second.
CLI_COMMANDS = (
    ("cold_start_ms", ("relations", "{quadratic}", "--a", "0", "--b", "12"), None),
    ("cli_chain_ms", ("chain", "{quadratic}", "--output", "json"), ("HOLDS", "FAILS")),
    ("cli_tabulated_ms", ("chain", "{tabulated}", "--output", "json"), ("HOLDS", "FAILS")),
)
KNOWN_FAILURE_COMMANDS = (("chain", "{antichain}"), ("convexity", "{antichain}"))


@dataclass
class CliReference:
    """The in-process result of one command, and what is wrong with it."""

    metric: str
    args: list[str]
    code: int
    stdout_sha256: str
    chains: int
    problems: list[str]


def run_cli_in_process(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_mod.main(list(args))
    return code, out.getvalue()


def chain_output_problems(stdout: str, expected_w_min) -> list[str]:
    try:
        reports = json.loads(stdout)["reports"]
        w_min = tuple(r["verdicts"]["w_min"] for r in reports)
        statuses = [e["status"] for r in reports for e in r["implications"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable chain report ({type(exc).__name__}: {exc})"]
    found = []
    if w_min != tuple(expected_w_min):
        found.append(f"w_min {list(w_min)}, expected {list(expected_w_min)}")
    if "VIOLATED" in statuses:
        found.append(f"{statuses.count('VIOLATED')} VIOLATED implications")
    return found


class CliProblems:
    """Problem files for fresh processes, and their in-process reference outputs."""

    def __init__(self, seed: int, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        docs = {"quadratic": QUADRATIC_PROBLEM, "tabulated": tabulated_problem(seed),
                "antichain": ANTICHAIN_PROBLEM}
        self.paths = {}
        self.problems = {}
        for name, doc in docs.items():
            path = directory / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.paths[name] = str(path)
            self.problems[name] = load_problem(str(path))
        self.references: list[CliReference] = []

    def args(self, template) -> list[str]:
        return [a.format(**self.paths) for a in template]

    def compute_references(self) -> list[CliReference]:
        self.references = []
        for metric, template, expected_w_min in CLI_COMMANDS:
            args = self.args(template)
            code, stdout = run_cli_in_process(args)
            problems, chains = [], 0
            if expected_w_min is not None:
                problems = chain_output_problems(stdout, expected_w_min)
                chains = len(expected_w_min)
            self.references.append(CliReference(metric, args, code, sha256(stdout), chains,
                                                problems))
        return self.references

    def check(self, ref: CliReference, code: int, stdout: bytes) -> list[str]:
        """Exit code and output of one run against the in-process reference."""
        label = " ".join([ref.args[0], Path(ref.args[1]).name])
        failures = [f"{label}: {p}" for p in ref.problems]
        if code != ref.code or code == 2:
            failures.append(f"{label}: exit {code}, expected {ref.code}")
        if sha256(stdout) != ref.stdout_sha256:
            failures.append(f"{label}: stdout differs from the in-process reference")
        return failures

    def input_properties(self) -> dict:
        rows = []
        for name in ("quadratic", "tabulated"):
            problem = self.problems[name]
            density = problem.settings.get("wstar_density", 33)
            rows.append(_value_row(problem.map, problem.cone,
                                   dual_base(problem.cone, density)))
        return input_properties(rows)


class CliWorkload:
    """In the untraced run this workload is only the fresh-process rounds;
    its in-process unit (one pass over the commands through setvi.cli.main)
    serves the traced run."""

    in_process_untraced = False

    def __init__(self, problems: CliProblems):
        self.problems = problems

    def unit(self, i: int) -> UnitResult:
        wall, chains, failed, failures, digests = 0.0, 0, 0, [], []
        for ref in self.problems.references:
            started = time.perf_counter()
            code, stdout = run_cli_in_process(ref.args)
            wall += time.perf_counter() - started
            found = self.problems.check(ref, code, stdout.encode("utf-8"))
            failures += found
            failed += bool(found)
            chains += 0 if found else ref.chains
            digests.append(sha256(stdout))
        return UnitResult(wall, chains, len(self.problems.references), failed, failures,
                          sha256("".join(digests)))

    def expected_ops(self, i: int) -> int:
        return len(self.problems.references)

    def input_properties(self) -> dict:
        return self.problems.input_properties()


def make_workload(name: str, seed: int, workdir: Path, instances: int | None):
    """Build a workload's inputs; the cli problem files are part of every set-up."""
    problems = CliProblems(seed, workdir / "problems")
    if name == "suite":
        return SuiteWorkload(seed, instances or SUITE_INSTANCES), problems
    if name == "clouds":
        return CloudsWorkload(seed), problems
    if name == "cli":
        return CliWorkload(problems), problems
    raise ValueError(f"unknown workload {name!r}")


def versions() -> dict:
    return {"setvi": setvi.__version__, "numpy": np.__version__}
