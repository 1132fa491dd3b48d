#!/usr/bin/env python3
"""setvi benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout that holds ``src/setvi``:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``suite``, ``clouds`` and ``cli``.

``--trace 0`` sets the workload up seven times in fresh processes
(``setup_s``), then repeats rounds until ``--seconds`` have passed.  A round
is one in-process operation group of the workload (a suite round, or one
clouds chain with its replays; none for ``cli``) followed by one fresh
``python -m setvi`` process for each CLI command, one at a time.  Every
output is checked; a wrong output, a raised exception or an exit code 2
counts as a failed operation.

``--trace 1`` runs the in-process operations untraced for half of
``--seconds``, then the same operations again with the tracer installed
(tracer.py), requires both passes to give identical output digests, and
reports per-function calls, self and total time, the tracing overhead and
a few fresh-process probes of the CLI layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a readable summary and a ``stamp:`` line holding the environment,
the seeds, the input properties and the output digests.  The metric names
printed are checked against BENCHMARK.json.

``--instances N`` sets the instances per suite round (default 20);
``--seed 20240811 --instances 200`` reproduces and checks the golden
release report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from procs import run_child
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "clouds", "cli")
SETUP_PROBES = 7
LAYER_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="instances per suite round")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.instances is not None
                                              and args.instances < 1):
        parser.error("--seed must be >= 0, --seconds and --instances positive")
    return args


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def describe(samples: list[float], higher_is_better: bool = False) -> dict:
    """Median, quartiles, and the farthest tail percentile (on the bad side)
    that still has at least ten samples beyond it."""
    if not samples:  # every operation failed; the run is marked incorrect
        return {"n": 0, "median": 0.0}
    out = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) >= 2:
        q = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if len(samples) >= 20:
        pct = math.floor(100 * (1 - 10 / len(samples)))
        cuts = statistics.quantiles(samples, n=100)
        if higher_is_better:
            out[f"p{100 - pct}"] = cuts[100 - pct - 1]
        else:
            out[f"p{pct}"] = cuts[pct - 1]
    return out


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, read through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def source_state() -> dict:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def environment(workloads) -> dict:
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **workloads.versions(),
            "blas_threads": blas_threads(), **source_state()}


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------


def setvi_argv(args) -> list[str]:
    return [sys.executable, "-m", "setvi", *args]


def setup_probe_times(args, env, scratch: Path) -> list[float]:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.instances:
        argv += ["--instances", str(args.instances)]
    times = []
    for _ in range(SETUP_PROBES):
        child = run_child(argv, env=env, cwd=ROOT, scratch=scratch)
        if child.code != 0:
            raise RuntimeError("set-up probe failed:\n" + child.stderr.decode(errors="replace"))
        times.append(float(child.stdout.decode().split()[-1]))
    return times


def fresh_round(problems, env, scratch: Path) -> list:
    """One fresh process per CLI command: (reference, child, failures)."""
    out = []
    for ref in problems.references:
        child = run_child(setvi_argv(ref.args), env=env, cwd=ROOT, scratch=scratch)
        out.append((ref, child, problems.check(ref, child.code, child.stdout)))
    return out


def known_failure_probe(problems, env, scratch: Path) -> dict:
    """Run the antichain commands once; they exit 2 until the crash is fixed."""
    from workloads import CLI_COMMANDS, KNOWN_FAILURE_COMMANDS

    runs = {}
    for template in KNOWN_FAILURE_COMMANDS:
        args = problems.args(template)
        child = run_child(setvi_argv(args), env=env, cwd=ROOT, scratch=scratch)
        err = child.stderr.decode(errors="replace").strip().splitlines()
        runs[" ".join(template).replace("{antichain}", "antichain")] = {
            "exit": child.code, "error": err[0][:120] if err else ""}
    chain_fails = runs["chain antichain"]["exit"] == 2
    return {"problem": "constant antichain {(0,1),(1,0)}, orthant, 5 samples on [-1, 1]",
            "runs": runs,
            # the share this command would take of a round-robin that included it
            "error_rate_if_in_rounds": (1 / (len(CLI_COMMANDS) + 1)) if chain_fails else 0.0}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def guarded_unit(workload, i: int):
    from workloads import UnitResult

    try:
        return workload.unit(i)
    except Exception as exc:  # a crash is a counted failure, not the end of the run
        traceback.print_exc(file=sys.stderr)
        ops = workload.expected_ops(i)
        return UnitResult(math.nan, 0, ops, ops, [f"{type(exc).__name__}: {exc}"])


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failed: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += failures


def untraced_run(args, workload, problems, env, scratch: Path, tally: Tally):
    """Rounds until the deadline: one in-process unit (none for cli), then one
    fresh process per CLI command, so both kinds of sample span the run."""
    from workloads import CLI_COMMANDS

    rates, digests, infos = [], [], []
    walls = {metric: [] for metric, _, _ in CLI_COMMANDS}
    cli_rates, child_rss = [], []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while True:
        if workload.in_process_untraced:
            res = guarded_unit(workload, rounds)
            tally.add(res.attempted, res.failed, res.failures)
            if not math.isnan(res.wall_s):
                rates.append(res.chains / res.wall_s)
            digests.append(res.digest)
            infos.append(res.info)
        round_wall, round_chains = 0.0, 0
        for ref, child, found in fresh_round(problems, env, scratch):
            tally.add(1, int(bool(found)), found)
            walls[ref.metric].append(child.wall_s * 1000.0)
            child_rss.append(child.maxrss_mb)
            round_wall += child.wall_s
            round_chains += 0 if found else ref.chains
        cli_rates.append(round_chains / round_wall)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    if workload.in_process_untraced:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rates = cli_rates
        peak_rss = max(child_rss)
    samples = {"chains_per_s": describe(rates, higher_is_better=True),
               **{m: describe(w) for m, w in walls.items()}}
    metrics = {"chains_per_s": (samples["chains_per_s"]["median"], "1/s"),
               "peak_rss_mb": (peak_rss, "MB"),
               **{m: (samples[m]["median"], "ms") for m in walls}}
    return metrics, samples, {"rounds": rounds, "unit_digests": digests, "unit_info": infos}


def traced_run(args, workload, problems, env, scratch: Path, tally: Tally):

    started = time.perf_counter()
    untraced = []
    while True:
        untraced.append(guarded_unit(workload, len(untraced)))
        if time.perf_counter() - started >= args.seconds / 2:
            break
    with Tracer() as tracer:
        traced = [guarded_unit(workload, i) for i in range(len(untraced))]
    for res in untraced + traced:
        tally.add(res.attempted, res.failed, res.failures)
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if a.digest != b.digest:
            tally.add(0, b.attempted - b.failed,
                      [f"unit {i}: traced output digest differs from the untraced one"])

    timed = [(a.wall_s, b.wall_s) for a, b in zip(untraced, traced)
             if not (math.isnan(a.wall_s) or math.isnan(b.wall_s))]
    untraced_s = math.fsum(a for a, _ in timed)
    traced_s = math.fsum(b for _, b in timed)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_share"] = (
        (traced_s - untraced_s) / untraced_s if untraced_s else 0.0, "ratio")

    # the CLI layer: bare interpreter, import of setvi, and the CPU time of
    # the cold-start command (which also checks its output)
    probes = {"python": [sys.executable, "-c", "pass"],
              "import_setvi": [sys.executable, "-c", "import setvi"]}
    walls = {name: [] for name in probes}
    cpu = []
    cold = problems.references[0]
    for _ in range(LAYER_PROBES):
        for name, argv in probes.items():
            child = run_child(argv, env=env, cwd=ROOT, scratch=scratch)
            found = [f"{name} probe exit {child.code}"] if child.code else []
            tally.add(1, int(bool(found)), found)
            walls[name].append(child.wall_s * 1000.0)
        child = run_child(setvi_argv(cold.args), env=env, cwd=ROOT, scratch=scratch)
        found = problems.check(cold, child.code, child.stdout)
        tally.add(1, int(bool(found)), found)
        cpu.append(child.cpu_s * 1000.0)
    metrics["cli.python_ms"] = (statistics.median(walls["python"]), "ms")
    metrics["cli.import_setvi_ms"] = (statistics.median(walls["import_setvi"]), "ms")
    metrics["cli.child_cpu_ms"] = (statistics.median(cpu), "ms")
    detail = {"units": len(traced), "spans": tracer.span_count,
              "untraced_s": untraced_s, "traced_s": traced_s,
              "unit_digests": [r.digest for r in traced]}
    return metrics, {}, detail


def declared_metrics(trace: bool):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def run(args, workdir: Path) -> int:
    import workloads

    env = child_env()
    scratch = workdir / "children"
    setup = None if args.trace else setup_probe_times(args, env, scratch)
    workload, problems = workloads.make_workload(args.workload, args.seed,
                                                 workdir / "inputs", args.instances)
    problems.compute_references()
    tally = Tally()
    if args.trace:
        metrics, samples, detail = traced_run(args, workload, problems, env, scratch, tally)
    else:
        metrics, samples, detail = untraced_run(args, workload, problems, env, scratch, tally)
        samples["setup_s"] = describe(setup)
        metrics["setup_s"] = (samples["setup_s"]["median"], "s")
    known = (known_failure_probe(problems, env, scratch)
             if args.workload == "cli" and not args.trace else None)

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted((k, u) for k, (_, u) in metrics.items()):
        missing = sorted(set(declared) ^ {(k, u) for k, (_, u) in metrics.items()})
        print(f"error: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 1

    error_rate = tally.failed / tally.attempted if tally.attempted else 0.0
    stamp = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "seed": args.seed, "holdout_seed": workloads.derived_seed(args.seed, "holdout"),
        "environment": environment(workloads),
        "inputs": workload.input_properties(),
        "error_rate": error_rate, "failures": tally.failures[:20],
        "samples": samples, "detail": detail, "known_failure": known,
        "cli_references": [{"command": " ".join([r.args[0], Path(r.args[1]).name]),
                            "exit": r.code, "stdout_sha256": r.stdout_sha256}
                           for r in problems.references],
    }
    order = [name for name, _ in declared] if declared else sorted(metrics)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  error_rate {error_rate:g}")
    for name in order:
        value, unit = metrics[name]
        spread = samples.get(name)
        extra = "" if not spread else "  " + " ".join(
            f"{k}={v:.6g}" for k, v in spread.items() if k != "median")
        print(f"  {name:<40} {value:>14.6g} {unit}{extra}")
    if known:
        print(f"  known failure: {json.dumps(known['runs'])}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                                  for name in order}}))
    return 0


def setup_probe(args, workdir: Path) -> int:
    started = time.perf_counter()
    import workloads

    workloads.make_workload(args.workload, args.seed, workdir / "inputs", args.instances)
    print(repr(time.perf_counter() - started))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "setvi" / "__init__.py").is_file():
        print(f"error: no setvi package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        return setup_probe(args, workdir) if args.setup_probe else run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
