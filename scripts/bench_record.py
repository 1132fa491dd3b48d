#!/usr/bin/env python3
"""Run the benchmark on two or more checkouts and write a BENCH_<n>.json file.

Each of two or more ``--side NAME=DIR`` names a checkout (a directory
holding ``perfbench/run.py`` and ``src/setvi``).  For every workload and
every seed (default 101-110) the sides run
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
(default N = 12) from their own root, one after the other, and the order
of the sides alternates from one seed to the next.  The output file holds,
per run, the workload, side, seed, position in its pair, the ``stamp:``
line and the last-line JSON result, and per workload and side the repeat
count and the median and quartiles of every end-to-end metric.  Each side
after the first also gets, per metric, the number of pairs in which it read
better than the first side, "better" as ``BENCHMARK.json`` defines it.  A
parent/change comparison:

    python3 scripts/bench_record.py --out BENCH_N.json \\
        --side parent=PARENT_CHECKOUT --side change=.

Each side's summary also records the ``cpus_usable`` its stamps report.

Exits 1 when any run failed an operation or reported wrong output, and
stops with exit 1, writing nothing, when two sides' ``stamp:`` lines carry
the same ``src_sha256``: such a file would compare a program with itself.
It stops the same way when two runs' stamps report different
``cpus_usable``: the suite runs on every usable CPU, so such runs measure
different budgets, not different programs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "clouds", "cli")


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _side(text: str) -> tuple[str, Path]:
    name, sep, where = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"--side takes NAME=DIR, not {text!r}")
    path = Path(where).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{where} holds no perfbench/run.py")
    return name, path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its stamp and last-line result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    stamps = [line[len("stamp: "):] for line in lines if line.startswith("stamp: ")]
    if proc.returncode != 0 or not lines or not stamps:
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"stamp": json.loads(stamps[-1]), "result": json.loads(lines[-1])}


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], sides: list[str], better: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        values = {side: {} for side in sides}
        for r in mine:
            for metric, entry in r["result"]["metrics"].items():
                values[r["side"]].setdefault(metric, {})[r["seed"]] = entry["value"]
        entry = {}
        for side in sides:
            stamps = [r["stamp"] for r in mine if r["side"] == side]
            entry[side] = {"repeats": len(stamps),
                           # main refuses runs whose budgets differ
                           "cpus_usable": stamps[0]["environment"].get("cpus_usable"),
                           "failed": sum(r["result"]["failed"] for r in mine
                                         if r["side"] == side),
                           "attempted": sum(r["result"]["attempted"] for r in mine
                                            if r["side"] == side),
                           "metrics": {m: _quartiles(list(v.values()))
                                       for m, v in values[side].items()}}
        base = sides[0]
        for side in sides[1:]:
            wins = {}
            for metric, by_seed in values[side].items():
                sign = 1.0 if better.get(metric) == "higher" else -1.0
                pairs = [(by_seed[s], values[base][metric][s]) for s in by_seed
                         if s in values[base].get(metric, {})]
                wins[metric] = {"pairs": len(pairs),
                                "better": sum(sign * (a - b) > 0 for a, b in pairs)}
            entry[side][f"better_than_{base}"] = wins
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--side", action="append", type=_side, dest="sides", default=[],
                        help="NAME=DIR of a checkout to measure (two or more)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("101-110"),
                        help="e.g. 101-110 (the default) or 1,5,9")
    parser.add_argument("--seconds", type=float, default=12.0)
    args = parser.parse_args(argv)
    sides = args.sides
    if len(sides) < 2 or len({name for name, _ in sides}) != len(sides):
        parser.error("give two or more --side checkouts with different names")
    if len(args.seeds) < 2:
        parser.error("give two or more seeds")

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    ok = True
    sources, budgets = {}, set()
    for workload in WORKLOADS:
        for k, seed in enumerate(args.seeds):
            order = sides if k % 2 == 0 else sides[::-1]
            for position, (name, root) in enumerate(order):
                started = time.perf_counter()
                run = run_once(root, workload, seed, args.seconds)
                sources[name] = run["stamp"]["environment"]["src_sha256"]
                twins = [other for other, sha in sources.items()
                         if other != name and sha == sources[name]]
                if twins:
                    print(f"error: sides {twins[0]} and {name} run the same source "
                          f"(src_sha256 {sources[name]})", file=sys.stderr)
                    return 1
                budgets.add(run["stamp"]["environment"].get("cpus_usable"))
                if len(budgets) > 1:
                    print("error: runs report different cpus_usable "
                          f"({', '.join(map(str, budgets))})", file=sys.stderr)
                    return 1
                res = run["result"]
                ok &= bool(res["correct"]) and res["failed"] == 0
                runs.append({"workload": workload, "side": name, "seed": seed,
                             "position": position, **run})
                value = res["metrics"]["chains_per_s"]["value"]
                print(f"{workload} seed {seed} {name}: chains_per_s {value:.4g}, "
                      f"{res['failed']}/{res['attempted']} failed, "
                      f"{time.perf_counter() - started:.0f} s", flush=True)
    doc = {"command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {args.seconds:g} --trace 0",
           "sides": [name for name, _ in sides], "seeds": args.seeds,
           "summary": summarize(runs, [name for name, _ in sides], better), "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
