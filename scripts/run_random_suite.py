#!/usr/bin/env python3
"""Run the randomized theorem-chain suite and write its JSON report."""

import argparse
from pathlib import Path

from setvi import render_json
from setvi.suite import run_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instances", type=int, default=200)
    parser.add_argument("--out", default="suite_report.json")
    args = parser.parse_args()

    report = run_suite(seed=args.seed, instances=args.instances)
    summary = report["summary"]
    print(f"instances: {report['instance_count']}")
    print(f"implication statuses: {summary['implication_statuses']}")
    print(f"violated: {len(summary['violated'])}, "
          f"replay failures: {len(summary['replay_failures'])}")
    Path(args.out).write_text(render_json(report), encoding="utf-8")
    print(f"wrote {args.out}")
    return 1 if summary["violated"] or summary["replay_failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
