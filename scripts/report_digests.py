#!/usr/bin/env python3
"""Print the exit code, size and sha256 of every command's JSON report.

For each problem file every ``setvi`` command runs in-process with
``--output json``: ``chain`` (also with ``--vi-domain dom``),
``minimality``, ``vi`` of all four kinds, ``relations`` between the first
and the last domain sample, ``convexity``, and ``mvt`` on the ray from the
first base point (or the first sample) to the last sample.  Each
``--suite SEED:N`` adds ``setvi suite`` with N instances at SEED.  One line
is printed per run:

    <command line> <exit code> <bytes> <sha256>

A run that raises instead of exiting prints ``crash:<exception type>`` as
its exit code.  The command line carries each problem path exactly as it
was typed, so both sides of a comparison must be given the same relative
paths, run from a checkout root: with absolute paths on one side every
problem line differs although no report byte moved.  Two checkouts that
print the same lines wrote byte-identical reports with the same exit
codes, so a change meant to keep behaviour is checked by saving the
parent's lines and diffing against them; ``diff`` exits 1 and prints
the lines that differ:

    PYTHONPATH=<parent>/src python3 scripts/report_digests.py P... --suite 5:30 >parent.txt
    PYTHONPATH=src python3 scripts/report_digests.py P... --suite 5:30 | diff parent.txt -

The problem set for this is ``scripts/digest_problems/*.json``.
"""

import argparse
import contextlib
import hashlib
import io

from setvi.cli import main as setvi_main
from setvi.setmap import load_problem


def _point(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def problem_commands(path: str) -> list[list[str]]:
    problem = load_problem(path)
    domain = problem.map.domain
    x0 = problem.base_points[0] if problem.base_points.shape[0] else domain[0]
    return [
        ["chain", path],
        ["chain", path, "--vi-domain", "dom"],
        ["minimality", path],
        *(["vi", path, "--kind", kind] for kind in ("mvi", "svi", "mvi2", "svi2")),
        ["relations", path, "--a", "0", "--b", str(domain.shape[0] - 1)],
        ["convexity", path],
        ["mvt", path, f"--ray={_point(x0)};{_point(domain[-1])}"],
    ]


def suite_command(spec: str) -> list[str]:
    seed, instances = spec.split(":")
    return ["suite", "--seed", str(int(seed)), "--instances", str(int(instances))]


def digest_line(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(setvi_main([*argv, "--output", "json"]))
        except Exception as exc:  # a crash is a result to compare, not a stop
            code = f"crash:{type(exc).__name__}"
    data = out.getvalue().encode("utf-8")
    return f"{' '.join(argv)} {code} {len(data)} {hashlib.sha256(data).hexdigest()}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("problems", nargs="*", help="problem JSON files")
    parser.add_argument("--suite", action="append", default=[], metavar="SEED:N",
                        help="also digest the suite report of N instances at SEED")
    args = parser.parse_args()
    runs = [argv for path in args.problems for argv in problem_commands(path)]
    runs += [suite_command(spec) for spec in args.suite]
    for argv in runs:
        print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
