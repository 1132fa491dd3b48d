#!/usr/bin/env python3
"""Which traffic reaches each statement of ``src/setvi``: a line census.

Answers the review question "which workload takes this path?" in one run.
Two phases run in this process under ``sys.settrace``, which records every
executed line of the ``setvi`` package:

* ``workloads``: one round of each benchmark workload's in-process
  operation, built by ``perfbench/workloads.py`` (imported, never
  written): a ``suite`` round, four ``clouds`` chains and the ``cli``
  reference commands.  The import of ``setvi`` counts here too, so
  module-level statements are covered.
* ``digests``: every command that ``scripts/report_digests.py`` runs on
  ``scripts/digest_problems/*.json``, and one 30-instance suite.

``suite._usable_cpus`` is forced to 1 in both phases, so no suite chunk
runs in a forked child, which the trace would not see.

Per module it prints the statements that neither phase ran and those that
only the digest phase ran, each with its enclosing function, then the
totals.  Docstrings, ``def`` and ``class`` headers, and imports are left
out, and so is a ``try`` header (its body is counted).  The cli problem
files go to a temporary directory.  It takes about a minute:

    PYTHONPATH=src python3 scripts/traffic_census.py
"""

import ast
import contextlib
import glob
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the workload seed of perfbench/run.py's usage line
SUITE_CHECK = "5:30"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Try)


def statements(path: str) -> dict:
    """{line: (enclosing function, first source line)} of the counted statements."""
    source = Path(path).read_text(encoding="utf-8")
    lines = source.splitlines()
    found = {}

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}" if where else child.name
            if isinstance(child, ast.stmt) and not isinstance(child, SKIPPED) and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                found.setdefault(child.lineno, (where or "<module>",
                                                lines[child.lineno - 1].strip()))
            walk(child, inner)

    walk(ast.parse(source), "")
    return found


class LineTrace:
    """The (file, line) pairs executed in one directory, per phase."""

    def __init__(self, directory: str):
        self.directory = directory + os.sep
        self.hits = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.directory):
            return self._local
        return None

    @contextlib.contextmanager
    def phase(self):
        self.hits = set()
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def run_workloads(tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from setvi import suite

    suite._usable_cpus = lambda: 1  # for both phases: a forked chunk is not traced
    workloads.SuiteWorkload(SEED).unit(0)
    clouds = workloads.CloudsWorkload(SEED)
    for i in range(4):
        clouds.unit(i)
    workloads.CliProblems(SEED, tmp / "problems").compute_references()


def run_digests() -> None:
    sys.path.insert(0, str(ROOT / "scripts"))
    import report_digests

    problems = sorted(glob.glob(str(ROOT / "scripts" / "digest_problems" / "*.json")))
    runs = [argv for path in problems for argv in report_digests.problem_commands(path)]
    for argv in runs + [report_digests.suite_command(SUITE_CHECK)]:
        report_digests.digest_line(argv)


def main() -> int:
    package = os.path.dirname(importlib.util.find_spec("setvi").origin)
    trace = LineTrace(package)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        with trace.phase():
            run_workloads(Path(tmp))
        workload_hits = trace.hits
        with trace.phase():
            run_digests()
        digest_hits = trace.hits
    totals = {"statements": 0, "never": 0, "digest only": 0}
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        counted = statements(path)
        never = [line for line in counted
                 if (path, line) not in workload_hits and (path, line) not in digest_hits]
        digest_only = [line for line in counted
                       if (path, line) in digest_hits and (path, line) not in workload_hits]
        totals["statements"] += len(counted)
        totals["never"] += len(never)
        totals["digest only"] += len(digest_only)
        print(f"{os.path.basename(path)}: {len(counted)} statements, {len(never)} never run, "
              f"{len(digest_only)} run only by the digests")
        for label, lines in (("never", never), ("digest only", digest_only)):
            for line in sorted(lines):
                where, text = counted[line]
                print(f"  {label:<11} {line:>4}  {where}: {text[:72]}")
    print(f"total: {totals['statements']} statements, {totals['never']} never run, "
          f"{totals['digest only']} run only by the digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
