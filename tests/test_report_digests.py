"""The byte rule as a test: every command of ``scripts/report_digests.py``
on ``scripts/digest_problems/*.json`` with ``--suite 5:30 --suite 9:30``
must print the exit code, size and sha256 pinned in ``report_digests.txt``.

Criterion 8 pins the golden suite report besides.
"""

import glob
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).with_name("report_digests.txt")
SUITES = ("5:30", "9:30")
REGENERATE = ("PYTHONPATH=src python3 scripts/report_digests.py scripts/digest_problems/*.json "
              "--suite 5:30 --suite 9:30 > tests/report_digests.txt")


def _digests_module():
    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "scripts" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_problem_reports_keep_their_pinned_bytes(monkeypatch):
    digests = _digests_module()
    monkeypatch.chdir(ROOT)  # the pinned command lines name relative paths
    runs = [argv for path in sorted(glob.glob("scripts/digest_problems/*.json"))
            for argv in digests.problem_commands(path)]
    runs += [digests.suite_command(spec) for spec in SUITES]
    got = sorted(digests.digest_line(argv) for argv in runs)
    want = sorted(PINNED.read_text(encoding="utf-8").splitlines())
    changed = sorted(set(got) ^ set(want))
    assert got == want, (
        f"{len(set(want) - set(got))} pinned lines changed; old and new lines:\n"
        + "\n".join(changed)
        + "\nIf the change is meant to move report bytes, re-pin them with\n    "
        + REGENERATE)
