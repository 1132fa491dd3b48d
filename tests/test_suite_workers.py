"""The suite's instances shared among forked processes against one process.

``run_suite`` splits its instance indices into contiguous chunks of
ceil(instances / shares), one share per usable CPU, and forked children run
every chunk but the first.  The report must not depend on the number of
shares, a failing instance must raise what a serial loop raises first, and
no child may outlive the run.  The private ``suite._usable_cpus`` seam sets
the number of shares.
"""

import multiprocessing
import sys

import pytest

from setvi.cli import main
from setvi.errors import BasePointOutsideDomain, InternalCheckError
from setvi.report import render_json
from setvi.suite import run_suite

suite = sys.modules["setvi.suite"]


def _with_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)


def _plant(monkeypatch, failures: dict) -> None:
    """Make the instances at the keys of ``failures`` raise their values."""
    original = suite.run_instance

    def planted(spec, settings):
        if spec["index"] in failures:
            raise failures[spec["index"]]
        return original(spec, settings)

    monkeypatch.setattr(suite, "run_instance", planted)


@pytest.mark.parametrize("seed", [5, 9])
def test_every_share_count_renders_the_serial_bytes(monkeypatch, seed):
    rendered = []
    for cpus in (1, 2, 3):
        _with_cpus(monkeypatch, cpus)
        rendered.append(render_json(run_suite(seed=seed, instances=30)))
        assert multiprocessing.active_children() == []
    assert rendered[1] == rendered[0] and rendered[2] == rendered[0]


def test_a_prefix_run_on_shares_renders_the_serial_instances(monkeypatch):
    _with_cpus(monkeypatch, 1)
    serial = run_suite(seed=5, instances=30)["instances"]
    # fewer instances than CPUs take a chunk of one instance each
    for cpus, prefix in ((2, 7), (3, 11), (3, 2), (2, 1)):
        _with_cpus(monkeypatch, cpus)
        short = run_suite(seed=5, instances=prefix)["instances"]
        assert render_json(short) == render_json(serial[:prefix])


# on 8 instances and two shares the chunks are 0-3 (the parent's) and 4-7;
# on 9 instances and three shares they are 0-2 (the parent's), 3-5 and 6-8
_FAILURES = {
    "8-parent-3-child-4": (8, {4: InternalCheckError, 3: BasePointOutsideDomain}),
    "8-parent-2-child-5": (8, {2: InternalCheckError, 5: BasePointOutsideDomain}),
    "9-child-4-child-7": (9, {4: InternalCheckError, 7: BasePointOutsideDomain}),
    "9-parent-1-child-5": (9, {5: InternalCheckError, 1: BasePointOutsideDomain}),
    "9-child-6-child-8": (9, {8: InternalCheckError, 6: BasePointOutsideDomain}),
}


@pytest.mark.parametrize("cpus, case", [
    *((cpus, case) for cpus in (1, 2) for case in _FAILURES if case.startswith("8-")),
    *((3, case) for case in _FAILURES if case.startswith("9-"))])
def test_the_lowest_failing_index_raises(monkeypatch, cpus, case):
    instances, failures = _FAILURES[case]
    _with_cpus(monkeypatch, cpus)
    _plant(monkeypatch, {i: error(f"planted at {i}") for i, error in failures.items()})
    first = min(failures)
    with pytest.raises(failures[first], match=f"^planted at {first}$"):
        run_suite(seed=5, instances=instances)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error, code", [(InternalCheckError, 4),
                                         (BasePointOutsideDomain, 2), (ValueError, 2)])
def test_the_suite_command_maps_a_child_failure_to_its_exit_code(monkeypatch, capsys,
                                                                  error, code):
    _with_cpus(monkeypatch, 2)
    _plant(monkeypatch, {1: error("planted at 1")})
    assert main(["suite", "--instances", "4", "--seed", "5"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "planted at 1" in captured.err
    assert multiprocessing.active_children() == []


def test_forked_children_inherit_a_patched_kernel(monkeypatch):
    # the stack-dependent mutant of test_vi fails replays in both chunks on two
    # shares, 0-2 in the parent and 3-5 in the child, at even and odd indices
    scalarize = sys.modules["setvi.scalarize"]
    original = scalarize.scalarize_batch

    def mutant(clouds, weights):
        out = original(clouds, weights)
        mean = out.mean()
        return (out - mean) + mean

    monkeypatch.setattr(scalarize, "scalarize_batch", mutant)
    failures = []
    for cpus in (1, 2):
        _with_cpus(monkeypatch, cpus)
        failures.append(run_suite(seed=5, instances=6)["summary"]["replay_failures"])
    assert failures[1] == failures[0]
    assert {failure["index"] % 2 for failure in failures[1]} == {0, 1}
    assert {failure["index"] // 3 for failure in failures[1]} == {0, 1}
