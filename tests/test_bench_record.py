"""``scripts/bench_record.py`` refuses to compare a program with itself, or
runs made on different CPU budgets."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(monkeypatch, tmp_path, sha, cpus):
    """Run main on two fake checkouts whose runs report ``sha(side)`` and
    ``cpus(side, seed)``: its exit code and the file it wrote, if any."""
    bench = _bench_record()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")

    def fake_run(root, workload, seed, seconds):
        result = {"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {"chains_per_s": {"value": 1.0, "unit": "1/s"}}}
        environment = {"src_sha256": sha(root.name), "cpus_usable": cpus(root.name, seed)}
        return {"stamp": {"environment": environment}, "result": result}

    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    code = bench.main(["--out", str(out), "--side", f"parent={tmp_path / 'parent'}",
                       "--side", f"change={tmp_path / 'change'}", "--seeds", "1-2"])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("same_source", [True, False])
def test_sides_must_run_different_sources(monkeypatch, tmp_path, same_source):
    code, doc = _record(monkeypatch, tmp_path,
                        lambda side: "0" * 64 if same_source else side * 10,
                        lambda side, seed: 2)
    if same_source:
        assert code == 1 and doc is None
    else:
        assert code == 0
        assert doc["sides"] == ["parent", "change"]
        assert {doc["summary"][w][side]["cpus_usable"]
                for w in doc["summary"] for side in doc["sides"]} == {2}


@pytest.mark.parametrize("cpus", [
    lambda side, seed: 2 if side == "parent" else 4,   # the sides differ
    lambda side, seed: 1 + seed,                       # one side's runs differ
])
def test_runs_must_report_one_cpu_budget(monkeypatch, tmp_path, cpus, capsys):
    code, doc = _record(monkeypatch, tmp_path, lambda side: side * 10, cpus)
    assert code == 1 and doc is None
    assert "different cpus_usable" in capsys.readouterr().err
