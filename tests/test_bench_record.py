"""``scripts/bench_record.py`` refuses to compare a program with itself."""

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


@pytest.mark.parametrize("same_source", [True, False])
def test_sides_must_run_different_sources(monkeypatch, tmp_path, same_source):
    bench = _bench_record()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")

    def fake_run(root, workload, seed, seconds):
        sha = "0" * 64 if same_source else root.name * 10
        result = {"correct": True, "failed": 0, "attempted": 1,
                  "metrics": {"chains_per_s": {"value": 1.0, "unit": "1/s"}}}
        return {"stamp": {"environment": {"src_sha256": sha}}, "result": result}

    monkeypatch.setattr(bench, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    code = bench.main(["--out", str(out), "--side", f"parent={tmp_path / 'parent'}",
                       "--side", f"change={tmp_path / 'change'}", "--seeds", "1-2"])
    if same_source:
        assert code == 1 and not out.exists()
    else:
        assert code == 0
        assert json.loads(out.read_text())["sides"] == ["parent", "change"]
