"""The benchmark's per-layer tracer must keep finding what it wraps.

``perfbench/tracer.py`` looks up every ``TARGETS`` entry with ``getattr``
on entering its ``with`` block, so a renamed or deleted function breaks the
traced pass of the benchmark.  It is loaded from its file; nothing under
``perfbench/`` is written.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from setvi.cli import main
from test_cli import QUAD_DOC, _write

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_setvi_function(tracer):
    for mod, fn in tracer.TARGETS:
        module = importlib.import_module(f"setvi.{mod}")
        assert callable(getattr(module, fn, None)), f"setvi.{mod}.{fn}"


def test_traced_chain_renders_the_untraced_bytes(tracer, tmp_path, capsys):
    path = _write(tmp_path, "quad", QUAD_DOC)
    assert main(["chain", path, "--output", "json"]) == 0
    untraced = capsys.readouterr().out
    with tracer.Tracer() as t:
        assert main(["chain", path, "--output", "json"]) == 0
    assert capsys.readouterr().out == untraced
    metrics = t.metrics()
    # the command runs its chains in one theorem_chains call, which is not
    # a target; the one survey it makes is
    assert metrics["vi.theorem_chain.calls"][0] == 0
    assert metrics["vi._radial_survey.calls"][0] == 1
    assert metrics["report.render_json.calls"][0] == 1
