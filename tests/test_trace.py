"""The benchmark's trace instrumentation still binds to the library."""

import importlib.util
import inspect
from pathlib import Path

from consultrank import model as M

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_trace_patches_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = M.cai_forward
    with spans.instrumented(spans.Recorder("t")):
        assert M.cai_forward is not original
    assert M.cai_forward is original
    # the recorder reads len(actions) from the third positional argument
    assert list(inspect.signature(M.cai_forward).parameters)[2] == "actions"
