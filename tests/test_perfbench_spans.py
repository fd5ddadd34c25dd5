"""The benchmark's tracer wraps avsol functions by name. Installing it here
makes a deleted or renamed name fail in the unit suite, not only when the
benchmark runs. Nothing under perfbench/ is changed."""
import importlib.util
from pathlib import Path

import avsol
import avsol.cli  # noqa: F401  (loads every module the tracer wraps)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()
    originals = (avsol.tensor.bce_loss, avsol.tensor.backward,
                 avsol.dnm.DnmModel.__dict__["local_normalize"], avsol.dnm.multitask_loss)
    tracer = spans.Tracer()
    try:  # a failed install still leaves its earlier patches to undo
        spans.install(tracer, avsol)
        assert avsol.tensor.bce_loss is not originals[0]
        assert avsol.dnm.multitask_loss is not originals[3]
    finally:
        tracer.uninstall()
    assert (avsol.tensor.bce_loss, avsol.tensor.backward,
            avsol.dnm.DnmModel.__dict__["local_normalize"], avsol.dnm.multitask_loss) == originals
