"""The call boundaries perfbench/tracer.py wraps must exist in the package.

The tracer reports a renamed or removed boundary as absent and silently
drops the layer metrics read from it; this test turns that into a failure.
It loads the tracer from the checkout and does not modify it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_boundary_exists_and_is_restored():
    tracer_module = _load_tracer()
    mle = importlib.import_module("gtsfit.mle")
    frft = importlib.import_module("gtsfit.frft")
    before = (mle._field_batch, frft.grad_psi, frft.hess_psi, frft.frft)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer.absent == []
        assert mle._field_batch is not before[0]
        assert mle._field_batch.__wrapped__ is before[0]
    finally:
        tracer.uninstall()
    assert (mle._field_batch, frft.grad_psi, frft.hess_psi, frft.frft) == before
