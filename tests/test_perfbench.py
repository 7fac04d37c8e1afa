import importlib.util
from pathlib import Path

import cncut.bench  # noqa: F401  imported by the benchmark's workloads before tracing

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_finds_every_traced_function():
    # Tracer() looks up each traced cncut function by name, so renaming one
    # breaks `perfbench/run.py --trace 1`; this test fails first.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.Tracer()
