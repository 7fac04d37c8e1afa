import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_traced_function():
    # Tracer() looks up each traced cncut function by name in its loaded
    # module, so renaming one, or no longer loading its module, breaks
    # `perfbench/run.py --trace 1`; this test fails first. It runs in a fresh
    # interpreter with exactly the cncut imports of run.py and workloads.py,
    # because in this process earlier tests may have loaded every module.
    code = (
        "from cncut import bench, graph, harness, instance_io\n"
        "import tracer\n"
        "import workloads\n"
        "tracer.Tracer()\n"
    )
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
