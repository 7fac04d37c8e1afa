import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}


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
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_tracer_sees_the_tables_of_an_early_no():
    # dp-wx stops at its first empty table, and its gain shows in the
    # treewidth_dp.tables_ms span and the treewidth_dp.structs count; a run
    # that stops early must still record both.
    code = (
        "import json, random\n"
        "from cncut import bench, graph, harness, instance_io\n"
        "from cncut.families import random_graph\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "inst = instance_io.CncInstance(random_graph(30, 33, random.Random(1)), 3, 8)\n"
        "t.install()\n"
        "try:\n"
        "    report = harness.run_instance(inst)\n"
        "finally:\n"
        "    t.uninstall()\n"
        "print(json.dumps({'report': report.to_dict(), 'counters': t.counters,\n"
        "                  'spans': sorted({t.quals[i] for i in t.span_name}),\n"
        "                  'tables_ms': t.layer_ms()['treewidth_dp.tables_ms']}))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    report, stats = found["report"], found["report"]["stats"]
    assert (report["algorithm"], report["answer"]) == ("dp-wx", "NO")
    assert 0 < stats["tables_built"] < stats["node_count"]
    assert "treewidth_dp.compute_tables" in found["spans"]
    assert found["tables_ms"] > 0
    assert found["counters"]["treewidth_dp.structs"] == stats["total_structs"] > 0
