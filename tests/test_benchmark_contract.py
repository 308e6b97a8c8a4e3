"""BENCHMARK.json declares exactly the workloads and metrics perfbench/run.py
reports: same names, same units.  run.py is imported by path; nothing runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = load_run()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == table, key
        assert len(declared[key]) == len(table), f"{key} names a metric twice"
