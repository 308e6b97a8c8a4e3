"""BENCHMARK.json declares exactly the workloads and metrics perfbench/run.py
reports: same names, same units; and every function perfbench's tracer wraps
or its source names exists.  perfbench's modules are imported by path;
nothing is benchmarked."""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import hatt

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_json_matches_the_harness():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = load("run")
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == table, key
        assert len(declared[key]) == len(table), f"{key} names a metric twice"


def test_traced_names_resolve():
    # `--trace 1` wraps each name in place; one that hatt no longer defines
    # stops the run at install
    tracing = load("tracing")
    names = [(tracing._resolve(hatt, path), attr) for path, attr, _ in tracing.WRAPPED]
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracing.Tracer()
    try:
        tracer.install(hatt)
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, originals))
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, originals))


def test_perfbench_package_paths_resolve():
    # every `hatt.<module>.<name>` that perfbench's source spells out, traced
    # or not (selftest draws sketches with recompress._draw_sketch_tensor),
    # must exist, or a deletion stops the benchmark before any test fails
    paths = set()
    for source in sorted((ROOT / "perfbench").glob("*.py")):
        paths.update(re.findall(r"\bhatt\.(\w+)\.(\w+)", source.read_text()))
    assert len(paths) >= 18, sorted(paths)
    missing = [f"hatt.{module}.{name}" for module, name in sorted(paths)
               if not hasattr(importlib.import_module(f"hatt.{module}"), name)]
    assert not missing, missing
