"""BENCHMARK.json lists exactly the workloads and metrics the runner reports.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import run


def test_benchmark_json_names_every_metric_the_runner_prints():
    import run

    doc = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    workloads = run.make_workloads()
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in workloads]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_catalogue(workloads)
